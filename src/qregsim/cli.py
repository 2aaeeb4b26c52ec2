"""Command-line interface.

Verbs:
  run <config>                 simulate one configuration, write CSV + sidecar
  preset <name> --out <dir>    run a named scenario preset into a directory
  spectrum <config>            eigenvalues (and secular roots) as CSV
  check                        run the acceptance suite

Under uniform coupling `spectrum` takes the eigenvalues from the secular
roots and the N - 1 dark states at epsilon, with no eigensolve
(`spectral.sector_energies`); any other coupling is diagonalized.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .acceptance import run_all
from .config import ConfigError, RunConfig, format_config, parse_config_file, prep_vector
from .dynamics import TimeSeries, run_time_series, series_to_csv
from .presets import PRESET_NAMES, build_preset
from .spectral import sector_energies

# perfbench/spans.py wraps these layers at their names in this module; the
# spectrum verb reaches them only through sector_energies, which those
# wrappers do not see
from .model import build_h1  # noqa: F401
from .spectral import diagonalize, secular_roots  # noqa: F401

__all__ = ["main", "run_scenario", "write_atomic"]


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a partially written file."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent or "."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_scenario(cfg: RunConfig) -> TimeSeries:
    """Execute one run: CSV to cfg.output_path, metadata sidecar beside it.

    The sidecar is itself a valid configuration echoing every resolved
    parameter, with the late-window averages recorded as comments, so parsing
    it reproduces the run.
    """
    prep = prep_vector(cfg.prep, cfg.params.shape.n_qubits)
    series = run_time_series(cfg.params, prep, cfg.grid)
    write_atomic(cfg.output_path, series_to_csv(series))
    sidecar = format_config(
        cfg,
        extra_comments=[
            "late-window averages over the final quarter of the time grid:",
            f"fidelity_mean = {series.late_fidelity_mean:.17g}",
            f"entropy_mean_bits = {series.late_entropy_mean:.17g}",
        ],
    )
    write_atomic(str(cfg.output_path) + ".meta", sidecar)
    return series


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config)
    series = run_scenario(cfg)
    print(
        f"wrote {cfg.output_path} ({len(series)} rows); late-window "
        f"Fbar = {series.late_fidelity_mean:.6f}, Sbar = {series.late_entropy_mean:.6f} bits"
    )
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    for cfg in build_preset(args.name):
        cfg = replace(cfg, output_path=str(out_dir / cfg.output_path))
        series = run_scenario(cfg)
        print(
            f"wrote {cfg.output_path}: late-window Fbar = "
            f"{series.late_fidelity_mean:.6f}, Sbar = {series.late_entropy_mean:.6f} bits"
        )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config)
    out_dir = Path(cfg.output_path)
    if out_dir.exists() and not out_dir.is_dir():
        raise ValueError(
            f"output.path must name a directory for the spectrum verb, "
            f"and {out_dir} is an existing file"
        )
    energies, roots = sector_energies(cfg.params)
    write_atomic(
        out_dir / "eigenvalues.csv",
        "".join(f"{e:.17g}\n" for e in energies),
    )
    print(f"wrote {out_dir / 'eigenvalues.csv'} ({energies.size} values)")
    if roots is not None:
        write_atomic(
            out_dir / "secular_roots.csv",
            "".join(f"{r:.17g}\n" for r in roots),
        )
        print(f"wrote {out_dir / 'secular_roots.csv'} ({roots.size} values)")
    else:
        print("secular roots skipped: the secular equation needs uniform coupling")
    return 0


def _cmd_check(_: argparse.Namespace) -> int:
    results = run_all(stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qregsim",
        description=(
            "Exact one-excitation dynamics of an N-qubit register coupled to "
            "an N_b-mode bosonic bath"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration file")
    p_run.add_argument("config", help="path to a key = value configuration file")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named scenario preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", required=True, help="output directory")
    p_preset.set_defaults(func=_cmd_preset)

    p_spec = sub.add_parser(
        "spectrum",
        help="eigenvalues and secular roots of a configuration (output.path is a directory)",
    )
    p_spec.add_argument("config", help="path to a key = value configuration file")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
