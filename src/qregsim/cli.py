"""Command-line interface.

Verbs:
  run <config>                 simulate one configuration, write CSV + sidecar
  preset <name> --out <dir>    run a named scenario preset into a directory
  spectrum <config>            eigenvalues (and secular roots) as CSV
  check                        run the acceptance suite

`run`, `preset` and `spectrum` take their spectrum from
`dynamics._reduced_spectrum`, whose docstring describes its routes, `run`
through `run_time_series`, `preset` through `run_preparations` once per
model and `spectrum` through `spin_spectrum`; `spectrum` writes its energies,
ascending, and for a coupling of rank at most one (uniform coupling among
others) the N_b + 1 roots of its secular equation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import acceptance
from .config import ConfigError, RunConfig, format_config, parse_config_file, prep_vector
from .csvformat import format_rows
from .dynamics import TimeSeries, run_preparations, run_time_series, series_to_csv, spin_spectrum
from .presets import PRESET_NAMES, build_preset

# perfbench/spans.py wraps these layers at their names in this module; the
# spectrum verb reaches them only through spin_spectrum, which those
# wrappers do not see
from .model import build_h1  # noqa: F401
from .spectral import diagonalize, secular_roots  # noqa: F401

__all__ = ["main", "run_scenario", "write_atomic"]


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a partially written file. The file gets the mode that open(path, "w")
    would give it, 0666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    _write_run(cfg, series)
    return series


def _write_run(cfg: RunConfig, series: TimeSeries) -> None:
    """Write a finished run's CSV and its sidecar (see run_scenario): three
    comment lines with the late-window averages, then format_config(cfg)."""
    write_atomic(cfg.output_path, series_to_csv(series))
    comments = (
        "# late-window averages over the final quarter of the time grid:\n"
        f"# fidelity_mean = {series.late_fidelity_mean:.17g}\n"
        f"# entropy_mean_bits = {series.late_entropy_mean:.17g}\n"
    )
    write_atomic(str(cfg.output_path) + ".meta", comments + format_config(cfg))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config_file(args.config)
    series = run_scenario(cfg)
    print(
        f"wrote {cfg.output_path} ({len(series)} rows); late-window "
        f"Fbar = {series.late_fidelity_mean:.6f}, Sbar = {series.late_entropy_mean:.6f} bits"
    )
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    # each group of runs shares one model and one grid, and is evolved from
    # one spectrum; each run is written as run_scenario writes it
    out_dir = Path(args.out)
    for group in build_preset(args.name):
        group = [replace(cfg, output_path=str(out_dir / cfg.output_path)) for cfg in group]
        params, grid = group[0].params, group[0].grid
        preps = [prep_vector(cfg.prep, params.shape.n_qubits) for cfg in group]
        for cfg, series in zip(group, run_preparations(params, preps, grid)):
            _write_run(cfg, series)
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
    energies, _, roots = spin_spectrum(cfg.params)
    write_atomic(out_dir / "eigenvalues.csv", format_rows(energies[:, None]))
    print(f"wrote {out_dir / 'eigenvalues.csv'} ({energies.size} values)")
    if roots is not None:
        write_atomic(out_dir / "secular_roots.csv", format_rows(roots[:, None]))
        print(f"wrote {out_dir / 'secular_roots.csv'} ({roots.size} values)")
    else:
        print(
            "secular roots skipped: the secular route did not serve this model "
            "(a coupling of rank two or more, or a refused check)"
        )
    return 0


def _cmd_check(_: argparse.Namespace) -> int:
    results = []
    for criterion in acceptance.ALL_CRITERIA:
        results.append(acceptance.CriterionResult.timed(*criterion))
        print(results[-1])
    passed = sum(result.passed for result in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


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
