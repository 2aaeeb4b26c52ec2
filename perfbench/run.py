"""Benchmark of the qregsim verbs.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

The workload's verbs run in this process through ``qregsim.cli.main``, the
code path of the ``qregsim`` command, from the sources under ``src/``. Passes
over the workload's operations repeat until ``--seconds`` have gone by, and
every output is checked against an independent reference after each pass.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
fresh interpreters importing qregsim and diagonalizing a preset-sized
matrix), the wall time of a pass and the median verb latency (medians over
passes, checks excluded), and the peak resident memory of this process.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans of the traced ones, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run's metadata and every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Printed with the other per-layer metrics but left out of the JSON result:
# on bath_cosine the secular solver never runs, so this time would read 0 on
# every run. spectral.secular_roots_calls carries the same layer as a count.
SUMMARY_ONLY = ("spectral.secular_roots_s",)

#: fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 7

# Time from interpreter start to the first preset-sized (d = 202)
# diagonalize returning: what every ``qregsim`` invocation pays before its
# verb does any work, BLAS thread-pool start-up included.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import qregsim.cli
from qregsim.model import ModelParams, UniformCoupling, build_h1
from qregsim.sector import RegisterShape
from qregsim.spectral import diagonalize
diagonalize(build_h1(ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))))
print(time.monotonic())
"""


@dataclass
class PassResult:
    wall_s: float
    op_s: list[float]
    failed: int
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)


@dataclass
class RunTotals:
    untraced: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    max_abs_err: float = 0.0
    norm_drift_max: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(p.op_s) for p in self.untraced + self.traced)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.untraced + self.traced)


def measure_setup(samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def warm_up() -> None:
    """The set-up probe's diagonalize, in this process, so that BLAS start-up
    stays out of wall_s."""
    from qregsim.model import ModelParams, UniformCoupling, build_h1
    from qregsim.sector import RegisterShape
    from qregsim.spectral import diagonalize

    diagonalize(build_h1(ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))))


def run_pass(ops, checker, totals: RunTotals, traced: bool) -> PassResult:
    import qregsim.cli
    from reference import CheckFailure
    from spans import Tracer, layer_metrics

    op_s, ok = [], []
    tracer = Tracer()
    with tracer if traced else contextlib.nullcontext():
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qregsim.cli.main(op.argv)
            except Exception:
                traceback.print_exc()
                code = None
            op_s.append(time.perf_counter() - t0)
            ok.append(code == 0)
        wall = time.perf_counter() - start

    for i, op in enumerate(ops):
        if not ok[i]:
            print(f"{' '.join(op.argv)}: the verb failed", file=sys.stderr)
            continue
        try:
            diag = checker.check(op)
        except (CheckFailure, OSError, ValueError) as exc:
            print(f"{' '.join(op.argv)}: output check failed: {exc}", file=sys.stderr)
            ok[i] = False
            continue
        totals.max_abs_err = max(totals.max_abs_err, diag.max_abs_err)
        totals.norm_drift_max = max(totals.norm_drift_max, diag.norm_drift_max)
    layers = layer_metrics(tracer.spans) if traced else {}
    return PassResult(wall, op_s, ok.count(False), layers)


def measure(ops, seconds: float, trace: bool) -> RunTotals:
    """Passes until ``seconds`` have gone by; with ``trace``, alternate an
    untraced and a traced pass, starting untraced, and do at least one each."""
    from reference import Checker

    checker = Checker(ops)
    totals = RunTotals()
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(totals.traced) < len(totals.untraced)
        result = run_pass(ops, checker, totals, traced)
        (totals.traced if traced else totals.untraced).append(result)
        if time.monotonic() >= deadline and (not trace or totals.traced):
            return totals


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qregsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_metadata(args, ops, totals: RunTotals, setup_times: list[float]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sizes = [
        {"verb": op.argv[0], "n_qubits": s.n_qubits, "n_modes": s.n_modes, "n_steps": s.n_steps}
        for op in ops for s in (op.runs or [op.spectrum])
    ]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "samples": {
            "setup_s": len(setup_times),
            "untraced_passes": len(totals.untraced),
            "traced_passes": len(totals.traced),
            "ops_per_pass": len(ops),
        },
        "pass_wall_s": {
            "untraced": [p.wall_s for p in totals.untraced],
            "traced": [p.wall_s for p in totals.traced],
        },
    }


def end_to_end(totals: RunTotals, setup_times: list[float]) -> dict[str, tuple[float, str, str]]:
    passes = totals.untraced
    n = len(passes)
    return {
        "setup_s": (median(setup_times), "s", f"median of {len(setup_times)} interpreters"),
        "wall_s": (median(p.wall_s for p in passes), "s", f"median of {n} passes"),
        # The median verb of a pass, then the median over passes: pooling all
        # verbs would put bath_uniform's median between its two verbs.
        "op_p50_s": (median(median(p.op_s) for p in passes), "s",
                     f"median over {n} passes of {len(passes[0].op_s)} verbs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                        "ru_maxrss of this process"),
    }


def per_layer(totals: RunTotals) -> dict[str, tuple[float, str, str]]:
    traced = totals.traced
    basis = f"median of {len(traced)} traced passes"
    metrics = {
        name: (median(p.layers[name][0] for p in traced), unit, basis)
        for name, (_, unit) in traced[0].layers.items()
    }
    overhead = median(p.wall_s for p in traced) - median(p.wall_s for p in totals.untraced)
    metrics["trace.overhead_s"] = (
        overhead, "s", f"traced minus untraced wall_s, {len(totals.untraced)} untraced passes"
    )
    metrics["dynamics.norm_drift_max"] = (totals.norm_drift_max, "abs", "max over checked runs")
    metrics["check.max_abs_err"] = (totals.max_abs_err, "abs", "max over checked outputs")
    metrics["check.fail_ratio"] = (
        totals.failed / totals.attempted, "ratio", f"{totals.failed} of {totals.attempted} verbs"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qregsim" / "__init__.py").is_file():
        print(f"qregsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qregsim

    if Path(qregsim.__file__).resolve().parent != SRC / "qregsim":
        print(f"imported qregsim from {qregsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup(SETUP_SAMPLES)
    warm_up()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, workdir, args.seed)
        totals = measure(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics = per_layer(totals) if args.trace else end_to_end(totals, setup_times)
    print("meta " + json.dumps(run_metadata(args, ops, totals, setup_times)))
    for name, (value, unit, basis) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({basis})")
    print(f"fail_ratio = {totals.failed}/{totals.attempted} verbs")
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items() if name not in SUMMARY_ONLY},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
