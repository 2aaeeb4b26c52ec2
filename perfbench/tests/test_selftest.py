"""Self-test of the benchmark: tiny instances of every workload emit every
declared metric, and a corrupted output is counted as a failed operation.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qregsim.cli
import run
import workloads
from conftest import ROOT
from qregsim.spectral import SpectralDecomposition

TINY = workloads.BathSize(n_qubits=4, n_modes=40, n_steps=401, t_max=200.0)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return [m["name"] for m in DECLARED[kind]]


def _tiny_run(name, tmp_path, trace):
    ops = workloads.build(name, tmp_path, seed=7, size=TINY)
    return run.measure(ops, seconds=0.0, trace=trace)


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_emits_every_metric(name, tmp_path):
    totals = _tiny_run(name, tmp_path, trace=True)
    assert totals.failed == 0 and totals.attempted > 0
    e2e = run.end_to_end(totals, setup_times=[0.5])
    assert list(e2e) == _names("end_to_end")
    assert all(value > 0 for value, _, _ in e2e.values())
    layers = run.per_layer(totals)
    assert sorted(set(layers) - set(run.SUMMARY_ONLY)) == sorted(_names("per_layer"))
    assert layers["spectral.diagonalize_calls"][0] >= 1
    assert layers["check.max_abs_err"][0] <= 1e-8


def test_setup_probe_times_a_fresh_interpreter():
    (sample,) = run.measure_setup(1)
    assert 0.0 < sample < 120.0


def test_corrupted_csv_value_counts_as_failure(tmp_path, monkeypatch):
    real = qregsim.cli.series_to_csv

    def one_value_off(series):
        lines = real(series).split("\n")
        row = lines[len(lines) // 2].split(",")
        row[4] = repr(float(row[4]) + 1e-6)  # the p1 column
        lines[len(lines) // 2] = ",".join(row)
        return "\n".join(lines)

    monkeypatch.setattr(qregsim.cli, "series_to_csv", one_value_off)
    totals = _tiny_run("bath_cosine", tmp_path, trace=True)
    assert totals.failed == totals.attempted == 2
    assert run.per_layer(totals)["check.fail_ratio"][0] == 1.0


def test_corrupted_eigenvalue_counts_as_failure(tmp_path, monkeypatch):
    real = qregsim.cli.diagonalize

    def one_eigenvalue_off(h):
        sd = real(h)
        evals = sd.eigenvalues.copy()
        evals[evals.size // 2] += 1e-3
        return SpectralDecomposition(evals, sd.eigenvectors)

    monkeypatch.setattr(qregsim.cli, "diagonalize", one_eigenvalue_off)
    totals = _tiny_run("bath_uniform", tmp_path, trace=False)
    # run is unaffected (it diagonalizes through qregsim.dynamics); spectrum fails
    assert (totals.attempted, totals.failed) == (2, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
