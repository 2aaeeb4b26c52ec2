"""Correctness checks of every output, against a reference built here.

The reference assembles the sparse arrowhead Hamiltonian of the
one-excitation sector from the model definition (spin energies epsilon = 1,
linear dispersion omega_k = 2 pi k / N_b, uniform or cosine couplings), with
no call into qregsim's model, spectral or dynamics code, and propagates the
preparation with ``scipy.sparse.linalg.expm_multiply`` to the checked grid
rows. qregsim is used only to parse the ``.meta`` sidecar back, which is
the property being checked there.
"""

from __future__ import annotations

import io
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from qregsim.config import ExplicitPrep, parse_config, parse_config_file

from workloads import Op, RunSpec

CSV_HEADER = "t,fidelity,entropy_bits,p0,p1,d_re,d_im"
#: agreement with the reference propagation, on F, D, p1 and p0
REFERENCE_TOL = 1e-8
#: identities between columns of one CSV row (F = |D|^2, S = H2(p1, p0))
ROW_TOL = 1e-12
#: secular roots against the dense eigenvalues
SPECTRUM_TOL = 1e-8


class CheckFailure(Exception):
    """An output differs from what the reference says it must hold."""


@dataclass
class Diagnostics:
    """Largest deviations seen over the outputs of one operation."""

    max_abs_err: float = 0.0
    norm_drift_max: float = 0.0


def _frequencies(n_modes: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, n_modes + 1) / n_modes


def _couplings(spec: RunSpec) -> np.ndarray:
    """g[k, i] for mode k and qubit i, shape (N_b, N)."""
    omega = _frequencies(spec.n_modes)
    if spec.coupling == "uniform":
        return np.full((spec.n_modes, spec.n_qubits), spec.g0)
    return spec.g0 * np.cos(np.outer(omega, np.arange(spec.n_qubits)) / spec.xi)


def arrowhead(spec: RunSpec) -> sp.csr_array:
    """Sparse one-excitation Hamiltonian over (spins 1..N, modes 1..N_b)."""
    n, nb = spec.n_qubits, spec.n_modes
    diag = np.concatenate((np.ones(n), _frequencies(nb)))
    g = _couplings(spec)
    mode, qubit = np.meshgrid(np.arange(nb), np.arange(n), indexing="ij")
    rows = np.concatenate((np.arange(n + nb), n + mode.ravel(), qubit.ravel()))
    cols = np.concatenate((np.arange(n + nb), qubit.ravel(), n + mode.ravel()))
    vals = np.concatenate((diag, g.ravel(), g.ravel()))
    return sp.csr_array((vals, (rows, cols)), shape=(n + nb, n + nb))


def reference_rows(specs: list[RunSpec]) -> list[np.ndarray]:
    """Columns (fidelity, p0, p1, d_re, d_im) of each run at its check rows.

    The runs share one time grid and one set of check rows; they are
    propagated together as one block-diagonal system.
    """
    first = specs[0]
    h = sp.block_diag([arrowhead(s) for s in specs], format="csr")
    offsets = np.cumsum([0] + [s.n_qubits + s.n_modes for s in specs])
    c = np.zeros(h.shape[0], dtype=complex)
    for spec, start in zip(specs, offsets):
        c[start : start + spec.n_qubits] = spec.amplitudes
    times = np.linspace(0.0, first.t_max, first.n_steps)
    out = [np.empty((first.check_rows.size, 5)) for _ in specs]
    t_prev = 0.0
    for j, row in enumerate(first.check_rows):
        dt = times[row] - t_prev
        if dt > 0.0:
            c = expm_multiply((-1j * dt) * h, c)
        t_prev = times[row]
        for spec, start, stop, rows in zip(specs, offsets, offsets[1:], out):
            spin = c[start : start + spec.n_qubits]
            d = np.vdot(spec.amplitudes, spin)
            p0 = np.sum(np.abs(c[start + spec.n_qubits : stop]) ** 2)
            rows[j] = (abs(d) ** 2, p0, np.sum(np.abs(spin) ** 2), d.real, d.imag)
    return out


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _binary_entropy(p1: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Entropy in bits of {p1, p0}, with 0 log 0 = 0."""
    terms = (-p * np.log2(np.clip(p, 1e-300, 1.0)) for p in (p1, p0))
    return np.maximum(sum(terms), 0.0)


def _same_run(got, want) -> bool:
    """Equal resolved runs (parsed configurations) with explicit or named preps."""
    if isinstance(want.prep, ExplicitPrep):
        same_prep = isinstance(got.prep, ExplicitPrep) and np.array_equal(
            got.prep.amplitudes, want.prep.amplitudes
        )
    else:
        same_prep = got.prep == want.prep
    a, b = got.params, want.params
    return (
        same_prep
        and a.shape == b.shape
        and a.epsilon == b.epsilon
        and a.coupling == b.coupling
        and a.dispersion == b.dispersion
        and got.grid == want.grid
        and got.output_path == want.output_path
    )


class Checker:
    """Checks the outputs of a workload's operations.

    The reference propagations are computed once, at construction, and
    reused on every pass.
    """

    def __init__(self, ops: list[Op]) -> None:
        groups: dict[tuple, list[RunSpec]] = defaultdict(list)
        for spec in (spec for op in ops for spec in op.runs):
            groups[spec.t_max, spec.n_steps, spec.check_rows.tobytes()].append(spec)
        self._reference: dict[int, np.ndarray] = {}
        for specs in groups.values():
            for spec, rows in zip(specs, reference_rows(specs)):
                self._reference[id(spec)] = rows

    def check(self, op: Op) -> Diagnostics:
        """Raise CheckFailure unless every output of ``op`` is correct."""
        diag = Diagnostics()
        for spec in op.runs:
            self._check_run(spec, diag)
        if op.spectrum is not None:
            self._check_spectrum(op.spectrum, diag)
        return diag

    def _check_run(self, spec: RunSpec, diag: Diagnostics) -> None:
        text = spec.output.read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        _require(header == CSV_HEADER, f"{spec.output.name}: header {header!r}")
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        _require(data.shape == (spec.n_steps, 7),
                 f"{spec.output.name}: {data.shape} values, expected ({spec.n_steps}, 7)")
        _require(bool(np.all(np.isfinite(data))), f"{spec.output.name}: non-finite value")
        t, fid, ent, p0, p1, d_re, d_im = data.T
        _require(np.array_equal(t, np.linspace(0.0, spec.t_max, spec.n_steps)),
                 f"{spec.output.name}: time column is not the grid")

        drift = float(np.max(np.abs(p0 + p1 - 1.0)))
        diag.norm_drift_max = max(diag.norm_drift_max, drift)
        _require(drift <= REFERENCE_TOL, f"{spec.output.name}: max|p0+p1-1| = {drift:.3e}")
        fid_err = float(np.max(np.abs(fid - np.minimum(d_re**2 + d_im**2, 1.0))))
        _require(fid_err <= ROW_TOL, f"{spec.output.name}: max|F-|D|^2| = {fid_err:.3e}")
        ent_err = float(np.max(np.abs(ent - _binary_entropy(p1, p0))))
        _require(ent_err <= ROW_TOL, f"{spec.output.name}: max|S-H2(p1,p0)| = {ent_err:.3e}")

        want = self._reference[id(spec)]
        got = data[spec.check_rows][:, [1, 3, 4, 5, 6]]
        errs = np.abs(got - want)
        d_err = np.abs((got[:, 3] - want[:, 3]) + 1j * (got[:, 4] - want[:, 4]))
        err = float(max(errs[:, :3].max(), d_err.max()))
        diag.max_abs_err = max(diag.max_abs_err, err)
        _require(err <= REFERENCE_TOL,
                 f"{spec.output.name}: differs from the reference propagation by {err:.3e}")

        meta = Path(str(spec.output) + ".meta")
        want_cfg = parse_config(spec.config_text())
        _require(_same_run(parse_config_file(meta), want_cfg),
                 f"{meta.name} does not parse back to the run")

    def _check_spectrum(self, spec: RunSpec, diag: Diagnostics) -> None:
        n, nb = spec.n_qubits, spec.n_modes
        eig = np.loadtxt(spec.output / "eigenvalues.csv", ndmin=1)
        _require(eig.shape == (n + nb,), f"{eig.size} eigenvalues, expected {n + nb}")
        _require(bool(np.all(np.isfinite(eig))), "non-finite eigenvalue")
        _require(bool(np.all(np.diff(eig) >= 0.0)), "eigenvalues are not ascending")
        omega = _frequencies(nb)
        scale = (n + nb) * max(1.0, float(np.max(np.abs(eig))))
        trace_err = abs(float(np.sum(eig)) - (n + float(np.sum(omega))))
        _require(trace_err <= 1e-12 * scale,
                 f"eigenvalues sum off the trace N*eps + sum(omega) by {trace_err:.3e}")

        # Every spectrum op has uniform coupling, so the secular roots exist.
        roots = np.loadtxt(spec.output / "secular_roots.csv", ndmin=1)
        _require(roots.shape == (nb + 1,), f"{roots.size} secular roots, expected {nb + 1}")
        # Under uniform coupling the N - 1 spin states orthogonal to the
        # symmetric one decouple at E = epsilon; the secular roots are the rest.
        expected = np.sort(np.concatenate((roots, np.ones(n - 1))))
        err = float(np.max(np.abs(eig - expected)))
        diag.max_abs_err = max(diag.max_abs_err, err)
        _require(err <= SPECTRUM_TOL,
                 f"secular roots and eigenvalues differ by up to {err:.3e}")
