"""Dense Hermitian eigendecomposition and the secular-equation spectrum.

Two independent routes to the same physics. `diagonalize` wraps a dense
Hermitian eigensolver and enforces the residual/orthonormality contract.
`secular_roots` solves, by one vectorized bisection over the intervals
between the pole frequencies, the rational secular equation

    P(E) = E - epsilon - N * sum_k |g_k|^2 / (E - omega_k) = 0

whose N_b + 1 zeros are the eigenvalues of the symmetric (permutation-
invariant) sector under qubit-independent coupling; the two routes are
cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, UniformCoupling, mode_frequencies

__all__ = [
    "DiagonalizationError",
    "SpectralDecomposition",
    "diagonalize",
    "secular_function",
    "secular_roots",
]

#: widths below max(1, |E|) * this factor end a bisection
_ROOT_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-10


class DiagonalizationError(RuntimeError):
    """Eigensolver failed to converge or violated its accuracy contract."""


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` are real and nondecreasing; column i of ``eigenvectors``
    is the (orthonormal) eigenvector of eigenvalue i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def diagonalize(h: np.ndarray) -> SpectralDecomposition:
    """Full eigensystem of a Hermitian matrix, with contract checks.

    Deterministic: identical input bytes give identical output. Raises
    DiagonalizationError if the solver does not converge or if the residual
    ||H v - E v|| exceeds 1e-10 * max(1, ||H||_F) for any eigenpair, or the
    eigenvector Gram matrix deviates from the identity by more than 1e-10.
    The matrix keeps its dtype, so a real symmetric matrix is solved in real
    arithmetic and its eigenvectors are real.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.linalg.norm(h)))
    herm_defect = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if herm_defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")

    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver did not converge: {exc}") from exc

    residual = float(np.max(np.abs(h @ evecs - evecs * evals))) if h.size else 0.0
    if residual > _RESIDUAL_RTOL * scale:
        raise DiagonalizationError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.0e} * {scale:.3e}"
        )
    gram_defect = float(
        np.max(np.abs(evecs.conj().T @ evecs - np.eye(evals.size)))
    )
    if gram_defect > _ORTHO_TOL:
        raise DiagonalizationError(
            f"eigenvectors not orthonormal (Gram defect {gram_defect:.3e})"
        )
    return SpectralDecomposition(evals, evecs)


def _secular_weights(params: ModelParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Distinct pole frequencies, their multiplicities and the weight N |g0|^2
    that each mode contributes to P."""
    c = params.coupling
    if not isinstance(c, UniformCoupling):
        raise ValueError("the secular equation presumes qubit-independent coupling")
    poles, counts = np.unique(mode_frequencies(params), return_counts=True)
    return poles, counts, params.shape.n_qubits * abs(c.g0) ** 2


def _secular_p(
    e: np.ndarray, epsilon: float, poles: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """P(E) = E - epsilon - sum_k weights_k / (E - poles_k), over an array of E.

    The (E, pole) terms are divided in place in one e.shape + poles.shape buffer.
    """
    buf = np.subtract.outer(e, poles)
    np.divide(weights, buf, out=buf)
    return e - epsilon - buf.sum(axis=-1)


def secular_function(params: ModelParams, e: float | np.ndarray):
    """P(E) for uniform coupling; vectorized over E. Poles sit at the omega_k."""
    poles, counts, w = _secular_weights(params)
    return _secular_p(np.asarray(e, dtype=float), params.epsilon, poles, w * counts)


def secular_roots(params: ModelParams) -> np.ndarray:
    """All N_b + 1 zeros of the secular function, in ascending order.

    P rises strictly from -inf to +inf between adjacent distinct poles, so
    each such open interval holds exactly one zero; one more lies below the
    lowest pole and one above the highest. With W the total weight and
    R = sqrt(W) + 1, P(min(epsilon, omega_1) - R) < -1 and
    P(max(epsilon, omega_max) + R) > 1, which closes the two outer brackets.
    All N_b + 1 brackets are bisected at once, each to width
    1e-12 * max(1, |E|), so a midpoint never lands on a pole: a bracket
    stops long before its width shrinks to one ulp. Degenerate
    frequencies are merged into one pole of combined weight and contribute
    the frequency itself as a root with multiplicity (group size - 1); with
    zero coupling every pole cancels and the frequencies themselves are
    returned alongside epsilon.
    """
    eps = params.epsilon
    poles, counts, w = _secular_weights(params)
    # Degenerate groups keep (count - 1) roots pinned at the frequency itself.
    pinned = np.repeat(poles, counts - 1)
    if w == 0.0:
        return np.sort(np.concatenate([pinned, poles, [eps]]))

    weights = w * counts
    reach = np.sqrt(weights.sum()) + 1.0
    lo = np.concatenate([[min(eps, poles[0]) - reach], poles])
    hi = np.concatenate([poles, [max(eps, poles[-1]) + reach]])
    roots = np.empty(lo.size)
    active = np.arange(lo.size)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        done = hi - lo <= _ROOT_RTOL * np.maximum(1.0, np.abs(mid))
        roots[active[done]] = mid[done]
        active, lo, hi, mid = active[~done], lo[~done], hi[~done], mid[~done]
        if active.size == 0:
            break
        pm = _secular_p(mid, eps, poles, weights)
        lo = np.where(pm <= 0.0, mid, lo)
        hi = np.where(pm >= 0.0, mid, hi)
    roots[active] = 0.5 * (lo + hi)
    return np.sort(np.concatenate([pinned, roots]))
