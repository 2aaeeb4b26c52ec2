"""Dense Hermitian eigendecomposition, the dense spectrum without
eigenvectors, and the secular-equation spectrum.

Three routes to the same physics; `dynamics.spin_spectrum` picks one per
model and describes each. `diagonalize` wraps a dense Hermitian eigensolver
and enforces the residual/orthonormality contract; it is the reference the
tests and the acceptance criteria compare against, and the fallback of the
closed form. `closed_form_spectrum` takes the energies from
`np.linalg.eigvalsh` and the spin rows of the eigenvectors from an N x N
self-energy problem per energy, never forming the d x d eigenvector matrix,
and certifies its result or raises. Under qubit-independent (uniform)
coupling, the test `uses_secular_route`, the symmetric sector's N_b + 1
energies are the zeros of the rational secular equation

    P(E) = E - epsilon - N * sum_k |g_k|^2 / (E - omega_k) = 0

(and the pinned energies of repeated frequencies). `symmetric_spectrum`
returns them with the weights w_j = 1 / P'(E_j) of the symmetric spin state,
from one safeguarded rational iteration (R.-C. Li's middle way, the method
of LAPACK dlaed4) that holds each zero as an offset from its nearer pole
(Gu & Eisenstat's stable reconstruction), in row chunks that bound the
(zeros x poles) work buffers. All three routes are cross-checked in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, UniformCoupling, mode_frequencies

__all__ = [
    "DiagonalizationError",
    "SpectralDecomposition",
    "closed_form_spectrum",
    "diagonalize",
    "secular_roots",
    "symmetric_spectrum",
    "uses_secular_route",
]

#: a (zeros x poles) work buffer of the secular iteration holds about this
#: many entries (512 KiB, so that a chunk's buffers stay in cache) and at
#: least this many rows (so that a large bath does not pay Python overhead
#: per handful of roots)
_CHUNK_ELEMENTS = 1 << 16
_CHUNK_ROWS = 64
#: rational steps before a bracket is only bisected, and the cap on all steps
_MODEL_STEPS = 30
_MAX_STEPS = 200
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_SMALLEST = float(np.finfo(float).smallest_subnormal)
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-10
#: Newton steps on each root's branch of the self-energy problem
_NEWTON_STEPS = 2
#: exact degeneracy, in units of eps * ||H||: the closed form refuses two
#: eigenvalues this close and a mode's coupling row this weak
_CLUSTER_ULPS = 16
#: certificate of the closed form (chosen by measurement, see
#: closed_form_spectrum), the first two in units of eps * ||H||
_MOVE_ULPS = 64
_PHASE_ULPS = 2
_OVERLAP_TOL = 5e-14


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

    Deterministic for a fixed BLAS thread count: identical input bytes then
    give identical output. Raises DiagonalizationError if the solver does not
    converge or if the residual ||H v - E v|| exceeds 1e-10 * max(1, ||H||_F)
    for any eigenpair, or the eigenvector Gram matrix deviates from the
    identity by more than 1e-10, or if either defect is NaN. The matrix
    keeps its dtype, so a real symmetric matrix is solved in real arithmetic
    and its eigenvectors are real.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.linalg.norm(h)))
    herm_defect = float(np.max(np.abs(h - h.conj().T)))
    if herm_defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")

    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigensolver did not converge: {exc}") from exc

    residual = float(np.max(np.abs(h @ evecs - evecs * evals)))
    if not residual <= _RESIDUAL_RTOL * scale:  # written so that NaN fails
        raise DiagonalizationError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_RTOL:.0e} * {scale:.3e}"
        )
    gram_defect = float(
        np.max(np.abs(evecs.conj().T @ evecs - np.eye(evals.size)))
    )
    if not gram_defect <= _ORTHO_TOL:  # written so that NaN fails
        raise DiagonalizationError(
            f"eigenvectors not orthonormal (Gram defect {gram_defect:.3e})"
        )
    return SpectralDecomposition(evals, evecs)


def closed_form_spectrum(params: ModelParams, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of h = build_h1(params), ascending, and the N x d spin block
    of matching eigenvectors, without an eigenvector matrix.

    With the modes' coupling rows G (N_b x N) and frequencies Omega, an
    eigenvector [v; b] of energy E has b = (E - Omega)^-1 G v and
    M(E) v = 0, where M(E) = (E - epsilon) I - G^H (E - Omega)^-1 G is the
    N x N self-energy problem of the bordered matrix (Arbenz, Gander &
    Golub, Linear Algebra Appl. 104, 1988). The eigenvector's squared norm
    is K = 1 + ||b||^2, so its spin column is v / sqrt(K). The energies are
    np.linalg.eigvalsh(h). Each is held as an offset tau from its nearest
    coupled frequency, every difference E - omega_k formed as tau - delta_k
    with delta_k = omega_k - omega_near (as in the secular iteration), and
    takes _NEWTON_STEPS Newton steps tau <- tau - mu / K on the branch mu(E)
    of M's eigenvalue nearest zero, whose slope is K; a batched N x N eigh
    gives v before each step, and the final energy keeps the last v. Roots
    are processed in row chunks that bound the (roots x modes) buffers.

    Only nondegenerate spectra are served. DiagonalizationError is raised
    before any Newton step if two modes share a frequency, if a mode's
    coupling row has norm at most _CLUSTER_ULPS ulp of ||H|| (an uncoupled
    mode, g0 = 0 included), or if two eigvalsh energies lie within that
    same tolerance (an exact cluster, such as the dark spin states of
    repeated or zero coupling columns): each leaves an eigenvector that the
    self-energy problem does not determine.

    The result is certified in O(d N_b N), so that NaN fails, or
    DiagonalizationError is raised. With r_j = [M(E_j) v_j; 0] the exact
    residual of the normalized eigenvector phi_j and v_j its spin column:

    - Newton moves no energy by more than _MOVE_ULPS ulp of ||H|| from
      eigvalsh's, whose backward error is of that order;
    - the spin-weighted eigenvalue error sum_j |v_j|^2 |dE_j|, with |dE_j|
      at most ||r_j|| and at most |mu_j| |v_j|^2 + ||r_j||^2 / gap_j, is at
      most _PHASE_ULPS ulp of ||H|| per qubit, the order of eigh's own
      error, so that the phases of the spin propagator drift no faster than
      on the dense route;
    - the phi_j are orthonormal to _OVERLAP_TOL: any two obey
      |<phi_i|phi_j>| <= (||r_i|| + ||r_j||) / |E_i - E_j|, and the pairs
      (at most d) for which that bound exceeds _OVERLAP_TOL have their
      overlap computed.

    The d certified vectors are then an orthonormal eigenbasis, which is
    the norm guard behind p0 = 1 - p1 on this route.
    """
    n = params.shape.n_qubits
    try:
        guess = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(f"eigvalsh did not converge: {exc}") from exc
    if not np.all(np.isfinite(guess)):
        raise DiagonalizationError("eigvalsh returned a non-finite eigenvalue")
    ulp = _EPS * max(1.0, -guess[0], guess[-1])  # of ||H||_2
    tol = _CLUSTER_ULPS * ulp
    modes = _coupled_modes(h[n:, :n], h.diagonal()[n:].real, tol)
    if np.any(np.diff(guess) <= tol):
        raise DiagonalizationError("closed form refused: an exact eigenvalue cluster")
    # an energy on a coupled frequency, or a few ulp from one, can give inf
    # and NaN: eigh refuses them, and every check is written so NaN fails
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        roots = _branch_roots(guess, modes, params.epsilon)
        move = float(np.max(np.abs(roots.energies - guess)))
        phase = _phase_error(guess, roots)
        overlap = _max_overlap(roots, modes)
    if not (move <= _MOVE_ULPS * ulp and phase <= _PHASE_ULPS * ulp * n
            and overlap <= _OVERLAP_TOL):
        raise DiagonalizationError(
            f"closed form not certified: Newton move {move:.3e}, spin-weighted "
            f"eigenvalue error {phase:.3e}, eigenvector overlap {overlap:.3e}"
        )
    order = np.argsort(roots.energies, kind="stable")
    return roots.energies[order], roots.columns[:, order]


class _Modes(NamedTuple):
    """The modes, sorted by frequency (see _coupled_modes)."""

    omegas: np.ndarray  # their frequencies, ascending and distinct
    g: np.ndarray  # their coupling rows
    gg: np.ndarray  # one row conj(g_k(a)) g_k(b), a and b flattened, per mode


def _coupled_modes(g: np.ndarray, omegas: np.ndarray, tol: float) -> _Modes:
    """The modes sorted by frequency, or DiagonalizationError if two share a
    frequency or a coupling row has norm at most tol: either pins a bath
    state that no spin state reaches."""
    order = np.argsort(omegas, kind="stable")
    omegas, g = omegas[order], g[order]
    if np.any(np.diff(omegas) == 0.0):
        raise DiagonalizationError("closed form refused: two modes share a frequency")
    if not np.all(np.linalg.norm(g, axis=1) > tol):
        raise DiagonalizationError("closed form refused: a mode is uncoupled")
    gg = (g.conj()[:, :, None] * g[:, None, :]).reshape(g.shape[0], g.shape[1] ** 2)
    return _Modes(omegas, g, gg)


class _Roots(NamedTuple):
    """The energies and their spin columns (see _branch_roots)."""

    energies: np.ndarray  # base + tau
    columns: np.ndarray  # N x d spin columns
    shift: np.ndarray  # |mu| / K, from E_j to the Rayleigh quotient of phi_j
    residual: np.ndarray  # ||r_j||
    base: np.ndarray  # the frequency each root is held from
    tau: np.ndarray  # the offset from it


def _branch_roots(e0: np.ndarray, modes: _Modes, epsilon: float) -> _Roots:
    """Refine the ascending energies e0 on their branches of M(E) and take
    their spin columns (see closed_form_spectrum)."""
    n, size = modes.g.shape[1], e0.size
    base = _nearest(modes.omegas, e0)
    tau = e0 - base
    columns = np.empty((n, size), dtype=modes.g.dtype)
    shift, residual = np.empty(size), np.empty(size)
    for idx in _row_chunks(size, modes.omegas.size):
        delta = _differences(modes.omegas, base[idx])
        t = tau[idx]
        for step in range(_NEWTON_STEPS + 1):
            e_eps = (base[idx] - epsilon) + t
            r = _reciprocal(t, delta)
            if step < _NEWTON_STEPS:  # the last step keeps v, whose residual
                mu, vecs = _self_energy_eigh(r, e_eps, modes.gg, n)  # is exact
                pick = np.argmin(np.abs(mu), axis=1)
                v = np.take_along_axis(vecs, pick[:, None, None], axis=2)[:, :, 0]
            w = v @ modes.g.T
            b = r * w
            k = 1.0 + np.einsum("ij,ij->i", b.conj(), b).real
            mu = e_eps - np.einsum("ij,ij->i", w.conj(), b).real
            if step < _NEWTON_STEPS:
                t = t - mu / k
        tau[idx] = t
        columns[:, idx] = (v / np.sqrt(k)[:, None]).T
        shift[idx] = np.abs(mu) / k
        spin = e_eps[:, None] * v - b @ modes.g.conj()
        residual[idx] = np.linalg.norm(spin, axis=1) / np.sqrt(k)
    return _Roots(base + tau, columns, shift, residual, base, tau)


def _phase_error(guess: np.ndarray, roots: _Roots) -> float:
    """sum_j |v_j|^2 |dE_j| over the roots, with |dE_j| bounded by ||r_j||
    and by |mu_j| |v_j|^2 + ||r_j||^2 / gap_j, each root's gap taken to the
    neighbouring eigvalsh energies."""
    gap = np.minimum(np.diff(guess, prepend=-np.inf), np.diff(guess, append=np.inf))
    error = np.fmin(roots.residual, roots.shift + roots.residual**2 / gap)
    return float(np.sum(np.abs(roots.columns) ** 2, axis=0) @ error)


def _nearest(poles: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The nearest of the ascending poles to each e."""
    i = np.searchsorted(poles, e)
    left, right = poles[np.maximum(i - 1, 0)], poles[np.minimum(i, poles.size - 1)]
    return np.where(e - left <= right - e, left, right)


def _reciprocal(t: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """1 / (E - omega_k) = 1 / (t - delta_k), one row per offset t."""
    return 1.0 / (t[:, None] - delta)


def _self_energy_eigh(r, e_eps, gg, n):
    """Batched eigh of M = (E - epsilon) I - r @ gg, one N x N matrix per row."""
    m = -(r @ gg).reshape(-1, n, n)
    m[:, np.arange(n), np.arange(n)] += e_eps[:, None]
    if not np.all(np.isfinite(m)):
        raise DiagonalizationError("self-energy not finite: an energy sits on a coupled frequency")
    return np.linalg.eigh(m)


def _max_overlap(roots: _Roots, modes: _Modes) -> float:
    """The largest overlap of two eigenvectors whose bound
    (||r_i|| + ||r_j||) / |E_i - E_j| exceeds _OVERLAP_TOL, computed, or inf
    if more than d pairs do."""
    d = roots.energies.size
    order = np.argsort(roots.energies, kind="stable")
    e, residual = roots.energies[order], roots.residual[order]
    reach = 2.0 * float(np.max(residual)) / _OVERLAP_TOL
    if not np.isfinite(reach):
        return np.inf
    pairs = []
    for step in range(1, d):
        gap = e[step:] - e[:-step]
        if not np.any(gap < reach):
            break
        near = ~((residual[step:] + residual[:-step]) / gap <= _OVERLAP_TOL)
        pairs.append(np.stack([order[:-step][near], order[step:][near]]))
        if sum(p.shape[1] for p in pairs) > d:
            return np.inf
    i, j = np.concatenate(pairs, axis=1) if pairs else np.zeros((2, 0), dtype=int)
    worst = [0.0]
    for rows in _row_chunks(i.size, modes.omegas.size):
        a, b = i[rows], j[rows]
        overlap = np.einsum("ij,ij->j", roots.columns[:, a].conj(), roots.columns[:, b])
        overlap += np.einsum("ij,ij->i", _bath_part(roots, a, modes).conj(), _bath_part(roots, b, modes))
        worst.append(np.max(np.abs(overlap)))
    return float(np.max(worst))


def _bath_part(roots: _Roots, idx: np.ndarray, modes: _Modes) -> np.ndarray:
    """(E - Omega)^-1 G v of the roots idx, one row per root."""
    r = _reciprocal(roots.tau[idx], _differences(modes.omegas, roots.base[idx]))
    return r * (roots.columns[:, idx].T @ modes.g.T)


def uses_secular_route(params: ModelParams) -> bool:
    """Whether the spectrum comes from the secular equation: true for
    qubit-independent (uniform) coupling. dynamics.spin_spectrum, the one
    place that picks a route, describes the routes."""
    return isinstance(params.coupling, UniformCoupling)


def _secular_poles(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct pole frequencies, their multiplicities and the square roots
    of their weights in P.

    Each mode couples to the symmetric spin state with strength
    sqrt(N) |g0|, so a k-fold frequency carries weight k N |g0|^2. The root
    is formed without squaring g0, which keeps it exact where N g0^2 would
    fall into the subnormal range (g0 below about 1e-154).
    """
    if not uses_secular_route(params):
        raise ValueError("the secular equation presumes qubit-independent coupling")
    poles, counts = np.unique(mode_frequencies(params), return_counts=True)
    return poles, counts, np.sqrt(params.shape.n_qubits * counts) * abs(params.coupling.g0)


def _secular_p(
    e: np.ndarray, epsilon: float, poles: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """P(E) = E - epsilon - sum_k weights_k / (E - poles_k), over an array of E.

    The (E, pole) terms are divided in place in one e.shape + poles.shape buffer.
    """
    buf = _differences(poles, e)
    np.divide(weights, buf, out=buf)
    return e - epsilon + buf.sum(axis=-1)


def _differences(values: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """values - shifts[..., None], of shape shifts.shape + values.shape.

    A broadcast copy and an in-place subtraction: with numpy 2.4.6 as fast
    as the out-of-place broadcast at 65 x 1000 and faster at 201 x 200
    (44 vs 57 us), but slower at 64 x 4000 (314 vs 133 us).
    """
    out = np.empty(np.shape(shifts) + values.shape)
    out[...] = values
    out -= np.asarray(shifts)[..., None]
    return out


def _row_chunks(n_rows: int, n_cols: int):
    """Slices of _CHUNK_ELEMENTS // n_cols rows, but at least _CHUNK_ROWS."""
    step = max(_CHUNK_ROWS, _CHUNK_ELEMENTS // n_cols)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _solve_secular(
    poles: np.ndarray, sqrt_w: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeros of P over the n_p + 1 brackets of n_p distinct poles, as offsets.

    Returns (origin, tau, slope): zero j is poles[origin[j]] + tau[j] and
    slope[j] is P'(zero j). Zero j lies between poles j - 1 and j (below the
    first pole for j = 0, above the last for j = n_p). Its origin is the
    nearer of the two poles, chosen by the sign of P at the gap midpoint;
    an outer zero takes the outermost pole. Every difference E - omega_k is
    formed as tau - delta_k with delta_k = omega_k - omega_origin computed
    once, so a zero an ulp from its pole keeps its full relative accuracy.
    An interior iteration starts from the zero of the model that keeps the
    gap's two poles exact and freezes the other terms at the midpoint; an
    outer one starts mid-bracket.
    """
    n_p = poles.size
    weights = sqrt_w**2
    reach = float(np.linalg.norm(sqrt_w)) + 1.0
    origin = np.concatenate([[0], np.arange(n_p)])
    lo = np.zeros(n_p + 1)
    hi = np.zeros(n_p + 1)
    lo[0] = min(epsilon, poles[0]) - reach - poles[0]
    hi[-1] = max(epsilon, poles[-1]) + reach - poles[-1]
    tau = 0.5 * (lo + hi)
    slope = np.empty(n_p + 1)
    # offsets of roots a few ulp from a pole, or g0 near the underflow
    # threshold, overflow or underflow their pole terms; the bracket test
    # turns a non-finite step into a bisection
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        if n_p > 1:
            mid = poles[:-1] + 0.5 * np.diff(poles)
            p_mid = np.concatenate(
                [_secular_p(mid[s], epsilon, poles, weights) for s in _row_chunks(mid.size, n_p)]
            )
            left = p_mid >= 0.0  # the zero lies in the left half of its gap
            origin[1:-1] = np.where(left, np.arange(n_p - 1), np.arange(1, n_p))
            lo[1:-1] = np.where(left, 0.0, mid - poles[1:])
            hi[1:-1] = np.where(left, mid - poles[:-1], 0.0)
            near, far = origin[1:-1], np.where(left, np.arange(1, n_p), np.arange(n_p - 1))
            w_o, w_f = weights[near], weights[far]
            c = p_mid - w_o / (poles[near] - mid) - w_f / (poles[far] - mid)
            start = _offset_zero(c, w_o, w_f, poles[far] - poles[near])
            inside = (start > lo[1:-1]) & (start < hi[1:-1])
            tau[1:-1] = np.where(inside, start, 0.5 * (lo[1:-1] + hi[1:-1]))
        for rows in _row_chunks(n_p + 1, n_p):
            tau[rows], slope[rows] = _iterate(
                poles, origin[rows], sqrt_w, epsilon, np.arange(n_p + 1)[rows],
                tau[rows], lo[rows], hi[rows],
            )
    return origin, tau, slope


def _model_zero(c, a, b, lo, hi):
    """The root of c z^2 - a z + b = 0 in (lo, hi), the pole interval of a
    two-pole model, which holds exactly one of them.

    Both roots are formed without cancellation, as 2b / q and q / 2c with
    q = a + sign(a) sqrt(a^2 - 4bc) (as in LAPACK dlaed4).
    """
    q = a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a)
    z = 2.0 * b / q
    return np.where((z > lo) & (z < hi), z, 0.5 * q / c)


def _offset_zero(c, s_o, s_f, delta_f):
    """Offset x from the origin pole of the zero of the two-pole model
    c + s_o / (0 - x) + s_f / (delta_f - x) between its poles; cleared of
    denominators, c x^2 - (c delta_f + s_o + s_f) x + s_o delta_f = 0."""
    return _model_zero(
        c, c * delta_f + s_o + s_f, s_o * delta_f,
        np.minimum(delta_f, 0.0), np.maximum(delta_f, 0.0),
    )


def _iterate(poles, origin, sqrt_w, epsilon, gap, tau, lo, hi):
    """Rational root iteration of one chunk of brackets (see _solve_secular).

    Each step evaluates P, its slope P' = 1 + sum_k W_k / Delta_k^2 and the
    part psi' of that sum from the poles left of tau, in two passes over a
    (rows x poles) buffer. Interior zeros then take R.-C. Li's middle-way
    step (LAPACK Working Note 89, 1994): the zero of the model
    c + s_o / (0 - x) + s_f / (delta_f - x) with the gap's two poles, whose
    coefficients match the pole sums' slopes psi' and phi' on either side of
    tau (the linear term's unit slope on the far pole's side) and whose
    constant c matches P. It is solved as a step from tau, which keeps P's
    residual, unless it lies much nearer the pole than tau, where the
    offset itself is exact. The outer zeros keep the linear term exact and
    put every pole at the origin, a quadratic that is exact for one pole.
    A step that leaves the bracket [lo, hi] (kept by the sign of P) is
    replaced by a bisection, and so is every step after _MODEL_STEPS. A
    zero is done when its step falls to a few ulp of tau or its bracket to
    a few ulp of its ends; its slope is that of the last evaluation, at
    most a few ulp away.
    """
    n_p = poles.size
    base = poles[origin]
    delta = _differences(poles, base)
    const = base - epsilon
    work = np.empty_like(delta)
    out_tau = np.empty(tau.size)
    out_slope = np.empty(tau.size)
    index = np.arange(tau.size)
    far_left = origin == gap  # the origin is the right-hand pole of the gap
    far = np.clip(np.where(far_left, gap - 1, gap), 0, n_p - 1)
    delta_far = delta[index, far]
    outer = (gap == 0) | (gap == n_p)
    for step in range(_MAX_STEPS):
        u = work[: tau.size]
        np.copyto(u, delta)
        u -= tau[:, None]
        d_far = u[np.arange(tau.size), far]
        np.divide(sqrt_w, u, out=u)  # sqrt(W_k) / (delta_k - tau)
        p = const + tau + u @ sqrt_w
        d_all = np.einsum("ij,ij->i", u, u)
        np.minimum(u, 0.0, out=u)  # the poles left of tau
        d_psi = np.einsum("ij,ij->i", u, u)
        lo = np.where(p < 0.0, tau, lo)
        hi = np.where(p > 0.0, tau, hi)

        slope_o = np.where(far_left, d_all - d_psi, d_psi)
        slope_f = d_all - slope_o + 1.0
        c = p + tau * slope_o - d_far * slope_f
        eta = _model_zero(
            c, (d_far - tau) * p + tau * d_far * (1.0 + d_all), -tau * d_far * p,
            np.minimum(d_far, -tau), np.maximum(d_far, -tau),
        )
        x = _offset_zero(c, tau * tau * slope_o, d_far * d_far * slope_f, delta_far)
        new = np.where(np.abs(x) < 0.5 * np.abs(tau), x, tau + eta)
        if outer.any():
            # y^2 + B y - s = 0 for the new offset y, with s = tau^2 P'_poles
            s = tau * tau * d_all
            y = _model_zero(
                1.0, tau - p - tau * d_all, -s,
                np.where(gap == 0, -np.inf, 0.0), np.where(gap == 0, 0.0, np.inf),
            )
            new = np.where(outer, y, new)

        eta = new - tau
        inside = (new > lo) & (new < hi)
        converged = np.abs(eta) <= 4.0 * _EPS * np.abs(tau)
        ends = np.maximum(np.abs(lo), np.abs(hi))
        collapsed = hi - lo <= np.maximum(4.0 * _EPS * ends, _SMALLEST)
        done = (p == 0.0) | converged | collapsed
        # a converged step is taken unless it rounds onto a bracket end; a
        # collapsed bracket ends at tau, where P and P' were evaluated
        final = np.where(converged & inside, new, tau)
        out_tau[index[done]] = final[done]
        out_slope[index[done]] = 1.0 + d_all[done]
        if done.all():
            return out_tau, out_slope
        # bisection: by the geometric mean while the bracket spans more than
        # ten octaves (one end may be the pole, at 0), which reaches a zero
        # 1e-300 from its pole in a few dozen steps
        near = np.minimum(np.abs(lo), np.abs(hi))
        mid = np.where(
            ends > 1024.0 * near,
            np.copysign(np.sqrt(np.maximum(near, _SMALLEST)) * np.sqrt(ends), lo + hi),
            0.5 * (lo + hi),
        )
        new = np.where(inside & (step < _MODEL_STEPS), new, mid)
        if done.any():
            keep = ~done
            index, delta, const, gap = index[keep], delta[keep], const[keep], gap[keep]
            far_left, far, delta_far = far_left[keep], far[keep], delta_far[keep]
            outer, lo, hi, new = outer[keep], lo[keep], hi[keep], new[keep]
        tau = new
    raise RuntimeError(f"secular iteration did not converge in {_MAX_STEPS} steps")


def _secular_energies(
    poles: np.ndarray, sqrt_w: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The zeros of P, ascending, and the slope P' at each.

    A zero within half an ulp of its origin pole would round onto the pole;
    it is returned as the neighbouring float on its own side instead, so
    every zero stays strictly inside its open bracket (1 ulp of error).
    """
    origin, tau, slope = _solve_secular(poles, sqrt_w, epsilon)
    energies = poles[origin] + tau
    on_pole = energies == poles[origin]
    # zero j is above its origin pole when that pole is pole j - 1
    side = np.where(origin < np.arange(origin.size), np.inf, -np.inf)
    energies[on_pole] = np.nextafter(energies[on_pole], side[on_pole])
    return energies, slope


def secular_roots(params: ModelParams) -> np.ndarray:
    """All N_b + 1 energies of the symmetric sector, ascending:
    symmetric_spectrum(params)[0]."""
    return symmetric_spectrum(params)[0]


def symmetric_spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The N_b + 1 energies E_j of the symmetric sector, ascending, and the
    weights w_j = |<phi_j|s>|^2 of the symmetric spin state on them.

    s = (1, ..., 1) / sqrt(N) couples to mode k with strength sqrt(N) g0. A
    k-fold frequency is one pole of P and keeps (k - 1) energies pinned on
    itself, bath states that s does not reach (w = 0). P rises strictly from
    -inf to +inf between adjacent distinct poles, so each such open interval
    holds exactly one zero; one more lies below the lowest pole and one above
    the highest. With W the total weight and R = sqrt(W) + 1,
    P(min(epsilon, omega_1) - R) < -1 and P(max(epsilon, omega_max) + R) > 1,
    which closes the two outer brackets. The safeguarded rational iteration
    of _solve_secular finds every zero at once, as an offset from its nearer
    pole to a few ulp of that offset, and w_j = 1 / P'(E_j) comes from the
    same offsets. With g0 = 0 every pole cancels and the energies are the
    frequencies and epsilon.

    When the weight N g0^2 of a mode lies below the normal float range (g0 =
    0 included), s is an eigenstate at epsilon to within
    sqrt(N) |g0| t < 1.5e-154 t in the dynamics, and 1 / P' of the zeros an
    ulp from their poles is meaningless: the zero nearest epsilon takes
    w = 1 and every other energy w = 0.

    Two checks, written so that NaN fails, raise DiagonalizationError:

    - trace: the energies are the spectrum of the symmetric sector's
      arrowhead matrix H_sym, so they sum to epsilon + sum_k omega_k, to
      1e-10 * max(1, ||H_sym||_F) with
      ||H_sym||_F^2 = epsilon^2 + sum_k omega_k^2 + 2 N N_b g0^2;
    - sum rule: sum w_j = 1 to 1e-10, like the Gram check in diagonalize,
      which keeps every evolved state normalized.

    The weights also obey sum w_j E_j = epsilon and
    sum w_j E_j^2 = epsilon^2 + N N_b g0^2.
    """
    poles, counts, sqrt_w = _secular_poles(params)
    eps, g0 = params.epsilon, params.coupling.g0
    n, nb = params.shape.n_qubits, params.shape.n_modes
    if g0 == 0.0:
        zeros, slope = np.append(poles, eps), None
    else:
        zeros, slope = _secular_energies(poles, sqrt_w, eps)
    if n * g0**2 < _TINY:
        weights = np.zeros(zeros.size)
        weights[np.argmin(np.abs(zeros - eps))] = 1.0
    else:
        weights = 1.0 / slope
    pinned = np.repeat(poles, counts - 1)
    energies = np.concatenate([pinned, zeros])
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    weights = np.concatenate([np.zeros(pinned.size), weights])[order]

    frobenius_sq = eps**2 + poles**2 @ counts + 2.0 * n * nb * g0**2
    scale = max(1.0, float(np.sqrt(frobenius_sq)))
    defect = abs(float(energies.sum()) - (eps + float(poles @ counts)))
    if not defect <= _RESIDUAL_RTOL * scale:  # written so that NaN fails
        raise DiagonalizationError(
            f"secular roots miss the trace by {defect:.3e}, "
            f"more than {_RESIDUAL_RTOL:.0e} * {scale:.3e}"
        )
    defect = abs(float(weights.sum()) - 1.0)
    if not defect <= _ORTHO_TOL:  # written so that NaN fails
        raise DiagonalizationError(f"secular weights miss sum 1 by {defect:.3e}")
    return energies, weights
