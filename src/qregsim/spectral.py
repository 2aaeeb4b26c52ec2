"""Dense Hermitian eigendecomposition and the secular-equation spectrum.

Two independent routes to the same physics. `diagonalize` wraps a dense
Hermitian eigensolver and enforces the residual/orthonormality contract.
Under qubit-independent (uniform) coupling, the test `uses_secular_route`,
the one-excitation sector splits into the symmetric sector and N - 1 dark
states at epsilon, and the symmetric sector's N_b + 1 energies are the
zeros of the rational secular equation

    P(E) = E - epsilon - N * sum_k |g_k|^2 / (E - omega_k) = 0.

`secular_roots` returns them and `symmetric_spectrum` pairs them with the
weights w_j = 1 / P'(E_j) of the symmetric spin state. Both come from one
safeguarded rational iteration (R.-C. Li's middle way, the method of
LAPACK dlaed4) that holds each zero as an offset from its nearer pole
(Gu & Eisenstat's stable reconstruction), in row chunks that bound the
(zeros x poles) work buffers. Uniform-coupling models take their spectrum
from it and never diagonalize: runs through `dynamics.spin_spectrum`, the
`spectrum` verb through `sector_energies`, which adds the N - 1 dark states
to the zeros. Every other coupling uses the dense route, and the two routes
are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, UniformCoupling, build_h1, mode_frequencies

__all__ = [
    "DiagonalizationError",
    "SpectralDecomposition",
    "diagonalize",
    "secular_function",
    "secular_roots",
    "sector_energies",
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
    eigenvector Gram matrix deviates from the identity by more than 1e-10,
    or if either defect is NaN.
    The matrix keeps its dtype, so a real symmetric matrix is solved in real
    arithmetic and its eigenvectors are real.
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


def uses_secular_route(params: ModelParams) -> bool:
    """Whether the spectrum comes from the secular equation.

    True for qubit-independent (uniform) coupling, under which the
    one-excitation sector splits into the symmetric sector, whose energies
    are the zeros of P, and N - 1 dark states at epsilon. Every other
    coupling needs the dense eigensolve.
    """
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

    Filled by a broadcast copy and an in-place subtraction: numpy's
    out-of-place broadcast subtraction is several times slower.
    """
    out = np.empty(np.shape(shifts) + values.shape)
    out[...] = values
    out -= np.asarray(shifts)[..., None]
    return out


def secular_function(params: ModelParams, e: float | np.ndarray):
    """P(E) for uniform coupling; vectorized over E. Poles sit at the omega_k."""
    poles, _, sqrt_w = _secular_poles(params)
    return _secular_p(np.asarray(e, dtype=float), params.epsilon, poles, sqrt_w**2)


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
    """All N_b + 1 zeros of the secular function, in ascending order.

    P rises strictly from -inf to +inf between adjacent distinct poles, so
    each such open interval holds exactly one zero; one more lies below the
    lowest pole and one above the highest. With W the total weight and
    R = sqrt(W) + 1, P(min(epsilon, omega_1) - R) < -1 and
    P(max(epsilon, omega_max) + R) > 1, which closes the two outer brackets.
    The zeros are found by the safeguarded rational iteration of
    _solve_secular, all brackets at once (in row chunks that bound the
    (zeros x poles) buffer), as an offset from the nearer pole to a few ulp
    of that offset. Degenerate frequencies are merged into one pole of
    combined weight and contribute the frequency itself as a root with
    multiplicity (group size - 1); with zero coupling every pole cancels
    and the frequencies themselves are returned alongside epsilon.

    The zeros are the spectrum of the symmetric sector's arrowhead matrix
    H_sym, so they must sum to its trace epsilon + sum_k omega_k:
    DiagonalizationError if they miss it by more than
    1e-10 * max(1, ||H_sym||_F), with
    ||H_sym||_F^2 = epsilon^2 + sum_k omega_k^2 + 2 N N_b g0^2, or if the
    sum is NaN.
    """
    eps = params.epsilon
    poles, counts, sqrt_w = _secular_poles(params)
    # Degenerate groups keep (count - 1) roots pinned at the frequency itself.
    pinned = np.repeat(poles, counts - 1)
    if params.coupling.g0 == 0.0:
        roots = np.concatenate([pinned, poles, [eps]])
    else:
        roots = np.concatenate([pinned, _secular_energies(poles, sqrt_w, eps)[0]])
    roots.sort()
    n, nb = params.shape.n_qubits, params.shape.n_modes
    frobenius_sq = eps**2 + poles**2 @ counts + 2.0 * n * nb * params.coupling.g0**2
    scale = max(1.0, float(np.sqrt(frobenius_sq)))
    defect = abs(float(roots.sum()) - (eps + float(poles @ counts)))
    if not defect <= _RESIDUAL_RTOL * scale:  # written so that NaN fails
        raise DiagonalizationError(
            f"secular roots miss the trace by {defect:.3e}, "
            f"more than {_RESIDUAL_RTOL:.0e} * {scale:.3e}"
        )
    return roots


def sector_energies(params: ModelParams) -> tuple[np.ndarray, np.ndarray | None]:
    """All N + N_b one-excitation energies, ascending, and the secular roots
    they were assembled from (None on the dense route).

    Under uniform coupling (`uses_secular_route`) the energies are the
    N_b + 1 zeros of P and the N - 1 dark states at epsilon, with no
    eigensolve; under any other coupling they are the eigenvalues of
    diagonalize(build_h1(params)).
    """
    if not uses_secular_route(params):
        return diagonalize(build_h1(params)).eigenvalues, None
    roots = secular_roots(params)
    dark = np.full(params.shape.n_qubits - 1, params.epsilon)
    return np.sort(np.concatenate([roots, dark])), roots


def symmetric_spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Energies E_j and weights w_j = |<phi_j|s>|^2 of the symmetric spin state.

    s = (1, ..., 1) / sqrt(N) couples to mode k with strength sqrt(N) g0, so
    its spectral measure sits on the zeros of P, ascending, with
    w_j = 1 / P'(E_j) computed from the zeros' offsets to the poles. A
    pinned root of a degenerate frequency carries no weight and is left
    out. With zero coupling s is itself an eigenstate: E = [epsilon],
    w = [1]. So it is, to within sqrt(N) |g0| t < 1.5e-154 t in the
    dynamics, when the weight N g0^2 of a mode lies below the normal float
    range, where the roots' offsets and weights would be subnormal. The
    weights obey sum w_j = 1, sum w_j E_j = epsilon and
    sum w_j E_j^2 = epsilon^2 + N N_b g0^2; the first, which keeps every
    evolved state normalized, is checked like the Gram matrix in
    diagonalize: DiagonalizationError if it is missed by more than 1e-10.
    """
    poles, _, sqrt_w = _secular_poles(params)
    if params.shape.n_qubits * params.coupling.g0**2 < _TINY:
        return np.array([params.epsilon]), np.ones(1)
    energies, slope = _secular_energies(poles, sqrt_w, params.epsilon)
    weights = 1.0 / slope
    defect = abs(float(weights.sum()) - 1.0)
    if not defect <= _ORTHO_TOL:  # written so that NaN fails
        raise DiagonalizationError(f"secular weights miss sum 1 by {defect:.3e}")
    return energies, weights
