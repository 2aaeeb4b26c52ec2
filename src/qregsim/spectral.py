"""Dense eigendecomposition, exact deflation and the rank-one spectrum.

`diagonalize` wraps a dense Hermitian eigensolver and enforces the
residual/orthonormality contract; it is the reference the tests and the
acceptance criteria compare against, and the fallback of
`dynamics._reduced_spectrum`, the one place that picks a solver. In front of
both solvers `_deflate` takes out every exact degeneracy (as LAPACK dlaed2
does; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995): the spin states
the bath cannot reach (ker G, the paper's decoherence-free states) and the
bath states no spin state reaches; `_assemble` appends them again. At rank
one the reduced problem's energies are the zeros of the secular equation
P(E) = E - epsilon - sum_k |g_k|^2 / (E - omega_k), found by one
safeguarded rational iteration (`_iterate`: R.-C. Li's middle way, the
method of LAPACK dlaed4) that holds each zero as an offset from its nearer
pole and drives every zero at once. Its brackets and starts come from
`_brackets`, the one bracket builder of both solvers: each route gives it
its counts, its starts and a probe that picks the half of a gap a zero
lies in from the gap's midpoint, one call of the evaluate its steps take.
On an evenly spaced bath, as the paper's linear dispersion is, its pole
sums are near/far sums
(`_grid_evaluate`): O(N_b log N_b) moment tables once and O(N_b (w + P))
per step for a window of w poles and P powers. Otherwise each step takes
the O(N_b^2) dense sums in row chunks. Either way the solve ends in one
dense O(N_b^2) pass at the zeros that gives the weights and checks every
zero's residual; `_secular_passes` builds the dense sums and that pass
from one code. `_pole_row` is the one kernel that forms the rows of pole
terms numer_k / (omega_k - E) of every dense pass of both solvers, each
difference as an offset from the row's origin pole, whose own term every
caller adds apart or puts back. `_in_chunks` is the
one row-chunk loop of both solvers and the one owner of their
(rows x poles) scratch arrays: a pass names their dtypes and its most
rows, and the loop allocates them once and hands each chunk its slices;
the dense sums and the residual pass share theirs.
`selfenergy.closed_form_spectrum` shares the bracket builder, the
iteration, the kernel and that loop at higher rank, with dense sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import ModelParams, coupling_matrix, mode_frequencies

__all__ = [
    "DiagonalizationError",
    "SpectralDecomposition",
    "diagonalize",
    "secular_roots",
    "symmetric_spectrum",
]

#: a row chunk of a (rows x poles) scratch array of either iteration's pole
#: sums holds about this many entries (512 KiB, so that a chunk's scratch
#: stays in cache) and at least this many rows (so that a large bath does
#: not pay Python overhead per handful of roots)
_CHUNK_ELEMENTS = 1 << 16
_CHUNK_ROWS = 64
#: rational steps before a bracket is only bisected, and the cap on all steps
_MODEL_STEPS = 30
_MAX_STEPS = 200
_EPS = float(np.finfo(float).eps)
_SMALLEST = float(np.finfo(float).smallest_subnormal)
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-10
#: exact degeneracy, in units of eps * ||H||: _deflate takes out singular
#: values of G (above the QR's rounding) and coupling blocks this weak, and
#: the closed form refuses two eigenvalues this close
_CLUSTER_ULPS = 16
#: the largest scale max(epsilon, omega_max, ||G||_2) of a model with a
#: coupled mode that _deflate serves: its square, 2^1022, leaves a factor of
#: two to the largest float for the sums of squares that the solves form
_SCALE_MAX = 2.0**511
#: near/far pole sums on evenly spaced poles (_grid_evaluate): the 2 _NEAR
#: + 1 poles nearest the energy are summed exactly, the far ones by the
#: powers p = 0.._ORDER of their series in s, the energy's offset from the
#: nearest pole in units of the spacing, and their slopes by its derivative,
#: the powers up to _ORDER - 1. Inside the poles |s| <= 1/2; rows with
#: |s| > _REACH, beyond the ends of the grid, take the dense sums. The
#: series' ratio is x = |s| / (_NEAR + 1) <= 0.058, and the tails cut off
#: are at most x^(_ORDER + 1) / (1 - x) of the far poles' absolute sum (the
#: value) and (_ORDER + 1) x^_ORDER / (1 - x)^2 of it (the slopes): 2.6e-19
#: and 7.8e-17 at (8, 14), below eps
_NEAR = 8
_ORDER = 14
_REACH = 0.52
#: the fewest evenly spaced coupled poles that take the near/far sums. On
#: uniform coupling (N = 4, g0 = 0.01, 41 alternating in-process calls on a
#: 2-core x86-64 VM) the near/far sums made the secular solve faster in 40
#: calls at 400 poles and in 38 at 350, and slower in most at 300 and below
_GRID_POLES = 400
#: evenly spaced: every |omega_k - omega_0 - k h| at most this many ulp of
#: omega_max, which also leaves no hole in the grid
_GRID_ULPS = 4
#: the secular residual check of every secular solve (the residual pass of
#: _secular_passes): |P(E_j)| at most this many ulp of the scale of P's
#: rounding, |omega_o - epsilon| + |tau| + sum_k |W_k / (E_j - omega_k)|
#: for E_j = omega_o + tau, the terms of _pole_row's rows. Measured at most
#: 4.6 ulp on the near/far sums, and at most 4.1 ulp (median 1.6) on the
#: dense sums, over 3600 random rank-one models (N 1-5, N_b 1-3000, g0 1e-6
#: to 2, linear, random and rounded dispersions)
_SECULAR_ULPS = 16


class DiagonalizationError(RuntimeError):
    """Eigensolver failed to converge or violated its accuracy contract."""


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` are real and nondecreasing; column i of ``eigenvectors``
    is the (orthonormal) eigenvector of eigenvalue i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(h: np.ndarray) -> SpectralDecomposition:
    """Full eigensystem of a Hermitian matrix, with contract checks.

    Deterministic for a fixed BLAS thread count: identical input bytes then
    give identical output. Raises DiagonalizationError if the solver does not
    converge or if the residual ||H v - E v|| exceeds 1e-10 * max(1, ||H||_F)
    for any eigenpair, or the eigenvector Gram matrix deviates from the
    identity by more than 1e-10, or if either defect is NaN; raises
    ValueError if ||H||_F overflows, where no such bound holds. The matrix
    keeps its dtype, so a real symmetric matrix is solved in real arithmetic
    and its eigenvectors are real.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(h)))
    if not np.isfinite(scale):  # no residual or Hermiticity bound could fail
        raise ValueError("matrix Frobenius norm overflows float64")
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
    gram_defect = float(np.max(np.abs(evecs.conj().T @ evecs - np.eye(evals.size))))
    if not gram_defect <= _ORTHO_TOL:  # written so that NaN fails
        raise DiagonalizationError(f"eigenvectors not orthonormal (Gram defect {gram_defect:.3e})")
    return SpectralDecomposition(evals, evecs)


class _Deflated(NamedTuple):
    """A model with its exact degeneracies taken out (see _deflate)."""

    basis: np.ndarray  # N x r: the spin directions the bath reaches
    dark: np.ndarray  # N x (N - r): the dark spin states, eigenvectors at epsilon
    omegas: np.ndarray  # the coupled modes' frequencies, ascending and distinct
    g: np.ndarray  # their coupling rows in the basis, one per mode (modes x r)
    gg: np.ndarray  # one row conj(g_k(a)) g_k(b), a and b flattened, per mode
    pinned: np.ndarray  # the frequencies of the bath states no spin state reaches
    epsilon: float
    norm: float  # ||G||_2


def _deflate(params: ModelParams) -> _Deflated:
    """The reduced problem of a model, nondegenerate by construction, and the
    eigenpairs taken out of it. Each step changes H by at most about tol,
    _CLUSTER_ULPS ulp of the bound max(1, epsilon, omega_max) + ||G||_2 on
    ||H||, the order of eigh's own backward error, plus on the spin side
    the order of the QR's own rounding:

    - spin side: the right singular vectors of G, from the SVD of its
      min(N_b, N) x N factor R = Q^H G, of singular value at most tol plus
      _CLUSTER_ULPS ulp of ||G||_2 sqrt(N_b) are dark, eigenvectors at
      epsilon; the others (at least one) are the basis, in which the
      coupling rows are taken. With none dark the basis is the identity and
      G is kept as it is. The second term is the QR's rounding, whose
      N_b-term sums grow it about as sqrt(N_b): for an exactly rank-one G
      (strong uniform coupling, N = 4) s_2 measured 20 ulp of s_1 at
      N_b = 1000 and 47 at 4000, above tol;
    - bath side: the m modes at one frequency are rotated by the SVD of
      their m x r block. Rank one leaves one coupled mode (the row
      sigma_1 w_1^H) and m - 1 bath states pinned at the frequency, rank
      zero pins all m (m = 1: an uncoupled mode), and rank two or more
      raises DiagonalizationError. With no mode left coupled, the basis
      keeps its first direction only, whose secular equation is E = epsilon.

    Every solve squares the reduced problem's entries, so a model with a
    coupled mode whose scale max(epsilon, coupled omega_max, ||G||_2)
    exceeds _SCALE_MAX raises ValueError; a coupling row whose squared norm
    overflows counts as coupled. With no mode coupled nothing is squared,
    and any scale is served.
    """
    n, epsilon = params.shape.n_qubits, params.epsilon
    g, omegas = coupling_matrix(params), mode_frequencies(params)
    _, sigma, vh = np.linalg.svd(np.linalg.qr(g, mode="r"))
    tol = _CLUSTER_ULPS * _EPS * (max(1.0, epsilon, float(np.max(omegas))) + sigma[0])
    spin_tol = tol + _CLUSTER_ULPS * _EPS * sigma[0] * np.sqrt(g.shape[0])
    rank = max(1, int(np.count_nonzero(sigma > spin_tol)))
    spin = vh.conj().T if rank < n else np.eye(n)
    if rank < n:
        g = g @ spin[:, :rank]
    order = np.argsort(omegas, kind="stable")
    omegas, g = omegas[order], g[order]
    with np.errstate(over="ignore"):  # a row norm that overflows is coupled, and refused below
        coupled = np.linalg.norm(g, axis=1) > tol
    repeat = np.flatnonzero(np.diff(omegas) == 0.0)  # mode k + 1 is at mode k's frequency
    for k in repeat[np.diff(repeat, prepend=-2) > 1]:  # the first mode of each such group
        m = int(np.searchsorted(omegas, omegas[k], side="right")) - k
        _, s, wh = np.linalg.svd(g[k : k + m])
        if np.count_nonzero(s > tol) > 1:
            raise DiagonalizationError(
                f"deflation refused: {m} modes at frequency {float(omegas[k])!r} "
                "reach two spin directions"
            )
        coupled[k : k + m] = False
        if s[0] > tol:
            g[k], coupled[k] = s[0] * wh[0], True
    rank = rank if coupled.any() else 1
    scale = max(epsilon, float(np.max(omegas[coupled], initial=0.0)), float(sigma[0]))
    if coupled.any() and not scale <= _SCALE_MAX:  # written so that NaN fails
        raise ValueError(
            f"model scale {scale:.3e} (epsilon, coupled frequencies, ||G||_2) "
            "overflows float64 when squared"
        )
    g = g[coupled, :rank]
    gg = (g.conj()[:, :, None] * g[:, None, :]).reshape(g.shape[0], rank * rank)
    return _Deflated(
        spin[:, :rank], spin[:, rank:], omegas[coupled], g, gg, omegas[~coupled], epsilon,
        float(sigma[0]),
    )


def _assemble(
    model: _Deflated, energies: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All N + N_b energies, ascending, and the N x (N + N_b) spin block, from
    the reduced problem's energies and spin columns (in model.basis): the
    pinned bath states, at their frequencies with no spin weight, and the
    dark spin states, at epsilon, are appended. The columns are always
    mapped, basis @ columns, also at full rank, where the basis is I_N.
    Only model's basis, dark, pinned and epsilon are read, so
    dynamics._Reduced serves as well."""
    n, r = model.basis.shape
    spin = model.basis @ columns
    energies = np.concatenate([energies, model.pinned, np.full(n - r, model.epsilon)])
    spin = np.hstack([spin, np.zeros((n, model.pinned.size)), model.dark])
    order = np.argsort(energies, kind="stable")
    return energies[order], spin[:, order]


def _row_chunks(n_rows: int, n_cols: int):
    """Slices of _CHUNK_ELEMENTS // n_cols rows, but at least _CHUNK_ROWS
    (the last one ending at n_rows), the chunks of _in_chunks; one empty
    slice for no rows, so that a chunked function still shapes its empty
    outputs."""
    step = max(_CHUNK_ROWS, _CHUNK_ELEMENTS // n_cols)
    return [slice(i, min(i + step, n_rows)) for i in range(0, max(n_rows, 1), step)]


class _Brackets(NamedTuple):
    """One row per zero, ascending (see _brackets)."""

    origin: np.ndarray  # the index of the pole it is held from, the pole of its half
    base: np.ndarray  # that pole
    tau: np.ndarray  # its start offset from base
    lo: np.ndarray  # its bracket (lo, hi), as offsets from base
    hi: np.ndarray
    delta_far: np.ndarray  # the gap's other pole, from base (0 outside the poles)
    side: np.ndarray  # -1 below the lowest pole, 1 above the highest, else 0
    branch: np.ndarray  # the index i of the sorted branch mu_i that vanishes at it


def _brackets(
    model: _Deflated, reach: float, probe, below: np.ndarray, tau_k: np.ndarray
) -> _Brackets:
    """The zeros' gaps, branches, brackets and starts over the reduced
    problem's poles, for either route, from the counts below_k = #{E_j <
    omega_k} and the offsets tau_k from omega_k of the zero attached to it
    (selfenergy._count; NaN: none).

    Zero j (0-based) has left_j = #{omega_k < E_j} and vanishes on branch
    r - 1 - j + left_j: M(E) has that many negative eigenvalues just below
    E_j (at rank one, one zero per gap on branch 0). Outside the poles the
    bracket reaches reach >= ||G||_2 beyond min(epsilon, omega_min) and
    max(epsilon, omega_max), past every zero, and the zero starts
    mid-bracket. A zero alone in its gap starts from the offset tau_k of the
    pole on its own side where that lies inside the gap (and inside its near
    half between two poles). Every other interior zero takes the half of its
    gap that the route's probe(zeros, lower, half, branch) picks (zeros: the
    probed zeros' indices, lower: the gap's left pole, half: half its width)
    from its function's sign at the gap's midpoint, one call of the route's
    evaluate there. The probe returns, per zero, whether it lies in the right
    half, the midpoint's offset from that half's pole, which ends its
    bracket, and a start offset from that pole, taken where it lies inside
    the half, else the middle of the half.
    """
    omegas = model.omegas
    nb, n = model.g.shape
    j = np.arange(nb + n)
    left = np.searchsorted(below, j, side="right")
    branch = n - 1 - j + left
    side = np.where(left == 0, -1, np.where(left == nb, 1, 0))
    lower, upper = np.maximum(left - 1, 0), np.minimum(left, nb - 1)
    width = omegas[upper] - omegas[lower]  # 0 outside the poles
    half = 0.5 * width
    t_low, t_up = tau_k[lower], tau_k[upper]
    lone = np.bincount(left, minlength=nb + 1)[left] == 1
    from_low = lone & (t_low > 0.0) & ((t_low < half) | (side > 0))
    from_up = lone & (t_up < 0.0) & ((t_up > -half) | (side < 0))
    up = from_up & ~from_low
    lo, hi = np.where(up, -width, 0.0), np.where(up, 0.0, width)
    lo[side < 0] = min(model.epsilon, omegas[0]) - reach - omegas[0]
    hi[side > 0] = max(model.epsilon, omegas[-1]) + reach - omegas[-1]
    start = np.where(up, t_up, t_low)
    use_tau = (from_low ^ from_up) & (start > lo) & (start < hi)
    tau = np.where(use_tau, start, 0.5 * (lo + hi))
    origin = np.where(up, upper, lower)

    mid = np.flatnonzero(~use_tau & (side == 0))
    right, x_mid, start = probe(mid, lower[mid], half[mid], branch[mid])
    origin[mid], up[mid] = np.where(right, upper[mid], lower[mid]), right
    lo[mid], hi[mid] = np.minimum(x_mid, 0.0), np.maximum(x_mid, 0.0)
    tau[mid] = np.where((start > lo[mid]) & (start < hi[mid]), start, 0.5 * x_mid)
    delta_far = np.where(up, -width, width)
    return _Brackets(origin, omegas[origin], tau, lo, hi, delta_far, side, branch)


def _secular_energies(model: _Deflated) -> tuple[np.ndarray, np.ndarray]:
    """The n_p + 1 zeros of P over a rank-one reduced problem's n_p coupled
    modes (distinct poles), ascending, and the slope P' at each, both from
    the residual pass that ends every solve.

    Every weight W_k lies above the deflation threshold, so P rises strictly
    from -inf to +inf between adjacent poles: zero j lies between poles
    j - 1 and j, the trivial counts below_k = k + 1 of _brackets, and the
    outer brackets end sqrt(sum_k W_k) + 1 beyond min(epsilon, omega_1) and
    max(epsilon, omega_max). Each zero is held as an offset tau from its
    origin, the nearer pole of its gap by the sign of P at the midpoint (the
    probe of _brackets; an outer zero takes the outermost pole), and every
    omega_k - E is formed as delta_k - tau with delta_k = omega_k -
    omega_origin (by _pole_row on the dense sums, alike in the near/far
    window), so a zero an ulp from its pole keeps its full relative
    accuracy. An interior iteration starts from the zero of the model that
    keeps the gap's two poles exact and freezes the other terms at the
    midpoint (the probe's start); an outer one starts mid-bracket. The
    midpoint sums and every step take their pole sums from one evaluate: the
    near/far sums of at least _GRID_POLES evenly spaced poles
    (_grid_evaluate), O(_NEAR + _ORDER) per root after O(n_p log n_p)
    tables, else the dense sums in row chunks, O(n_p) per root. On either
    sums one dense pass at each zero's last evaluated offset (the residual
    pass of _secular_passes, which also builds the dense sums) then gives
    the slopes and checks every zero's residual |P(E_j)| against
    _SECULAR_ULPS ulp of the scale of P's rounding; it raises
    DiagonalizationError where one fails (NaN included). It is the
    independent check of the near/far sums and the check of every zero the
    dense sums found. A zero within half an ulp of
    its origin is returned as the neighbouring float on its own side, so
    every zero stays strictly inside its open bracket (1 ulp of error).
    """
    poles, epsilon, n_p = model.omegas, model.epsilon, model.omegas.size
    sqrt_w = np.abs(model.g[:, 0])
    dense, residuals = _secular_passes(poles, sqrt_w, _in_chunks(n_p, float, rows=n_p + 1))

    def probe(zeros, lower, half, branch):
        mid = poles[lower] + half
        p_mid = evaluate(mid - poles[lower], poles[lower], poles[lower] - epsilon, lower)[0]
        right = p_mid < 0.0  # the zero lies in the right half of its gap
        near, far = lower + right, lower + ~right
        w_o, w_f = sqrt_w[near] ** 2, sqrt_w[far] ** 2
        c = p_mid - w_o / (poles[near] - mid) - w_f / (poles[far] - mid)
        return right, mid - poles[near], _offset_zero(c, w_o, w_f, poles[far] - poles[near])

    # offsets of roots a few ulp from a pole overflow or underflow their pole
    # terms; the bracket test turns a non-finite step into a bisection. The
    # near/far tables of a fine grid overflow, and _far_moments declines them
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        evaluate = _grid_evaluate(poles, sqrt_w, dense) or dense
        reach = float(np.linalg.norm(sqrt_w)) + 1.0
        brackets = _brackets(model, reach, probe, np.arange(1, n_p + 1), np.full(n_p, np.nan))
        base, origin = brackets.base, brackets.origin
        data = (base, base - epsilon, origin)
        tau = _iterate(evaluate, data, brackets)
        p, d_all, scale = residuals(tau, *data)
        residual = np.abs(p) / (_EPS * (np.abs(base - epsilon) + np.abs(tau) + scale))
    if not np.all(residual <= _SECULAR_ULPS):  # written so that NaN fails
        raise DiagonalizationError(
            f"secular residual {np.max(residual):.3e} ulp of its scale, "
            f"more than {_SECULAR_ULPS}"
        )
    energies = base + tau
    # zero j is above its origin pole when that pole is pole j - 1
    side = np.where(origin < np.arange(n_p + 1), np.inf, -np.inf)
    on_pole = energies == poles[origin]
    energies[on_pole] = np.nextafter(energies[on_pole], side[on_pole])
    return energies, 1.0 + d_all


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


def _pole_row(out, numer, t, base, origin, poles):
    """The pole terms numer_k / (omega_k - E) at E = base + t, one row per
    offset t, in the (rows x poles) array out (a chunk's scratch from
    _in_chunks): the one place either route forms them. Each difference is
    formed as delta_k - t with delta_k = omega_k - base, so an energy an ulp
    from base keeps its full relative accuracy (Gu & Eisenstat, SIAM J.
    Matrix Anal. Appl. 16, 1995). base is always the pole of each row's
    origin, whose own term is numer_o / -t: that entry is set to inf before
    the division, so it is exactly 0 (of numer's sign) with no division by
    zero, and each caller adds the term apart or puts it back. numer is
    sqrt(W) on the secular route and -1 on the closed form, whose rows
    1 / (E - omega_k) it gives bit for bit."""
    u = np.subtract(poles, base[:, None], out=out)
    u -= t[:, None]
    u[np.arange(t.size), origin] = np.inf
    return np.divide(numer, u, out=u)


def _secular_passes(poles, sqrt_w, driver):
    """The secular route's two dense passes, evaluate(tau, base, const,
    origin) of _iterate for its steps and the residual pass at the zeros
    that ends every solve, in the row chunks of driver, an _in_chunks wrap
    with one float scratch array u, which holds the rows sqrt(W_k) /
    Delta_k of _pole_row. Both give P and the sum P' - 1 = sum_k W_k /
    Delta_k^2 from one code, so that each step sees P as the residual pass
    checks it; the steps add the part of that sum from the poles left of
    tau, the residual pass sum_k |W_k / Delta_k|, which with
    |omega_o - epsilon| + |tau| is the scale of P's rounding. The origin's
    term, near a pole the largest by far, is added apart from the others: a
    sum rounds at the size of its partial sums, and that term in them would
    grow P's rounding with the number of poles (18 ulp of P's scale at the
    zero of one model with 2500 random poles, above _SECULAR_ULPS). Each
    row is summed on its own (einsum): a BLAS product rounds a row by how
    many rows share the call, which moved a zero of one model 8 ulp of
    ||H|| between the dense and the near/far route, whose outer rows take
    these sums in calls over fewer rows."""

    def sums(u, tau, base, const, origin):
        u = _pole_row(u, sqrt_w, tau, base, origin, poles)
        u_o = sqrt_w[origin] / -tau
        q_o = u_o * sqrt_w[origin]
        p = const + tau + q_o + np.einsum("ij,j->i", u, sqrt_w)
        return u, u_o, q_o, p, np.einsum("ij,ij->i", u, u) + u_o * u_o

    def steps(*args):
        u, u_o, _, p, d_all = sums(*args)
        np.minimum(u, 0.0, out=u)  # the poles left of tau
        return p, d_all, np.einsum("ij,ij->i", u, u) + np.minimum(u_o, 0.0) ** 2

    def residuals(*args):
        u, _, q_o, p, d_all = sums(*args)
        return p, d_all, np.einsum("ij,j->i", np.abs(u, out=u), sqrt_w) + np.abs(q_o)

    return driver(steps), driver(residuals)


def _far_moments(poles: np.ndarray, weights: np.ndarray):
    """The spacing h, the shifts e_k / h and the far moments of weights W on
    poles that are evenly spaced and at least _GRID_POLES many, else None;
    None too where a table overflows, as 1 / h^2 does at a spacing below
    about 1e-154 (the caller ignores the overflow), so that the dense sums
    serve.

    Evenly spaced means omega_k = omega_0 + k h + e_k with every |e_k| at
    most _GRID_ULPS ulp of omega_max (_grid_shift), which also leaves no
    hole in the grid. Row o of the moments holds V_0..V_ORDER and
    VL_1..VL_ORDER: V_p, the coefficient of s^p in the far poles' sum of
    W / (delta - tau) at tau = s h from pole o (see _grid_evaluate), is
    sum_m (W_{o+m} / (h m^(p+1)) - (p + 1) e_{o+m} W_{o+m} / (h^2 m^(p+2)))
    over |m| > _NEAR, and VL_p the same over m < -_NEAR alone. The second
    term is the first-order shift of each far pole from its grid point, so
    the far poles sit at their own frequencies to O(e^2), not only to a few
    ulp of omega_max. Each table is a correlation of W and e W with a kernel
    in m, for every o at once by one batched rfft and irfft of the least
    5-smooth length >= 2n: 2 _ORDER + 1 tables, O(n log n) each.
    """
    n = poles.size
    if n < max(_GRID_POLES, 2):
        return None
    h = float(poles[-1] - poles[0]) / (n - 1)
    e = _grid_shift(poles, h)
    if not np.max(np.abs(e)) <= _GRID_ULPS * _EPS * float(np.max(np.abs(poles))):
        return None
    # the correlation sum_j W_j k(j - o) is the convolution with k(-i), whose
    # slot i holds k(m) at m = -i (mod length); 0 between -n and n
    length = _five_smooth(2 * n)
    m = np.zeros(length)
    m[:n] = -np.arange(n)
    m[length - n + 1 :] = np.arange(n - 1, 0, -1)
    kernels = np.zeros((2, _ORDER + 2, length))  # 1 / (h m^(p+1)), p = 0.._ORDER + 1
    np.divide(1.0, m, out=kernels[0, 1], where=np.abs(m) > _NEAR)
    kernels[0, 2:] = kernels[0, 1]
    kernels[0, 0] = kernels[0, 1] / h
    np.cumprod(kernels[0], axis=0, out=kernels[0])
    np.multiply(kernels[0], m < -_NEAR, out=kernels[1])  # the left poles alone
    kernels = np.fft.rfft(kernels, axis=-1)
    shifted = -np.arange(1.0, _ORDER + 2)[:, None] / h * kernels[:, 1:]
    # V_0..V_ORDER, then VL_1..VL_ORDER
    spectrum = np.concatenate([kernels[0, :-1], kernels[1, 1:-1]]) * np.fft.rfft(weights, length)
    spectrum += np.concatenate([shifted[0], shifted[1, 1:]]) * np.fft.rfft(e * weights, length)
    moments = np.fft.irfft(spectrum, length)[:, :n]
    if not np.all(np.isfinite(moments)):
        return None
    return h, e / h, np.ascontiguousarray(moments.T)


def _grid_shift(poles: np.ndarray, h: float) -> np.ndarray:
    """e_k = omega_k - omega_0 - k h, to a few ulp of e_k itself: omega_k -
    omega_0 is split into a sum and its rounding error (Knuth's two-sum),
    and h into two halves of 26 bits (Veltkamp), so that both products
    k h_hi and k h_lo are exact below 2^26 poles, and the first difference
    of nearly equal terms is exact too (Sterbenz)."""
    k = np.arange(poles.size, dtype=float)
    a, b = poles, -poles[0]
    d = a + b
    bb = d - a
    err = (a - (d - bb)) + (b - bb)
    split = 134217729.0 * h  # 2^27 + 1
    h_hi = split - (split - h)
    return ((d - k * h_hi) - k * (h - h_hi)) + err


def _grid_evaluate(poles, sqrt_w, dense):
    """evaluate(tau, base, const, origin) of _iterate for P by near/far
    sums, O(_NEAR + _ORDER) per row (in the row chunks of _in_chunks, each
    row's window and row of moments counted as its columns), if the poles
    are evenly spaced (_far_moments), else None (Greengard & Rokhlin,
    J. Comput. Phys. 73, 1987; Dutt, Gu & Rokhlin, SIAM J. Numer. Anal. 33,
    1996).

    At E = base + tau the sums split at the pole c nearest E, c = origin +
    round(tau / h) within the grid: the 2 _NEAR + 1 poles around it are
    summed exactly, their terms formed as _pole_row forms them, as offsets
    delta_k - tau (with the origin's term among them), and the far
    poles by the series in s = (E - omega_0) / h - c, with |m| = |k - c| >
    _NEAR: 1 / (m h - s h) = sum_p s^p / (h m^(p+1)), whose coefficients
    are the far moments of c, and the slopes by its derivative. Rows with
    |s| > _REACH, beyond the ends of the grid, take the dense evaluate (the
    steps of _secular_passes).
    """
    grid = _far_moments(poles, sqrt_w**2)
    if grid is None:
        return None
    h, shift, moments = grid
    last = poles.size - 1
    pad = np.full(_NEAR, np.inf)
    padded = np.concatenate([pad, poles, pad])  # the windows' poles, inf beyond the grid
    sqrt_w = np.concatenate([np.zeros(_NEAR), sqrt_w, np.zeros(_NEAR)])
    window = np.arange(2 * _NEAR + 1)
    rate = np.arange(1.0, _ORDER + 1)[:, None] / h  # d s^p / d tau = rate_p s^(p - 1)

    def evaluate(tau, base, const, origin):
        center = np.clip(origin + np.rint(tau / h).astype(np.intp), 0, last)
        s = (tau - (poles[center] - base)) / h + shift[center]
        near = center[:, None] + window
        u = padded[near]
        u -= base[:, None]
        u -= tau[:, None]
        w = sqrt_w[near]
        np.divide(w, u, out=u)  # sqrt(W_k) / (delta_k - tau)
        powers = np.empty((_ORDER + 1, tau.size))
        powers[0], powers[1] = 1.0, s
        for p in range(2, _ORDER + 1):
            np.multiply(powers[p - 1], s, out=powers[p])
        slopes = powers[:-1] * rate
        far = moments[center]
        value = np.einsum("rp,pr->r", far[:, : _ORDER + 1], powers)
        p = const + tau + np.einsum("ij,ij->i", u, w) + value
        d_all = np.einsum("ij,ij->i", u, u) + np.einsum("rp,pr->r", far[:, 1 : _ORDER + 1], slopes)
        np.minimum(u, 0.0, out=u)  # the poles left of tau
        d_psi = np.einsum("ij,ij->i", u, u) + np.einsum("rp,pr->r", far[:, _ORDER + 1 :], slopes)
        beyond = np.flatnonzero(~(np.abs(s) <= _REACH))
        if beyond.size:
            p[beyond], d_all[beyond], d_psi[beyond] = dense(
                tau[beyond], base[beyond], const[beyond], origin[beyond]
            )
        return p, d_all, d_psi

    return _in_chunks(2 * _NEAR + 2 * _ORDER + 2)(evaluate)


def _five_smooth(n: int) -> int:
    """The least integer >= n with no prime factor above 5."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _in_chunks(n_cols, *scratch, rows=0):
    """The one row-chunk loop of both routes and the one owner of their
    (rows x n_cols) scratch arrays, one per dtype in scratch, allocated
    once, here, at the rows of the largest of _row_chunks(rows, n_cols): a
    fresh array of that size costs more than the pass that fills it, and
    every caller runs a pass of the wrap as soon as it has built it.
    Returns wrap(fn), which builds a pass over at most rows rows (any
    number without scratch) from an fn that takes at most one chunk. fn
    gets each scratch array, cut to its chunk's rows, ahead of its per-row
    arguments, which are passed to it slice by slice along their first
    axis. Each of the outputs it returns (a tuple) is written along its
    last axis into an array allocated once per call, shaped by the first
    chunk. Every call of every pass that one wrap builds uses the same
    scratch: the root iteration's calls with fewer and fewer rows, and the
    secular route's residual pass after its dense sums."""
    size = _row_chunks(rows, n_cols)[0].stop
    held = [np.empty((size, n_cols), t) for t in scratch]

    def wrap(fn):
        def chunked(*args):
            n_rows, outs = len(args[0]), ()
            for s in _row_chunks(n_rows, n_cols):
                parts = fn(*(a[: s.stop - s.start] for a in held), *(a[s] for a in args))
                outs = outs or tuple(np.empty(p.shape[:-1] + (n_rows,), p.dtype) for p in parts)
                for out, part in zip(outs, parts):
                    out[..., s] = part
            return outs

        return chunked

    return wrap


def _iterate(evaluate, data, brackets: _Brackets):
    """Safeguarded rational root iteration of every bracket at once, each
    zero held as an offset tau from its origin pole, from the one record of
    brackets and starts that _brackets, the bracket builder of both routes,
    made with the route's midpoint probe, a call of the same evaluate (see
    _secular_energies and selfenergy._closed_form); each zero's steps depend
    on its own bracket alone.

    The function is E - epsilon - sum_k W_k / (E - omega_k), with weights
    W_k >= 0 that may change from step to step. evaluate(tau, *data) gives
    at each offset its value p, the sum d_all = sum_k W_k / Delta_k^2 (its
    slope less 1) and the part psi' of that sum from the poles left of tau
    (_in_chunks runs it over the rows in chunks); data holds the per-row
    arrays that evaluate reads, pruned with the rows as their zeros finish.
    Of the brackets' rows, delta_far is the gap's other pole from the
    origin (negative when it lies left of it), and side -1 (1) for a zero
    below (above) every pole, else 0. Interior zeros then take R.-C. Li's
    middle-way step (LAPACK Working Note 89, 1994): the zero of the model
    c + s_o / (0 - x) + s_f / (delta_f - x) with the gap's two poles, whose
    coefficients match the pole sums' slopes psi' and phi' on either side of
    tau (the linear term's unit slope on the far pole's side) and whose
    constant c matches p. It is solved as a step from tau, which keeps p's
    residual, unless it lies much nearer the pole than tau, where the
    offset itself is exact. The outer zeros keep the linear term exact and
    put every pole at the origin, a quadratic that is exact for one pole.
    A step that leaves the bracket [lo, hi] (kept by the sign of p) is
    replaced by a bisection, and so is every step after _MODEL_STEPS. A
    zero is done when its step falls to a few ulp of tau or its bracket to
    a few ulp of its ends. Returns one array: each zero's offset at its
    last evaluation, at most a few ulp from the zero, where the route then
    takes what else it needs (the secular residual pass, the closed form's
    stored eigenvectors).
    """
    tau, lo, hi = brackets.tau, brackets.lo, brackets.hi
    delta_far, side = brackets.delta_far, brackets.side
    out_tau = np.empty(tau.size)
    index = np.arange(tau.size)
    outer = side != 0
    for step in range(_MAX_STEPS):
        p, d_all, d_psi = evaluate(tau, *data)
        d_far = delta_far - tau
        lo = np.where(p < 0.0, tau, lo)
        hi = np.where(p > 0.0, tau, hi)

        slope_o = np.where(delta_far < 0.0, d_all - d_psi, d_psi)
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
            t, f, d, below = tau[outer], p[outer], d_all[outer], side[outer] < 0
            new[outer] = _model_zero(
                1.0, t - f - t * d, -(t * t * d),
                np.where(below, -np.inf, 0.0), np.where(below, 0.0, np.inf),
            )

        eta = new - tau
        inside = (new > lo) & (new < hi)
        converged = np.abs(eta) <= 4.0 * _EPS * np.abs(tau)
        ends = np.maximum(np.abs(lo), np.abs(hi))
        collapsed = hi - lo <= np.maximum(4.0 * _EPS * ends, _SMALLEST)
        done = (p == 0.0) | converged | collapsed
        out_tau[index[done]] = tau[done]
        if done.all():
            return out_tau
        # bisection: by the geometric mean while the bracket spans more than
        # ten octaves (one end may be the pole, at 0), which reaches a zero
        # 1e-300 from its pole in a few dozen steps
        bisect = ~inside | (step >= _MODEL_STEPS)
        if bisect.any():
            a, b, e = lo[bisect], hi[bisect], ends[bisect]
            near = np.minimum(np.abs(a), np.abs(b))
            new[bisect] = np.where(
                e > 1024.0 * near,
                np.copysign(np.sqrt(np.maximum(near, _SMALLEST)) * np.sqrt(e), a + b),
                0.5 * (a + b),
            )
        if done.any():
            keep = ~done
            index, delta_far, side, outer, lo, hi, new = (
                a[keep] for a in (index, delta_far, side, outer, lo, hi, new)
            )
            data = tuple(a[keep] for a in data)
        tau = new
    raise DiagonalizationError(f"root iteration did not converge in {_MAX_STEPS} steps")


def secular_roots(params: ModelParams) -> np.ndarray:
    """symmetric_spectrum(params)[0]."""
    return symmetric_spectrum(params)[0]


def symmetric_spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The N_b + 1 energies E_j that a coupling of rank one reaches,
    ascending, and the weights w_j = |<phi_j|s>|^2 of its coupled spin state
    s on them (under uniform coupling, the symmetric state); ValueError at
    rank two or more. They are the zeros of the reduced problem
    (_secular_spectrum) and its pinned bath states, with w = 0: a k-fold
    frequency keeps k - 1 of them. With no coupled mode (g0 = 0 among
    others) they are the frequencies and epsilon, where w = 1.
    The weights obey sum w_j = 1, sum w_j E_j = epsilon and
    sum w_j E_j^2 = epsilon^2 + ||G s||^2 (N N_b g0^2 under uniform coupling).
    """
    try:
        model = _deflate(params)  # refuses only modes that reach two spin directions
    except DiagonalizationError as exc:
        raise ValueError("the secular equation needs a coupling of rank one") from exc
    if model.g.shape[1] > 1:
        raise ValueError("the secular equation needs a coupling of rank one")
    zeros, weights = _secular_spectrum(model)
    energies = np.concatenate([zeros, model.pinned])
    order = np.argsort(energies, kind="stable")
    return energies[order], np.concatenate([weights, np.zeros(model.pinned.size)])[order]


def _secular_spectrum(model: _Deflated) -> tuple[np.ndarray, np.ndarray]:
    """The zeros E_j of P over a rank-one reduced problem's coupled modes
    (_secular_energies, which checks every zero's residual on either pole
    sums) and w_j = 1 / P'(E_j); with no coupled mode, epsilon and
    w = 1, without a solve. Two checks, written so that NaN fails, raise
    DiagonalizationError: the trace (the zeros sum to epsilon + sum_k
    omega_k, to 1e-10 * max(1, the arrowhead matrix's Frobenius norm)) and
    the sum rule sum w_j = 1 to 1e-10, like the Gram check in diagonalize,
    which keeps every evolved state normalized.
    """
    eps, poles = model.epsilon, model.omegas
    if not poles.size:
        return np.array([eps]), np.ones(1)
    zeros, slope = _secular_energies(model)
    weights = 1.0 / slope

    scale = max(1.0, math.hypot(eps, *poles, math.sqrt(2.0) * model.norm))
    defect = abs(float(zeros.sum()) - (eps + float(poles.sum())))
    if not defect <= _RESIDUAL_RTOL * scale:  # written so that NaN fails
        raise DiagonalizationError(
            f"secular roots miss the trace by {defect:.3e}, "
            f"more than {_RESIDUAL_RTOL:.0e} * {scale:.3e}"
        )
    defect = abs(float(weights.sum()) - 1.0)
    if not defect <= _ORTHO_TOL:  # written so that NaN fails
        raise DiagonalizationError(f"secular weights miss sum 1 by {defect:.3e}")
    return zeros, weights
