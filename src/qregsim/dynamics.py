"""Exact unitary evolution in the one-excitation sector and its observables.

The global state is a complex amplitude vector over the ordered basis
(spin flips |1>..|N>, single bosons |k_1>..|k_Nb>). Evolution is spectral:
project the initial amplitudes on the eigenvectors, rotate each component by
exp(-i E_i t), reconstruct. Tracing out the bath leaves a rank-<=2 register
state P1 |psi_s><psi_s| + P0 |0><0|, fully described by the spin amplitude
block, from which fidelity, the decoherence function, and the entropies
follow.

Two routes reach the spin block. `evolve` reconstructs all d = N + N_b
amplitudes at any times, densely, and is the reference the tests and the
acceptance criteria compare against. `run_preparations` (and
`run_time_series`, its one-preparation case) needs the spin state
on a uniform grid only, and only in the r spin directions the bath reaches:
it evaluates them as one type-1 nonuniform FFT per coupled direction
(Gaussian gridding), O(r d + r T log T) time and O(r T) memory, and the
dark, decoherence-free directions contribute one exact phase
exp(-i epsilon t). It forms neither the bath block nor the N qubit rows.
The reduced energies and spin columns it transforms come from one
`_reduced_spectrum` call per model, however many preparations it evolves;
that function is the one place that picks a spectrum route and its
docstring describes the routes. `spin_spectrum` expands them to all
N + N_b energies and the N x (N + N_b) spin block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvformat import format_rows
from .model import ModelParams, build_h1
from .sector import RegisterShape
from .selfenergy import _closed_form
from .spectral import (
    DiagonalizationError,
    SpectralDecomposition,
    _assemble,
    _deflate,
    _five_smooth,
    _secular_spectrum,
    diagonalize,
)

__all__ = [
    "Observables",
    "Spectrum",
    "TimeGrid",
    "TimeSeries",
    "RelaxationFit",
    "RelaxationFitError",
    "initial_amplitudes",
    "evolve",
    "observables",
    "binary_entropy_bits",
    "run_preparations",
    "run_time_series",
    "series_to_csv",
    "spin_spectrum",
    "fit_relaxation_time",
    "quadratic_decay_coefficient",
]

#: fraction of the grid (by time, from the end) averaged as the late window
LATE_WINDOW_FRACTION = 0.25

CSV_HEADER = "t,fidelity,entropy_bits,p0,p1,d_re,d_im"

# Gaussian-gridding NUFFT of the spin block (Dutt & Rokhlin 1993, Greengard &
# Lee 2004): least oversampling factor and spreading half-width in grid
# cells. At oversampling sigma, truncating the Gaussian and aliasing each
# cost exp(-pi w (sigma - 1/2) / sigma) of the spread weight, exp(-12 pi) ~
# 4e-17 at sigma = 2, which the deconvolution amplifies by at most
# exp(pi w / (4 sigma (sigma - 1/2))), exp(4 pi / 3) at sigma = 2; all three
# only improve for sigma >= 2, so the transform is exact to a few 1e-15
# relative to sum_j |V_aj p_j|.
_NUFFT_OVERSAMPLING = 2
_NUFFT_HALF_WIDTH = 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * t_max / (n_steps - 1), j = 0..n_steps-1."""

    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError("t_max must be positive and finite")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps)


class Observables(NamedTuple):
    """Register observables, one entry per amplitude row (see observables)."""

    d: np.ndarray
    fidelity: np.ndarray
    p1: np.ndarray
    p0: np.ndarray
    entropy_bits: np.ndarray


@dataclass(eq=False)
class TimeSeries:
    """One run: the grid times, the observables at each time, the late means.

    ``obs`` holds one entry per grid time of each observable column
    (``series.obs.fidelity``, ``series.obs.d`` and so on). The late window
    is the final quarter of the grid by time; its fidelity and entropy
    means operationalize the long-time plateau values.
    """

    times: np.ndarray
    obs: Observables
    late_fidelity_mean: float
    late_entropy_mean: float

    def __len__(self) -> int:
        return self.times.size


def _late_window(times: np.ndarray) -> np.ndarray:
    """Mask of the final quarter of an ascending time axis, by time.

    The cut sits 1e-12 of the span below t_0 + 3/4 (t_last - t_0), so a
    grid point that lies on it exactly, up to rounding, is inside.
    """
    span = times[-1] - times[0]
    return times >= times[0] + (1.0 - LATE_WINDOW_FRACTION) * span * (1.0 - 1e-12)


def initial_amplitudes(prep: np.ndarray, shape: RegisterShape) -> np.ndarray:
    """Embed a normalized spin state as (spin block = prep, boson block = 0)."""
    prep = np.asarray(prep, dtype=complex)
    if prep.shape != (shape.n_qubits,):
        raise ValueError(
            f"preparation has {prep.size} amplitudes for {shape.n_qubits} qubits"
        )
    norm = float(np.linalg.norm(prep))
    if not abs(norm - 1.0) <= 1e-9:  # written so that NaN fails
        raise ValueError(f"preparation must have unit norm, got norm {norm!r}")
    c0 = np.zeros(shape.n_qubits + shape.n_modes, dtype=complex)
    c0[: shape.n_qubits] = prep
    return c0


def evolve(sd: SpectralDecomposition, c0: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Amplitudes sum_i <phi_i|c0> exp(-i E_i t) |phi_i> at time(s) t.

    A scalar t gives one amplitude vector; an array of times gives one
    amplitude row per time, of shape t.shape + c0.shape.
    """
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != sd.eigenvalues.shape:
        raise ValueError(f"amplitude vector has size {c0.size}, expected {sd.eigenvalues.size}")
    proj = sd.eigenvectors.conj().T @ c0
    return (np.exp(-1j * np.multiply.outer(t, sd.eigenvalues)) * proj) @ sd.eigenvectors.T


def binary_entropy_bits(p1: np.ndarray) -> np.ndarray:
    """Entropy in bits of the distribution {p1, p0 = 1 - p1}, elementwise.

    0 log2 0 = 0, and a result rounded below zero is clamped to 0.
    """
    p0 = 1.0 - p1
    pc1 = np.clip(p1, 1e-300, 1.0)
    pc0 = np.clip(p0, 1e-300, 1.0)
    return np.maximum(-(p1 * np.log2(pc1) + p0 * np.log2(pc0)), 0.0)


def observables(c0: np.ndarray, c: np.ndarray, n_qubits: int) -> Observables:
    """Register observables of amplitude rows c (last axis over the basis).

    Tracing out the bath kills the spin-boson cross terms, so the register
    state is fixed by the spin block: p1 = sum_alpha |C_alpha|^2 (clamped to
    at most 1) and the leaked weight p0 = 1 - p1. Only the first n_qubits
    entries of each row are read, so c may be full amplitude rows or spin
    blocks alone. p0 + p1 = 1 therefore holds by construction and says
    nothing about norm drift. Its guard is the check of the spectrum's route
    (see _reduced_spectrum), so every evolved state has unit norm to that
    route's tolerance.
    D(t) = sum_alpha C_alpha(t) conj(C_alpha(0)); for the half-and-half
    superposition of the reference state with the spin preparation the
    register coherence is D/2. For a pure spin preparation c0 the fidelity
    is <psi_0|rho_s|psi_0> = |D|^2. The register entropy S is the binary
    entropy of {p1, p0}, binary_entropy_bits(p1). The global state is pure,
    so the bath entropy equals S, both conditional entropies equal -S, and
    the mutual entropy is -2S. run_time_series keeps the result whole as
    TimeSeries.obs.
    """
    c = np.asarray(c)
    spin = c[..., :n_qubits]
    d = spin @ np.asarray(c0)[:n_qubits].conj()
    p1 = np.minimum(np.sum(np.abs(spin) ** 2, axis=-1), 1.0)
    return Observables(
        d=d,
        fidelity=np.minimum(np.abs(d) ** 2, 1.0),
        p1=p1,
        p0=1.0 - p1,
        entropy_bits=binary_entropy_bits(p1),
    )


class Spectrum(NamedTuple):
    """All N + N_b one-excitation energies, ascending, the N x (N + N_b) spin
    block of matching eigenvectors, and for a coupling of rank one the
    N_b + 1 energies of the sector it reaches (else None); see
    spin_spectrum."""

    energies: np.ndarray
    spin: np.ndarray
    roots: np.ndarray | None


class _Reduced(NamedTuple):
    """A spectrum in the spin directions the bath reaches (see
    _reduced_spectrum), with the fields spectral._assemble expands it by."""

    energies: np.ndarray  # the reduced problem's energies, ascending
    columns: np.ndarray  # r x m: their spin columns in basis
    basis: np.ndarray  # N x r: the coupled spin directions
    dark: np.ndarray  # N x (N - r): the decoherence-free states, at epsilon
    pinned: np.ndarray  # the bath states with no spin weight
    epsilon: float
    roots: np.ndarray | None  # Spectrum.roots


def _reduced_spectrum(params: ModelParams) -> _Reduced:
    """The spectrum of the one-excitation sector in the coupled spin
    directions. The solver is picked here, and only here, by the rank r of
    the coupling G after spectral._deflate has taken out the dark spin
    states (ker G, the paper's decoherence-free states, at epsilon) and the
    bath states no spin state reaches (pinned at their frequencies):

    - r = 1 (uniform coupling, or any G = c u^T): the coupled spin state s
      spreads over the zeros E_j of the secular equation with weights
      w_j = 1 / P'(E_j) (spectral._secular_spectrum, with its trace and sum
      rule checks), each giving the column sqrt(w_j). No eigensolve, and
      no solve at all when no mode stays coupled (g0 = 0 among others).
      roots holds the zeros and the pinned frequencies. O(N_b^2) time per
      root iteration step; on at least 400 evenly spaced coupled modes (the
      linear dispersion) O(N_b (w + P)) per step instead, after
      O(N_b log N_b) for the near/far sums' tables. Either way one dense
      O(N_b^2) pass at the zeros gives the weights and checks every zero's
      residual. Memory bounded by row chunks;
    - r >= 2: selfenergy._closed_form on the reduced problem, certified to
      orthonormality 5e-14. O(d N_b r^2) time, O(chunk N_b) memory.

    If the deflation refuses a model (modes at one frequency that reach two
    spin directions), or a check or the certificate fails (near-degenerate
    states the closed form cannot resolve), the route falls back to
    diagonalize(build_h1(params)), called through this module's names: all
    d energies and the first N rows of its eigenvectors, orthonormal to
    1e-10, in the basis I_N with no dark or pinned states. H is built on
    this fallback alone, at O(d^2) memory and O(d^3) time.
    """
    try:
        model = _deflate(params)
        parts = model.basis, model.dark, model.pinned, model.epsilon
        if model.g.shape[1] > 1:  # the deflated rank r
            return _Reduced(*_closed_form(model), *parts, None)
        zeros, weights = _secular_spectrum(model)
        roots = np.sort(np.concatenate([zeros, model.pinned]))
        return _Reduced(zeros, np.sqrt(weights)[None], *parts, roots)
    except DiagonalizationError:
        n = params.shape.n_qubits
        sd = diagonalize(build_h1(params))
        return _Reduced(
            sd.eigenvalues, sd.eigenvectors[:n], np.eye(n), np.zeros((n, 0)), np.zeros(0),
            params.epsilon, None,
        )


def spin_spectrum(params: ModelParams) -> Spectrum:
    """The spectrum of the one-excitation sector as the register sees it.

    Only the energies E_j and the spin block V_s of matching eigenvectors
    enter the register dynamics: the spin amplitudes evolve as
    C(t) = V_s diag(exp(-i E t)) V_s^H C(0). This is _reduced_spectrum,
    whose docstring describes the routes, expanded by spectral._assemble:
    the reduced spin columns are mapped out of the coupled basis, and the
    pinned bath states and the dark spin states are appended.
    """
    reduced = _reduced_spectrum(params)
    return Spectrum(*_assemble(reduced, reduced.energies, reduced.columns), reduced.roots)


def _spin_amplitudes(
    energies: np.ndarray, columns: np.ndarray, coords: np.ndarray, grid: TimeGrid,
    dark: float, epsilon: float,
) -> np.ndarray:
    """Spin coordinates of the evolved state at every grid time, as a
    C-ordered (T, r + 1) block: the transform of the r coupled coordinates
    in its first r columns, and dark exp(-i epsilon t_k) in its last, the
    coordinate of the preparation's part in the dark directions, of norm
    dark, which only turns by the exact phase at epsilon. dark is 0 at full
    rank and on the fallback, where the last column is 0.

    C[k, a] = sum_j V[a, j] p_j exp(-i k x_j) with p = V^H b, x_j = E_j dt,
    V the r x m spin columns of m energies in orthonormal spin coordinates
    and b the preparation's r coordinates in them. run_preparations passes
    the reduced columns of _reduced_spectrum, one row per coupled spin
    direction; the N x (N + N_b) spin block of spin_spectrum in the qubit
    basis is the case r = N, dark = 0. It is a type-1 nonuniform FFT of the m points x_j onto the modes
    k = 0..T-1, one per row. Each point is spread onto an oversampled
    periodic grid of M cells, the least 5-smooth length >= 2T (a fast FFT
    length, oversampling sigma = M / T >= 2), with the Gaussian
    exp(-(x - x_m)^2 / 4 tau); one FFT per row then gives the Fourier
    coefficients of the spread sum, and dividing by the Gaussian's own
    coefficients recovers the exact sum. The modes are shifted by
    k0 = (T - 1) // 2 so that |k - k0| <= T / 2, where the deconvolution
    factor stays below exp(4 pi / 3). Cost O(r m w + r M log M), memory
    O(r M) (w = the spreading half-width; M ~ 2T, m <= d), against O(T d^2)
    for evolve. Each row's grid is transformed as soon as it is spread and
    written back over itself, so that one row's transform at a time is
    alive beside the grids, and the block is allocated once the grids are
    freed.
    """
    n, n_steps = coords.size, grid.n_steps
    dt = grid.t_max / (n_steps - 1)
    k0 = (n_steps - 1) // 2
    # the shift's phase comes from E_j t_k0 itself; the transform needs x_j
    # only mod 2 pi, reduced to [-pi, pi] so that small |x_j| stay exact
    coef = columns * ((columns.conj().T @ coords) * np.exp(-1j * energies * (k0 * dt)))
    x = energies * dt
    x -= 2.0 * np.pi * np.round(x / (2.0 * np.pi))

    w = _NUFFT_HALF_WIDTH
    n_cells = _five_smooth(_NUFFT_OVERSAMPLING * n_steps)
    sigma = n_cells / n_steps
    tau = np.pi * w / (n_steps**2 * sigma * (sigma - 0.5))
    # kernel distances in cell units, from the exact fractional part of
    # x_j / spacing: absolute rounding in x would be amplified by T
    u = x * (n_cells / (2.0 * np.pi))
    base = np.floor(u)
    offsets = np.arange(1 - w, w + 1)
    kernel = np.exp(
        -(((u - base)[:, None] - offsets) ** 2) * (np.pi * (sigma - 0.5) / (sigma * w))
    )
    cells = ((base.astype(np.int64)[:, None] + offsets) % n_cells).ravel()
    # one row at a time, two real bincounts over the cells of every point
    # spread its real and imaginary parts, each cell's terms summed in
    # order, and the row's FFT takes the place of its grid
    spread = np.empty((n, n_cells), complex)
    for a in range(n):
        weights = (coef[a, :, None] * kernel).ravel()
        spread[a].real = np.bincount(cells, weights.real, n_cells)
        spread[a].imag = np.bincount(cells, weights.imag, n_cells)
        spread[a] = np.fft.fft(spread[a])
    modes = np.arange(n_steps) - k0
    amplitudes = spread[:, modes % n_cells]
    del spread  # bounds the peak at the spread grid and the amplitudes
    block = np.empty((n_steps, n + 1), complex)
    np.multiply(amplitudes, np.sqrt(np.pi / tau) / n_cells * np.exp(tau * modes**2), out=block[:, :n].T)
    np.multiply(dark, np.exp(-1j * epsilon * grid.times()), out=block[:, n])
    return block


def run_preparations(
    params: ModelParams, preps: list[np.ndarray], grid: TimeGrid
) -> list[TimeSeries]:
    """Evolve several spin preparations of one model over one uniform grid.

    Returns one TimeSeries per preparation, in order, each as
    run_time_series(params, prep, grid) returns it and equal to it bit for
    bit: the same reduced spectrum, taken here by one _reduced_spectrum call
    that every preparation then reads, with no cache beyond this call. So a
    figure that compares preparations of one model (the first-M
    superpositions, the symmetric and antisymmetric states) pays for one
    solve. Every preparation is checked (initial_amplitudes) before the
    solve.

    Each run works in the coordinates of _reduced_spectrum: the
    preparation's r coordinates b = basis^H psi_0 in the coupled directions
    are evolved by one nonuniform FFT per coupled direction
    (_spin_amplitudes), and its part in the dark directions,
    z = dark^H psi_0, only turns by the exact phase exp(-i epsilon t), so
    it enters as one more coordinate ||z|| exp(-i epsilon t_k) with
    ||z|| at t = 0, which _spin_amplitudes writes into the last column of
    its block on every route (||z|| = 0 at full rank and on the fallback).
    D, p1 and F are inner products and norms of the spin state, so
    observables gives them from these r + 1 coordinates exactly as from the
    N qubit amplitudes. Neither the bath block nor the N rows of the spin
    block are formed: O(r d + r T log T) time and O(r T) memory per
    preparation after the spectrum (see _reduced_spectrum). p0 is 1 - p1
    (see observables), so the guard on norm conservation is the check of
    the spectrum's route.
    """
    n = params.shape.n_qubits
    spins = [initial_amplitudes(prep, params.shape)[:n] for prep in preps]
    reduced = _reduced_spectrum(params)
    runs = []
    for c0 in spins:
        times = grid.times()
        coords = reduced.basis.conj().T @ c0
        dark = float(np.linalg.norm(reduced.dark.conj().T @ c0))
        amplitudes = _spin_amplitudes(
            reduced.energies, reduced.columns, coords, grid, dark, reduced.epsilon
        )
        obs = observables(np.append(coords, dark), amplitudes, coords.size + 1)
        late = _late_window(times)
        runs.append(
            TimeSeries(
                times=times,
                obs=obs,
                late_fidelity_mean=float(obs.fidelity[late].mean()),
                late_entropy_mean=float(obs.entropy_bits[late].mean()),
            )
        )
    return runs


def run_time_series(
    params: ModelParams, prep: np.ndarray, grid: TimeGrid
) -> TimeSeries:
    """Evolve a spin preparation over a uniform time grid.

    Returns the grid times, the observables at every grid time (see
    observables) and the fidelity and entropy means over the late window,
    the final quarter of the grid by time. This is run_preparations for
    one preparation, whose docstring describes the evolution; to evolve
    several preparations of one model, call that instead, which solves
    the model once.
    """
    return run_preparations(params, [prep], grid)[0]


def series_to_csv(series: TimeSeries) -> str:
    """CSV text: header then one row per time, each value as ``"%.17g" % x``.

    The columns are the times and the observables of ``series.obs``, with
    D split into d_re and d_im. `csvformat.format_rows` writes the rows
    with numpy, `csvformat.BLOCK_ROWS` rows at a time. It takes the 17
    digits of a value from a double-double product |x| 10^(16 - k) whose
    rounding is certified: the product is within 1e-14 of exact, so a
    fraction farther than 1e-6 from 1/2 rounds as the exact value does.
    Values it cannot certify fall back to ``"%.17g" % x``: +-0, non-finite
    values, magnitudes outside [1e-290, 1e300] and fractions within 1e-6
    of 1/2 (possible ties). The bytes are those of the per-value ``%``.
    """
    obs = series.obs
    stack = np.column_stack(
        (series.times, obs.fidelity, obs.entropy_bits, obs.p0, obs.p1, obs.d.real, obs.d.imag)
    )
    return f"{CSV_HEADER}\n{format_rows(stack)}"


class RelaxationFitError(RuntimeError):
    """No exponential-decay segment could be fitted."""


class RelaxationFit(NamedTuple):
    """Exponential relaxation time of a fidelity decay, F ~ exp(-t/tau)."""

    tau: float
    t_start: float
    t_stop: float
    n_points: int
    plateau: float


def fit_relaxation_time(times: np.ndarray, fid: np.ndarray) -> RelaxationFit:
    """Least-squares fit of log F against t over the exponential segment.

    The asymptotic plateau is estimated as the fidelity mean over the final
    quarter of the time axis by time, the late window of run_time_series.
    For fully decaying curves (plateau < 0.1) the fit window is F in
    [0.2, 0.8]; when the fidelity plateaus higher (a protected component
    survives) only the early decay is exponential and the window is taken
    where the remaining-decay fraction (F - plateau)/(1 - plateau) lies
    in [0.80, 0.98]. In both cases the segment is the first monotone
    (nonincreasing) run inside the window; a substantial fidelity revival
    after the segment marks the oscillatory strong-coupling regime, which is
    reported instead of fitted.
    """
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fid, dtype=float)
    if times.shape != fid.shape or times.size < 8:
        raise ValueError("need matching time/fidelity arrays with >= 8 samples")

    plateau = float(fid[_late_window(times)].mean())
    if plateau < 0.1:
        lo, hi = 0.2, 0.8
    else:
        lo = plateau + 0.80 * (1.0 - plateau)
        hi = plateau + 0.98 * (1.0 - plateau)

    inside = np.flatnonzero((fid >= lo) & (fid <= hi))
    if inside.size == 0:
        raise RelaxationFitError(
            f"fidelity never enters the fit window [{lo:.3g}, {hi:.3g}]"
        )
    i0 = int(inside[0])
    j = i0
    while j + 1 < fid.size and lo <= fid[j + 1] <= hi and fid[j + 1] <= fid[j] + 1e-6:
        j += 1

    # A revival back above the window midpoint after the curve has fallen
    # below the window means the decay is not exponential but oscillatory
    # (Rabi-like energy exchange); post-decay bath recurrences stay lower.
    below = np.flatnonzero(fid[j:] < lo)
    if below.size:
        k = j + int(below[0])
        if fid[k:].size and float(np.max(fid[k:])) > 0.5 * (lo + hi):
            raise RelaxationFitError("oscillatory regime, fit skipped")
    if j - i0 + 1 < 8:
        raise RelaxationFitError(
            f"only {j - i0 + 1} samples in the decay segment; refine the time grid"
        )

    t_seg = times[i0 : j + 1]
    y = np.log(fid[i0 : j + 1])
    design = np.column_stack([t_seg, np.ones_like(t_seg)])
    (slope, _), *_ = np.linalg.lstsq(design, y, rcond=None)
    if slope >= 0.0:
        raise RelaxationFitError("no decay in the fitted segment")
    return RelaxationFit(
        tau=float(-1.0 / slope),
        t_start=float(t_seg[0]),
        t_stop=float(t_seg[-1]),
        n_points=int(t_seg.size),
        plateau=plateau,
    )


def quadratic_decay_coefficient(times: np.ndarray, fid: np.ndarray) -> float:
    """Coefficient a of the short-time law F ~= 1 - a t^2.

    Fits 1 - F against {t^2, t^4}; the quartic nuisance term absorbs the
    bath-bandwidth curvature that would otherwise bias a over windows of a
    few tenths of a time unit.
    """
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fid, dtype=float)
    design = np.column_stack([times**2, times**4])
    coef, *_ = np.linalg.lstsq(design, 1.0 - fid, rcond=None)
    return float(coef[0])
