import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qregsim.dynamics
from qregsim import (
    CosineCoupling,
    DiagonalizationError,
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    Observables,
    RegisterShape,
    RelaxationFitError,
    TimeGrid,
    TimeSeries,
    UniformCoupling,
    binary_entropy_bits,
    build_h1,
    build_preset,
    diagonalize,
    evolve,
    expm,
    expm_evolve,
    fit_relaxation_time,
    initial_amplitudes,
    m_superposition,
    momentum_state,
    observables,
    run_time_series,
    series_to_csv,
    spin_spectrum,
    symmetric_state,
)

from qregsim import csvformat
from qregsim.csvformat import BLOCK_ROWS, format_rows
from qregsim.dynamics import _spin_amplitudes

from oracle import oracle_spin_blocks

# frozen oracle: -0.75*log2(0.75) - 0.25*log2(0.25)
ENTROPY_AT_THREE_QUARTERS = 0.8112781244591328


def jc_params(g=0.05):
    return ModelParams(
        RegisterShape(1, 1), UniformCoupling(g), dispersion=ExplicitDispersion([1.0])
    )


#: mode frequencies on a 0.01 grid, drawn with repeats so that degenerate
#: dispersions occur; epsilon may sit on one of them
_frequency = st.integers(5, 300).map(lambda k: k / 100)


@st.composite
def _models(draw):
    n = draw(st.integers(1, 4))
    omegas = draw(st.lists(_frequency, min_size=1, max_size=12))
    nb = len(omegas)
    g0 = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["uniform", "cosine", "explicit"]))
    if kind == "uniform":
        coupling = UniformCoupling(g0)
    elif kind == "cosine":
        coupling = CosineCoupling(g0, draw(st.floats(0.5, 20.0)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
        coupling = ExplicitCoupling(g0 / np.sqrt(2.0) * g)
    return ModelParams(
        RegisterShape(n, nb),
        coupling,
        epsilon=draw(st.one_of(st.sampled_from(omegas), st.floats(0.05, 3.0))),
        dispersion=ExplicitDispersion(omegas),
    )


def _on_mode(g0, omegas=(0.5, 1.0, 1.5)):
    """Uniform coupling with epsilon = 1 on a mode frequency (or, given
    omegas, on their first)."""
    return ModelParams(
        RegisterShape(2, len(omegas)),
        UniformCoupling(g0),
        epsilon=1.0 if 1.0 in omegas else omegas[0],
        dispersion=ExplicitDispersion(list(omegas)),
    )


#: strong cosine coupling on which the dense reference misses at t = 2000:
#: its entropy is 1.08e-11 from the NUFFT route's, which is 1.3e-12 from a
#: 40-digit eigensolve
STRONG_COSINE = ModelParams(
    RegisterShape(3, 11),
    CosineCoupling(0.9383373702435103, 4.114013376703427),
    epsilon=0.5278463178466498,
    dispersion=ExplicitDispersion([2.01, 2.36, 2.23, 1.23, 0.16, 2.27, 1.08, 1.8, 0.21, 1.7, 1.72]),
)


@st.composite
def _grids(draw):
    return TimeGrid(draw(st.floats(0.1, 2000.0)), draw(st.integers(2, 600)))


class TestInitialAmplitudes:
    def test_embedding(self):
        shape = RegisterShape(2, 3)
        c0 = initial_amplitudes(symmetric_state(2), shape)
        assert np.allclose(c0[:2], 1 / math.sqrt(2))
        assert np.all(c0[2:] == 0)
        c0 = initial_amplitudes(m_superposition(4, 2), RegisterShape(4, 5))
        assert np.allclose(c0[:4], [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])

    def test_rejects_unnormalized_or_wrong_size(self):
        shape = RegisterShape(2, 3)
        with pytest.raises(ValueError):
            initial_amplitudes(np.array([1.0, 1.0]), shape)
        with pytest.raises(ValueError):
            initial_amplitudes(symmetric_state(3), shape)
        with pytest.raises(ValueError):
            initial_amplitudes(np.array([np.nan, 1.0]), shape)


class TestEvolve:
    def test_time_zero_is_identity(self):
        params = jc_params()
        sd = diagonalize(build_h1(params))
        c0 = initial_amplitudes(symmetric_state(1), params.shape)
        assert np.max(np.abs(evolve(sd, c0, 0.0) - c0)) < 1e-12
        # an amplitude vector of another size than the eigensystem is refused
        sd = diagonalize(np.diag([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError, match="amplitude vector has size 3, expected 4"):
            evolve(sd, np.ones(3), 0.0)

    def test_eigenvector_acquires_pure_phase(self):
        params = ModelParams(RegisterShape(2, 4), UniformCoupling(0.07))
        sd = diagonalize(build_h1(params))
        v = sd.eigenvectors[:, 2]
        ct = evolve(sd, v, 3.7)
        expect = np.exp(-1j * sd.eigenvalues[2] * 3.7) * v
        assert np.max(np.abs(ct - expect)) < 1e-12

    def test_jc_rabi_oscillation(self):
        # oracle: resonant two-level closed form |C_spin|^2 = cos^2(gt)
        g = 0.05
        params = jc_params(g)
        sd = diagonalize(build_h1(params))
        c0 = initial_amplitudes(symmetric_state(1), params.shape)
        for t in (0.0, math.pi / (4 * g), math.pi / (2 * g)):
            ct = evolve(sd, c0, t)
            assert abs(abs(ct[0]) ** 2 - math.cos(g * t) ** 2) < 1e-10

    def test_norm_conserved(self):
        rng = np.random.default_rng(3)
        params = ModelParams(
            RegisterShape(2, 6), ExplicitCoupling(0.1 * rng.standard_normal((6, 2)))
        )
        sd = diagonalize(build_h1(params))
        for _ in range(25):
            c0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            c0 /= np.linalg.norm(c0)
            for t in (1.0, 10.0, 100.0, 1000.0):
                assert abs(np.linalg.norm(evolve(sd, c0, t)) - 1.0) < 1e-10

    def test_time_array_gives_one_row_per_time(self):
        params = ModelParams(RegisterShape(2, 5), UniformCoupling(0.04))
        sd = diagonalize(build_h1(params))
        c0 = initial_amplitudes(symmetric_state(2), params.shape)
        times = np.array([[0.0, 1.5], [20.0, 300.0]])
        rows = evolve(sd, c0, times)
        assert rows.shape == (2, 2, 7)
        for idx in np.ndindex(times.shape):
            assert np.max(np.abs(rows[idx] - evolve(sd, c0, times[idx]))) < 1e-14

    def test_phases_compose(self):
        params = ModelParams(RegisterShape(2, 5), UniformCoupling(0.04))
        sd = diagonalize(build_h1(params))
        c0 = initial_amplitudes(momentum_state(2, 1), params.shape)
        lhs = evolve(sd, evolve(sd, c0, 5.0), 8.5)
        rhs = evolve(sd, c0, 13.5)
        assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(14)
        params = ModelParams(
            RegisterShape(2, 3), ExplicitCoupling(rng.uniform(-0.1, 0.1, (3, 2)))
        )
        h = build_h1(params)
        sd = diagonalize(h)
        c0 = initial_amplitudes(symmetric_state(2), params.shape)
        for t in (1.0, 10.0, 100.0):
            diff = evolve(sd, c0, t) - expm_evolve(h, c0, t)
            assert np.linalg.norm(diff) < 1e-8

    def test_real_route_matches_matrix_exponential_oracle(self):
        # cosine coupling is real, so the eigensolve runs in float64
        params = ModelParams(RegisterShape(3, 6), CosineCoupling(0.08, 2.0))
        h = build_h1(params)
        sd = diagonalize(h)
        assert sd.eigenvectors.dtype == np.float64
        c0 = initial_amplitudes(m_superposition(3, 2), params.shape)
        for t in (1.0, 10.0, 100.0):
            diff = evolve(sd, c0, t) - expm_evolve(h, c0, t)
            assert np.linalg.norm(diff) < 1e-8


class TestMatrixExponential:
    def test_diagonal(self):
        a = np.diag([0.3, -1.2 + 0.5j])
        assert np.max(np.abs(expm(a) - np.diag(np.exp(np.diag(a))))) < 1e-14

    def test_rotation_closed_form(self):
        theta = 1.234
        a = np.array([[0.0, theta], [-theta, 0.0]])
        expect = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        assert np.max(np.abs(expm(a) - expect)) < 1e-14

    def test_unitarity_at_long_times(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        h = a + a.T
        u = expm(-1j * 500.0 * h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-10


class TestReduceAndObservables:
    def test_initial_state_keeps_excitation(self):
        c0 = initial_amplitudes(symmetric_state(3), RegisterShape(3, 4))
        obs = observables(c0, c0, 3)
        assert obs.p1 == pytest.approx(1.0, abs=1e-12)
        assert obs.p0 == 0.0

    def test_fully_leaked_state(self):
        c0 = initial_amplitudes(symmetric_state(2), RegisterShape(2, 3))
        c = np.zeros(5, dtype=complex)
        c[3] = 1.0
        obs = observables(c0, c, 2)
        assert obs.p1 == 0.0
        assert obs.p0 == pytest.approx(1.0, abs=1e-12)
        assert obs.d == 0.0
        assert obs.entropy_bits == 0.0

    def test_probabilities_sum_to_one_over_random_states(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((1000, 9)) + 1j * rng.standard_normal((1000, 9))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        c0 = initial_amplitudes(symmetric_state(4), RegisterShape(4, 5))
        obs = observables(c0, c, 4)
        assert obs.p1.shape == obs.p0.shape == (1000,)
        assert np.max(np.abs(obs.p0 + obs.p1 - 1.0)) < 1e-12
        assert np.max(np.abs(obs.p1 - np.linalg.norm(c[:, :4], axis=1) ** 2)) < 1e-12

    def test_fidelity_identities(self):
        shape = RegisterShape(2, 3)
        c0 = initial_amplitudes(symmetric_state(2), shape)
        leaked = np.zeros(5, dtype=complex)
        leaked[4] = 1.0
        obs = observables(c0, np.array([c0, leaked]), 2)
        assert obs.fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert obs.d[0] == pytest.approx(1.0, abs=1e-12)
        assert obs.fidelity[1] == 0.0

    def test_fidelity_equals_decoherence_modulus_squared(self):
        rng = np.random.default_rng(21)
        c0 = initial_amplitudes(symmetric_state(3), RegisterShape(3, 5))
        ct = rng.standard_normal((50, 8)) + 1j * rng.standard_normal((50, 8))
        ct /= np.linalg.norm(ct, axis=1, keepdims=True)
        obs = observables(c0, ct, 3)
        assert np.max(np.abs(obs.fidelity - np.abs(obs.d) ** 2)) < 1e-12
        assert np.array_equal(obs.d, ct[:, :3] @ c0[:3].conj())

    def test_global_phase_invariance(self):
        params = ModelParams(RegisterShape(2, 8), UniformCoupling(0.05))
        sd = diagonalize(build_h1(params))
        prep = symmetric_state(2)
        base = initial_amplitudes(prep, params.shape)
        want = observables(base, evolve(sd, base, 4.2), 2).fidelity
        for phase in (1.0, 1j, np.exp(0.7j)):
            c0 = initial_amplitudes(phase * prep, params.shape)
            got = observables(c0, evolve(sd, c0, 4.2), 2).fidelity
            assert got == pytest.approx(want, abs=1e-12)

    def test_entropy_values(self):
        p1 = np.array([1.0, 0.5, 0.75, 0.25, 0.0])
        s = binary_entropy_bits(p1)
        expect = [0.0, 1.0, ENTROPY_AT_THREE_QUARTERS, ENTROPY_AT_THREE_QUARTERS, 0.0]
        assert np.allclose(s, expect, atol=1e-12, rtol=0)
        assert s[0] == s[-1] == 0.0
        c = np.array([[1.0, 0.0], [math.sqrt(0.75), math.sqrt(0.25)]])
        obs = observables(c[0], c, 1)
        assert np.allclose(obs.entropy_bits, [0.0, ENTROPY_AT_THREE_QUARTERS], atol=1e-12)

    def test_entropy_matches_scalar_reference(self):
        # reference: the per-element sum -p log2 p with 0 log2 0 = 0
        rng = np.random.default_rng(12)
        p1 = np.r_[0.0, 1.0, 1e-300, rng.uniform(0.0, 1.0, 200)]
        want = [
            -sum(p * math.log2(p) for p in pair if p > 0.0) for pair in zip(p1, 1.0 - p1)
        ]
        assert np.allclose(binary_entropy_bits(p1), want, atol=1e-15, rtol=1e-14)


class TestRunTimeSeries:
    def test_first_record_is_pristine(self):
        params = ModelParams(RegisterShape(2, 10), UniformCoupling(0.02))
        series = run_time_series(params, symmetric_state(2), TimeGrid(10.0, 21))
        assert series.times[0] == 0.0
        assert series.obs.fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert series.obs.entropy_bits[0] == pytest.approx(0.0, abs=1e-12)
        assert series.obs.p1[0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_consistency_along_the_grid(self):
        params = ModelParams(RegisterShape(3, 12), UniformCoupling(0.03))
        series = run_time_series(params, m_superposition(3, 2), TimeGrid(50.0, 301))
        assert np.max(np.abs(series.obs.p0 + series.obs.p1 - 1.0)) < 1e-10
        assert np.all((series.obs.p0 >= 0) & (series.obs.p0 <= 1))
        assert np.all((series.obs.p1 >= 0) & (series.obs.p1 <= 1))
        d_sq = series.obs.d.real**2 + series.obs.d.imag**2
        assert np.max(np.abs(series.obs.fidelity - d_sq)) < 1e-12
        assert np.all(series.obs.entropy_bits >= 0.0)
        assert np.all(series.obs.entropy_bits <= 1.0 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(params=_models(), prep_seed=st.integers(0, 2**32 - 1), grid=_grids())
    @example(params=jc_params(1.0), prep_seed=0, grid=TimeGrid(7.0, 2))
    @example(params=jc_params(1.0), prep_seed=0, grid=TimeGrid(7.0, 3))
    # epsilon on a mode: the two roots sit +-sqrt(W) from it, where weights
    # taken from E - omega instead of the offsets lose 1e-11 (g0 = 1e-5) and
    # 1e-7 (g0 = 1e-9) of their relative accuracy
    @example(params=_on_mode(1e-5), prep_seed=0, grid=TimeGrid(2000.0, 401))
    @example(params=_on_mode(1e-9), prep_seed=0, grid=TimeGrid(2000.0, 401))
    @example(params=_on_mode(0.0), prep_seed=0, grid=TimeGrid(2000.0, 401))
    @example(params=_on_mode(0.05, [0.8, 0.8, 0.8, 1.3]), prep_seed=1, grid=TimeGrid(500.0, 301))
    @example(params=STRONG_COSINE, prep_seed=3978335621, grid=TimeGrid(2000.0, 40))
    def test_matches_dense_route(self, params, prep_seed, grid):
        # the gridded NUFFT of the spin block against evolve + observables;
        # uniform couplings take the secular route, the others the dense one
        n = params.shape.n_qubits
        rng = np.random.default_rng(prep_seed)
        prep = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        prep /= np.linalg.norm(prep)
        series = run_time_series(params, prep, grid)
        c0 = initial_amplitudes(prep, params.shape)
        want = observables(c0, evolve(diagonalize(build_h1(params)), c0, grid.times()), n)
        assert np.array_equal(series.times, grid.times())
        if not all(np.max(np.abs(got - expect)) <= 1e-11 for got, expect in zip(series.obs, want)):
            # under strong coupling eigh's own eigenvalue error reaches 1e-11
            # at t = 2000; the 40-digit eigensolve then decides
            want = observables(c0, oracle_spin_blocks(params, grid.times()) @ prep, n)
        for got, expect in zip(series.obs, want):
            assert np.max(np.abs(got - expect)) <= 1e-11

    def test_complex_couplings_conserve_probability(self):
        rng = np.random.default_rng(33)
        g = 0.05 * (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        params = ModelParams(RegisterShape(3, 8), ExplicitCoupling(g))
        series = run_time_series(params, symmetric_state(3), TimeGrid(40.0, 401))
        assert np.max(np.abs(series.obs.p0 + series.obs.p1 - 1.0)) < 1e-10
        assert np.max(series.obs.fidelity) <= 1.0

    def test_dfs_preparation_is_frozen(self):
        params = ModelParams(RegisterShape(2, 50), UniformCoupling(0.01))
        series = run_time_series(params, momentum_state(2, 1), TimeGrid(500.0, 501))
        assert np.max(np.abs(series.obs.fidelity - 1.0)) < 1e-13
        assert np.max(series.obs.entropy_bits) < 1e-13

    def test_random_dark_preparation_is_frozen(self):
        # any state orthogonal to the symmetric one lies in the dark
        # directions, which only turn by the phase exp(-i epsilon t)
        rng = np.random.default_rng(22)
        prep = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        prep -= np.vdot(symmetric_state(4), prep) * symmetric_state(4)
        prep /= np.linalg.norm(prep)
        params = ModelParams(RegisterShape(4, 200), UniformCoupling(0.01))
        series = run_time_series(params, prep, TimeGrid(2000.0, 20001))
        assert np.max(np.abs(series.obs.fidelity - 1.0)) < 1e-13
        assert np.max(np.abs(series.obs.p1 - 1.0)) < 1e-13
        assert np.max(series.obs.entropy_bits) < 1e-13

    def test_bell_mixture_long_time_state(self):
        # late-window register state: p1 -> |c_a|^2 with amplitudes along the
        # dark state, fidelity -> (1 - |c_s|^2)^2; the window sits after the
        # decay completes but before the first bath recurrence at t = N_b
        cs, ca = 0.6, 0.8
        prep = cs * symmetric_state(2) + ca * momentum_state(2, 1)
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))
        series = run_time_series(params, prep, TimeGrid(180.0, 1801))
        assert series.late_fidelity_mean == pytest.approx((1 - cs**2) ** 2, abs=0.05)
        assert series.obs.p1[-1] == pytest.approx(ca**2, abs=0.05)

        sd = diagonalize(build_h1(params))
        c0 = initial_amplitudes(prep, params.shape)
        c_late = evolve(sd, c0, 150.0)
        dark = momentum_state(2, 1)
        overlap = abs(np.vdot(dark, c_late[:2])) ** 2 / observables(c0, c_late, 2).p1
        assert overlap > 0.95

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_asymptotics_inside_recurrence_window(self, m):
        # a window after the decay (5/Gamma ~ 30) and before the first bath
        # recurrence (t_R = N_b = 200) reproduces the continuum asymptotics
        # F -> (1 - M/N)^2, S -> H2(M/N) for every M
        params = ModelParams(RegisterShape(4, 200), UniformCoupling(0.01))
        series = run_time_series(params, m_superposition(4, m), TimeGrid(190.0, 1901))
        window = series.times >= 100.0
        s_want = {1: ENTROPY_AT_THREE_QUARTERS, 2: 1.0, 3: ENTROPY_AT_THREE_QUARTERS}[m]
        assert abs(series.obs.fidelity[window].mean() - (1 - m / 4) ** 2) <= 0.01
        assert abs(series.obs.entropy_bits[window].mean() - s_want) <= 0.01

    def test_peak_memory_is_linear_in_spin_block(self):
        # 10^6 grid points at d = N + 6: the spread grid and its spectrum take
        # 2 x 16 bytes x rows x 2T, the output columns and the observable
        # temporaries under 64 bytes x T, the spectrum O(d^2); a (T x d)
        # amplitude block would add 16 d T = 128 MB and break the bound.
        # Uniform coupling reaches one spin direction, so the rows are the
        # transformed one and the dark states' phase, r + 1 = 2, at N = 8 as
        # at N = 2; the 8 qubit rows would spread 512 T bytes alone
        nb, n_steps, rows = 6, 1_000_000, 2
        for n in (2, 8):
            params = ModelParams(RegisterShape(n, nb), UniformCoupling(0.05))
            bound = (64 * rows + 64) * n_steps + 32 * (n + nb) ** 2
            tracemalloc.start()
            try:
                series = run_time_series(params, m_superposition(n, 1), TimeGrid(1000.0, n_steps))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(series) == n_steps
            assert peak <= bound

    def test_secular_route_memory_is_chunked(self):
        # N_b = 4000 on a short grid: one unchunked (roots x poles) float64
        # buffer would take 4001 x 4000 x 8 B = 128 MB; the root iteration's
        # row chunks keep the peak near 10 MB, the dense route's d^2 matrix
        # alone would take 128 MB
        n, nb = 2, 4000
        params = ModelParams(RegisterShape(n, nb), UniformCoupling(0.01))
        tracemalloc.start()
        try:
            series = run_time_series(params, symmetric_state(n), TimeGrid(100.0, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 101
        assert peak <= 32 * 2**20

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(10.0, 1)


def _no_closed_form(model):
    raise DiagonalizationError("closed form refused")


def _rank_two(n=4, nb=30):
    rng = np.random.default_rng(7)
    g = 0.03 * rng.standard_normal((nb, 2)) @ rng.standard_normal((2, n))
    return ModelParams(RegisterShape(n, nb), ExplicitCoupling(g))


class TestCoupledSubspace:
    """run_time_series transforms one row per coupled spin direction."""

    @pytest.mark.parametrize(
        "params, fallback, rows",
        [
            (ModelParams(RegisterShape(4, 30), UniformCoupling(0.02)), False, 1),
            (_rank_two(), False, 2),
            (ModelParams(RegisterShape(4, 30), CosineCoupling(0.02, 1.0)), False, 4),
            (ModelParams(RegisterShape(4, 30), CosineCoupling(0.02, 1.0)), True, 4),
        ],
        ids=["uniform", "rank_two", "cosine", "fallback"],
    )
    def test_transforms_one_row_per_coupled_direction(self, params, fallback, rows, monkeypatch):
        real, seen = _spin_amplitudes, []

        def spy(energies, columns, coords, grid, dark, epsilon):
            seen.append(columns.shape[0])
            return real(energies, columns, coords, grid, dark, epsilon)

        monkeypatch.setattr(qregsim.dynamics, "_spin_amplitudes", spy)
        if fallback:
            monkeypatch.setattr(qregsim.dynamics, "_closed_form", _no_closed_form)
        n = params.shape.n_qubits
        prep = m_superposition(n, 3)
        grid = TimeGrid(200.0, 401)
        series = run_time_series(params, prep, grid)
        assert seen == [rows]
        c0 = initial_amplitudes(prep, params.shape)
        want = observables(c0, evolve(diagonalize(build_h1(params)), c0, grid.times()), n)
        for got, expect in zip(series.obs, want):
            assert np.max(np.abs(got - expect)) <= 1e-11

    @pytest.mark.parametrize(
        "params, fallback",
        [
            (build_preset("fig5")[0][0].params, False),
            (ModelParams(RegisterShape(4, 200), CosineCoupling(0.01, 1.0)), False),
            (ModelParams(RegisterShape(4, 200), CosineCoupling(0.01, 1.0)), True),
        ],
        ids=["fig5", "cosine", "fallback"],
    )
    def test_full_rank_runs_transform_the_spin_block(self, params, fallback, monkeypatch):
        # with no dark direction the run is the qubit-basis transform of
        # spin_spectrum's block, bit for bit
        if fallback:
            monkeypatch.setattr(qregsim.dynamics, "_closed_form", _no_closed_form)
        n = params.shape.n_qubits
        prep = m_superposition(n, 1)
        grid = TimeGrid(2000.0, 2001)
        series = run_time_series(params, prep, grid)
        block = _spin_amplitudes(*spin_spectrum(params)[:2], prep, grid, 0.0, params.epsilon)
        want = observables(prep, block, n)
        for got, expect in zip(series.obs, want):
            assert np.array_equal(got, expect)


class TestCsv:
    def test_schema_and_determinism(self):
        params = ModelParams(RegisterShape(2, 6), UniformCoupling(0.02))
        series = run_time_series(params, symmetric_state(2), TimeGrid(5.0, 11))
        text = series_to_csv(series)
        lines = text.splitlines()
        assert lines[0] == "t,fidelity,entropy_bits,p0,p1,d_re,d_im"
        assert len(lines) == 12
        assert text.endswith("\n")
        again = series_to_csv(
            run_time_series(params, symmetric_state(2), TimeGrid(5.0, 11))
        )
        assert text == again

    def test_full_precision_round_trip(self):
        params = ModelParams(RegisterShape(2, 6), UniformCoupling(0.02))
        series = run_time_series(params, symmetric_state(2), TimeGrid(5.0, 11))
        text = series_to_csv(series)
        parsed = np.genfromtxt(text.splitlines(), delimiter=",", skip_header=1)
        assert np.array_equal(parsed[:, 1], series.obs.fidelity)
        assert np.array_equal(parsed[:, 3], series.obs.p0)

    @staticmethod
    def _series(n_steps, edge):
        # every column cycles through edge, each from its own offset, and d_re
        # holds random values across 60 decades
        rng = np.random.default_rng(4)
        # set the parts one by one: re + 1j * im would turn -0.0 parts into 0.0
        d = np.empty(n_steps, dtype=complex)
        d.real = rng.standard_normal(n_steps) * 10.0 ** rng.integers(-30, 30, n_steps)
        d.imag = np.resize(np.roll(edge, 3), n_steps)
        obs = Observables(
            d=d,
            fidelity=np.resize(edge, n_steps),
            p1=np.ones(n_steps),
            p0=rng.uniform(0.0, 1.0, n_steps),
            entropy_bits=np.resize(edge[::-1], n_steps),
        )
        return TimeSeries(
            times=TimeGrid(2000.0, n_steps).times(),
            obs=obs,
            late_fidelity_mean=0.0,
            late_entropy_mean=0.0,
        )

    @staticmethod
    def _per_value(series):
        # reference: the per-value f-string formatting of every cell, as
        # lines, which pytest compares far faster than one long string
        obs = series.obs
        cols = (
            series.times, obs.fidelity, obs.entropy_bits, obs.p0, obs.p1, obs.d.real, obs.d.imag
        )
        return ["t,fidelity,entropy_bits,p0,p1,d_re,d_im"] + [
            ",".join(f"{x:.17g}" for x in row) for row in zip(*cols)
        ]

    def _assert_per_value(self, series):
        text = series_to_csv(series)
        assert text.endswith("\n")
        assert text[:-1].split("\n") == self._per_value(series)

    def test_matches_per_value_format(self):
        edge = np.array([-0.0, 0.0, 5e-324, 1e-320, 1e300, -1e300, 3.0, -2.0, 0.1])
        # series shorter than, equal to and just past one and two row blocks
        for n_steps in (9, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1):
            self._assert_per_value(self._series(n_steps, edge))

    def test_all_fallback_series(self):
        # no value takes the numpy route; pyproject.toml turns any numpy
        # RuntimeWarning (log10 of 0, casting inf or nan to int) into an error
        edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324])
        series = self._series(12, edge)
        series.obs.d.real[:] = edge[[1, 2, 3, 4, 5, 0] * 2]
        series.obs.p0[:] = np.resize(edge, 12)
        series.obs.p1[:] = -5e-324
        series.times[:] = np.resize(edge[::-1], 12)
        self._assert_per_value(series)


def _cells(values):
    return format_rows(np.asarray(values, dtype=float)[:, None]).split("\n")[:-1]


def _switch_points():
    """Values where the digits or the notation of ``%.17g`` change.

    For every decimal exponent k: 10^k and the carry point
    (10^17 - 1/2) 10^(k - 16), where 17 nines round up to 10^(k + 1), each
    with its two neighbours; the
    fixed/exponential switches 1e-5, 1e-4, 1e16 and 1e17 and their neighbours;
    signed zeros, infinities, nan and subnormals.
    """
    centres = [float(f"1e{k}") for k in range(-324, 309)]
    centres += [float(f"99999999999999999.5e{k - 16}") for k in range(-324, 309)]
    centres += [1e-5, 1e-4, 1e16, 1e17]
    centres = np.array(centres)
    values = np.concatenate(
        (centres, np.nextafter(centres, 0.0), np.nextafter(centres, np.inf))
    )
    # zero, infinity, nan, the smallest subnormal, a subnormal, the largest
    # subnormal and the smallest normal
    special = [0.0, np.inf, np.nan, 5e-324, 1e-320]
    special += [2.2250738585072009e-308, 2.2250738585072014e-308]
    return np.concatenate((values, -values, special, np.negative(special)))


def _exact_ties():
    """Doubles whose 18th significant digit is a 5 with nothing after it.

    m / 2^j with m odd has the decimal digits of m 5^j, the last a 5; the
    m here give 18 of them, so ``%.17g`` rounds an exact tie (half to even).
    """
    ties = []
    for j in range(3, 26):
        low = -(-(10**17) // 5**j) | 1  # the least odd m with 18 digits
        for m in range(low, low + 40, 2):
            if m * 5**j < 10**18 and m < 2**53:
                ties.append(math.ldexp(float(m), -j))
    return np.array(ties)


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern_matches_percent_format(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        cells = _cells(x)
        assert cells == ["%.17g" % v for v in x.tolist()]
        assert cells == [format(v, ".17g") for v in x.tolist()]

    @pytest.mark.parametrize("values", [_switch_points(), _exact_ties()], ids=["switch", "ties"])
    def test_sweep_matches_percent_format(self, values):
        assert values.size > 300
        cells = _cells(values)
        assert cells == ["%.17g" % v for v in values.tolist()]
        assert cells == [format(v, ".17g") for v in values.tolist()]

    def test_known_cells(self):
        # written out by hand: exact ties round half to even (.25 down to
        # .2, .75 up to .8), cells are joined by "," and every row ends in "\n"
        values = np.array([[0.5, -2.0, 1e22], [1234567890123456.25, 1234567890123456.75, 2e-7]])
        assert format_rows(values) == (
            "0.5,-2,1e+22\n1234567890123456.2,1234567890123456.8,1.9999999999999999e-07\n"
        )

    def test_power_table_is_correctly_rounded(self):
        # the pairs hi + lo = 10^s of every s the fast route reads: hi is
        # 10^s rounded, lo the rest 10^s - hi rounded, and hi = hh + hl exactly
        t = csvformat._tables()
        powers = range(csvformat._S_MIN, 17 - csvformat._K_MIN)
        assert t.hi.shape == t.lo.shape == (len(powers),)
        pairs = zip(t.hi.tolist(), t.hh.tolist(), t.hl.tolist(), t.lo.tolist())
        for s, (hi, hh, hl, lo) in zip(powers, pairs):
            exact = Fraction(10) ** s
            assert hi == float(exact)
            assert lo == float(exact - Fraction(hi))
            assert Fraction(hh) + Fraction(hl) == Fraction(hi)


class TestRelaxationFit:
    def test_pure_exponential_recovered_exactly(self):
        t = np.linspace(0, 60, 2001)
        fit = fit_relaxation_time(t, np.exp(-t / 7.5))
        assert fit.tau == pytest.approx(7.5, rel=1e-6)
        assert fit.plateau < 0.1

    def test_golden_rule_scaling_in_coupling(self):
        taus = {}
        for g in (0.01, 0.02):
            params = ModelParams(RegisterShape(2, 200), UniformCoupling(g))
            series = run_time_series(params, symmetric_state(2), TimeGrid(100.0, 4001))
            taus[g] = fit_relaxation_time(series.times, series.obs.fidelity).tau
        assert taus[0.01] / taus[0.02] == pytest.approx(4.0, rel=0.1)
        # absolute scale: 1 / (N * N_b * g0^2)
        assert taus[0.01] == pytest.approx(25.0, rel=0.1)

    def test_plateaued_decay_uses_early_window(self):
        cs = ca = 1 / math.sqrt(2)
        prep = cs * symmetric_state(2) + ca * momentum_state(2, 1)
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))
        series = run_time_series(params, prep, TimeGrid(400.0, 8001))
        fit = fit_relaxation_time(series.times, series.obs.fidelity)
        assert fit.plateau > 0.1
        assert fit.tau * abs(cs) ** 2 == pytest.approx(25.0, rel=0.1)

    def test_strong_coupling_is_reported_as_oscillatory(self):
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.5))
        series = run_time_series(params, symmetric_state(2), TimeGrid(50.0, 2001))
        with pytest.raises(RelaxationFitError, match="oscillatory"):
            fit_relaxation_time(series.times, series.obs.fidelity)

    def test_undecayed_curve_has_no_window(self):
        t = np.linspace(0, 10, 101)
        with pytest.raises(RelaxationFitError):
            fit_relaxation_time(t, np.full_like(t, 0.99))
