import math

import numpy as np
import pytest

from qregsim import (
    CosineCoupling,
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    RelaxationFitError,
    TimeGrid,
    UniformCoupling,
    binary_entropy_bits,
    build_h1,
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
    symmetric_state,
)

# frozen oracle: -0.75*log2(0.75) - 0.25*log2(0.25)
ENTROPY_AT_THREE_QUARTERS = 0.8112781244591328


def jc_params(g=0.05):
    return ModelParams(
        RegisterShape(1, 1), UniformCoupling(g), dispersion=ExplicitDispersion([1.0])
    )


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
        s = binary_entropy_bits(p1, 1.0 - p1)
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
        p0 = 1.0 - p1
        want = [
            -sum(p * math.log2(p) for p in pair if p > 0.0) for pair in zip(p1, p0)
        ]
        assert np.allclose(binary_entropy_bits(p1, p0), want, atol=1e-15, rtol=1e-14)


class TestRunTimeSeries:
    def test_first_record_is_pristine(self):
        params = ModelParams(RegisterShape(2, 10), UniformCoupling(0.02))
        series = run_time_series(params, symmetric_state(2), TimeGrid(10.0, 21))
        assert series.times[0] == 0.0
        assert series.fidelity[0] == pytest.approx(1.0, abs=1e-12)
        assert series.entropy_bits[0] == pytest.approx(0.0, abs=1e-12)
        assert series.p1[0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_and_consistency_along_the_grid(self):
        params = ModelParams(RegisterShape(3, 12), UniformCoupling(0.03))
        series = run_time_series(params, m_superposition(3, 2), TimeGrid(50.0, 301))
        assert np.max(np.abs(series.p0 + series.p1 - 1.0)) < 1e-10
        assert np.all((series.p0 >= 0) & (series.p0 <= 1))
        assert np.all((series.p1 >= 0) & (series.p1 <= 1))
        d_sq = series.d_re**2 + series.d_im**2
        assert np.max(np.abs(series.fidelity - d_sq)) < 1e-12
        assert np.all(series.entropy_bits >= 0.0)
        assert np.all(series.entropy_bits <= 1.0 + 1e-12)

    def test_chunking_does_not_change_results(self, monkeypatch):
        import qregsim.dynamics as dyn

        params = ModelParams(RegisterShape(2, 9), UniformCoupling(0.04))
        full = run_time_series(params, symmetric_state(2), TimeGrid(20.0, 257))
        monkeypatch.setattr(dyn, "_EVAL_CHUNK", 16)
        chunked = run_time_series(params, symmetric_state(2), TimeGrid(20.0, 257))
        # BLAS rounding may differ between chunk shapes; physics must not
        assert np.allclose(full.fidelity, chunked.fidelity, atol=1e-13, rtol=0)
        assert np.allclose(full.p0, chunked.p0, atol=1e-13, rtol=0)

    def test_complex_couplings_conserve_probability(self):
        rng = np.random.default_rng(33)
        g = 0.05 * (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        params = ModelParams(RegisterShape(3, 8), ExplicitCoupling(g))
        series = run_time_series(params, symmetric_state(3), TimeGrid(40.0, 401))
        assert np.max(np.abs(series.p0 + series.p1 - 1.0)) < 1e-10
        assert np.max(series.fidelity) <= 1.0

    def test_dfs_preparation_is_frozen(self):
        params = ModelParams(RegisterShape(2, 50), UniformCoupling(0.01))
        series = run_time_series(params, momentum_state(2, 1), TimeGrid(500.0, 501))
        assert np.max(np.abs(series.fidelity - 1.0)) < 1e-8
        assert np.max(series.entropy_bits) < 1e-8

    def test_bell_mixture_long_time_state(self):
        # late-window register state: p1 -> |c_a|^2 with amplitudes along the
        # dark state, fidelity -> (1 - |c_s|^2)^2; the window sits after the
        # decay completes but before the first bath recurrence at t = N_b
        cs, ca = 0.6, 0.8
        prep = cs * symmetric_state(2) + ca * momentum_state(2, 1)
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))
        series = run_time_series(params, prep, TimeGrid(180.0, 1801))
        assert series.late_fidelity_mean == pytest.approx((1 - cs**2) ** 2, abs=0.05)
        assert series.p1[-1] == pytest.approx(ca**2, abs=0.05)

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
        assert abs(series.fidelity[window].mean() - (1 - m / 4) ** 2) <= 0.01
        assert abs(series.entropy_bits[window].mean() - s_want) <= 0.01

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(10.0, 1)


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
        assert np.array_equal(parsed[:, 1], series.fidelity)
        assert np.array_equal(parsed[:, 3], series.p0)


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
            taus[g] = fit_relaxation_time(series.times, series.fidelity).tau
        assert taus[0.01] / taus[0.02] == pytest.approx(4.0, rel=0.1)
        # absolute scale: 1 / (N * N_b * g0^2)
        assert taus[0.01] == pytest.approx(25.0, rel=0.1)

    def test_plateaued_decay_uses_early_window(self):
        cs = ca = 1 / math.sqrt(2)
        prep = cs * symmetric_state(2) + ca * momentum_state(2, 1)
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.01))
        series = run_time_series(params, prep, TimeGrid(400.0, 8001))
        fit = fit_relaxation_time(series.times, series.fidelity)
        assert fit.plateau > 0.1
        assert fit.tau * abs(cs) ** 2 == pytest.approx(25.0, rel=0.1)

    def test_strong_coupling_is_reported_as_oscillatory(self):
        params = ModelParams(RegisterShape(2, 200), UniformCoupling(0.5))
        series = run_time_series(params, symmetric_state(2), TimeGrid(50.0, 2001))
        with pytest.raises(RelaxationFitError, match="oscillatory"):
            fit_relaxation_time(series.times, series.fidelity)

    def test_undecayed_curve_has_no_window(self):
        t = np.linspace(0, 10, 101)
        with pytest.raises(RelaxationFitError):
            fit_relaxation_time(t, np.full_like(t, 0.99))
