import math

import numpy as np
import pytest

from qregsim import (
    CosineCoupling,
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    UniformCoupling,
    build_h1,
    coupling_matrix,
    diagonalize,
    mode_frequencies,
    momentum_state,
)


class TestParams:
    def test_linear_dispersion_values(self):
        params = ModelParams(RegisterShape(1, 4), UniformCoupling(0.1))
        expect = 2 * np.pi * np.arange(1, 5) / 4
        assert np.array_equal(mode_frequencies(params), expect)
        assert np.all(np.diff(expect) > 0)

    def test_explicit_dispersion_roundtrip(self):
        params = ModelParams(
            RegisterShape(1, 3),
            UniformCoupling(0.1),
            dispersion=ExplicitDispersion([0.5, 1.0, 2.0]),
        )
        assert np.array_equal(mode_frequencies(params), [0.5, 1.0, 2.0])

    def test_validation(self):
        shape = RegisterShape(2, 3)
        with pytest.raises(ValueError):
            ModelParams(shape, UniformCoupling(0.1), epsilon=0.0)
        with pytest.raises(ValueError):
            ModelParams(shape, ExplicitCoupling(np.zeros((2, 3))))  # transposed
        with pytest.raises(ValueError):
            ModelParams(shape, UniformCoupling(0.1), dispersion=ExplicitDispersion([1.0]))
        with pytest.raises(ValueError):
            ExplicitDispersion([1.0, -2.0])
        with pytest.raises(ValueError):
            CosineCoupling(0.1, 0.0)


class TestCouplingValue:
    def test_uniform(self):
        params = ModelParams(RegisterShape(3, 5), UniformCoupling(0.01))
        g = coupling_matrix(params)
        assert g.shape == (5, 3)
        assert np.all(g == 0.01)

    def test_cosine_first_qubit_couples_at_full_strength(self):
        # the first qubit sits at the coordinate origin: cos(0) = 1
        params = ModelParams(RegisterShape(2, 8), CosineCoupling(0.01, 1.0))
        assert np.all(coupling_matrix(params)[:, 0] == 0.01)

    def test_cosine_direct_evaluation(self):
        # mode at omega = pi (n = N_b/2 under linear dispersion), second qubit
        params = ModelParams(RegisterShape(2, 8), CosineCoupling(0.01, 1.0))
        omegas = mode_frequencies(params)
        assert omegas[3] == pytest.approx(np.pi)
        g = coupling_matrix(params)
        assert g[3, 1] == pytest.approx(0.01 * np.cos(np.pi))
        expect = [[0.01 * math.cos(w * i) for i in range(2)] for w in omegas]
        assert np.allclose(g, expect, atol=1e-17, rtol=1e-15)

    def test_cosine_large_xi_recovers_uniform(self):
        shape = RegisterShape(3, 16)
        cos = ModelParams(shape, CosineCoupling(0.01, 1e8))
        uni = ModelParams(shape, UniformCoupling(0.01))
        assert np.max(np.abs(coupling_matrix(cos) - coupling_matrix(uni))) < 1e-6 * 0.01

    def test_explicit_lookup(self):
        g = np.arange(6, dtype=float).reshape(3, 2) + 1j
        params = ModelParams(RegisterShape(2, 3), ExplicitCoupling(g))
        got = coupling_matrix(params)
        assert got[1, 0] == g[1, 0]
        assert np.array_equal(got, g)
        got[0, 0] = 99.0
        assert params.coupling.g[0, 0] == g[0, 0]


class TestBuildH1:
    def test_jaynes_cummings_matrix(self):
        params = ModelParams(
            RegisterShape(1, 1), UniformCoupling(0.1), dispersion=ExplicitDispersion([1.0])
        )
        assert np.array_equal(build_h1(params), np.array([[1.0, 0.1], [0.1, 1.0]]))

    def test_hand_written_four_by_four(self):
        g = np.array([[0.1, 0.2], [0.3, 0.4]])
        params = ModelParams(
            RegisterShape(2, 2),
            ExplicitCoupling(g),
            epsilon=1.5,
            dispersion=ExplicitDispersion([0.7, 1.3]),
        )
        expect = np.array(
            [
                [1.5, 0.0, 0.1, 0.3],
                [0.0, 1.5, 0.2, 0.4],
                [0.1, 0.2, 0.7, 0.0],
                [0.3, 0.4, 0.0, 1.3],
            ],
            dtype=complex,
        )
        assert np.array_equal(build_h1(params), expect)

    def test_exactly_hermitian_for_complex_couplings(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        params = ModelParams(RegisterShape(3, 5), ExplicitCoupling(0.1 * g))
        h = build_h1(params)
        assert np.array_equal(h, h.conj().T)

    def test_uniform_spin_block_structure(self):
        params = ModelParams(RegisterShape(3, 6), UniformCoupling(0.02))
        h = build_h1(params)
        assert np.array_equal(h[:3, :3], np.eye(3))
        assert np.linalg.matrix_rank(h[3:, :3]) == 1

    def test_momentum_states_are_eigenvectors_under_uniform_coupling(self):
        params = ModelParams(RegisterShape(4, 20), UniformCoupling(0.05))
        h = build_h1(params)
        for m in range(1, 4):
            vec = np.zeros(24, dtype=complex)
            vec[:4] = momentum_state(4, m)
            residual = np.linalg.norm(h @ vec - params.epsilon * vec)
            assert residual <= 1e-12

    def test_qubit_permutation_invariance_uniform(self):
        params = ModelParams(RegisterShape(4, 7), UniformCoupling(0.03))
        h = build_h1(params)
        perm = np.r_[np.array([2, 0, 3, 1]), np.arange(4, 11)]
        assert np.array_equal(h, h[np.ix_(perm, perm)])

    @pytest.mark.parametrize(
        "coupling",
        [
            UniformCoupling(0.02),
            CosineCoupling(0.02, 3.0),
            ExplicitCoupling(0.01 * np.arange(8.0).reshape(4, 2)),
            ExplicitCoupling(np.arange(8).reshape(4, 2)),
        ],
        ids=["uniform", "cosine", "explicit_real", "explicit_int"],
    )
    def test_real_coupling_gives_real_matrix_and_eigenvectors(self, coupling):
        params = ModelParams(RegisterShape(2, 4), coupling)
        h = build_h1(params)
        assert coupling_matrix(params).dtype == h.dtype == np.float64
        assert diagonalize(h).eigenvectors.dtype == np.float64

    def test_complex_coupling_stays_complex(self):
        g = 0.02 * (1 + 1j) * np.ones((4, 2))
        params = ModelParams(RegisterShape(2, 4), ExplicitCoupling(g))
        h = build_h1(params)
        assert h.dtype == np.complex128
        assert diagonalize(h).eigenvectors.dtype == np.complex128

    def test_trace_identity(self):
        params = ModelParams(RegisterShape(3, 11), UniformCoupling(0.04))
        h = build_h1(params)
        expect = 3 * params.epsilon + mode_frequencies(params).sum()
        assert np.trace(h).real == pytest.approx(expect, rel=1e-12)
