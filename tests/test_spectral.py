import math

import numpy as np
import pytest

from qregsim import (
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    UniformCoupling,
    build_h1,
    diagonalize,
    secular_roots,
    symmetric_spectrum,
)
from qregsim import spectral


# faults injected into the eigensystem that np.linalg.eigh returns
def _nan_eigenvector(w, v):
    v[0, 0] = np.nan


def _nan_eigenvalue(w, v):
    w[0] = np.nan


def _shifted_eigenvalue(w, v):
    w[3] += 1e-3


def _scaled_eigenvector(w, v):
    v[:, 2] *= 1.001


class TestDiagonalize:
    def test_identity(self):
        sd = diagonalize(np.eye(5))
        assert np.allclose(sd.eigenvalues, 1.0)
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12

    def test_two_by_two_resonant(self):
        sd = diagonalize(np.array([[1.0, 0.1], [0.1, 1.0]]))
        assert np.allclose(sd.eigenvalues, [0.9, 1.1], atol=1e-14)

    def test_detuned_closed_form(self):
        # oracle: quadratic formula for [[eps, g], [g, omega]]
        eps, omega, g = 1.0, 1.5, 0.05
        mean = (eps + omega) / 2
        split = math.sqrt((eps - omega) ** 2 / 4 + g**2)
        sd = diagonalize(np.array([[eps, g], [g, omega]]))
        assert abs(sd.eigenvalues[0] - (mean - split)) < 1e-12
        assert abs(sd.eigenvalues[1] - (mean + split)) < 1e-12

    def test_contract_on_large_random_hermitian(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        h = a + a.conj().T
        sd = diagonalize(h)
        scale = max(1.0, np.linalg.norm(h))
        residual = np.max(np.abs(h @ sd.eigenvectors - sd.eigenvectors * sd.eigenvalues))
        assert residual <= 1e-10 * scale
        gram = sd.eigenvectors.conj().T @ sd.eigenvectors
        assert np.max(np.abs(gram - np.eye(80))) <= 1e-10
        assert np.all(np.diff(sd.eigenvalues) >= 0)

    def test_deterministic(self):
        params = ModelParams(RegisterShape(2, 40), UniformCoupling(0.01))
        h = build_h1(params)
        first = diagonalize(h)
        second = diagonalize(h.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian_and_non_finite(self):
        with pytest.raises(ValueError):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            diagonalize(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            diagonalize(np.zeros((0, 0)))

    def test_solver_failure_is_reported(self, monkeypatch):
        from qregsim import DiagonalizationError

        def boom(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(DiagonalizationError, match="did not converge"):
            diagonalize(np.eye(3))

    @pytest.mark.parametrize(
        "fault,check",
        [
            (_nan_eigenvector, "residual"),
            (_nan_eigenvalue, "residual"),
            (_shifted_eigenvalue, "residual"),
            (_scaled_eigenvector, "orthonormal"),
        ],
        ids=lambda x: getattr(x, "__name__", x).lstrip("_"),
    )
    def test_injected_solver_faults_are_reported(self, monkeypatch, fault, check):
        # the eigensolver returns a corrupted eigensystem; the contract checks
        # must reject it, NaN included (a NaN defect compares False with >)
        from qregsim import DiagonalizationError

        real_eigh = np.linalg.eigh

        def faulty(h):
            w, v = real_eigh(h)
            fault(w, v)
            return w, v

        h = build_h1(ModelParams(RegisterShape(2, 6), UniformCoupling(0.05)))
        monkeypatch.setattr(np.linalg, "eigh", faulty)
        with pytest.raises(DiagonalizationError, match=check):
            diagonalize(h)


class TestSecularRoots:
    def test_resonant_two_level(self):
        params = ModelParams(
            RegisterShape(1, 1), UniformCoupling(0.1), dispersion=ExplicitDispersion([1.0])
        )
        assert np.allclose(secular_roots(params), [0.9, 1.1], atol=1e-11)

    def test_rescaled_collective_coupling(self):
        # N qubits behave as one with coupling sqrt(N) g in the symmetric sector
        shape_n = RegisterShape(4, 6)
        shape_1 = RegisterShape(1, 6)
        roots_n = secular_roots(ModelParams(shape_n, UniformCoupling(0.03)))
        roots_1 = secular_roots(ModelParams(shape_1, UniformCoupling(0.06)))
        assert np.max(np.abs(roots_n - roots_1)) < 1e-10

    def test_roots_satisfy_equation_and_interlace(self):
        params = ModelParams(RegisterShape(2, 3), UniformCoupling(0.05))
        roots = secular_roots(params)
        omegas = 2 * np.pi * np.arange(1, 4) / 3

        def p(e):  # P(E) = E - epsilon - N sum_k g0^2 / (E - omega_k)
            return e - 1.0 - 2 * np.sum(0.05**2 / (e - omegas))

        assert roots.size == 4
        # each root is located to the bisection width: the sign changes
        # within a few widths (the residual itself blows up near the poles)
        for r in roots:
            delta = 4e-12 * max(1.0, abs(r))
            assert p(r - delta) < 0 < p(r + delta)
        assert np.all(roots[:-1] < omegas)
        assert np.all(omegas < roots[1:])

    def test_cross_check_against_diagonalization(self):
        params = ModelParams(RegisterShape(2, 3), UniformCoupling(0.05))
        roots = secular_roots(params)
        evals = diagonalize(build_h1(params)).eigenvalues
        dark = np.argsort(np.abs(evals - 1.0))[:1]
        rest = np.sort(np.delete(evals, dark))
        assert np.max(np.abs(rest - roots)) < 1e-8

    def test_zero_coupling_returns_bare_frequencies_and_epsilon(self):
        params = ModelParams(RegisterShape(3, 4), UniformCoupling(0.0))
        roots = secular_roots(params)
        omegas = 2 * np.pi * np.arange(1, 5) / 4
        assert np.allclose(np.sort(roots), np.sort(np.append(omegas, 1.0)))

    def test_degenerate_frequencies_merge(self):
        params = ModelParams(
            RegisterShape(1, 3),
            UniformCoupling(0.1),
            dispersion=ExplicitDispersion([0.5, 0.5, 2.0]),
        )
        roots = secular_roots(params)
        assert roots.size == 4
        # one root pinned at the degenerate frequency
        assert np.min(np.abs(roots - 0.5)) == 0.0
        # remaining roots match the merged-pole model diagonalization
        evals = diagonalize(build_h1(params)).eigenvalues
        assert np.max(np.abs(np.sort(roots) - np.sort(evals))) < 1e-8

    def test_epsilon_resonant_with_mode_is_fine(self):
        params = ModelParams(
            RegisterShape(1, 2),
            UniformCoupling(0.02),
            dispersion=ExplicitDispersion([1.0, 3.0]),
        )
        roots = secular_roots(params)
        evals = diagonalize(build_h1(params)).eigenvalues
        assert np.max(np.abs(roots - evals)) < 1e-8

    def test_requires_uniform_coupling(self):
        # a coupling of rank two has no secular equation, also where its two
        # modes share a frequency, which the deflation refuses
        g = ExplicitCoupling([[0.1, 0.1], [0.1, -0.1]])
        for omegas in ([0.5, 1.0], [1.0, 1.0]):
            params = ModelParams(RegisterShape(2, 2), g, dispersion=ExplicitDispersion(omegas))
            with pytest.raises(ValueError, match="rank one"):
                secular_roots(params)
            with pytest.raises(ValueError, match="rank one"):
                symmetric_spectrum(params)

    @pytest.mark.parametrize("shift", [1e-6, np.nan], ids=["off_by_1e-6", "nan"])
    def test_roots_missing_the_trace_are_reported(self, monkeypatch, shift):
        # move one zero of P: the roots no longer sum to epsilon + sum omega_k
        from qregsim import DiagonalizationError

        real_energies = spectral._secular_energies

        def faulty(*args):
            energies, slope = real_energies(*args)
            energies[energies.size // 2] += shift
            return energies, slope

        params = ModelParams(RegisterShape(2, 6), UniformCoupling(0.05))
        assert secular_roots(params).size == 7
        monkeypatch.setattr(spectral, "_secular_energies", faulty)
        with pytest.raises(DiagonalizationError, match="trace"):
            secular_roots(params)

    def test_trace_identity_of_spectrum(self):
        params = ModelParams(RegisterShape(3, 20), UniformCoupling(0.02))
        evals = diagonalize(build_h1(params)).eigenvalues
        omegas = 2 * np.pi * np.arange(1, 21) / 20
        expect = 3 * 1.0 + omegas.sum()
        assert evals.sum() == pytest.approx(expect, rel=1e-9)


class TestSymmetricSpectrum:
    @pytest.mark.parametrize("factor", [1.0 + 1e-6, np.nan], ids=["off_by_1e-6", "nan"])
    def test_weights_missing_the_sum_rule_are_reported(self, monkeypatch, factor):
        # corrupt P'(E_j), and with it w_j = 1 / P'(E_j): sum w_j = 1 fails
        from qregsim import DiagonalizationError

        real_energies = spectral._secular_energies

        def faulty(*args):
            energies, slope = real_energies(*args)
            return energies, slope * factor

        params = ModelParams(RegisterShape(2, 6), UniformCoupling(0.05))
        assert symmetric_spectrum(params)[1].sum() == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(spectral, "_secular_energies", faulty)
        with pytest.raises(DiagonalizationError, match="sum 1"):
            symmetric_spectrum(params)
