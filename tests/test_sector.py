import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qregsim
from qregsim import (
    BasisLabel,
    RegisterShape,
    dimension,
    enumerate_basis,
    m_superposition,
    momentum_state,
    su2_multiplicity,
    su2_spin_ladder,
    symmetric_state,
)


def brute_force_dimension(n, nb, exc):
    """Independent count: every (spin subset, boson multiset) pair with the
    right total, enumerated directly."""
    count = 0
    for l in range(0, min(n, exc) + 1):
        n_subsets = sum(1 for _ in itertools.combinations(range(n), l))
        n_multisets = sum(
            1 for _ in itertools.combinations_with_replacement(range(nb), exc - l)
        )
        count += n_subsets * n_multisets
    return count


class TestDimension:
    def test_vacuum_sector_is_one_dimensional(self):
        assert dimension(RegisterShape(3, 5), 0) == 1

    def test_single_qubit_single_mode(self):
        shape = RegisterShape(1, 1)
        assert dimension(shape, 0) == 1
        for exc in range(1, 6):
            assert dimension(shape, exc) == 2

    def test_one_excitation_dimension_is_linear(self):
        for n in range(1, 51):
            for nb in range(1, 51):
                assert dimension(RegisterShape(n, nb), 1) == n + nb
        assert dimension(RegisterShape(4, 200), 1) == 204

    def test_against_brute_force(self):
        # includes the (3, 2, 3) case, where brute force gives 20
        assert brute_force_dimension(3, 2, 3) == 20
        for n in range(1, 5):
            for nb in range(1, 5):
                for exc in range(6):
                    assert dimension(RegisterShape(n, nb), exc) == brute_force_dimension(
                        n, nb, exc
                    )

    def test_rejects_negative_excitations(self):
        with pytest.raises(ValueError):
            dimension(RegisterShape(2, 2), -1)


class TestEnumerateBasis:
    def test_jaynes_cummings_one_excitation(self):
        basis = enumerate_basis(RegisterShape(1, 1), 1)
        assert [(l.spins, l.bosons) for l in basis] == [((1,), ()), ((), (1,))]

    def test_one_excitation_layout_spins_first(self):
        basis = enumerate_basis(RegisterShape(2, 2), 1)
        assert [(l.spins, l.bosons) for l in basis] == [
            ((1,), ()),
            ((2,), ()),
            ((), (1,)),
            ((), (2,)),
        ]

    def test_two_excitations_two_qubits_one_mode(self):
        basis = enumerate_basis(RegisterShape(2, 1), 2)
        assert [(l.spins, l.bosons) for l in basis] == [
            ((1, 2), ()),
            ((1,), (1,)),
            ((2,), (1,)),
            ((), (1, 1)),
        ]

    def test_counts_match_dimension(self):
        for n in range(1, 5):
            for nb in range(1, 5):
                for exc in range(5):
                    shape = RegisterShape(n, nb)
                    basis = enumerate_basis(shape, exc)
                    assert len(basis) == dimension(shape, exc)
                    assert len(set(basis)) == len(basis)
                    assert all(l.excitations == exc for l in basis)

    def test_labels_validate(self):
        with pytest.raises(ValueError):
            BasisLabel((2, 1), ())
        with pytest.raises(ValueError):
            BasisLabel((), (2, 1))


class TestSu2Multiplicity:
    def test_two_spins(self):
        assert su2_multiplicity(1, 2) == 1
        assert su2_multiplicity(0, 2) == 1

    def test_four_spins_triplet(self):
        assert su2_multiplicity(1, 4) == 3

    def test_factorial_formula_agreement(self):
        # exact rational evaluation of N!(2S+1)/((N/2+S+1)!(N/2-S)!)
        from fractions import Fraction

        for n in range(1, 13):
            half = Fraction(n, 2)
            for s in su2_spin_ladder(n):
                val = Fraction(math.factorial(n) * (int(2 * s) + 1))
                val /= math.factorial(int(half + s + 1))
                val /= math.factorial(int(half - s))
                assert val.denominator == 1
                assert su2_multiplicity(s, n) == val.numerator

    def test_completeness_sum(self):
        for n in range(1, 13):
            total = sum(
                su2_multiplicity(s, n) * (int(2 * s) + 1) for s in su2_spin_ladder(n)
            )
            assert total == 2**n

    @pytest.mark.parametrize("bad_spin,n", [(0.3, 2), (2, 2), (-1, 4), (0, 3), (0.5, 2)])
    def test_rejects_off_ladder_spins(self, bad_spin, n):
        with pytest.raises(ValueError):
            su2_multiplicity(bad_spin, n)


class TestSpinStates:
    def test_symmetric_state_values(self):
        assert np.allclose(symmetric_state(1), [1.0])
        assert np.allclose(symmetric_state(2), np.full(2, 1 / math.sqrt(2)))
        assert np.allclose(symmetric_state(4), np.full(4, 0.5))

    def test_momentum_state_two_qubits_is_singlet_like(self):
        psi = momentum_state(2, 1)
        target = np.array([-1.0, 1.0]) / math.sqrt(2)
        phase = psi[np.argmax(np.abs(psi))] / target[np.argmax(np.abs(psi))]
        assert np.allclose(psi, phase * target)
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_momentum_state_three_qubits(self):
        psi = momentum_state(3, 1)
        k = 2 * np.pi / 3
        expect = np.exp(1j * k * np.arange(1, 4)) / math.sqrt(3)
        assert np.allclose(psi, expect)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_momentum_plus_symmetric_form_orthonormal_basis(self, n):
        basis = [symmetric_state(n)] + [momentum_state(n, m) for m in range(1, n)]
        mat = np.array(basis)
        gram = mat @ mat.conj().T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12

    def test_momentum_state_rejects_bad_wavenumbers(self):
        with pytest.raises(ValueError):
            momentum_state(4, 0)
        with pytest.raises(ValueError):
            momentum_state(4, 4)
        with pytest.raises(ValueError):
            momentum_state(1, 1)

    def test_m_superposition(self):
        assert np.allclose(m_superposition(4, 4), symmetric_state(4))
        assert np.allclose(m_superposition(4, 1), [1, 0, 0, 0])
        assert np.allclose(m_superposition(4, 2), [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        with pytest.raises(ValueError):
            m_superposition(4, 5)
        with pytest.raises(ValueError):
            m_superposition(4, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constructed_states_are_normalized(self, n):
        states = [symmetric_state(n)] + [m_superposition(n, m) for m in range(1, n + 1)]
        if n >= 2:
            states += [momentum_state(n, m) for m in range(1, n)]
        for psi in states:
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_cli_import_leaves_fractions_unloaded():
    # fractions, and decimal through it, cost milliseconds at start-up in
    # every qregsim process; only the su(2) ladder and multiplicity use it
    src = str(Path(qregsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qregsim.cli; print('fractions' in sys.modules, 'decimal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]
