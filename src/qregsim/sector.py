"""Excitation-sector combinatorics for a qubit register coupled to a bosonic bath.

The register holds N qubits, the bath N_b bosonic modes. The excitation-
conserving interaction splits the Hilbert space into sectors labelled by the
total number I of excitations (flipped spins plus bosons) above the reference
state with all spins down and the boson vacuum. This module enumerates those
sectors, counts the su(2) irrep multiplicities of the spin half of the space,
and builds the distinguished one-excitation spin states (symmetric, momentum,
and truncated-superposition vectors).

All counting is done in exact integer arithmetic; state vectors are complex
numpy arrays of unit norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegisterShape",
    "BasisLabel",
    "dimension",
    "enumerate_basis",
    "su2_multiplicity",
    "su2_spin_ladder",
    "symmetric_state",
    "momentum_state",
    "m_superposition",
]


@dataclass(frozen=True)
class RegisterShape:
    """Number of qubits and bath modes; both are at least one."""

    n_qubits: int
    n_modes: int

    def __post_init__(self) -> None:
        for name, value in (("n_qubits", self.n_qubits), ("n_modes", self.n_modes)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class BasisLabel:
    """One basis state of an excitation sector.

    ``spins`` lists the raised qubit sites (1-based, strictly increasing);
    ``bosons`` is the multiset of occupied mode indices (1-based, stored in
    nondecreasing order, repeats allowed). The total excitation number is
    ``len(spins) + len(bosons)``.
    """

    spins: tuple[int, ...]
    bosons: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.spins, self.spins[1:])):
            raise ValueError(f"spin sites must be strictly increasing: {self.spins}")
        if any(a > b for a, b in zip(self.bosons, self.bosons[1:])):
            raise ValueError(f"boson modes must be nondecreasing: {self.bosons}")

    @property
    def excitations(self) -> int:
        return len(self.spins) + len(self.bosons)


def dimension(shape: RegisterShape, excitations: int) -> int:
    """Dimension of the I-excitation sector, exactly.

    Counts pairs (spin subset of size l, boson multiset of size I - l) for
    l = 0..min(N, I):

        d_I = sum_l C(N, l) * C(I - l + N_b - 1, N_b - 1)

    Python integers are unbounded, so the result is exact for any shape.
    """
    if excitations < 0:
        raise ValueError("excitation number must be nonnegative")
    n, nb = shape.n_qubits, shape.n_modes
    return sum(
        math.comb(n, l) * math.comb(excitations - l + nb - 1, nb - 1)
        for l in range(min(n, excitations) + 1)
    )


def enumerate_basis(shape: RegisterShape, excitations: int) -> tuple[BasisLabel, ...]:
    """Every basis label of the I-excitation sector, in basis order.

    Labels run by decreasing number of spin excitations, ties broken
    lexicographically: at I = 1 the N spin flips come first and the N_b
    one-boson states after them, the layout of every matrix and amplitude
    vector in this package. There are ``dimension(shape, excitations)``.
    """
    if excitations < 0:
        raise ValueError("excitation number must be nonnegative")
    n, nb = shape.n_qubits, shape.n_modes
    labels = []
    for n_spin in range(min(n, excitations), -1, -1):
        for spins in itertools.combinations(range(1, n + 1), n_spin):
            for bosons in itertools.combinations_with_replacement(
                range(1, nb + 1), excitations - n_spin
            ):
                labels.append(BasisLabel(spins, bosons))
    return tuple(labels)


def su2_spin_ladder(n_qubits: int) -> list[float]:
    """Admissible total-spin values S for N spins: s, s+1, ..., N/2, each a
    half-integer, which a float holds exactly."""
    return [n_qubits % 2 / 2 + k for k in range(n_qubits // 2 + 1)]


def su2_multiplicity(spin: float, n_qubits: int) -> int:
    """Multiplicity of the total-spin-S irrep in the N-fold product of spin-1/2.

    Equals N!(2S+1) / ((N/2+S+1)!(N/2-S)!), evaluated here in exact integer
    arithmetic as C(N, N/2-S) - C(N, N/2-S-1). S must sit on the ladder
    s, s+1, ..., N/2 with s = 0 (N even) or 1/2 (N odd).
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    if (2 * spin) % 1:  # written so that NaN and inf fail
        raise ValueError(f"2S must be an integer, got S={spin}")
    two_s = int(2 * spin)
    if two_s < 0 or two_s > n_qubits or (n_qubits - two_s) % 2 != 0:
        raise ValueError(
            f"S={spin} is not on the spin ladder for {n_qubits} qubits"
        )
    m = (n_qubits - two_s) // 2
    lower = math.comb(n_qubits, m - 1) if m > 0 else 0
    return math.comb(n_qubits, m) - lower


def symmetric_state(n_qubits: int) -> np.ndarray:
    """Uniform one-excitation spin state, amplitude N**-0.5 on every site."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    return np.full(n_qubits, 1.0 / math.sqrt(n_qubits), dtype=complex)


def momentum_state(n_qubits: int, n: int) -> np.ndarray:
    """Plane-wave one-excitation spin state with wavenumber k = 2*pi*n/N.

    Site j (1-based) carries amplitude N**-0.5 * exp(i*k*j). For n = 1..N-1
    these states are mutually orthonormal and orthogonal to the symmetric
    state (which is the excluded n = 0 member of the same family); they are
    annihilated by a qubit-independent coupling to the bath and therefore
    span the decoherence-free part of the one-excitation space.
    """
    if n_qubits < 2:
        raise ValueError("momentum states need at least two qubits")
    if not 1 <= n <= n_qubits - 1:
        raise ValueError(
            f"wavenumber index must be in 1..{n_qubits - 1} "
            f"(n=0 is the symmetric state), got {n}"
        )
    k = 2.0 * np.pi * n / n_qubits
    sites = np.arange(1, n_qubits + 1)
    return np.exp(1j * k * sites) / math.sqrt(n_qubits)


def m_superposition(n_qubits: int, m: int) -> np.ndarray:
    """Uniform superposition of the first M of N one-excitation sites."""
    if not 1 <= m <= n_qubits:
        raise ValueError(f"M must be in 1..{n_qubits}, got {m}")
    amp = np.zeros(n_qubits, dtype=complex)
    amp[:m] = 1.0 / math.sqrt(m)
    return amp
