"""Physical parameters and the one-excitation Hamiltonian matrix.

The model: N qubits with common splitting epsilon (the energy unit), N_b
bosonic modes with frequencies omega_n, and an excitation-conserving exchange
coupling g_n(i) between mode n and qubit i. In the one-excitation sector the
Hamiltonian is a dense (N + N_b) x (N + N_b) Hermitian matrix over the ordered
basis (spin flips |1>..|N>, single bosons |k_1>..|k_Nb>), with all energies
measured from the zero-excitation reference state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .sector import RegisterShape

__all__ = [
    "UniformCoupling",
    "CosineCoupling",
    "ExplicitCoupling",
    "Coupling",
    "LinearDispersion",
    "ExplicitDispersion",
    "Dispersion",
    "ModelParams",
    "mode_frequencies",
    "coupling_matrix",
    "build_h1",
]


@dataclass(frozen=True)
class UniformCoupling:
    """Every mode couples to every qubit with the same real strength g0
    (the Dicke limit: bath wavelengths much larger than the register)."""

    g0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.g0):
            raise ValueError("g0 must be finite")


@dataclass(frozen=True)
class CosineCoupling:
    """Standing-wave coupling profile g_n(i) = g0 * cos(omega_n * x_i / xi).

    x_i = i - 1 is the qubit coordinate measured from the first qubit and xi
    plays the role of a bath coherence length: for xi -> infinity the profile
    flattens to the uniform (Dicke) coupling, while finite xi lets the bath
    resolve individual qubits and breaks the permutation symmetry.
    """

    g0: float
    xi: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.g0):
            raise ValueError("g0 must be finite")
        if not (np.isfinite(self.xi) and self.xi > 0):
            raise ValueError("xi must be positive and finite")


@dataclass(frozen=True, eq=False)
class ExplicitCoupling:
    """Arbitrary coupling matrix of shape (N_b, N): g[n-1, i-1].

    The matrix keeps its number field: a real (or integer) matrix is stored
    as float64, a complex one as complex128.
    """

    g: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.g)
        g = g.astype(np.result_type(g, np.float64), copy=False)
        if g.ndim != 2:
            raise ValueError("coupling matrix must be two-dimensional")
        if not np.all(np.isfinite(g)):
            raise ValueError("coupling matrix must be finite")
        object.__setattr__(self, "g", g)


Coupling = Union[UniformCoupling, CosineCoupling, ExplicitCoupling]


@dataclass(frozen=True)
class LinearDispersion:
    """omega_n = 2*pi*n/N_b for n = 1..N_b (unit sound velocity)."""


@dataclass(frozen=True, eq=False)
class ExplicitDispersion:
    """Arbitrary positive mode frequencies, one per mode."""

    omegas: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.omegas, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("dispersion must list at least one frequency")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise ValueError("mode frequencies must be positive and finite")
        object.__setattr__(self, "omegas", w)


Dispersion = Union[LinearDispersion, ExplicitDispersion]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Full physical configuration of one register-bath model.

    epsilon defaults to 1 and sets the energy unit (times are in 1/epsilon).
    """

    shape: RegisterShape
    coupling: Coupling
    epsilon: float = 1.0
    dispersion: Dispersion = field(default_factory=LinearDispersion)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if isinstance(self.coupling, ExplicitCoupling):
            expected = (self.shape.n_modes, self.shape.n_qubits)
            if self.coupling.g.shape != expected:
                raise ValueError(
                    f"coupling matrix shape {self.coupling.g.shape} does not "
                    f"match (N_b, N) = {expected}"
                )
        if isinstance(self.dispersion, ExplicitDispersion):
            if self.dispersion.omegas.size != self.shape.n_modes:
                raise ValueError(
                    f"dispersion lists {self.dispersion.omegas.size} frequencies "
                    f"for {self.shape.n_modes} modes"
                )

    @property
    def dim(self) -> int:
        """Dimension N + N_b of the one-excitation sector."""
        return self.shape.n_qubits + self.shape.n_modes


def mode_frequencies(params: ModelParams) -> np.ndarray:
    """Frequencies omega_1..omega_Nb as a float array."""
    if isinstance(params.dispersion, LinearDispersion):
        nb = params.shape.n_modes
        return 2.0 * np.pi * np.arange(1, nb + 1) / nb
    return params.dispersion.omegas.copy()


def coupling_matrix(params: ModelParams) -> np.ndarray:
    """Coupling matrix of shape (N_b, N); entry [n-1, i-1] = g_n(i).

    float64 for uniform and cosine couplings; an explicit coupling keeps its
    own dtype (float64 or complex128).
    """
    nb, n = params.shape.n_modes, params.shape.n_qubits
    c = params.coupling
    if isinstance(c, UniformCoupling):
        return np.full((nb, n), c.g0, dtype=float)
    if isinstance(c, CosineCoupling):
        coords = np.arange(n, dtype=float)  # x_i = i - 1, origin at qubit 1
        omegas = mode_frequencies(params)
        return c.g0 * np.cos(np.outer(omegas, coords) / c.xi)
    return c.g.copy()


def build_h1(params: ModelParams) -> np.ndarray:
    """One-excitation Hamiltonian over (|1>..|N>, |k_1>..|k_Nb>).

    Diagonal: epsilon on the N spin states, omega_n on the boson states
    (energies relative to the zero-excitation reference state). Off-diagonal:
    <k_n|H|i> = g_n(i) in the boson-row/spin-column block, with the conjugate
    transpose mirrored so the matrix is Hermitian by construction (bit-equal
    transpose for real couplings). Spin-spin and boson-boson off-diagonal
    entries vanish: qubits do not interact directly and modes are decoupled.
    The matrix has the dtype of the coupling matrix, so it is real (float64)
    whenever the coupling is.
    """
    n, nb = params.shape.n_qubits, params.shape.n_modes
    d = n + nb
    g = coupling_matrix(params)
    h = np.zeros((d, d), dtype=g.dtype)
    h[np.arange(n), np.arange(n)] = params.epsilon
    h[np.arange(n, d), np.arange(n, d)] = mode_frequencies(params)
    h[n:, :n] = g
    h[:n, n:] = g.conj().T
    return h
