"""Independent references for the spin block of the propagator, shared by
the tests: a 40-digit eigensolve for small models, which tells which of two
double-precision routes is right, and a Chebyshev series on the matvec of H
for baths of any size."""

import numpy as np
import pytest

from qregsim import build_h1, coupling_matrix, mode_frequencies


def oracle_spin_blocks(params, times):
    """Spin blocks of exp(-iHt) from a 40-digit Hermitian eigensolve."""
    mpmath = pytest.importorskip("mpmath")
    n, h = params.shape.n_qubits, build_h1(params)
    d = h.shape[0]
    with mpmath.workdps(40):
        energies, vectors = mpmath.eighe(mpmath.matrix(h.astype(complex).tolist()))
        blocks = []
        for t in times:
            phases = [mpmath.expj(-energies[j] * t) for j in range(d)]
            blocks.append([
                [complex(mpmath.fsum(vectors[a, j] * phases[j] * mpmath.conj(vectors[b, j])
                                     for j in range(d))) for b in range(n)]
                for a in range(n)
            ])
    return np.array(blocks)


def bessel_j(k_max, z):
    """J_0(z) .. J_k_max(z) for z > 0 by Miller's backward recurrence
    J_{k-1} = (2k / z) J_k - J_{k+1}, started well above k_max and
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1."""
    m = k_max + int(np.sqrt(40.0 * k_max)) + 10
    j = np.zeros(m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = 2.0 * k / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # rescale before the recurrence overflows
            j[k - 1:] *= 1e-250
    return j[: k_max + 1] / (j[0] + 2.0 * j[2::2].sum())


def chebyshev_spin_block(params, t):
    """Spin block of exp(-iHt) at t > 0 from the Chebyshev series
    exp(-iHt) = exp(-ict) sum_k (2 - [k = 0]) (-i)^k J_k(R t) T_k((H - c) / R)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).

    [c - R, c + R] is the hull of the Gershgorin discs of D^-1 H D, with
    D = diag(s on the spins, 1 on the modes) and s chosen so that spin and
    mode discs have one radius. H x is the arrowhead matvec from
    coupling_matrix and mode_frequencies, O(N_b N) per spin column, so no
    d x d array is built and build_h1 is not used.
    """
    n, eps = params.shape.n_qubits, params.epsilon
    g, omegas = coupling_matrix(params), mode_frequencies(params)
    spin_radius, bath_radius = np.abs(g).sum(axis=0).max(), np.abs(g).sum(axis=1).max()
    radius = np.sqrt(spin_radius * bath_radius)  # spin_radius / s = s * bath_radius
    lo, hi = min(eps, omegas.min()) - radius, max(eps, omegas.max()) + radius
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    diag = (np.concatenate([np.full(n, eps), omegas]) - c) / r
    to_spin, to_bath = g.conj() / r, g.T / r

    def scaled(x):  # x ((H - c) / R)^T for the rows x of an (N, N + N_b) block
        out = diag * x
        out[:, :n] += x[:, n:] @ to_spin
        out[:, n:] += x[:, :n] @ to_bath
        return out

    z = r * t
    k_max = int(z + 10.0 * z ** (1.0 / 3.0) + 60.0)
    coeffs = 2.0 * bessel_j(k_max, z) * np.resize([1.0, -1j, -1.0, 1j], k_max + 1)
    coeffs[0] /= 2.0
    previous = np.zeros((n, diag.size), dtype=g.dtype)
    previous[:, :n] = np.eye(n)
    current = scaled(previous)
    block = coeffs[0] * previous[:, :n] + coeffs[1] * current[:, :n]
    for coeff in coeffs[2:]:
        previous, current = current, 2.0 * scaled(current) - previous
        block += coeff * current[:, :n]
    return np.exp(-1j * c * t) * block.T
