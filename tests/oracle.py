"""Independent references for the spin block of the propagator, shared by
the tests: a 40-digit eigensolve for small models, which tells which of two
double-precision routes is right, a Chebyshev series on the matvec of H
for baths of any size, and a 40-digit secular solve of a uniform model's
runs."""

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


def secular_run_reference(params, preps, times):
    """D and F of each preparation of a uniform model at the given times,
    from the secular equation at 40 digits.

    Only the symmetric state s couples, to every mode with sqrt(N) g0. The
    N_b + 1 zeros E_j of P(E) = E - eps - N g0^2 sum_k 1 / (E - omega_k)
    lie one in each gap between the float frequencies, the two outer gaps
    reaching ||G|| + 1 beyond them. A float bisection in every gap at once
    narrows each bracket, and a 40-digit bracketing solve finds the zero in
    it, in about 8 evaluations instead of the 19 that the whole gap takes;
    no zero of the program seeds them. With the weights
    w_j = 1 / P'(E_j) and c_s = <s|psi_0>,
    D(t) = exp(-i eps t) (1 - |c_s|^2) + |c_s|^2 sum_j w_j exp(-i E_j t) and
    F = |D|^2.
    """
    mpmath = pytest.importorskip("mpmath")
    n, nb = params.shape.n_qubits, params.shape.n_modes
    g0, eps = params.coupling.g0, params.epsilon
    omegas = np.sort(mode_frequencies(params))
    reach = abs(g0) * np.sqrt(n * nb) + 1.0
    lo = np.concatenate([[min(eps, omegas[0]) - reach], omegas])
    hi = np.concatenate([omegas, [max(eps, omegas[-1]) + reach]])
    # the float brackets' widening: far above the float error of a zero,
    # far below its distance to a pole
    pad = 1e-12 * (hi - lo)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid - eps - n * g0**2 * (1.0 / (mid[:, None] - omegas)).sum(axis=1) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    with mpmath.workdps(40):
        eps, coupling = mpmath.mpf(eps), n * mpmath.mpf(g0) ** 2
        poles = [mpmath.mpf(w) for w in omegas]

        def secular(e):
            return e - eps - coupling * mpmath.fsum(1 / (e - w) for w in poles)

        zeros = [
            mpmath.findroot(secular, (mpmath.mpf(a - p), mpmath.mpf(b + p)), solver="anderson")
            for a, b, p in zip(lo, hi, pad)
        ]
        weights = [1 / (1 + coupling * mpmath.fsum(1 / (e - w) ** 2 for w in poles)) for e in zeros]
        times = [mpmath.mpf(t) for t in times]
        dark = [mpmath.expj(-eps * t) for t in times]
        coupled = [
            mpmath.fsum(w * mpmath.expj(-e * t) for w, e in zip(weights, zeros)) for t in times
        ]
        out = []
        for prep in preps:
            cs2 = abs(mpmath.fsum(mpmath.mpc(a) for a in prep)) ** 2 / n
            d = [(1 - cs2) * u + cs2 * v for u, v in zip(dark, coupled)]
            out.append(
                (np.array([complex(v) for v in d]), np.array([float(abs(v) ** 2) for v in d]))
            )
    return out
