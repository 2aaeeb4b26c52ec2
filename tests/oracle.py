"""A 40-digit reference for the spin block of the propagator, shared by the
tests that must tell which of two double-precision routes is right."""

import numpy as np
import pytest

from qregsim import build_h1


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
