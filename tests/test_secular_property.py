"""Property tests: the secular root iteration, its weights and the secular
route's spin block against the dense eigensolver and exact sum rules."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qregsim import (
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    UniformCoupling,
    build_h1,
    diagonalize,
    secular_roots,
    sector_energies,
    spin_spectrum,
    symmetric_spectrum,
)

#: distinct base frequencies sit on a 0.01 grid, so only the drawn
#: duplicates and 1e-12 neighbours come closer than that
grid_frequency = st.integers(5, 700).map(lambda k: k / 100)


@st.composite
def uniform_models(draw):
    omegas = []
    for w in draw(st.lists(grid_frequency, min_size=1, max_size=10, unique=True)):
        omegas.append(w)
        omegas.extend(draw(st.sampled_from([[], [w], [w, w], [w + 1e-12]])))
    omegas = draw(st.permutations(omegas))
    epsilon = draw(st.one_of(st.sampled_from(omegas), grid_frequency, st.floats(0.05, 7.0)))
    return ModelParams(
        RegisterShape(draw(st.integers(1, 4)), len(omegas)),
        UniformCoupling(draw(st.floats(0.0, 1.0))),
        epsilon=epsilon,
        dispersion=ExplicitDispersion(omegas),
    )


def _model(n, omegas, g0, epsilon=1.0):
    return ModelParams(
        RegisterShape(n, len(omegas)),
        UniformCoupling(g0),
        epsilon=epsilon,
        dispersion=ExplicitDispersion(omegas),
    )


@settings(max_examples=200, deadline=None)
@given(params=uniform_models())
@example(params=_model(1, [1.0], 0.1))
@example(params=_model(1, [1.0], 1.0, epsilon=2.5))
@example(params=_model(3, [0.5, 0.5, 0.5 + 1e-12, 2.0], 0.3, epsilon=0.5))
@example(params=_model(4, [1.0, 3.0, 3.0], 0.0, epsilon=3.0))
@example(params=_model(1, [0.05, 0.06], 1e-10, epsilon=0.05))  # roots within an ulp of a pole
def test_secular_roots_match_dense_spectrum(params):
    n, nb = params.shape.n_qubits, params.shape.n_modes
    roots = secular_roots(params)
    assert roots.shape == (nb + 1,)
    assert np.all(np.diff(roots) >= 0.0)

    # the N - 1 dark states of the non-symmetric sector sit at epsilon
    evals = diagonalize(build_h1(params)).eigenvalues
    dark = np.argsort(np.abs(evals - params.epsilon))[: n - 1]
    assert np.max(np.abs(np.delete(evals, dark) - roots)) < 1e-8

    # the spectrum verb's energies: the same roots plus the dark states
    energies, sector_roots = sector_energies(params)
    assert np.array_equal(sector_roots, roots)
    assert np.all(np.abs(energies - evals) <= 1e-10 * np.maximum(1.0, np.abs(evals)))

    omegas = params.dispersion.omegas
    if n * params.coupling.g0**2 > 0.0:
        # one root strictly inside each gap between distinct poles (and
        # beyond both ends); a k-fold frequency keeps k - 1 roots on itself
        poles, counts = np.unique(omegas, return_counts=True)
        edges = np.concatenate([[-np.inf], poles, [np.inf]])
        inside = [int(np.sum((roots > a) & (roots < b))) for a, b in zip(edges, edges[1:])]
        assert inside == [1] * (poles.size + 1)
        assert [int(np.sum(roots == p)) for p in poles] == list(counts - 1)


@settings(max_examples=200, deadline=None)
@given(params=uniform_models())
@example(params=_model(1, [0.05, 0.06], 1e-10, epsilon=0.05))
@example(params=_model(2, [0.4, 0.4, 0.4, 1.2], 1e-10, epsilon=0.4))
@example(params=_model(3, [0.5, 0.5, 0.5 + 1e-12, 2.0], 0.3, epsilon=0.5))
@example(params=_model(4, [1.0, 3.0, 3.0], 0.0, epsilon=3.0))
def test_secular_weights_obey_sum_rules(params):
    # w_j = |<phi_j|s>|^2 is the spectral measure of the symmetric spin state
    # s, so its moments are <s|H^k|s>: 1, epsilon, epsilon^2 + N N_b g0^2
    n, nb = params.shape.n_qubits, params.shape.n_modes
    energies, w = symmetric_spectrum(params)
    assert np.all(w >= 0.0) and np.all(np.diff(energies) > 0.0)
    eps = params.epsilon
    for moment, want in (
        (w.sum(), 1.0),
        ((w * energies).sum(), eps),
        ((w * energies**2).sum(), eps**2 + n * nb * params.coupling.g0**2),
    ):
        assert abs(moment - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(params=uniform_models())
@example(params=_model(1, [0.05, 0.06], 1e-10, epsilon=0.05))
@example(params=_model(3, [0.7, 1.0, 1.3], 1e-10))
@example(params=_model(2, [0.4, 0.4, 0.4, 1.2], 1e-10, epsilon=0.4))
@example(params=_model(3, [0.5, 0.5, 0.5 + 1e-12, 2.0], 0.3, epsilon=0.5))
@example(params=_model(4, [1.0, 3.0, 3.0], 0.0, epsilon=3.0))
def test_secular_spin_block_matches_dense_route(params):
    # the spin block of exp(-iHt), V_s diag(exp(-iEt)) V_s^H, does not depend
    # on how degenerate eigenvectors are chosen, so the two routes must agree
    n = params.shape.n_qubits
    energies, v_s = spin_spectrum(params)
    # the secular route: one column per distinct frequency plus N, or N
    # alone when the mode weight N g0^2 is zero or subnormal
    coupled = n * params.coupling.g0**2 >= np.finfo(float).tiny
    assert v_s.shape == (n, np.unique(params.dispersion.omegas).size * coupled + n)
    sd = diagonalize(build_h1(params))
    dense = sd.eigenvectors[:n]
    for t in (0.0, 0.7, 13.0, 400.0):
        got = (v_s * np.exp(-1j * energies * t)) @ v_s.conj().T
        want = (dense * np.exp(-1j * sd.eigenvalues * t)) @ dense.conj().T
        assert np.max(np.abs(got - want)) <= 1e-10
