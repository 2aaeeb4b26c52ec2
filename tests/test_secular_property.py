"""Property test: the vectorized secular bisection against the dense eigensolver."""

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

    omegas = params.dispersion.omegas
    if n * params.coupling.g0**2 > 0.0:
        # one root strictly inside each gap between distinct poles (and
        # beyond both ends); a k-fold frequency keeps k - 1 roots on itself
        poles, counts = np.unique(omegas, return_counts=True)
        edges = np.concatenate([[-np.inf], poles, [np.inf]])
        inside = [int(np.sum((roots > a) & (roots < b))) for a, b in zip(edges, edges[1:])]
        assert inside == [1] * (poles.size + 1)
        assert [int(np.sum(roots == p)) for p in poles] == list(counts - 1)
