"""Property tests: the secular root iteration, its weights and the secular
route's spin block and series against the dense eigensolver, the
matrix-exponential oracle and exact sum rules."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qregsim import (
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    TimeGrid,
    UniformCoupling,
    build_h1,
    diagonalize,
    expm_evolve,
    initial_amplitudes,
    observables,
    run_time_series,
    secular_roots,
    spin_spectrum,
    symmetric_spectrum,
)
from qregsim import spectral

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


@st.composite
def even_models(draw):
    """Uniform couplings on evenly spaced frequencies, up to 60 of them, so
    that the near/far sums have far poles to sum."""
    start, step = draw(grid_frequency), draw(st.integers(1, 20).map(lambda k: k / 100))
    omegas = start + step * np.arange(draw(st.integers(2, 60)))
    epsilon = draw(st.one_of(st.sampled_from(list(omegas)), st.floats(0.05, 7.0)))
    return ModelParams(
        RegisterShape(draw(st.integers(1, 4)), omegas.size),
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
@example(params=_model(2, [0.3, 1.0, 2.0], 1e-158, epsilon=0.5))  # N g0^2 subnormal
@example(params=_model(2, [1.0, 1.0, 2.0], 1e-160, epsilon=1.0))
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
    energies, _, spectrum_roots = spin_spectrum(params)
    assert np.array_equal(spectrum_roots, roots)
    energies = np.sort(energies)
    assert np.all(np.abs(energies - evals) <= 1e-10 * np.maximum(1.0, np.abs(evals)))

    poles, counts = np.unique(params.dispersion.omegas, return_counts=True)
    if spectral._deflate(params).omegas.size == poles.size:
        # unless the deflation pins a frequency (a coupling within 16 ulp of
        # ||H|| of zero, g0 = 0 included), one root lies strictly inside each
        # gap between distinct poles (and beyond both ends), and a k-fold
        # frequency keeps k - 1 roots on itself
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
@example(params=_model(2, [0.3, 1.0, 2.0], 1e-158, epsilon=0.5))  # N g0^2 subnormal
@example(params=_model(2, [1.0, 1.0, 2.0], 1e-160, epsilon=1.0))
def test_secular_weights_obey_sum_rules(params):
    # w_j = |<phi_j|s>|^2 is the spectral measure of the symmetric spin state
    # s, so its moments are <s|H^k|s>: 1, epsilon, epsilon^2 + N N_b g0^2
    n, nb = params.shape.n_qubits, params.shape.n_modes
    energies, w = symmetric_spectrum(params)
    assert energies.shape == w.shape == (nb + 1,) and np.all(w >= 0.0)
    # ascending, strictly where s has weight; a k-fold frequency keeps k - 1
    # energies without weight on itself
    assert np.all(np.diff(energies) >= 0.0) and np.all(np.diff(energies[w > 0.0]) > 0.0)
    poles, counts = np.unique(params.dispersion.omegas, return_counts=True)
    unweighted = [int(np.sum((energies == p) & (w == 0.0))) for p in poles]
    assert np.all(np.array(unweighted) >= counts - 1)
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
@example(params=_model(2, [0.3, 1.0, 2.0], 1e-158, epsilon=0.5))  # N g0^2 subnormal
@example(params=_model(2, [1.0, 1.0, 2.0], 1e-160, epsilon=1.0))
def test_secular_spin_block_matches_dense_route(params):
    # the spin block of exp(-iHt), V_s diag(exp(-iEt)) V_s^H, does not depend
    # on how degenerate eigenvectors are chosen, so the two routes must agree
    n = params.shape.n_qubits
    energies, v_s, _ = spin_spectrum(params)
    # one column per one-excitation state, those without spin weight zero
    assert v_s.shape == (n, params.shape.n_modes + n)
    sd = diagonalize(build_h1(params))
    dense = sd.eigenvectors[:n]
    for t in (0.0, 0.7, 13.0, 400.0):
        got = (v_s * np.exp(-1j * energies * t)) @ v_s.conj().T
        want = (dense * np.exp(-1j * sd.eigenvalues * t)) @ dense.conj().T
        assert np.max(np.abs(got - want)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(params=uniform_models(), t_max=st.sampled_from([1.0, 50.0, 400.0]), data=st.data())
def test_secular_series_matches_matexp_oracle(params, t_max, data):
    # the series of the secular route against exp(-iHt) c0 by scaling and
    # squaring, which involves no eigensolver at all
    n = params.shape.n_qubits
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
    prep = np.array(parts[:n]) + 1j * np.array(parts[n:])
    assume(np.linalg.norm(prep) > 0.1)
    prep /= np.linalg.norm(prep)
    series = run_time_series(params, prep, TimeGrid(t_max, 41))
    c0 = initial_amplitudes(prep, params.shape)
    h = build_h1(params)
    for row in (0, 7, 20, 40):
        c = expm_evolve(h, c0, series.times[row])
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-10
        want = observables(c0, c, n)
        assert abs(series.obs.d[row] - want.d) <= 1e-10
        assert abs(series.obs.p1[row] - want.p1) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(params=st.one_of(uniform_models(), even_models()))
@example(params=_model(4, list(2.0 * np.pi * np.arange(1, 61) / 60), 0.05))
@example(params=_model(2, [0.3, 1.0, 2.0], 1e-158, epsilon=0.5))  # N g0^2 subnormal
# strong coupling whose lowest root moved 8 ulp while a BLAS product summed
# the dense rows, rounding each by how many rows shared the call
@example(params=_model(2, list(0.05 + 0.01 * np.arange(23)), 0.5625, epsilon=0.05))
def test_near_far_sums_match_the_dense_route(params):
    # the near/far sums, forced on every even grid of at least two coupled
    # poles, give the dense route's roots to 1 ulp of ||H|| and its weights
    # to 1e-13. The two outer roots take the dense sums on both routes, in
    # calls over other rows; each row is summed on its own, so they round
    # alike, and under strong coupling, where their sums are about ||H||, a
    # few ulp are allowed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_GRID_POLES", np.inf)
        roots, weights = symmetric_spectrum(params)
        patch.setattr(spectral, "_GRID_POLES", 2)
        near_far = symmetric_spectrum(params)
    ulp = np.spacing(max(1.0, float(np.max(np.abs(roots)))))
    moved = np.abs(near_far[0] - roots)
    assert np.max(moved[1:-1], initial=0.0) <= ulp and np.max(moved) <= 4 * ulp
    assert np.max(np.abs(near_far[1] - weights)) <= 1e-13
