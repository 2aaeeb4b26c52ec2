"""The dense route without eigenvectors: energies counted by inertia and
refined on the branches of the self-energy problem, with the spin block in
closed form (selfenergy.closed_form_spectrum), the deflation of exact
degeneracies in front of it and of the secular route, the certificate and
the fallback to diagonalize, against evolve + diagonalize, against eigvalsh
and against a 40-digit eigensolve."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qregsim.dynamics
import qregsim.selfenergy
import qregsim.spectral
from qregsim import (
    CosineCoupling,
    DiagonalizationError,
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    TimeGrid,
    UniformCoupling,
    build_h1,
    build_preset,
    closed_form_spectrum,
    diagonalize,
    evolve,
    initial_amplitudes,
    momentum_state,
    observables,
    prep_vector,
    run_time_series,
    spin_spectrum,
    symmetric_spectrum,
    symmetric_state,
)

from oracle import oracle_spin_blocks

TIMES = np.array([0.0, 10.0, 500.0, 2000.0])

#: mode frequencies on a 0.01 grid, so that drawn lists repeat some
_frequency = st.integers(5, 300).map(lambda k: k / 100)


def _cosine(n, g0, xi, epsilon, omegas):
    return ModelParams(
        RegisterShape(n, len(omegas)),
        CosineCoupling(g0, xi),
        epsilon=epsilon,
        dispersion=ExplicitDispersion(omegas),
    )


# Three hazard models, each fatal to a weaker form of the route. A root next
# to a pole whose spin state is nearly dark: without Newton steps its column
# is 5.6e-11 off.
NEAR_POLE = _cosine(
    2, 0.28407061582409954, 7.386384301425365, 0.6745455252707157,
    [0.6745455252707157, 0.06742310551999195, 0.2514263089348071, 1.4030579278814295,
     0.16316216742709275, 2.9421319472950564, 1.9119229207103718, 1.7280721609387375,
     1.8974374305412547, 1.2836846083961297, 2.6629715242350596, 2.1528450678922586],
)
# a near-dark pair split by about 1e-10 ||H||, which a cluster threshold of
# 1e-9 ||H|| merges: the propagator is then 5.5e-7 off at t = 2000
NEAR_DARK_PAIR = _cosine(
    4, 0.06406945816961684, 14.568093961548191, 1.2577534465462263,
    [1.2070744617090767, 1.9788113705067008, 2.1401277352986754, 0.684061401248821,
     1.6663823659166432, 1.0350181683784991, 2.9945478926526032, 1.410774575069204],
)
# strong coupling, which residual bounds of 1e-12 and overlaps of 1e-11 would
# pass while the propagator is 4e-11 off
STRONG = _cosine(
    3, 0.9391665366903619, 11.275530391384471, 1.0610836674760162,
    [2.779218105533858, 1.0695612784626254, 2.387680026010526, 1.9905159542837776,
     1.534289330653858, 2.267596783941967, 2.1961910447838116, 2.859366679143721,
     2.2088481229003936, 0.9297640759471953],
)
HAZARDS = {"near_pole": NEAR_POLE, "near_dark_pair": NEAR_DARK_PAIR, "strong": STRONG}


@st.composite
def dense_models(draw):
    """Cosine and explicit couplings with the hazards the closed form must
    resolve or refuse by its certificate (epsilon on a mode, N = 1, a column
    1e-9 weak) and the exact degeneracies that the deflation takes out:
    repeated frequencies, zero rows (g0 = 0 included), and repeated and zero
    coupling columns, whose dark spin states form exact clusters. Explicit
    couplings at a repeated frequency mostly reach two spin directions
    there, which the deflation refuses."""
    n = draw(st.integers(1, 4))
    omegas = draw(st.lists(_frequency, min_size=1, max_size=10))
    omegas += draw(st.sampled_from([[], omegas[:1], omegas[:1] * 2]))
    nb = len(omegas)
    epsilon = draw(st.one_of(st.sampled_from(omegas), st.floats(0.05, 3.0)))
    g0 = draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["cosine", "real", "complex"]))
    if kind == "cosine":
        return _cosine(n, g0, draw(st.floats(0.5, 20.0)), epsilon, omegas)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((nb, n))
    if kind == "complex":
        g = (g + 1j * rng.standard_normal((nb, n))) / np.sqrt(2.0)
    g *= g0
    edit = draw(st.sampled_from(["none", "repeated_column", "zero_column", "zero_row", "weak_column"]))
    if edit == "repeated_column":
        g[:, -1] = g[:, 0]
    elif edit == "zero_column":
        g[:, -1] = 0.0
    elif edit == "zero_row":
        g[draw(st.integers(0, nb - 1))] = 0.0
    elif edit == "weak_column":
        g[:, -1] *= 1e-9
    return ModelParams(
        RegisterShape(n, nb), ExplicitCoupling(g), epsilon=epsilon,
        dispersion=ExplicitDispersion(omegas),
    )


def _propagators(energies, v_s, times):
    """Spin block V_s exp(-i E t) V_s^H of the propagator at each time."""
    return np.einsum("aj,tj,bj->tab", v_s, np.exp(-1j * np.outer(times, energies)), v_s.conj())


def _evolved_spin_blocks(params, times):
    """The same blocks from evolve: column a evolves spin state a."""
    n = params.shape.n_qubits
    sd = diagonalize(build_h1(params))
    columns = [evolve(sd, initial_amplitudes(np.eye(n)[a], params.shape), times)[:, :n]
               for a in range(n)]
    return np.stack(columns, axis=-1)


@settings(max_examples=300, deadline=None)
@given(params=dense_models())
@example(params=NEAR_POLE)
@example(params=NEAR_DARK_PAIR)
@example(params=STRONG)
@example(params=_cosine(4, 0.0, 3.0, 1.5, [0.5, 1.5, 1.5, 2.5]))
def test_certified_or_falls_back(params):
    # what the route serves (the secular route at rank one, else the closed
    # form) matches the dense reference at every time, and so does the
    # closed form wherever it certifies; what is served by neither falls
    # back to diagonalize
    n = params.shape.n_qubits
    h = build_h1(params)
    energies, v_s, roots = spin_spectrum(params)
    try:
        closed = closed_form_spectrum(params)
    except DiagonalizationError:
        closed = None
    if roots is None and closed is None:
        sd = diagonalize(h)
        assert np.array_equal(energies, sd.eigenvalues)
        assert np.array_equal(v_s, sd.eigenvectors[:n])
        return
    served = [(energies, v_s)]
    if roots is None:
        assert np.array_equal(energies, closed[0]) and np.array_equal(v_s, closed[1])
    elif closed is not None:
        served.append(closed)
    want = _evolved_spin_blocks(params, TIMES)
    for energies, v_s in served:
        assert np.all(np.diff(energies) >= 0.0) and v_s.shape == (n, h.shape[0])
        got = _propagators(energies, v_s, TIMES)
        if not np.max(np.abs(got - want)) <= 1e-11:
            # under strong coupling eigh's own eigenvalue error reaches 1e-11
            # at t = 2000 (1.09e-11 on one explicit N = 4 draw, where this
            # route was 8.7e-13 from the truth); the 40-digit eigensolve then
            # decides
            want = oracle_spin_blocks(params, TIMES)
        assert np.max(np.abs(got - want)) <= 1e-11


@pytest.mark.parametrize("g0", [4.141419808267754e-05, 1e-3, 0.3])
def test_single_qubit_matches_secular_weights(g0):
    # at N = 1 every coupling is uniform, so the closed form's spin weights
    # |v_j|^2 are the secular weights 1 / P'(E_j); epsilon on a mode puts
    # two roots +-g0 from it, where E - epsilon formed from the rounded
    # energy instead of the offset loses 2e-13 of a weight
    omegas = [1.72, 0.94, 1.35, 1.28, 1.57, 2.21, 1.61, 2.24]
    params = _cosine(1, g0, 3.0, 1.28, omegas)
    uniform = ModelParams(
        RegisterShape(1, 8), UniformCoupling(g0), epsilon=1.28,
        dispersion=ExplicitDispersion(omegas),
    )
    energies, v_s = closed_form_spectrum(params)
    roots, weights = symmetric_spectrum(uniform)
    assert np.max(np.abs(energies - roots)) <= 1e-15
    assert np.max(np.abs(np.abs(v_s[0]) ** 2 - weights)) <= 1e-15
    assert abs(np.sum(np.abs(v_s[0]) ** 2) - 1.0) <= 1e-15


def _forbid_dense_route(monkeypatch):
    def no_eigenvectors(h):
        raise AssertionError("the route fell back to diagonalize")

    def no_matrix(params):
        raise AssertionError("the route built H")

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", no_eigenvectors)
    monkeypatch.setattr(qregsim.dynamics, "build_h1", no_matrix)


def _paper_runs():
    bath = ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1.0))
    runs = [("bath_cosine", bath, symmetric_state(4))]
    for name in ("fig4", "fig5"):
        for cfg in [cfg for group in build_preset(name) for cfg in group]:
            runs.append((cfg.output_path, cfg.params, prep_vector(cfg.prep, 2)))
    # the cosine models of acceptance criterion 9; at xi = 1e8 the couplings
    # are nearly flat, so the antisymmetric spin state is nearly dark, but it
    # forms no exact cluster
    for xi in (1.0, 5.0, 10.0, 1e8):
        params = ModelParams(RegisterShape(2, 200), CosineCoupling(0.01, xi))
        runs.append((f"criterion_9_xi{xi:g}", params, momentum_state(2, 1)))
    return runs


@pytest.mark.parametrize("name, params, prep", _paper_runs(), ids=[r[0] for r in _paper_runs()])
def test_paper_models_need_no_eigenvectors(name, params, prep, monkeypatch):
    # the gain of the route cannot vanish into its fallback on the models
    # the benchmark and the cosine presets run, and the route builds no H
    _forbid_dense_route(monkeypatch)
    series = run_time_series(params, prep, TimeGrid(2000.0, 2001))
    assert len(series) == 2001


def _uniform(n, g0, epsilon, omegas):
    return ModelParams(
        RegisterShape(n, len(omegas)), UniformCoupling(g0), epsilon=epsilon,
        dispersion=ExplicitDispersion(omegas),
    )


_rank_one = np.outer([0.03 - 0.01j, 0.02j, -0.04, 0.01 + 0.02j, 0.05], [0.6, 0.48j, -0.64])
# exact degeneracies, each taken out by the deflation and served without H
DEGENERATE = {
    "repeated_frequency": _cosine(2, 0.05, 3.0, 1.2, [0.5, 1.0, 1.0, 1.5]),
    "zero_row": ModelParams(
        RegisterShape(2, 3), ExplicitCoupling([[0.05, 0.02], [0.0, 0.0], [0.03, -0.04]]),
        epsilon=1.2, dispersion=ExplicitDispersion([0.5, 1.0, 1.5]),
    ),
    # the cosine is exactly 1, which leaves two dark spin states at epsilon
    "exact_cluster": _cosine(3, 0.05, 1e300, 1.2, [0.5, 1.0, 1.5, 2.0]),
    "cosine_flat": ModelParams(RegisterShape(3, 8), CosineCoupling(0.05, 1e300)),
    "cosine_uncoupled": ModelParams(RegisterShape(3, 5), CosineCoupling(0.0, 1.0)),
    "uniform_uncoupled": ModelParams(RegisterShape(3, 5), UniformCoupling(0.0)),
    "uniform_repeated": _uniform(3, 0.05, 1.0, [0.5, 0.5, 1.0, 1.5, 1.5, 1.5]),
    "complex_rank_one": ModelParams(
        RegisterShape(3, 5), ExplicitCoupling(_rank_one), epsilon=1.1,
        dispersion=ExplicitDispersion([0.4, 0.9, 1.3, 1.7, 2.0]),
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_exact_degeneracy_is_deflated(name, monkeypatch):
    # served without H and within 1e-11 of the 40-digit propagator at t = 2000
    params, t = DEGENERATE[name], np.array([2000.0])
    truth = oracle_spin_blocks(params, t)
    _forbid_dense_route(monkeypatch)
    energies, v_s, _ = spin_spectrum(params)
    assert np.max(np.abs(_propagators(energies, v_s, t) - truth)) <= 1e-11


def test_two_directions_at_one_frequency_fall_back(monkeypatch):
    # two modes at one frequency whose 2 x 2 coupling block has rank two: the
    # deflation refuses it before any count, and diagonalize serves
    params = ModelParams(
        RegisterShape(2, 4),
        ExplicitCoupling([[0.05, 0.02], [0.03, -0.04], [0.01, 0.06], [0.02, 0.02]]),
        epsilon=1.2, dispersion=ExplicitDispersion([0.5, 1.0, 1.0, 1.5]),
    )
    n, h = params.shape.n_qubits, build_h1(params)
    real_diagonalize, calls = qregsim.dynamics.diagonalize, []

    def no_step(*args):
        raise AssertionError("a count or a refinement step on a refused model")

    def counted(h):
        calls.append(h.shape)
        return real_diagonalize(h)

    monkeypatch.setattr(qregsim.selfenergy, "_count", no_step)
    monkeypatch.setattr(qregsim.selfenergy, "_iterate", no_step)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    with pytest.raises(DiagonalizationError, match="two spin directions"):
        closed_form_spectrum(params)
    energies, v_s, roots = spin_spectrum(params)
    sd = real_diagonalize(h)
    assert calls == [h.shape] and roots is None
    assert np.array_equal(energies, sd.eigenvalues)
    assert np.array_equal(v_s, sd.eigenvectors[:n])


@pytest.mark.parametrize("fault", ["shifted", "nan"])
def test_corrupted_energy_falls_back(fault, monkeypatch):
    # one converged energy moved by 1e-9 ||H||, or made NaN, between the
    # refinement and the certificate: the certificate refuses it and the
    # route's output is the reference's
    ((cfg, _),) = build_preset("fig5")
    params, prep = cfg.params, prep_vector(cfg.prep, 2)
    closed_form_spectrum(params)  # certified when intact
    norm = np.linalg.norm(build_h1(params), 2)
    real_iterate, real_diagonalize = qregsim.selfenergy._iterate, qregsim.dynamics.diagonalize
    calls = []

    def corrupted(*args):
        tau = real_iterate(*args)
        k = tau.size // 2
        tau[k] = np.nan if fault == "nan" else tau[k] + 1e-9 * norm
        return tau

    def counted(h):
        calls.append(h.shape)
        return real_diagonalize(h)

    monkeypatch.setattr(qregsim.selfenergy, "_iterate", corrupted)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    with pytest.raises(DiagonalizationError):
        closed_form_spectrum(params)
    grid = TimeGrid(2000.0, 401)
    series = run_time_series(params, prep, grid)
    assert calls == [(202, 202)]
    c0 = initial_amplitudes(prep, params.shape)
    want = observables(c0, evolve(diagonalize(build_h1(params)), c0, grid.times()), 2)
    for got, expect in zip(series.obs, want):
        assert np.max(np.abs(got - expect)) <= 1e-11


def test_self_energy_on_a_coupled_pole_is_refused():
    # at t = 0 from the coupled pole 3, its origin, the kernel's row leaves
    # that pole out with no division by zero (any warning fails a test) and
    # keeps the other terms, and M(E) is finite. Held from pole 3 but placed
    # exactly on pole 4, the row's term 1 / (E - omega_4) is infinite and
    # _self_energy refuses the non-finite M(E)
    model = qregsim.spectral._deflate(ModelParams(RegisterShape(3, 20), CosineCoupling(0.05, 1.0)))
    omegas, origin, out = model.omegas, np.array([3]), np.empty((1, model.omegas.size))
    base = omegas[origin]
    r = qregsim.spectral._pole_row(out, -1.0, np.zeros(1), base, origin, omegas)
    m = qregsim.selfenergy._self_energy(model, r, base - model.epsilon)
    assert r[0, 3] == 0.0 and np.all(np.isfinite(m))
    assert np.array_equal(np.delete(r[0], 3), 1.0 / (base - np.delete(omegas, 3)))
    t = omegas[4:5] - base
    with np.errstate(divide="ignore", invalid="ignore"):
        r = qregsim.spectral._pole_row(out, -1.0, t, base, origin, omegas)
        with pytest.raises(DiagonalizationError, match="self-energy not finite"):
            qregsim.selfenergy._self_energy(model, r, (base - model.epsilon) + t)
    assert np.isinf(r[0, 4])


def test_non_finite_residual_is_refused(monkeypatch):
    # a NaN residual bounds no overlap: _max_overlap returns inf and the
    # certificate refuses a model it certifies when intact
    model = qregsim.spectral._deflate(ModelParams(RegisterShape(3, 200), CosineCoupling(0.01, 1.0)))
    qregsim.selfenergy._closed_form(model)
    branch_roots, seen = qregsim.selfenergy._branch_roots, []

    def corrupted(*args):
        roots = branch_roots(*args)
        roots.residual[roots.residual.size // 2] = np.nan
        seen.append(qregsim.selfenergy._max_overlap(roots, model))
        return roots

    monkeypatch.setattr(qregsim.selfenergy, "_branch_roots", corrupted)
    with pytest.raises(DiagonalizationError, match="eigenvector overlap inf"):
        qregsim.selfenergy._closed_form(model)
    assert seen == [np.inf]


@settings(max_examples=300, deadline=None)
@given(params=dense_models())
@example(params=NEAR_POLE)
@example(params=NEAR_DARK_PAIR)
@example(params=STRONG)
def test_counts_and_energies_against_eigvalsh(params):
    # on every model the route serves, the inertia count below each coupled
    # frequency is eigvalsh's, and every energy lies within 64 ulp of ||H||_2
    # of eigvalsh's, eigvalsh's own backward error. An eigvalsh energy that
    # close to a frequency leaves eigvalsh's count ambiguous (epsilon on a
    # mode and g ~ 1e-11 put an energy 4.5e-22 above the other mode, which
    # eigvalsh rounds below it); the count then lies between the counts at
    # omega_k -+ 64 ulp.
    try:
        energies, _ = closed_form_spectrum(params)
    except DiagonalizationError:
        return
    want = np.linalg.eigvalsh(build_h1(params))
    tol = 64 * np.finfo(float).eps * max(1.0, -want[0], want[-1])
    assert np.max(np.abs(energies - want)) <= tol
    # the count is the reduced problem's, against eigvalsh of its own matrix
    model = qregsim.spectral._deflate(params)
    omegas, g, r = model.omegas, model.g, model.g.shape[1]
    if not omegas.size:
        return
    h = np.diag(np.concatenate([np.full(r, params.epsilon), omegas])).astype(g.dtype)
    h[r:, :r], h[:r, r:] = g, g.conj().T
    want = np.linalg.eigvalsh(h)
    below, _ = qregsim.selfenergy._count(model)
    low, high = np.searchsorted(want, omegas - tol), np.searchsorted(want, omegas + tol)
    assert np.all((low <= below) & (below <= high))
    assert np.array_equal(below[low == high], low[low == high])


# small models whose closed form probes zeros, every spin direction coupled
# and no mode pinned, so that the reduced problem's energies are build_h1's
PROBED = {
    f"cosine_{n}_{nb}_{xi}": ModelParams(RegisterShape(n, nb), CosineCoupling(0.05, xi))
    for n in (2, 3, 4) for nb in (8, 50) for xi in (1.0, 5.0, 10.0)
} | {"near_dark_pair": NEAR_DARK_PAIR}


@pytest.mark.parametrize("name", sorted(PROBED))
def test_brackets_hold_the_dense_energies(name, monkeypatch):
    # the count and the midpoint probe against an independent route: every
    # bracket (base + lo, base + hi) holds eigvalsh's energy of the same
    # index, to its 64 ulp of ||H||_2, whether or not the certificate passes
    params, recorded = PROBED[name], []
    model, brackets = qregsim.spectral._deflate(params), qregsim.selfenergy._brackets
    assert model.pinned.size == 0 and model.dark.shape[1] == 0

    def recording(model, reach, probe, below, tau_k):
        def counted(*args):  # the probe's last argument is each zero's branch
            recorded.append(args[-1].size)
            return probe(*args)

        recorded.append(brackets(model, reach, counted, below, tau_k))
        return recorded[-1]

    monkeypatch.setattr(qregsim.selfenergy, "_brackets", recording)
    try:
        closed_form_spectrum(params)
    except DiagonalizationError:
        pass
    probed, b = recorded
    assert probed > 0
    want = np.linalg.eigvalsh(build_h1(params))
    tol = 64 * np.finfo(float).eps * max(1.0, -want[0], want[-1])
    assert want.size == b.base.size
    assert np.all((want - b.base >= b.lo - tol) & (want - b.base <= b.hi + tol))


def test_probe_and_steps_share_one_evaluate(monkeypatch):
    # the midpoint probe is one call of the branch evaluate that the steps
    # of _iterate then take, so a solve builds four scratch wraps: the
    # count, that evaluate, the eigenvectors and the certificate's overlaps
    params = PROBED["cosine_4_50_1.0"]  # five of its energies are probed
    selfenergy = qregsim.selfenergy
    branch_evaluate, iterate, in_chunks = (
        selfenergy._branch_evaluate, selfenergy._iterate, selfenergy._in_chunks
    )
    built, calls, wraps = [], [], []

    def building(model, vectors):
        evaluate = branch_evaluate(model, vectors)

        def recorded(tau, *data):
            calls.append(tau.size)
            return evaluate(tau, *data)

        built.append(recorded)
        return recorded

    def iterating(evaluate, data, brackets):
        assert evaluate is built[0]
        calls.append("iterate")
        return iterate(evaluate, data, brackets)

    def wrapping(*args, **kwargs):
        wraps.append(args)
        return in_chunks(*args, **kwargs)

    monkeypatch.setattr(selfenergy, "_branch_evaluate", building)
    monkeypatch.setattr(selfenergy, "_iterate", iterating)
    monkeypatch.setattr(selfenergy, "_in_chunks", wrapping)
    energies, _ = closed_form_spectrum(params)
    assert len(built) == 1 and calls[:3] == [5, "iterate", energies.size]
    assert len(wraps) == 4


def test_no_dense_matrix_on_the_certified_route(monkeypatch):
    # cosine coupling at d = 3004: the route builds no d x d matrix (one
    # float64 copy is 72 MB) and peaks below a quarter of one
    def no_matrix(params):
        raise AssertionError("the certified route built H")

    monkeypatch.setattr(qregsim.dynamics, "build_h1", no_matrix)
    params = ModelParams(RegisterShape(4, 3000), CosineCoupling(0.01, 1.0))
    tracemalloc.start()
    try:
        energies, v_s, _ = spin_spectrum(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.shape == (3004,) and v_s.shape == (4, 3004)
    assert peak <= 3004**2 * 8 / 4


def test_no_dense_matrix_on_a_flat_coupling(monkeypatch):
    # cosine coupling at xi = 1e300 is exactly flat: rank one, with three
    # dark spin states, which the deflation serves at the same peak
    def no_matrix(params):
        raise AssertionError("the deflated route built H")

    monkeypatch.setattr(qregsim.dynamics, "build_h1", no_matrix)
    params = ModelParams(RegisterShape(4, 3000), CosineCoupling(0.01, 1e300))
    tracemalloc.start()
    try:
        energies, v_s, roots = spin_spectrum(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.shape == (3004,) and v_s.shape == (4, 3004) and roots.shape == (3001,)
    assert peak <= 3004**2 * 8 / 4


_rng = np.random.default_rng(5)
ORACLE_MODELS = {
    **HAZARDS,
    "cosine_n2": _cosine(2, 0.28407061582409954, 7.386384301425365, 1.0,
                         NEAR_POLE.dispersion.omegas),
    "cosine_n3_strong": _cosine(3, 0.9, 2.0, 1.3, NEAR_POLE.dispersion.omegas),
    "explicit_complex": ModelParams(
        RegisterShape(3, 12),
        ExplicitCoupling(0.3 / np.sqrt(2.0) * (_rng.standard_normal((12, 3))
                                               + 1j * _rng.standard_normal((12, 3)))),
        epsilon=1.1,
        dispersion=ExplicitDispersion(NEAR_POLE.dispersion.omegas),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
def test_routes_against_high_precision_oracle(name):
    # at t = 2000 every route that certifies is within 1e-11 of the truth:
    # diagonalize whenever its contract holds, the closed form when its
    # certificate does
    params = ORACLE_MODELS[name]
    n, h, t = params.shape.n_qubits, build_h1(params), np.array([2000.0])
    truth = oracle_spin_blocks(params, t)
    sd = diagonalize(h)
    assert np.max(np.abs(_propagators(sd.eigenvalues, sd.eigenvectors[:n], t) - truth)) <= 1e-11
    try:
        energies, v_s = closed_form_spectrum(params)
    except DiagonalizationError:
        assert name in HAZARDS  # the others are certified
        return
    assert np.max(np.abs(_propagators(energies, v_s, t) - truth)) <= 1e-11
