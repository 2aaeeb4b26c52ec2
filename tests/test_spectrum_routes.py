"""The one spectrum seam: dynamics.spin_spectrum on each of its routes
against the dense eigenvalues, its spin block's completeness, the secular
roots wherever the coupling has rank at most one, the spectrum verb's
energies against it, and the spin propagator of bath models against an
independent Chebyshev series. Only the two models of
test_fallback_propagators_match_a_chebyshev_series may fall back to
diagonalize."""

import tracemalloc

import numpy as np
import pytest

import qregsim.dynamics
from qregsim import (
    CosineCoupling,
    DiagonalizationError,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    UniformCoupling,
    build_h1,
    build_preset,
    parse_config_file,
    spin_spectrum,
    symmetric_spectrum,
)
from qregsim import selfenergy, spectral
from qregsim.cli import main

from oracle import chebyshev_spin_block, oracle_spin_blocks
from test_dense_closed_form import HAZARDS

# (config lines, frequencies of an explicit dispersion or None, rank of the
# coupling after deflation): one model per route
MODELS = {
    # the secular route, with roots pinned on a 2-fold and a 3-fold frequency
    "uniform_repeated": (
        ["register.n_qubits = 3", "register.n_modes = 6", "coupling.type = uniform",
         "coupling.g0 = 0.05"],
        [0.5, 0.5, 1.0, 1.5, 1.5, 1.5],
        1,
    ),
    # every mode pinned: no solve, and the roots are the frequencies and epsilon
    "uniform_uncoupled": (
        ["register.n_qubits = 3", "register.n_modes = 5", "coupling.type = uniform",
         "coupling.g0 = 0"],
        None,
        0,
    ),
    # the benchmark's cosine model, which certifies the closed form
    "cosine_certified": (
        ["register.n_qubits = 4", "register.n_modes = 1000", "coupling.type = cosine",
         "coupling.g0 = 0.01", "coupling.xi = 1"],
        None,
        4,
    ),
    # an exact cluster: the cosine is exactly 1, which leaves two dark spin
    # states at epsilon and a coupling of rank one, served by the secular route
    "cosine_flat": (
        ["register.n_qubits = 3", "register.n_modes = 8", "coupling.type = cosine",
         "coupling.g0 = 0.05", "coupling.xi = 1e300"],
        None,
        1,
    ),
    # every mode uncoupled: served as uniform g0 = 0 is
    "cosine_uncoupled": (
        ["register.n_qubits = 3", "register.n_modes = 5", "coupling.type = cosine",
         "coupling.g0 = 0", "coupling.xi = 1"],
        None,
        0,
    ),
    # strong uniform coupling: G is exactly rank one, but its QR rounds the
    # second singular value to 20 ulp of the first, above the 16-ulp
    # tolerance of the frequencies; the QR's own rounding keeps it dark
    "uniform_strong": (
        ["register.n_qubits = 4", "register.n_modes = 1000", "coupling.type = uniform",
         "coupling.g0 = 0.5"],
        None,
        1,
    ),
    "uniform_strongest": (
        ["register.n_qubits = 4", "register.n_modes = 1000", "coupling.type = uniform",
         "coupling.g0 = 1"],
        None,
        1,
    ),
    # near-dark pairs (overlaps of 1e-13 when each eigenvector comes from an
    # N x N eigh), which the deflated eigenvectors of near-pole energies
    # resolve: certified, 1.1e-13 from the 40-digit propagator at t = 2000
    "cosine_near_dark": (
        ["register.n_qubits = 4", "register.n_modes = 200", "coupling.type = cosine",
         "coupling.g0 = 0.01", "coupling.xi = 5"],
        None,
        4,
    ),
}


def _config(tmp_path, lines, omegas):
    if omegas is not None:
        (tmp_path / "omegas.txt").write_text("\n".join(map(repr, omegas)) + "\n")
        lines = lines + ["dispersion.type = explicit", "dispersion.file = omegas.txt"]
    path = tmp_path / "model.cfg"
    path.write_text(
        "\n".join(lines + ["prep.type = symmetric", "grid.t_max = 10", "grid.n_steps = 11",
                           f"output.path = {tmp_path / 'spec'}"]) + "\n"
    )
    return path


@pytest.mark.parametrize("name", MODELS)
def test_every_route_gives_the_whole_spectrum(name, tmp_path, monkeypatch):
    lines, omegas, rank = MODELS[name]
    cfg = _config(tmp_path, lines, omegas)
    params = parse_config_file(cfg).params
    n, d = params.shape.n_qubits, params.shape.n_qubits + params.shape.n_modes

    calls = []
    diagonalize = qregsim.dynamics.diagonalize

    def counted(h):
        calls.append(h)
        return diagonalize(h)

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    energies, spin, roots = spin_spectrum(params)
    assert calls == []
    assert (roots is not None) == (rank <= 1)
    if roots is not None:
        assert roots.shape == (params.shape.n_modes + 1,)

    want = np.linalg.eigvalsh(build_h1(params))
    assert energies.shape == (d,)
    assert np.all(np.abs(np.sort(energies) - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    assert spin.shape == (n, d)
    assert np.max(np.abs(spin @ spin.conj().T - np.eye(n))) <= 1e-12

    assert main(["spectrum", str(cfg)]) == 0
    written = np.loadtxt(tmp_path / "spec" / "eigenvalues.csv")
    assert np.array_equal(written, np.sort(energies))
    roots_csv = tmp_path / "spec" / "secular_roots.csv"
    assert roots_csv.exists() == (roots is not None)
    if roots is not None:
        assert np.array_equal(np.loadtxt(roots_csv, ndmin=1), roots)


# one model per iterating route, with more roots than one row chunk of the
# (roots x poles) pole sums at N_b = 1000
BATHS = {
    "secular": ModelParams(RegisterShape(4, 1000), UniformCoupling(0.01)),
    "closed_form": ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1.0)),
}


@pytest.mark.parametrize("route", BATHS)
def test_each_route_iterates_once_over_every_root(route, monkeypatch):
    params = BATHS[route]
    nb = params.shape.n_modes
    assert len(spectral._row_chunks(nb + 1, nb)) > 1
    calls = []
    iterate = spectral._iterate

    def counted(evaluate, data, brackets):
        calls.append(brackets.tau.size)
        return iterate(evaluate, data, brackets)

    monkeypatch.setattr(spectral, "_iterate", counted)
    monkeypatch.setattr(selfenergy, "_iterate", counted)
    energies, _, roots = spin_spectrum(params)
    assert (roots is not None) == (route == "secular")
    assert calls == [nb + 1 if route == "secular" else energies.size]


def test_iterate_returns_each_last_evaluated_offset():
    # a toy secular function over three poles, with one zero below, two
    # between and one above them; evaluate records each row's offsets by
    # its position, as selfenergy._branch_evaluate does
    poles, weights, epsilon = np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), 2.5
    evaluated = [[] for _ in range(4)]

    def evaluate(tau, base, const, position):
        for row, t in zip(position, tau):
            evaluated[row].append(t)
        delta = poles - base[:, None] - tau[:, None]  # omega_k - E
        terms = weights / delta**2
        p = const + tau + np.sum(weights / delta, axis=1)
        return p, terms.sum(axis=1), np.where(delta < 0.0, terms, 0.0).sum(axis=1)

    origin = np.array([0, 0, 2, 2])
    reach = float(np.sqrt(weights.sum())) + 1.0
    brackets = spectral._Brackets(
        origin=origin,
        base=poles[origin],
        tau=np.array([-0.5 * reach, 0.5, -0.5, 0.5 * reach]),
        lo=np.array([-reach, 0.0, -1.0, 0.0]),
        hi=np.array([0.0, 1.0, 0.0, reach]),
        delta_far=np.array([0.0, 1.0, -1.0, 0.0]),
        side=np.array([-1, 0, 0, 1]),
        branch=np.zeros(4, dtype=int),
    )
    base = poles[origin]
    tau = spectral._iterate(evaluate, (base, base - epsilon, np.arange(4)), brackets)
    assert isinstance(tau, np.ndarray) and tau.shape == (4,)
    assert np.array_equal(tau, [offsets[-1] for offsets in evaluated])
    energies = base + tau
    assert np.all(np.diff(energies) > 0.0) and np.all((tau > brackets.lo) & (tau < brackets.hi))
    secular = energies - epsilon - np.sum(weights / (energies[:, None] - poles), axis=1)
    assert np.max(np.abs(secular)) <= 1e-14


# the two routes, the secular route on near/far sums, and the near-dark pairs
# whose eigenvectors are deflated
CHUNKED = {
    "secular": ModelParams(RegisterShape(4, 300), UniformCoupling(0.01)),
    "secular_near_far": ModelParams(RegisterShape(4, 1000), UniformCoupling(0.01)),
    "closed_form": ModelParams(RegisterShape(4, 300), CosineCoupling(0.01, 1.0)),
    "near_dark": ModelParams(RegisterShape(4, 200), CosineCoupling(0.01, 5.0)),
}


@pytest.mark.parametrize("name", CHUNKED)
def test_row_chunks_do_not_change_the_spectrum(name, monkeypatch):
    # a root's iteration must not depend on its neighbours: one chunk of all
    # rows and chunks of 7 rows give the same roots. The secular route sums
    # each row on its own, so its spectrum keeps every bit; the closed form's
    # self-energy takes one BLAS product per chunk, which rounds each row by
    # how many rows share the call, so its spectrum moves within the bounds
    # below. The chunk sizes each spin_spectrum call ran with are recorded,
    # so a spectrum kept from the first call fails the test
    params = CHUNKED[name]
    secular = name.startswith("secular")
    real_row_chunks, chunks = spectral._row_chunks, []

    def recorded(n_rows, n_cols):
        chunks.append(real_row_chunks(n_rows, n_cols))
        return chunks[-1]

    def spectra(elements, rows):
        monkeypatch.setattr(spectral, "_CHUNK_ELEMENTS", elements)
        monkeypatch.setattr(spectral, "_CHUNK_ROWS", rows)
        weights = symmetric_spectrum(params)[1] if secular else None
        chunks.clear()
        spectrum = spin_spectrum(params)
        return spectrum, weights, {s.stop - s.start for passes in chunks for s in passes}

    monkeypatch.setattr(spectral, "_row_chunks", recorded)
    (energies, spin, roots), weights, sizes = spectra(1 << 40, 1)
    (energies_7, spin_7, roots_7), weights_7, sizes_7 = spectra(1, 7)
    assert max(sizes) > 7 and max(sizes_7) == 7
    if secular:
        for got, want in [(energies_7, energies), (spin_7, spin), (roots_7, roots),
                          (weights_7, weights)]:
            assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(energies_7 - energies) <= np.spacing(np.abs(energies)))
        assert np.max(np.abs(spin_7 - spin)) <= 1e-15


def test_chunk_driver_owns_the_scratch(monkeypatch):
    # the driver hands a pass one (rows x n_cols) array per declared dtype,
    # cut to each chunk's rows, in the same memory on every chunk, every
    # call and every pass of one wrap; several chunks give the outputs of
    # one, and no rows give empty outputs of the right shape
    n_cols, seen = 5, []

    def fn(real, pair, x, y):
        seen.append((real, pair))
        assert (real.dtype, pair.dtype) == (np.float64, np.complex128)
        assert real.shape == pair.shape == (x.size, n_cols)
        real[:] = x[:, None] * np.arange(n_cols)
        pair[:] = real + 1j * y[:, None]
        return real.sum(axis=1), np.stack([pair[:, -1].imag, x * y])

    x, y = np.linspace(0.0, 1.0, 10), np.linspace(2.0, 3.0, 10)
    whole = spectral._in_chunks(n_cols, float, complex, rows=10)(fn)(x, y)
    assert len(seen) == 1 and seen[0][0].shape == (10, n_cols)

    monkeypatch.setattr(spectral, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(spectral, "_CHUNK_ROWS", 3)
    seen.clear()
    wrap = spectral._in_chunks(n_cols, float, complex, rows=10)
    chunked = wrap(fn)
    parts = chunked(x, y)
    again = chunked(x[:5], y[:5])
    other = wrap(fn)(x[:4], y[:4])
    assert [real.shape[0] for real, _ in seen] == [3, 3, 3, 1, 3, 2, 3, 1]
    for real, pair in seen:
        assert np.shares_memory(real, seen[0][0]) and np.shares_memory(pair, seen[0][1])
        assert not np.shares_memory(real, pair)
    assert [p.shape for p in parts] == [(10,), (2, 10)]
    for got, want in zip(parts, whole):
        assert np.array_equal(got, want)
    for got, want in zip(again, whole):
        assert np.array_equal(got, want[..., :5])
    for got, want in zip(other, whole):
        assert np.array_equal(got, want[..., :4])

    empty = chunked(np.zeros(0), np.zeros(0))
    assert [p.shape for p in empty] == [(0,), (2, 0)]


# models whose probe gets no rows: one pole, so no interior gap (secular
# route), and every interior energy alone in its gap, started from its
# offset (closed form, rank 2)
NO_PROBE_ROWS = {
    "one_mode": ModelParams(
        RegisterShape(1, 1), UniformCoupling(0.1), dispersion=ExplicitDispersion([1.0])
    ),
    "lone_energies": ModelParams(RegisterShape(2, 3), CosineCoupling(0.05, 1.0)),
}


@pytest.mark.parametrize("name", NO_PROBE_ROWS)
def test_probe_without_rows_gives_empty_outputs(name, monkeypatch):
    params = NO_PROBE_ROWS[name]
    brackets, sizes = spectral._brackets, []

    def recorded(model, reach, probe, below, tau_k):
        def counted(zeros, lower, half, branch):
            out = probe(zeros, lower, half, branch)
            sizes.append(lower.size)
            assert [a.shape for a in out] == [(0,)] * 3
            return out

        return brackets(model, reach, counted, below, tau_k)

    def no_fallback(h):
        raise AssertionError("diagonalize called")

    monkeypatch.setattr(spectral, "_brackets", recorded)
    monkeypatch.setattr(selfenergy, "_brackets", recorded)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", no_fallback)
    energies, _, _ = spin_spectrum(params)
    assert sizes == [0]
    want = np.linalg.eigvalsh(build_h1(params))
    assert np.max(np.abs(energies - want)) <= 64 * np.finfo(float).eps * np.max(np.abs(want))


def test_strong_coupling_at_scale_stays_rank_one(monkeypatch):
    # the QR of this exactly rank-one G rounds its second singular value to
    # 47 ulp of the first: it stays dark, so the secular route serves the
    # model and diagonalize (d = 4004) never runs
    params = ModelParams(RegisterShape(4, 4000), UniformCoupling(0.1))
    assert spectral._deflate(params).g.shape[1] == 1

    def refused(h):
        raise AssertionError("the secular route fell back to diagonalize")

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", refused)
    energies, spin, roots = spin_spectrum(params)
    assert roots.shape == (4001,) and energies.shape == (4004,)
    assert np.max(np.abs(spin @ spin.T - np.eye(4))) <= 1e-12


def test_chebyshev_series_matches_the_oracle():
    # the bath-scale reference below against the 40-digit eigensolve, on a
    # small cosine model and on the closed form's three hazard models
    models = [(ModelParams(RegisterShape(2, 8), CosineCoupling(0.2, 1.0)), [10.0, 100.0])]
    models += [(params, [10.0, 2000.0]) for params in HAZARDS.values()]
    for params, times in models:
        for t, want in zip(times, oracle_spin_blocks(params, times)):
            assert np.max(np.abs(chebyshev_spin_block(params, t) - want)) <= 1e-12


def _spin_propagator(energies, spin, t):
    return (spin * np.exp(-1j * energies * t)) @ spin.conj().T


# the benchmark's two bath models, and the secular route on dense sums at
# bath scale (uneven frequencies) and on near/far sums at N_b = 4000, each
# at t in {100, 2000} within 1e-11; and a weakly coupled uniform bath on
# near/far sums at t = 100 within 1e-13, where its coupled amplitude has
# decayed only to about exp(-0.8), so that the secular zeros and not the
# dark states carry the check
_UNEVEN = np.sort(np.random.default_rng(5).uniform(0.0, 2 * np.pi, 1000))
CHEBYSHEV_BATHS = {
    **{route: (params, (100.0, 2000.0), 1e-11) for route, params in BATHS.items()},
    "secular_dense": (
        ModelParams(
            RegisterShape(4, 1000), UniformCoupling(0.01), dispersion=ExplicitDispersion(_UNEVEN)
        ),
        (100.0, 2000.0),
        1e-11,
    ),
    "secular_4000": (
        ModelParams(RegisterShape(4, 4000), UniformCoupling(0.01)), (100.0, 2000.0), 1e-11
    ),
    "secular_weak": (ModelParams(RegisterShape(4, 1000), UniformCoupling(2e-3)), (100.0,), 1e-13),
}


@pytest.mark.parametrize("route", CHEBYSHEV_BATHS)
def test_bath_propagators_match_a_chebyshev_series(route, monkeypatch):
    # an independent route at bath scale, on models that no route leaves
    # for diagonalize: spin_spectrum's spin propagator
    # V_s diag(exp(-iEt)) V_s^H against the Chebyshev series on the
    # arrowhead matvec. The series builds no d x d array (8 d^2 bytes as
    # float64); its arrays depend on t only through the number of terms, so
    # the first time's call is traced
    params, times, tolerance = CHEBYSHEV_BATHS[route]

    def refused(h):
        raise AssertionError("the route fell back to diagonalize")

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", refused)
    energies, spin, _ = spin_spectrum(params)
    d = energies.size
    tracemalloc.start()
    try:
        blocks = [chebyshev_spin_block(params, times[0])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d * d
    blocks += [chebyshev_spin_block(params, t) for t in times[1:]]
    for t, block in zip(times, blocks):
        assert np.max(np.abs(block - _spin_propagator(energies, spin, t))) <= tolerance


def _refused(model):
    raise DiagonalizationError("the secular route is refused")


# a near-dark cosine model, which the closed form refuses today, and the
# uniform bath with its secular route refused: the calls to diagonalize
# that each makes, or None where a certified route may serve it instead
FALLBACKS = {
    "cosine_near_dark": (
        ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 10.0)), None, None
    ),
    "forced": (BATHS["secular"], _refused, 1),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_fallback_propagators_match_a_chebyshev_series(name, monkeypatch):
    params, secular, want_calls = FALLBACKS[name]
    calls = []
    diagonalize = qregsim.dynamics.diagonalize

    def counted(h):
        calls.append(h.shape)
        return diagonalize(h)

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    if secular is not None:
        monkeypatch.setattr(qregsim.dynamics, "_secular_spectrum", secular)
    energies, spin, _ = spin_spectrum(params)
    assert want_calls is None or len(calls) == want_calls
    for t in (100.0, 2000.0):
        block = chebyshev_spin_block(params, t)
        assert np.max(np.abs(block - _spin_propagator(energies, spin, t))) <= 1e-11


# the deflated rank r of each model, which picks its route (r <= 1 the
# secular iteration, r >= 2 the closed form): the presets' models (fig4 and
# fig5 are acceptance criterion 9's models at xi = 1, 5 and 10), the
# benchmark's two bath models, criterion 9's xi = 1e8 model and cosine
# models approaching the uniform limit, each as the deflation measured it
PRESET_RANKS = {"fig1": 1, "fig2": 1, "fig3": 1, "fig4": 2, "fig5": 2}
RANKS = {
    "bath_cosine": (ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1.0)), 4),
    "bath_uniform": (ModelParams(RegisterShape(4, 1000), UniformCoupling(0.01)), 1),
    "criterion_9_xi1e8": (ModelParams(RegisterShape(2, 200), CosineCoupling(0.01, 1e8)), 1),
    "cosine_xi1e3": (ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1e3)), 3),
    "cosine_xi1e4": (ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1e4)), 2),
    "cosine_xi1e8": (ModelParams(RegisterShape(4, 1000), CosineCoupling(0.01, 1e8)), 1),
}


@pytest.mark.parametrize("name", PRESET_RANKS)
def test_preset_routes_are_stable(name):
    for run in [run for group in build_preset(name) for run in group]:
        assert spectral._deflate(run.params).g.shape[1] == PRESET_RANKS[name]


@pytest.mark.parametrize("name", RANKS)
def test_model_routes_are_stable(name):
    params, rank = RANKS[name]
    assert spectral._deflate(params).g.shape[1] == rank
