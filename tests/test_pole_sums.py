"""The pole sums of both spectrum routes: the one kernel of their dense
rows (spectral._pole_row) against the plain formula, the secular route's
two dense passes (spectral._secular_passes) against each other, the
near/far pole sums on evenly spaced baths (spectral._grid_evaluate): their
value and slopes against the dense sums at every kind of offset, the models
that take them, and the dense residual pass that ends every secular solve,
which refuses a corrupted far moment and a moved zero on either sums, after
which spin_spectrum falls back to diagonalize."""

import numpy as np
import pytest

import qregsim.dynamics
from qregsim import (
    DiagonalizationError,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    UniformCoupling,
    build_h1,
    spin_spectrum,
    symmetric_spectrum,
)
from qregsim import spectral
from qregsim.model import mode_frequencies

#: agreement of the near/far sums with the dense ones, in units of eps times
#: the scale of the dense sums' rounding: |const| + |tau| + sum_k |W_k /
#: Delta_k| for the value, sum_k W_k / Delta_k^2 for both slopes (at most
#: 2.2, 9.8 and 2.2 measured on 120 random grids of up to 600 poles; the
#: series' own tails stay below 7.8e-17 of the far poles' sums)
SUM_ULPS = 16


def _grids():
    """Even grids of up to 600 poles: the paper's linear dispersion and
    explicit ones, and weights from flat to three decades apart."""
    rng = np.random.default_rng(20)
    for nb in (2, 9, 17, 18, 40, 257, 600):
        yield nb, 2.0 * np.pi * np.arange(1, nb + 1) / nb, np.full(nb, 0.02)
        h, start = 10.0 ** rng.uniform(-3, 0), rng.uniform(0.01, 3.0)
        sqrt_w = np.sqrt(rng.uniform(0.1, 1.0, nb)) * 10.0 ** rng.uniform(-3, 0)
        yield nb, start + h * np.arange(nb), sqrt_w


def _sums(poles, sqrt_w, epsilon, tau, origin):
    """The dense and the near/far sums at the offsets tau from the poles
    origin, and the scales of the dense sums' rounding. The dense value and
    slope are the residual pass's, which adds the largest term apart."""
    driver = spectral._in_chunks(poles.size, float, rows=tau.size)
    dense, residuals = spectral._secular_passes(poles, sqrt_w, driver)
    near_far = spectral._grid_evaluate(poles, sqrt_w, dense)
    assert near_far is not None
    base = poles[origin]
    data = (base, base - epsilon, origin)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        want, got = np.array(dense(tau, *data)), np.array(near_far(tau, *data))
        value, slope, terms = residuals(tau, *data)
    want[:2] = value, slope
    return want, got, np.abs(base - epsilon) + np.abs(tau) + terms


def _offsets(poles):
    """Every pole as the origin of five rows, at the offsets 0, +-1 ulp of
    the pole and +-half the gap to the neighbouring pole on that side (the
    one gap at either end)."""
    gap = np.diff(poles)
    left, right = np.append(gap[:1], gap), np.append(gap, gap[-1:])
    ulp = np.spacing(poles)
    origin = np.repeat(np.arange(poles.size), 5)
    tau = np.stack([0.0 * ulp, ulp, -ulp, 0.5 * right, -0.5 * left], axis=1).ravel()
    return tau, origin


@pytest.mark.parametrize("numer", ["sqrt_w", -1.0])
@pytest.mark.parametrize("nb, poles, sqrt_w", list(_grids())[1::3])
def test_pole_row_forms_each_term_from_the_origin(nb, poles, sqrt_w, numer):
    # away from the origin the row is numer / ((poles - base) - t) bit for
    # bit (at numer = -1 that is 1 / (t - delta_k), the closed form's
    # 1 / (E - omega_k)); the origin's entry is numer / inf, 0 of numer's
    # sign, reached with no division by zero
    rng = np.random.default_rng(nb)
    poles = np.sort(np.concatenate([poles, rng.uniform(poles[0], poles[-1], nb)]))
    sqrt_w = np.resize(sqrt_w, poles.size)
    numer = sqrt_w if numer == "sqrt_w" else numer
    tau, origin = _offsets(poles)
    base = poles[origin]
    out = np.empty((tau.size, poles.size))
    with np.errstate(all="raise"):
        row = spectral._pole_row(out, numer, tau, base, origin, poles)
    assert row is out
    rows = np.arange(tau.size)
    off = np.ones_like(out, dtype=bool)
    off[rows, origin] = False
    with np.errstate(divide="ignore"):
        want = numer / ((poles - base[:, None]) - tau[:, None])
        closed = 1.0 / (tau[:, None] - (poles - base[:, None]))
    assert np.array_equal(row[off], want[off])
    if np.isscalar(numer):
        assert np.array_equal(row[off], closed[off])
    assert np.all(row[rows, origin] == 0.0)
    assert np.array_equal(np.signbit(row[rows, origin]), np.signbit(np.broadcast_to(numer, poles.shape)[origin]))


@pytest.mark.parametrize("nb, poles, sqrt_w", list(_grids())[::3])
def test_steps_see_p_as_the_residual_pass_checks_it(nb, poles, sqrt_w):
    # the step sums and the residual pass are one code up to their third
    # sum: P and P' - 1 are bit-equal at every offset, the origin's pole
    # itself (P = -inf) included
    tau, origin = _offsets(poles)
    base = poles[origin]
    data = (base, base - 1.3, origin)
    dense, residuals = spectral._secular_passes(poles, sqrt_w, spectral._in_chunks(nb, float, rows=tau.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps, checked = dense(tau, *data), residuals(tau, *data)
    for a, b in zip(steps[:2], checked[:2]):
        assert np.array_equal(a, b)
    assert np.all(np.isfinite(steps[0][tau != 0.0])) and np.all(steps[0][tau == 0.0] == -np.inf)


@pytest.mark.parametrize("nb, poles, sqrt_w", list(_grids()))
def test_near_far_sums_match_the_dense_sums(nb, poles, sqrt_w, monkeypatch):
    monkeypatch.setattr(spectral, "_GRID_POLES", 2)
    h = (poles[-1] - poles[0]) / (nb - 1)
    origin = np.repeat(np.arange(nb), 8)
    # across the half gap on either side, the half gap itself, and a few
    # ulp from the pole
    tau = np.tile([-0.5, -0.31, -1e-3, 0.17, 0.5, 0.0, 0.0, 0.0], nb) * h
    tau += np.tile([0, 0, 0, 0, 0, 3, -3, 1], nb) * np.spacing(poles[origin])
    want, got, scale = _sums(poles, sqrt_w, 1.3, tau, origin)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got[0] - want[0]) <= SUM_ULPS * eps * scale)
    assert np.all(np.abs(got[1:] - want[1:]) <= SUM_ULPS * eps * want[1])


@pytest.mark.parametrize("nb, poles, sqrt_w", list(_grids())[::3])
def test_outer_offsets_take_the_dense_sums(nb, poles, sqrt_w, monkeypatch):
    # beyond either end of the grid the series need not converge: those rows
    # take the dense sums themselves
    monkeypatch.setattr(spectral, "_GRID_POLES", 2)
    h = (poles[-1] - poles[0]) / (nb - 1)
    origin = np.array([0, 0, nb - 1, nb - 1])
    tau = np.array([-0.6 * h, -3.0, 0.6 * h, 3.0])
    dense, _ = spectral._secular_passes(poles, sqrt_w, spectral._in_chunks(nb, float, rows=tau.size))
    near_far = spectral._grid_evaluate(poles, sqrt_w, dense)
    base = poles[origin]
    data = (base, base - 0.7, origin)
    assert np.array_equal(near_far(tau, *data), dense(tau, *data))


def test_routing_by_the_grid(monkeypatch):
    # an explicit copy of the linear grid takes the near/far sums and gives
    # the linear dispersion's spectrum; one frequency moved by 1e-9 makes
    # the grid uneven and the sums dense. Both match eigvalsh.
    shape, coupling = RegisterShape(4, 500), UniformCoupling(0.01)
    linear = ModelParams(shape, coupling)
    omegas = mode_frequencies(linear)
    moved = omegas.copy()
    moved[137] += 1e-9
    built, real = [], spectral._far_moments

    def spied(poles, weights):
        moments = real(poles, weights)
        built.append(moments is not None)
        return moments

    monkeypatch.setattr(spectral, "_far_moments", spied)
    spectra = {}
    for name, params in [
        ("linear", linear),
        ("explicit", ModelParams(shape, coupling, dispersion=ExplicitDispersion(omegas))),
        ("moved", ModelParams(shape, coupling, dispersion=ExplicitDispersion(moved))),
    ]:
        spectra[name] = spin_spectrum(params).energies
        want = np.linalg.eigvalsh(build_h1(params))
        assert np.max(np.abs(spectra[name] - want)) <= 1e-10
    assert built == [True, True, False]
    assert np.array_equal(spectra["explicit"], spectra["linear"])


def test_corrupted_far_moment_falls_back(monkeypatch):
    # one far moment off by 1e-9, at the pole nearest epsilon, where the
    # spin state's weight lies: the dense residual pass refuses the roots it
    # gives, and the spectrum comes from one diagonalize call
    params = ModelParams(RegisterShape(4, 500), UniformCoupling(0.01))
    intact = spin_spectrum(params)
    real_moments, real_diagonalize = spectral._far_moments, qregsim.dynamics.diagonalize
    calls = []

    def corrupted(poles, weights):
        h, shift, moments = real_moments(poles, weights)
        moments[np.argmin(np.abs(poles - params.epsilon)), 0] += 1e-9
        return h, shift, moments

    def counted(h):
        calls.append(h.shape)
        return real_diagonalize(h)

    monkeypatch.setattr(spectral, "_far_moments", corrupted)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    with pytest.raises(DiagonalizationError, match="secular residual"):
        symmetric_spectrum(params)
    energies, _, roots = spin_spectrum(params)
    assert calls == [(504, 504)] and roots is None
    assert np.array_equal(energies, real_diagonalize(build_h1(params)).eigenvalues)
    assert np.max(np.abs(energies - intact.energies)) <= 1e-12


@pytest.mark.parametrize("nb", [200, 500], ids=["dense", "near_far"])
def test_corrupted_zero_falls_back(nb, monkeypatch):
    # one zero moved by 1e-9 of its offset after the iteration, the one
    # nearest epsilon: the residual pass refuses it on the dense sums as on
    # the near/far sums, and the spectrum comes from one diagonalize call
    params = ModelParams(RegisterShape(4, nb), UniformCoupling(0.01))
    real_iterate, real_diagonalize = spectral._iterate, qregsim.dynamics.diagonalize
    calls = []

    def corrupted(evaluate, data, brackets):
        tau = real_iterate(evaluate, data, brackets)
        tau[np.argmin(np.abs(data[1] + tau))] *= 1.0 + 1e-9  # data[1]: base - epsilon
        return tau

    def counted(h):
        calls.append(h.shape)
        return real_diagonalize(h)

    monkeypatch.setattr(spectral, "_iterate", corrupted)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    with pytest.raises(DiagonalizationError, match="secular residual"):
        symmetric_spectrum(params)
    _, _, roots = spin_spectrum(params)
    assert calls == [(nb + 4, nb + 4)] and roots is None
