"""Several preparations of one model from one spectrum: run_preparations
against one run_time_series call per preparation on every route and, on
fig2's model, against a 40-digit secular reference, and the preset verb's
one solve per model."""

from dataclasses import replace

import numpy as np
import pytest

import qregsim.dynamics
from qregsim import (
    CosineCoupling,
    ModelParams,
    RegisterShape,
    TimeGrid,
    UniformCoupling,
    build_preset,
    m_superposition,
    momentum_state,
    run_preparations,
    run_time_series,
    symmetric_state,
)
from qregsim import selfenergy
from qregsim.cli import main, run_scenario

from oracle import secular_run_reference


def _preparations(n):
    # the symmetric state; the momentum state, which is all dark under
    # uniform coupling; one qubit flipped, which has a dark part there; and
    # a complex state with no structure
    rng = np.random.default_rng(7)
    mixed = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mixed /= np.linalg.norm(mixed)
    return [symmetric_state(n), momentum_state(n, 1), m_superposition(n, 1), mixed]


ROUTES = {
    "secular": ModelParams(RegisterShape(4, 60), UniformCoupling(0.02)),
    "closed_form": ModelParams(RegisterShape(3, 60), CosineCoupling(0.02, 1.0)),
    "fallback": ModelParams(RegisterShape(3, 60), CosineCoupling(0.02, 1.0)),
}


@pytest.mark.parametrize("route", ROUTES)
def test_batched_runs_equal_one_run_each(route, monkeypatch):
    params = ROUTES[route]
    preps = _preparations(params.shape.n_qubits)
    grid = TimeGrid(300.0, 301)
    real_reduced, real_diagonalize = qregsim.dynamics._reduced_spectrum, qregsim.dynamics.diagonalize
    solves, eigensolves = [], []

    def counted(params):
        reduced = real_reduced(params)
        solves.append(reduced.roots is not None)
        return reduced

    def counted_diagonalize(h):
        eigensolves.append(h.shape)
        return real_diagonalize(h)

    if route == "fallback":
        # one energy made NaN after the iteration: the certificate refuses
        # the closed form, and diagonalize serves
        real_iterate = selfenergy._iterate

        def corrupted(*args):
            tau = real_iterate(*args)
            tau[tau.size // 2] = np.nan
            return tau

        monkeypatch.setattr(selfenergy, "_iterate", corrupted)
    monkeypatch.setattr(qregsim.dynamics, "_reduced_spectrum", counted)
    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted_diagonalize)

    batched = run_preparations(params, preps, grid)
    assert solves == [route == "secular"]
    assert len(eigensolves) == (route == "fallback")
    singles = [run_time_series(params, prep, grid) for prep in preps]
    assert len(solves) == 1 + len(preps)
    assert len(batched) == len(preps)
    for got, want in zip(batched, singles):
        assert np.array_equal(got.times, want.times)
        for field in want.obs._fields:
            assert np.array_equal(getattr(got.obs, field), getattr(want.obs, field)), field
        assert got.late_fidelity_mean == want.late_fidelity_mean
        assert got.late_entropy_mean == want.late_entropy_mean
    if route == "secular":  # the momentum state is dark: it only turns
        assert np.max(np.abs(batched[1].obs.fidelity - 1.0)) < 1e-13


def test_every_preparation_is_checked_before_the_solve(monkeypatch):
    def no_solve(params):
        raise AssertionError("solved before the preparations were checked")

    monkeypatch.setattr(qregsim.dynamics, "_reduced_spectrum", no_solve)
    params = ROUTES["secular"]
    with pytest.raises(ValueError, match="unit norm"):
        run_preparations(params, [symmetric_state(4), np.ones(4)], TimeGrid(10.0, 11))


#: _reduced_spectrum calls per preset verb: one per model
SOLVES = {"fig1": 3, "fig2": 1, "fig3": 1, "fig4": 3, "fig5": 1}


@pytest.mark.parametrize("name", SOLVES)
def test_preset_verb_solves_each_model_once(name, tmp_path, monkeypatch):
    real_reduced, calls = qregsim.dynamics._reduced_spectrum, []

    def counted(params):
        calls.append(params)
        return real_reduced(params)

    monkeypatch.setattr(qregsim.dynamics, "_reduced_spectrum", counted)
    assert main(["preset", name, "--out", str(tmp_path)]) == 0
    assert len(calls) == SOLVES[name]
    assert len(list(tmp_path.glob("*.csv"))) == sum(len(group) for group in build_preset(name))


#: runs per model, in the order build_preset gives its groups
GROUP_SIZES = {"fig1": [1, 1, 1], "fig2": [3], "fig3": [3], "fig4": [1, 1, 1], "fig5": [2]}


@pytest.mark.parametrize("name", GROUP_SIZES)
def test_preset_groups_share_one_model(name, tmp_path):
    # one group per model, whose runs share one ModelParams object and one
    # grid; the verb writes a CSV and a sidecar under each run's file name
    groups = build_preset(name)
    assert [len(group) for group in groups] == GROUP_SIZES[name]
    for group in groups:
        for cfg in group:
            assert cfg.params is group[0].params and cfg.grid == group[0].grid
    names = {cfg.output_path for group in groups for cfg in group}
    assert main(["preset", name, "--out", str(tmp_path)]) == 0
    assert {path.name for path in tmp_path.iterdir()} == names | {f"{n}.meta" for n in names}


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_preset_outputs_equal_each_run_alone(name, tmp_path):
    # each run alone through run_scenario, then the whole preset into the
    # same paths (the sidecar echoes its path): the same bytes
    alone = {}
    for cfg in [cfg for group in build_preset(name) for cfg in group]:
        path = tmp_path / cfg.output_path
        run_scenario(replace(cfg, output_path=str(path)))
        for out in (path, path.with_name(path.name + ".meta")):
            alone[out] = out.read_bytes()
            out.unlink()
    assert main(["preset", name, "--out", str(tmp_path)]) == 0
    assert len(alone) == 2 * sum(len(group) for group in build_preset(name))
    for out, text in alone.items():
        assert out.read_bytes() == text, out.name


def test_uniform_runs_match_a_40_digit_secular_reference():
    # fig2's model and its three first-M superpositions from one spectrum,
    # at every 100th grid time up to t = 2000: D and F against the secular
    # equation solved at 40 digits
    params = ModelParams(RegisterShape(4, 200), UniformCoupling(0.01))
    preps = [m_superposition(4, m) for m in (1, 2, 3)]
    picked = np.arange(0, 2001, 100)
    runs = run_preparations(params, preps, TimeGrid(2000.0, 2001))
    assert runs[0].times[picked[-1]] == 2000.0
    reference = secular_run_reference(params, preps, runs[0].times[picked])
    for series, (d, fidelity) in zip(runs, reference):
        assert np.max(np.abs(series.obs.d[picked] - d)) <= 2e-13
        assert np.max(np.abs(series.obs.fidelity[picked] - fidelity)) <= 2e-13
