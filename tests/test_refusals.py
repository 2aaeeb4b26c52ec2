"""Inputs the package refuses, each with its exception's type and message,
a root iteration that runs out of steps, and models across the whole float
range, which are served or refused with a message but never warn (warnings
are errors under pytest) and never crash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qregsim.dynamics
from qregsim import (
    CosineCoupling,
    DiagonalizationError,
    ExplicitCoupling,
    ExplicitDispersion,
    ModelParams,
    RegisterShape,
    RelaxationFitError,
    TimeGrid,
    UniformCoupling,
    build_h1,
    build_preset,
    enumerate_basis,
    expm,
    fit_relaxation_time,
    run_preparations,
    spin_spectrum,
    su2_multiplicity,
    symmetric_spectrum,
    symmetric_state,
)
from qregsim import spectral
from qregsim.cli import main


def _decay_too_short():
    # exp(-t) enters [0.2, 0.8] at three samples of this grid
    times = np.linspace(0.0, 10.0, 20)
    fit_relaxation_time(times, np.exp(-times))


def _no_decay():
    # ten samples inside the window that rise by 1e-7 each, within the
    # segment's tolerance of 1e-6, then nothing
    fid = np.concatenate([0.5 + 1e-7 * np.arange(10), np.zeros(30)])
    fit_relaxation_time(np.arange(40.0), fid)


REFUSALS = {
    "uniform_g0": (lambda: UniformCoupling(float("nan")), ValueError, "g0 must be finite"),
    "cosine_g0": (lambda: CosineCoupling(float("inf"), 1.0), ValueError, "g0 must be finite"),
    "coupling_ndim": (
        lambda: ExplicitCoupling(np.ones(3)), ValueError, "coupling matrix must be two-dimensional"
    ),
    "empty_dispersion": (
        lambda: ExplicitDispersion([]), ValueError, "dispersion must list at least one frequency"
    ),
    "no_qubits": (
        lambda: RegisterShape(0, 1), ValueError, "n_qubits must be a positive integer, got 0"
    ),
    "negative_excitations": (
        lambda: enumerate_basis(RegisterShape(1, 1), -1), ValueError,
        "excitation number must be nonnegative",
    ),
    "su2_no_qubits": (lambda: su2_multiplicity(0.0, 0), ValueError, "n_qubits must be positive"),
    "symmetric_no_qubits": (lambda: symmetric_state(0), ValueError, "n_qubits must be positive"),
    "unknown_preset": (
        lambda: build_preset("fig6"), ValueError, "unknown preset 'fig6'; choose one of fig1, "
    ),
    "expm_not_square": (
        lambda: expm(np.ones((2, 3))), ValueError, r"expected a square matrix, got shape \(2, 3\)"
    ),
    "fit_few_samples": (
        lambda: fit_relaxation_time(np.arange(4.0), np.ones(4)), ValueError,
        "need matching time/fidelity arrays with >= 8 samples",
    ),
    "fit_short_segment": (
        _decay_too_short, RelaxationFitError,
        "only 3 samples in the decay segment; refine the time grid",
    ),
    "fit_no_decay": (_no_decay, RelaxationFitError, "no decay in the fitted segment"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_its_reason(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind, match=f"^{message}"):
        call()


def test_unconverged_root_iteration_falls_back(monkeypatch):
    params = ModelParams(RegisterShape(2, 20), UniformCoupling(0.05))
    monkeypatch.setattr(spectral, "_MAX_STEPS", 1)
    with pytest.raises(DiagonalizationError, match="^root iteration did not converge in 1 steps$"):
        symmetric_spectrum(params)

    diagonalize, calls = qregsim.dynamics.diagonalize, []

    def counted(h):
        calls.append(h.shape)
        return diagonalize(h)

    monkeypatch.setattr(qregsim.dynamics, "diagonalize", counted)
    energies = spin_spectrum(params).energies
    want = np.linalg.eigvalsh(build_h1(params))
    assert calls == [(22, 22)]
    assert np.max(np.abs(energies - want)) <= 1e-12


def _log_uniform():
    return st.floats(-300.0, 300.0).map(lambda x: 10.0**x)


@st.composite
def float_range_models(draw):
    """N <= 4 and N_b <= 60, with g0, epsilon and the frequencies of an
    explicit dispersion log-uniform in [1e-300, 1e300]."""
    n, nb = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    g0 = draw(_log_uniform())
    coupling = draw(st.sampled_from([UniformCoupling(g0), CosineCoupling(g0, 1.0)]))
    dispersion = draw(st.sampled_from(["linear", "scaled", "scattered"]))
    kwargs = {}
    if dispersion == "scaled":  # evenly spaced about one frequency
        kwargs["dispersion"] = ExplicitDispersion(draw(_log_uniform()) * np.linspace(0.5, 1.5, nb))
    elif dispersion == "scattered":
        kwargs["dispersion"] = ExplicitDispersion(draw(st.lists(_log_uniform(), min_size=nb, max_size=nb)))
    return ModelParams(RegisterShape(n, nb), coupling, epsilon=draw(_log_uniform()), **kwargs)


@settings(max_examples=150, deadline=None)
@given(params=float_range_models(), t_max=_log_uniform())
def test_float_range_models_are_served_or_refused(params, t_max):
    n = params.shape.n_qubits
    try:
        energies, spin, _ = spin_spectrum(params)
    except (ValueError, DiagonalizationError) as exc:
        assert str(exc)
    else:
        assert np.all(np.isfinite(energies)) and np.all(np.isfinite(spin))
        assert np.max(np.abs(spin @ spin.conj().T - np.eye(n))) <= 1e-12
    try:
        (series,) = run_preparations(params, [symmetric_state(n)], TimeGrid(t_max, 5))
    except (ValueError, DiagonalizationError) as exc:
        assert str(exc)
    else:
        assert np.all(np.isfinite(series.obs.d)) and np.all(np.isfinite(series.obs.p1))


def test_fine_grid_takes_the_dense_sums():
    # 400 evenly spaced poles 1e-200 apart: the near/far tables would hold
    # 1 / h^2, which overflows, so the dense sums serve the secular route
    params = ModelParams(
        RegisterShape(2, 400), UniformCoupling(1.0),
        dispersion=ExplicitDispersion(1e-200 * np.arange(1.0, 401.0)),
    )
    model = spectral._deflate(params)
    with np.errstate(over="ignore", invalid="ignore"):
        assert spectral._far_moments(model.omegas, model.g[:, 0] ** 2) is None
    energies, _, roots = spin_spectrum(params)
    assert roots is not None
    want = np.linalg.eigvalsh(build_h1(params))
    assert np.max(np.abs(energies - want)) <= 1e-12 * np.max(np.abs(want))


HUGE = {
    "explicit_1e160": (
        2, 40, "model.epsilon = 1e160\ncoupling.type = uniform\ncoupling.g0 = 1e150\n"
        "dispersion.type = explicit\ndispersion.file = omegas.dat", True,
    ),
    "uniform_1e155": (4, 50, "coupling.type = uniform\ncoupling.g0 = 1e155", True),
    "uniform_1e160": (4, 50, "coupling.type = uniform\ncoupling.g0 = 1e160", True),
    "cosine_1e160": (4, 50, "coupling.type = cosine\ncoupling.g0 = 1e160\ncoupling.xi = 1", True),
    # every mode falls below the deflation threshold: nothing is squared
    "epsilon_1e300": (
        4, 50, "model.epsilon = 1e300\ncoupling.type = uniform\ncoupling.g0 = 0.01", False,
    ),
}


@pytest.mark.parametrize("verb", ["spectrum", "run"])
@pytest.mark.parametrize("name", HUGE)
def test_huge_models_through_the_cli(name, verb, tmp_path, capsys):
    n, nb, lines, refused = HUGE[name]
    np.savetxt(tmp_path / "omegas.dat", 1e160 * np.linspace(0.5, 1.5, nb))
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(
        f"register.n_qubits = {n}\nregister.n_modes = {nb}\n{lines}\nprep.type = symmetric\n"
        f"grid.t_max = 10\ngrid.n_steps = 11\noutput.path = {tmp_path / 'out'}\n"
    )
    code = main([verb, str(cfg)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and "Warning" not in out + err
    if refused:
        assert code == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: model scale ")
        assert err.rstrip().endswith("overflows float64 when squared")
    elif verb == "spectrum":
        assert code == 0
        want = np.sort(np.concatenate([2.0 * np.pi * np.arange(1, nb + 1) / nb, np.full(n, 1e300)]))
        assert np.array_equal(np.loadtxt(tmp_path / "out" / "eigenvalues.csv"), want)
    else:  # served, then refused by the run's phase bound
        assert code == 1 and len(err.splitlines()) == 1 and "at least 2^52" in err
