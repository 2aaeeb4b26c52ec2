"""The one spectrum seam: dynamics.spin_spectrum on each of its routes
against the dense eigenvalues, its spin block's completeness, its single
fallback to diagonalize, and the spectrum verb's energies against it."""

import numpy as np
import pytest

import qregsim.dynamics
from qregsim import build_h1, parse_config_file, spin_spectrum
from qregsim.cli import main

# (config lines, frequencies of an explicit dispersion or None, diagonalize
# calls): one model per route
MODELS = {
    # the secular route, with roots pinned on a 2-fold and a 3-fold frequency
    "uniform_repeated": (
        ["register.n_qubits = 3", "register.n_modes = 6", "coupling.type = uniform",
         "coupling.g0 = 0.05"],
        [0.5, 0.5, 1.0, 1.5, 1.5, 1.5],
        0,
    ),
    # the secular route with every pole cancelled
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
        0,
    ),
    # an exact cluster: the cosine is exactly 1, which leaves two dark spin
    # states at epsilon, so the closed form refuses and diagonalize serves
    "cosine_flat": (
        ["register.n_qubits = 3", "register.n_modes = 8", "coupling.type = cosine",
         "coupling.g0 = 0.05", "coupling.xi = 1e300"],
        None,
        1,
    ),
    # every mode uncoupled: refused as well
    "cosine_uncoupled": (
        ["register.n_qubits = 3", "register.n_modes = 5", "coupling.type = cosine",
         "coupling.g0 = 0", "coupling.xi = 1"],
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
        0,
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
    lines, omegas, fallbacks = MODELS[name]
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
    assert len(calls) == fallbacks
    assert (roots is not None) == name.startswith("uniform")

    want = np.linalg.eigvalsh(build_h1(params))
    assert energies.shape == (d,)
    assert np.all(np.abs(np.sort(energies) - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    assert spin.shape == (n, d)
    assert np.max(np.abs(spin @ spin.conj().T - np.eye(n))) <= 1e-12

    assert main(["spectrum", str(cfg)]) == 0
    written = np.loadtxt(tmp_path / "spec" / "eigenvalues.csv")
    assert np.array_equal(written, np.sort(energies))
