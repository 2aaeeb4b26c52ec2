"""Preset and spectrum outputs do not depend on the BLAS thread count.

Each side runs ``qregsim preset`` and ``qregsim spectrum`` in its own
interpreter with ``OPENBLAS_NUM_THREADS`` set in that subprocess's
environment only. The secular route (fig1 and the spectrum, uniform
coupling) makes a QR of the N_b x N coupling G, an SVD of its N x N factor
and a product of G with one spin vector in the deflation, then matrix-vector
products in the root iteration; none of them depended on the thread count,
so its CSV and sidecar bytes are identical. The dense route (fig5, cosine
coupling, rank two after deflation) goes through GEMMs
of row chunks of the (energies x modes) arrays with the coupling table and
batched N x N ``eigh`` and solves of the self-energy problem. No d x d
matrix is formed, and at fig5's size (N_b = 200) its bytes were identical
under 1 and 2 threads. Larger GEMMs may sum in an order that depends on the
thread count (at N_b = 1000 the spectrum moved by 7e-16), so the bound
stays 1e-10, not bitwise.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qregsim

SRC = Path(qregsim.__file__).resolve().parent.parent

# fig1's model at N = 4, written into the same directory as the presets
SPECTRUM_CONFIG = """
register.n_qubits = 4
register.n_modes = 200
coupling.type = uniform
coupling.g0 = 0.01
prep.type = symmetric
grid.t_max = 2000
grid.n_steps = 2001
output.path = out
"""


def _preset_outputs(tmp_path: Path, threads: int) -> dict[str, bytes]:
    # the same relative --out on both sides, so the sidecars echo one path
    cwd = tmp_path / f"threads{threads}"
    cwd.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    (cwd / "spectrum.cfg").write_text(SPECTRUM_CONFIG)
    code = (
        "import sys\n"
        "from qregsim.cli import main\n"
        "for name in ('fig1', 'fig5'):\n"
        "    if main(['preset', name, '--out', sys.argv[1]]):\n"
        "        sys.exit(1)\n"
        "sys.exit(main(['spectrum', 'spectrum.cfg']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, "out"], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return {path.name: path.read_bytes() for path in sorted((cwd / "out").iterdir())}


def test_preset_outputs_across_blas_thread_counts(tmp_path):
    one = _preset_outputs(tmp_path, 1)
    two = _preset_outputs(tmp_path, 2)
    assert sorted(one) == sorted(two)
    fig1 = [name for name in one if name.startswith("fig1_")]
    assert len(fig1) == 6
    for name in fig1 + ["eigenvalues.csv", "secular_roots.csv"]:
        assert one[name] == two[name], name
    fig5 = [name for name in one if name.startswith("fig5_") and name.endswith(".csv")]
    assert len(fig5) == 2
    for name in fig5:
        a, b = (
            np.loadtxt(side[name].decode().splitlines(), delimiter=",", skiprows=1)
            for side in (one, two)
        )
        assert a.shape == b.shape == (2001, 7)
        assert np.max(np.abs(a - b)) <= 1e-10, name
