"""The benchmark's workloads: which verbs each one invokes, on which inputs.

Every operation is one verb invocation, ``qregsim.cli.main(argv)``, the code
path of ``qregsim run/preset/spectrum``. Each operation lists the outputs it
must leave behind together with what they should hold (``RunSpec``), so the
reference checks know the model without asking the program for it.

presets       the ``preset`` verb for fig1..fig5 (14 runs, N_b = 200, 2001
              steps) and ``spectrum`` on fig1's g0 = 0.01 model. Small d, so
              fixed per-run costs dominate: CSV formatting, the config echo,
              atomic writes, Python overhead and small eigensolves.
bath_cosine   ``run`` at N = 4, N_b = 1000, 20 001 steps, cosine coupling.
              The dense eigensolve and the full-grid evaluation dominate, and
              no uniform-coupling shortcut applies.
bath_uniform  ``run`` then ``spectrum`` on the same sizes with uniform
              coupling: the secular solver runs at scale, and ``spectrum``
              loads the eigensolve without the evaluation.

The seed draws the unit-norm explicit preparation of the bath runs and, for
every workload, the grid rows the reference propagation checks. It changes
no cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("presets", "bath_cosine", "bath_uniform")

#: grid rows checked against the reference propagation, per run
CHECK_ROWS = 21


@dataclass(frozen=True)
class BathSize:
    n_qubits: int = 4
    n_modes: int = 1000
    n_steps: int = 20001
    t_max: float = 2000.0


@dataclass(eq=False)
class RunSpec:
    """One model run as the benchmark asked for it.

    ``output`` is the CSV for a run (the sidecar is ``output + ".meta"``) or
    the output directory for a spectrum.
    """

    n_qubits: int
    n_modes: int
    coupling: str
    g0: float
    xi: float | None
    prep: dict[str, str]
    amplitudes: np.ndarray
    t_max: float
    n_steps: int
    output: Path
    check_rows: np.ndarray | None = None

    def config_text(self) -> str:
        lines = [
            f"register.n_qubits = {self.n_qubits}",
            f"register.n_modes = {self.n_modes}",
            f"coupling.type = {self.coupling}",
            f"coupling.g0 = {self.g0!r}",
        ]
        if self.xi is not None:
            lines.append(f"coupling.xi = {self.xi!r}")
        lines += [f"{key} = {value}" for key, value in self.prep.items()]
        lines += [
            f"grid.t_max = {self.t_max!r}",
            f"grid.n_steps = {self.n_steps}",
            f"output.path = {self.output}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(eq=False)
class Op:
    """One verb invocation and the outputs it must produce."""

    argv: list[str]
    runs: list[RunSpec] = field(default_factory=list)
    spectrum: RunSpec | None = None


def _symmetric(n: int) -> tuple[dict[str, str], np.ndarray]:
    return {"prep.type": "symmetric"}, np.full(n, n**-0.5, dtype=complex)


def _momentum(n: int, k: int) -> tuple[dict[str, str], np.ndarray]:
    sites = np.arange(1, n + 1)
    return (
        {"prep.type": "momentum", "prep.n": str(k)},
        np.exp(2j * np.pi * k * sites / n) / np.sqrt(n),
    )


def _first_m(n: int, m: int) -> tuple[dict[str, str], np.ndarray]:
    amp = np.zeros(n, dtype=complex)
    amp[:m] = m**-0.5
    return {"prep.type": "m_superposition", "prep.m": str(m)}, amp


def _check_rows(rng: np.random.Generator, n_steps: int) -> np.ndarray:
    """First and last grid row plus distinct random interior rows."""
    k = min(CHECK_ROWS - 2, n_steps - 2)
    inner = rng.choice(np.arange(1, n_steps - 1), size=k, replace=False)
    return np.sort(np.concatenate(([0, n_steps - 1], inner)))


# The runs of each preset, written out from the model definition: (file,
# N, coupling, g0, xi, preparation). All use N_b = 200 and t in [0, 2000]
# with 2001 steps.
_PRESET_RUNS = {
    "fig1": [
        (f"fig1_g{g:g}.csv", 2, "uniform", g, None, _symmetric(2)) for g in (0.005, 0.01, 0.02)
    ],
    "fig2": [(f"fig2_M{m}.csv", 4, "uniform", 0.01, None, _first_m(4, m)) for m in (1, 2, 3)],
    "fig3": [(f"fig3_M{m}.csv", 4, "uniform", 0.01, None, _first_m(4, m)) for m in (1, 2, 3)],
    "fig4": [
        (f"fig4_xi{xi:g}.csv", 2, "cosine", 0.01, xi, _momentum(2, 1)) for xi in (10.0, 5.0, 1.0)
    ],
    "fig5": [
        ("fig5_sym.csv", 2, "cosine", 0.01, 1.0, _symmetric(2)),
        ("fig5_antisym.csv", 2, "cosine", 0.01, 1.0, _momentum(2, 1)),
    ],
}


def _presets(workdir: Path, rng: np.random.Generator) -> list[Op]:
    rows = _check_rows(rng, 2001)
    ops = []
    for name, runs in _PRESET_RUNS.items():
        out = workdir / name
        specs = [
            RunSpec(n, 200, coupling, g0, xi, prep, amp, 2000.0, 2001, out / filename, rows)
            for filename, n, coupling, g0, xi, (prep, amp) in runs
        ]
        ops.append(Op(["preset", name, "--out", str(out)], runs=specs))
    prep, amp = _symmetric(2)
    spectrum = RunSpec(2, 200, "uniform", 0.01, None, prep, amp, 2000.0, 2001,
                       workdir / "spectrum_fig1")
    ops.append(_spectrum_op(workdir / "spectrum_fig1.conf", spectrum))
    return ops


def _explicit_prep(rng: np.random.Generator, n: int) -> tuple[dict[str, str], np.ndarray]:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    amp /= np.linalg.norm(amp)
    text = ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in amp)
    return {"prep.type": "explicit", "prep.amplitudes": text}, amp


def _run_op(conf: Path, spec: RunSpec) -> Op:
    conf.write_text(spec.config_text(), encoding="utf-8")
    return Op(["run", str(conf)], runs=[spec])


def _spectrum_op(conf: Path, spec: RunSpec) -> Op:
    conf.write_text(spec.config_text(), encoding="utf-8")
    return Op(["spectrum", str(conf)], spectrum=spec)


def _bath(workdir: Path, rng: np.random.Generator, size: BathSize, coupling: str) -> list[Op]:
    prep, amp = _explicit_prep(rng, size.n_qubits)
    xi = 1.0 if coupling == "cosine" else None

    def spec(output: Path, rows: np.ndarray | None) -> RunSpec:
        return RunSpec(size.n_qubits, size.n_modes, coupling, 0.01, xi, prep, amp,
                       size.t_max, size.n_steps, output, rows)

    run = _run_op(workdir / "run.conf",
                  spec(workdir / "run.csv", _check_rows(rng, size.n_steps)))
    if coupling == "cosine":
        return [run]
    return [run, _spectrum_op(workdir / "spectrum.conf", spec(workdir / "spectrum", None))]


def build(name: str, workdir: Path, seed: int, size: BathSize = BathSize()) -> list[Op]:
    """The operations of one pass of workload ``name``; inputs go to workdir."""
    rng = np.random.default_rng(seed)
    if name == "presets":
        return _presets(workdir, rng)
    if name == "bath_cosine":
        return _bath(workdir, rng, size, "cosine")
    if name == "bath_uniform":
        return _bath(workdir, rng, size, "uniform")
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
