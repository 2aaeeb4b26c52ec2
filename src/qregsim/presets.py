"""Named scenario presets: the standard weak-coupling register-bath runs.

Each preset returns fully resolved run configurations, one group per model
(output paths are filenames, rebased by the CLI onto the chosen output
directory); the runs of a group share one model and one grid. All presets
use N_b = 200 linear-dispersion modes, epsilon = 1, and a uniform time grid
over [0, 2000] in units of 1/epsilon.

fig1  N=2, symmetric preparation, uniform coupling, three strengths
fig2  N=4, first-M uniform superpositions (M = 1, 2, 3): fidelity decay
fig3  same runs as fig2 (the entropy column of the same dataset)
fig4  N=2, momentum preparation, cosine coupling, xi = 10, 5, 1
fig5  N=2, cosine coupling at xi = 1, symmetric vs momentum preparation
"""

from __future__ import annotations

from .config import MomentumPrep, MSuperpositionPrep, RunConfig, SymmetricPrep
from .dynamics import TimeGrid
from .model import CosineCoupling, ModelParams, UniformCoupling
from .sector import RegisterShape

__all__ = ["PRESET_NAMES", "build_preset"]

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")

_GRID = TimeGrid(t_max=2000.0, n_steps=2001)


def _run(params: ModelParams, prep, filename: str) -> RunConfig:
    return RunConfig(params=params, prep=prep, grid=_GRID, output_path=filename)


def build_preset(name: str) -> list[list[RunConfig]]:
    """Run configurations of one preset, one list per model whose runs share
    its ModelParams and TimeGrid; raises ValueError for unknown names."""
    if name == "fig1":
        shape = RegisterShape(2, 200)
        return [
            [_run(
                ModelParams(shape, UniformCoupling(g0)),
                SymmetricPrep(),
                f"fig1_g{g0:g}.csv",
            )]
            for g0 in (0.005, 0.01, 0.02)
        ]
    if name in ("fig2", "fig3"):
        params = ModelParams(RegisterShape(4, 200), UniformCoupling(0.01))
        return [[_run(params, MSuperpositionPrep(m), f"{name}_M{m}.csv") for m in (1, 2, 3)]]
    if name == "fig4":
        shape = RegisterShape(2, 200)
        return [
            [_run(
                ModelParams(shape, CosineCoupling(0.01, xi)),
                MomentumPrep(1),
                f"fig4_xi{xi:g}.csv",
            )]
            for xi in (10.0, 5.0, 1.0)
        ]
    if name == "fig5":
        shape = RegisterShape(2, 200)
        params = ModelParams(shape, CosineCoupling(0.01, 1.0))
        return [[
            _run(params, SymmetricPrep(), "fig5_sym.csv"),
            _run(params, MomentumPrep(1), "fig5_antisym.csv"),
        ]]
    raise ValueError(f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}")
