"""The README's examples run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

from qregsim import SymmetricPrep, UniformCoupling, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, language: str = "") -> str:
    """The first fenced code block after the line `after`."""
    match = re.search(rf"^{re.escape(after)}\n\n```{language}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no code block after {after!r}"
    return match.group(1)


def test_library_example_prints_its_comments_claims():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library example", "python"), {})
    late_fidelity, max_entropy, shape = out.getvalue().splitlines()
    assert abs(float(late_fidelity) - 1.0) <= 1e-9
    assert float(max_entropy) <= 1e-12
    assert shape == "(2001,)"


def test_configuration_example_parses():
    cfg = parse_config(_block("Example:"))
    assert (cfg.params.shape.n_qubits, cfg.params.shape.n_modes) == (2, 200)
    assert cfg.params.coupling == UniformCoupling(0.01)
    assert cfg.prep == SymmetricPrep()
    assert (cfg.grid.t_max, cfg.grid.n_steps, cfg.output_path) == (2000.0, 2001, "sym.csv")
