"""The declared NumPy floor (numpy>=1.24 in pyproject.toml) against the
package's source. The tests run on one installed NumPy, so this scan is
the only check of the floor: it refuses the NumPy-2-only uses that this
package has already met, an ``out=`` keyword on an ``np.fft`` call and
``np.vecdot``."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qregsim"


def _dotted(node):
    """The dotted name of a Name/Attribute chain ("np.fft.fft"), else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _numpy_two_uses(source: str) -> list[str]:
    """Each NumPy-2-only use in source, as "line: what"."""
    tree = ast.parse(source)
    numpy = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy.update(a.asname or a.name for a in node.names if a.name == "numpy")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"{node.lineno}: from numpy import vecdot" for a in node.names if a.name == "vecdot"]
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name and name.split(".")[0] in numpy and name.split(".")[1:] == ["vecdot"]:
            found.append(f"{node.lineno}: {name}")
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            parts = name.split(".")
            if parts[0] in numpy and parts[1:2] == ["fft"] and any(k.arg == "out" for k in node.keywords):
                found.append(f"{node.lineno}: {name}(..., out=)")
    return found


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nnp.fft.fft(a, out=b)\n",
        "import numpy\nnumpy.fft.irfft(a, 8, out=b)\n",
        "import numpy as xp\nc = xp.vecdot(a, b)\n",
        "from numpy import vecdot\n",
    ],
)
def test_scan_finds_numpy_two_uses(snippet):
    assert len(_numpy_two_uses(snippet)) == 1


def test_scan_passes_numpy_one_uses():
    assert _numpy_two_uses("import numpy as np\nnp.fft.fft(a)\nnp.multiply(a, b, out=c)\n") == []


def test_source_keeps_the_declared_numpy_floor():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = {m.name: _numpy_two_uses(m.read_text()) for m in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
