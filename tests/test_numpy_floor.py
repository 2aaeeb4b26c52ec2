"""The declared NumPy floor (numpy>=1.24 in pyproject.toml) against the
package's source. The tests run on one installed NumPy, so this scan is
the only check of the floor: it refuses an ``out=`` keyword on an
``np.fft`` call, a NumPy-2-only use that this package has already met, and
the names that NumPy 2.0 added (NUMPY_TWO), by attribute or by import."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qregsim"

#: names that NumPy 2.0 added, as their path below the numpy module
NUMPY_TWO = {
    (name,) for name in (
        "vecdot", "trapezoid", "concat", "unstack", "matvec", "vecmat", "cumulative_sum",
        "cumulative_prod", "isdtype", "astype", "permute_dims", "bitwise_count", "strings",
    )
} | {("linalg", "vecdot"), ("linalg", "matrix_transpose")}


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
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            below = tuple(node.module.split(".")[1:])
            found += [
                f"{node.lineno}: from {node.module} import {a.name}"
                for a in node.names if below + (a.name,) in NUMPY_TWO
            ]
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name and name.split(".")[0] in numpy and tuple(name.split(".")[1:]) in NUMPY_TWO:
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
        "import numpy as np\ny = np.trapezoid(f, x)\n",
        "import numpy as np\nc = np.concat([a, b])\n",
        "import numpy as np\nrows = np.unstack(a)\n",
        "import numpy as np\ny = np.matvec(m, v)\n",
        "import numpy as np\ny = np.vecmat(v, m)\n",
        "import numpy as np\nc = np.cumulative_sum(a, include_initial=True)\n",
        "import numpy as np\nc = np.cumulative_prod(a)\n",
        "import numpy as np\nok = np.isdtype(a.dtype, 'real floating')\n",
        "import numpy as np\nb = np.astype(a, float)\n",
        "import numpy as np\nb = np.permute_dims(a, (1, 0))\n",
        "import numpy as np\nn = np.bitwise_count(a)\n",
        "import numpy as np\ns = np.strings.multiply(a, 2)\n",
        "from numpy import strings\n",
        "import numpy as np\nc = np.linalg.vecdot(a, b)\n",
        "from numpy.linalg import matrix_transpose\n",
        "import numpy as np\nt = np.linalg.matrix_transpose(a)\n",
    ],
)
def test_scan_finds_numpy_two_uses(snippet):
    assert len(_numpy_two_uses(snippet)) == 1


def test_scan_passes_numpy_one_uses():
    assert _numpy_two_uses(
        "import numpy as np\nfrom numpy.linalg import eigh\nnp.fft.fft(a)\nnp.multiply(a, b, out=c)\n"
        "b = a.astype(float)\nc = np.concatenate([a, b])\nd = np.linalg.norm(a)\n"
    ) == []


def test_source_keeps_the_declared_numpy_floor():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = {m.name: _numpy_two_uses(m.read_text()) for m in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}
