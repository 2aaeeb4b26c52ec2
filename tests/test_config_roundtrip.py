"""Property test: format_config and parse_config are inverse on every variant."""

import math
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qregsim import (
    BellMixPrep,
    CosineCoupling,
    ExplicitCoupling,
    ExplicitDispersion,
    ExplicitPrep,
    LinearDispersion,
    ModelParams,
    MomentumPrep,
    MSuperpositionPrep,
    RegisterShape,
    RunConfig,
    SymmetricPrep,
    TimeGrid,
    UniformCoupling,
    format_config,
    parse_config,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
phase = st.floats(min_value=0.0, max_value=2 * math.pi)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip").resolve()


def _write_data(data_dir, rows) -> str:
    with tempfile.NamedTemporaryFile("w", suffix=".dat", dir=data_dir, delete=False) as handle:
        np.savetxt(handle, rows, fmt="%.17g")
    return handle.name


@st.composite
def run_configs(draw, data_dir):
    n, nb = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shape = RegisterShape(n, nb)
    paths = {}

    kind = draw(st.sampled_from(["uniform", "cosine", "explicit"]))
    if kind == "uniform":
        coupling = UniformCoupling(draw(finite))
    elif kind == "cosine":
        coupling = CosineCoupling(draw(finite), draw(positive))
    else:
        g = np.array(draw(st.lists(finite, min_size=nb * n, max_size=nb * n))).reshape(nb, n)
        coupling = ExplicitCoupling(g)
        paths["coupling_path"] = _write_data(data_dir, g)

    if draw(st.booleans()):
        dispersion = LinearDispersion()
    else:
        omegas = np.array(draw(st.lists(positive, min_size=nb, max_size=nb)))
        dispersion = ExplicitDispersion(omegas)
        paths["dispersion_path"] = _write_data(data_dir, omegas)

    kinds = ["symmetric", "m_superposition", "explicit"]
    kinds += ["momentum"] if n >= 2 else []
    kinds += ["bell_mix"] if n == 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "symmetric":
        prep = SymmetricPrep()
    elif kind == "momentum":
        prep = MomentumPrep(draw(st.integers(1, n - 1)))
    elif kind == "m_superposition":
        prep = MSuperpositionPrep(draw(st.integers(1, n)))
    elif kind == "bell_mix":
        theta, a, b = draw(phase), draw(phase), draw(phase)
        prep = BellMixPrep(
            complex(np.cos(theta) * np.exp(1j * a)), complex(np.sin(theta) * np.exp(1j * b))
        )
    else:
        parts = st.floats(min_value=-1.0, max_value=1.0)
        amps = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
        norm = np.linalg.norm(amps)
        amps = amps / norm if norm > 1e-3 else np.eye(n, dtype=complex)[0]
        prep = ExplicitPrep(amps)

    return RunConfig(
        params=ModelParams(shape, coupling, draw(positive), dispersion),
        prep=prep,
        grid=TimeGrid(draw(positive), draw(st.integers(2, 10**6))),
        output_path=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}\.csv", fullmatch=True)),
        **paths,
    )


def _same_spec(a, b) -> bool:
    """Same class and equal fields (the explicit specs hold arrays, so no ==)."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
    )


@settings(deadline=None)
@given(data=st.data())
def test_format_parse_round_trip(data_dir, data):
    cfg = data.draw(run_configs(data_dir))
    text = format_config(cfg)
    again = parse_config(text)

    assert again.params.shape == cfg.params.shape
    assert again.params.epsilon == cfg.params.epsilon
    assert _same_spec(again.params.coupling, cfg.params.coupling)
    assert _same_spec(again.params.dispersion, cfg.params.dispersion)
    assert _same_spec(again.prep, cfg.prep)
    assert again.grid == cfg.grid
    assert again.output_path == cfg.output_path
    assert format_config(again) == text
