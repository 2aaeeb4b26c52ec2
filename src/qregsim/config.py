"""Run-configuration parsing and canonical serialization.

Grammar: UTF-8 text, one ``key = value`` per line, ``#`` starts a comment,
blank lines ignored. Keys are flat and dotted; unknown or duplicate keys are
hard errors so a typo in a physics parameter cannot slip through. Every error
message carries the key name and line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .dynamics import TimeGrid
from .model import (
    CosineCoupling,
    ExplicitCoupling,
    ExplicitDispersion,
    LinearDispersion,
    ModelParams,
    UniformCoupling,
)
from .sector import RegisterShape, m_superposition, momentum_state, symmetric_state

__all__ = [
    "ConfigError",
    "SymmetricPrep",
    "MomentumPrep",
    "MSuperpositionPrep",
    "BellMixPrep",
    "ExplicitPrep",
    "PrepSpec",
    "RunConfig",
    "prep_vector",
    "parse_config",
    "parse_config_file",
    "format_config",
]

KNOWN_KEYS = (
    "register.n_qubits",
    "register.n_modes",
    "model.epsilon",
    "coupling.type",
    "coupling.g0",
    "coupling.xi",
    "coupling.file",
    "dispersion.type",
    "dispersion.file",
    "prep.type",
    "prep.m",
    "prep.n",
    "prep.cs",
    "prep.ca",
    "prep.amplitudes",
    "grid.t_max",
    "grid.n_steps",
    "output.path",
)


class ConfigError(ValueError):
    """Malformed, missing, unknown, or out-of-range configuration entry."""


@dataclass(frozen=True)
class SymmetricPrep:
    pass


@dataclass(frozen=True)
class MomentumPrep:
    n: int


@dataclass(frozen=True)
class MSuperpositionPrep:
    m: int


@dataclass(frozen=True)
class BellMixPrep:
    cs: complex
    ca: complex


@dataclass(frozen=True, eq=False)
class ExplicitPrep:
    amplitudes: np.ndarray


PrepSpec = Union[SymmetricPrep, MomentumPrep, MSuperpositionPrep, BellMixPrep, ExplicitPrep]


def prep_vector(prep: PrepSpec, n_qubits: int) -> np.ndarray:
    """Resolve a preparation spec into its normalized spin-amplitude vector."""
    if isinstance(prep, SymmetricPrep):
        return symmetric_state(n_qubits)
    if isinstance(prep, MomentumPrep):
        return momentum_state(n_qubits, prep.n)
    if isinstance(prep, MSuperpositionPrep):
        return m_superposition(n_qubits, prep.m)
    if isinstance(prep, BellMixPrep):
        if n_qubits != 2:
            raise ValueError("bell_mix preparation requires exactly 2 qubits")
        return prep.cs * symmetric_state(2) + prep.ca * momentum_state(2, 1)
    return np.asarray(prep.amplitudes, dtype=complex).copy()


@dataclass(eq=False)
class RunConfig:
    """One fully resolved simulation run."""

    params: ModelParams
    prep: PrepSpec
    grid: TimeGrid
    output_path: str
    coupling_path: str | None = None
    dispersion_path: str | None = None


class _Entries:
    """Parsed key -> (value, line number) map with consumption tracking."""

    def __init__(self, text: str):
        self.entries: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in self.entries:
                first = self.entries[key][1]
                raise ConfigError(
                    f"line {lineno}: duplicate key {key!r} (first set on line {first})"
                )
            if not value:
                raise ConfigError(f"line {lineno}: empty value for key {key!r}")
            self.entries[key] = (value, lineno)
        self.consumed: set[str] = set()

    def take(self, key: str) -> tuple[str, int] | None:
        self.consumed.add(key)
        return self.entries.get(key)

    def require(self, key: str) -> tuple[str, int]:
        got = self.take(key)
        if got is None:
            raise ConfigError(f"missing required key {key!r}")
        return got

    def forbid_unconsumed(self, context: str) -> None:
        for key, (_, lineno) in self.entries.items():
            if key not in self.consumed:
                raise ConfigError(f"line {lineno}: unknown key for {context}: {key!r}")


def _as_int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def _as_float(key: str, value: str, lineno: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
    return x


def _positive_float(key: str, value: str, lineno: int) -> float:
    x = _as_float(key, value, lineno)
    if x <= 0:
        raise ConfigError(f"line {lineno}: {key} must be positive, got {value!r}")
    return x


def _int_at_least(key: str, value: str, lineno: int, minimum: int) -> int:
    n = _as_int(key, value, lineno)
    if n < minimum:
        raise ConfigError(f"line {lineno}: {key} must be at least {minimum}, got {n}")
    return n


def _as_complex(key: str, value: str, lineno: int) -> complex:
    try:
        return complex(value.replace(" ", ""))
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} must be a complex number like '0.5+0.5j', got {value!r}"
        ) from None


def _load_matrix(key: str, path: Path, lineno: int) -> np.ndarray:
    """Whitespace-separated numbers of a data file as a 2-D float array."""
    try:
        return np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"line {lineno}: cannot read {key} file {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: malformed {key} file {path}: {exc}") from None


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and fully validate a configuration document."""
    base = Path(base_dir)
    ent = _Entries(text)

    n_qubits = _int_at_least("register.n_qubits", *ent.require("register.n_qubits"), 1)
    n_modes = _int_at_least("register.n_modes", *ent.require("register.n_modes"), 1)
    shape = RegisterShape(n_qubits, n_modes)

    epsilon = 1.0
    got = ent.take("model.epsilon")
    if got is not None:
        epsilon = _positive_float("model.epsilon", *got)

    value, lineno = ent.require("coupling.type")
    coupling_path: str | None = None
    if value == "uniform":
        g0 = _as_float("coupling.g0", *ent.require("coupling.g0"))
        coupling = UniformCoupling(g0)
        context = "uniform coupling"
    elif value == "cosine":
        g0 = _as_float("coupling.g0", *ent.require("coupling.g0"))
        xi = _positive_float("coupling.xi", *ent.require("coupling.xi"))
        coupling = CosineCoupling(g0, xi)
        context = "cosine coupling"
    elif value == "explicit":
        file_value, file_line = ent.require("coupling.file")
        path = (base / file_value).resolve()
        coupling_path = str(path)
        matrix = _load_matrix("coupling.file", path, file_line)
        if matrix.shape != (n_modes, n_qubits):
            raise ConfigError(
                f"line {file_line}: coupling.file file {path} has shape {matrix.shape}, "
                f"expected {(n_modes, n_qubits)}"
            )
        coupling = ExplicitCoupling(matrix)
        context = "explicit coupling"
    else:
        raise ConfigError(
            f"line {lineno}: coupling.type must be uniform, cosine, or explicit, got {value!r}"
        )
    for key in ("coupling.g0", "coupling.xi", "coupling.file"):
        got = ent.entries.get(key)
        if got is not None and key not in ent.consumed:
            raise ConfigError(f"line {got[1]}: unknown key for {context}: {key!r}")
    ent.consumed.update(("coupling.g0", "coupling.xi", "coupling.file"))

    dispersion_path: str | None = None
    disp_type = "linear"
    got = ent.take("dispersion.type")
    if got is not None:
        disp_type, disp_line = got
    if disp_type == "linear":
        dispersion = LinearDispersion()
        got = ent.entries.get("dispersion.file")
        if got is not None:
            raise ConfigError(
                f"line {got[1]}: unknown key for linear dispersion: 'dispersion.file'"
            )
        ent.consumed.add("dispersion.file")
    elif disp_type == "explicit":
        file_value, file_line = ent.require("dispersion.file")
        path = (base / file_value).resolve()
        dispersion_path = str(path)
        omegas = _load_matrix("dispersion.file", path, file_line).ravel()
        if omegas.size != n_modes:
            raise ConfigError(
                f"line {file_line}: dispersion.file lists {omegas.size} frequencies "
                f"for {n_modes} modes"
            )
        try:
            dispersion = ExplicitDispersion(omegas)
        except ValueError as exc:
            raise ConfigError(f"line {file_line}: {exc}") from None
    else:
        raise ConfigError(
            f"line {disp_line}: dispersion.type must be linear or explicit, got {disp_type!r}"
        )

    try:
        params = ModelParams(shape, coupling, epsilon, dispersion)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    value, lineno = ent.require("prep.type")
    if value == "symmetric":
        prep: PrepSpec = SymmetricPrep()
        context = "symmetric preparation"
    elif value == "momentum":
        n_value, n_line = ent.require("prep.n")
        n = _as_int("prep.n", n_value, n_line)
        if not 1 <= n <= n_qubits - 1:
            raise ConfigError(
                f"line {n_line}: prep.n must be in 1..{n_qubits - 1}, got {n}"
            )
        prep = MomentumPrep(n)
        context = "momentum preparation"
    elif value == "m_superposition":
        m_value, m_line = ent.require("prep.m")
        m = _as_int("prep.m", m_value, m_line)
        if not 1 <= m <= n_qubits:
            raise ConfigError(f"line {m_line}: prep.m must be in 1..{n_qubits}, got {m}")
        prep = MSuperpositionPrep(m)
        context = "m_superposition preparation"
    elif value == "bell_mix":
        if n_qubits != 2:
            raise ConfigError(f"line {lineno}: bell_mix preparation requires N = 2")
        cs = _as_complex("prep.cs", *ent.require("prep.cs"))
        ca_value, ca_line = ent.require("prep.ca")
        ca = _as_complex("prep.ca", ca_value, ca_line)
        if abs(abs(cs) ** 2 + abs(ca) ** 2 - 1.0) > 1e-9:
            raise ConfigError(
                f"line {ca_line}: |cs|^2 + |ca|^2 must equal 1, got "
                f"{abs(cs) ** 2 + abs(ca) ** 2!r}"
            )
        prep = BellMixPrep(cs, ca)
        context = "bell_mix preparation"
    elif value == "explicit":
        amp_value, amp_line = ent.require("prep.amplitudes")
        tokens = [tok.strip() for tok in amp_value.split(",")]
        amplitudes = np.array(
            [_as_complex("prep.amplitudes", tok, amp_line) for tok in tokens]
        )
        if amplitudes.size != n_qubits:
            raise ConfigError(
                f"line {amp_line}: prep.amplitudes lists {amplitudes.size} values "
                f"for {n_qubits} qubits"
            )
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > 1e-9:
            raise ConfigError(
                f"line {amp_line}: prep.amplitudes must have unit norm, got {norm!r}"
            )
        prep = ExplicitPrep(amplitudes)
        context = "explicit preparation"
    else:
        raise ConfigError(
            f"line {lineno}: prep.type must be symmetric, momentum, m_superposition, "
            f"bell_mix, or explicit, got {value!r}"
        )
    for key in ("prep.n", "prep.m", "prep.cs", "prep.ca", "prep.amplitudes"):
        got = ent.entries.get(key)
        if got is not None and key not in ent.consumed:
            raise ConfigError(f"line {got[1]}: unknown key for {context}: {key!r}")
    ent.consumed.update(("prep.n", "prep.m", "prep.cs", "prep.ca", "prep.amplitudes"))

    t_max = _positive_float("grid.t_max", *ent.require("grid.t_max"))
    n_steps = _int_at_least("grid.n_steps", *ent.require("grid.n_steps"), 2)
    grid = TimeGrid(t_max, n_steps)

    output_path, _ = ent.require("output.path")

    ent.forbid_unconsumed("this configuration")
    return RunConfig(
        params=params,
        prep=prep,
        grid=grid,
        output_path=output_path,
        coupling_path=coupling_path,
        dispersion_path=dispersion_path,
    )


def parse_config_file(path: str | Path) -> RunConfig:
    """Parse a config file; relative data-file paths resolve against its directory."""
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_config(cfg: RunConfig, extra_comments: list[str] | None = None) -> str:
    """Canonical configuration text reproducing this run when parsed back.

    All resolved values are written out, including defaulted ones; comments
    (the metadata sidecar puts the late-window averages there) are prefixed
    with '# '.
    """
    lines = [f"# {comment}" for comment in (extra_comments or [])]
    lines.append(f"register.n_qubits = {cfg.params.shape.n_qubits}")
    lines.append(f"register.n_modes = {cfg.params.shape.n_modes}")
    lines.append(f"model.epsilon = {_fmt_float(cfg.params.epsilon)}")

    c = cfg.params.coupling
    if isinstance(c, UniformCoupling):
        lines.append("coupling.type = uniform")
        lines.append(f"coupling.g0 = {_fmt_float(c.g0)}")
    elif isinstance(c, CosineCoupling):
        lines.append("coupling.type = cosine")
        lines.append(f"coupling.g0 = {_fmt_float(c.g0)}")
        lines.append(f"coupling.xi = {_fmt_float(c.xi)}")
    else:
        if cfg.coupling_path is None:
            raise ValueError("explicit coupling has no source file to reference")
        lines.append("coupling.type = explicit")
        lines.append(f"coupling.file = {cfg.coupling_path}")

    if isinstance(cfg.params.dispersion, LinearDispersion):
        lines.append("dispersion.type = linear")
    else:
        if cfg.dispersion_path is None:
            raise ValueError("explicit dispersion has no source file to reference")
        lines.append("dispersion.type = explicit")
        lines.append(f"dispersion.file = {cfg.dispersion_path}")

    p = cfg.prep
    if isinstance(p, SymmetricPrep):
        lines.append("prep.type = symmetric")
    elif isinstance(p, MomentumPrep):
        lines.append("prep.type = momentum")
        lines.append(f"prep.n = {p.n}")
    elif isinstance(p, MSuperpositionPrep):
        lines.append("prep.type = m_superposition")
        lines.append(f"prep.m = {p.m}")
    elif isinstance(p, BellMixPrep):
        lines.append("prep.type = bell_mix")
        lines.append(f"prep.cs = {_fmt_complex(complex(p.cs))}")
        lines.append(f"prep.ca = {_fmt_complex(complex(p.ca))}")
    else:
        lines.append("prep.type = explicit")
        amps = ",".join(_fmt_complex(complex(z)) for z in p.amplitudes)
        lines.append(f"prep.amplitudes = {amps}")

    lines.append(f"grid.t_max = {_fmt_float(cfg.grid.t_max)}")
    lines.append(f"grid.n_steps = {cfg.grid.n_steps}")
    lines.append(f"output.path = {cfg.output_path}")
    return "\n".join(lines) + "\n"
