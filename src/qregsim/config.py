"""Run-configuration parsing and canonical serialization.

Grammar: UTF-8 text, one ``key = value`` per line, ``#`` starts a comment,
blank lines ignored. Keys are flat and dotted; unknown or duplicate keys are
hard errors so a typo in a physics parameter cannot slip through. Every error
message carries the key name and line number.

Two tables drive parsing and formatting alike. ``_KEYS`` maps every key, in
sidecar order, to its parser and formatter (the ``<family>.type`` selectors
and ``output.path`` keep their raw text). ``_FAMILIES`` maps each ``.type``
value of the coupling, dispersion and prep families to its spec class and
the keys that fill the class's fields, in field order.
Conditions that depend on the register size are left to the domain code
(``ModelParams``, ``prep_vector``, ``initial_amplitudes``); its errors are
reported at the key and line that supplied the offending value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from .dynamics import TimeGrid, initial_amplitudes
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
    "RunConfig",
    "prep_vector",
    "parse_config",
    "parse_config_file",
    "format_config",
]


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
    """cs |S> + ca |A> over the two-qubit symmetric and antisymmetric states."""

    cs: complex
    ca: complex

    def __post_init__(self) -> None:
        weight = abs(self.cs) ** 2 + abs(self.ca) ** 2
        if not abs(weight - 1.0) <= 1e-9:  # written so that NaN fails
            raise ValueError(f"|cs|^2 + |ca|^2 must equal 1, got {weight!r}")


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
    if isinstance(prep, BellMixPrep):  # two amplitudes whatever n_qubits is
        return prep.cs * symmetric_state(2) + prep.ca * momentum_state(2, 1)
    return np.asarray(prep.amplitudes, dtype=complex).copy()


def _check_echoable(key: str, path: str) -> None:
    """Reject a path that the sidecar could not echo back unchanged.

    The grammar reads a value up to '#', one line at a time, and strips its
    edges, so such a path would parse back as a different run.
    """
    if "#" in path or path.splitlines() != [path] or path.strip() != path:
        raise ValueError(
            f"{key} {path!r} cannot be echoed in a configuration: a path must be "
            "non-empty, hold no '#' or line break, and have no leading or trailing whitespace"
        )


@dataclass(eq=False)
class RunConfig:
    """One fully resolved simulation run.

    Every path must survive the sidecar round trip (see format_config).
    """

    params: ModelParams
    prep: PrepSpec
    grid: TimeGrid
    output_path: str
    coupling_path: str | None = None
    dispersion_path: str | None = None

    def __post_init__(self) -> None:
        for key, field in {"output.path": "output_path", **_PATH_FIELDS}.items():
            path = getattr(self, field)
            if path is not None:
                _check_echoable(key, str(path))


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
        z = complex(value.replace(" ", ""))
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} must be a complex number like '0.5+0.5j', got {value!r}"
        ) from None
    if not np.isfinite(z):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
    return z


def _complex_list(key: str, value: str, lineno: int) -> np.ndarray:
    return np.array([_as_complex(key, tok.strip(), lineno) for tok in value.split(",")])


def _load_matrix(key: str, path: str, lineno: int) -> np.ndarray:
    """Whitespace-separated numbers of a data file as a 2-D float array."""
    try:
        with open(path, encoding="utf-8") as handle:
            rows = [line for line in handle if line.split("#", 1)[0].strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"line {lineno}: cannot read {key} file {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"line {lineno}: {key} file {path} holds no numbers")
    try:
        return np.loadtxt(rows, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: malformed {key} file {path}: {exc}") from None


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


class _Key(NamedTuple):
    parse: Callable[[str, str, int], object]
    format: Callable[[object], str]


_TEXT = _Key(lambda key, value, lineno: value, str)

_KEYS = {
    "register.n_qubits": _Key(partial(_int_at_least, minimum=1), str),
    "register.n_modes": _Key(partial(_int_at_least, minimum=1), str),
    "model.epsilon": _Key(_positive_float, _fmt_float),
    "coupling.type": _TEXT,
    "coupling.g0": _Key(_as_float, _fmt_float),
    "coupling.xi": _Key(_positive_float, _fmt_float),
    "coupling.file": _Key(_load_matrix, str),
    "dispersion.type": _TEXT,
    "dispersion.file": _Key(_load_matrix, str),
    "prep.type": _TEXT,
    "prep.m": _Key(_as_int, str),
    "prep.n": _Key(_as_int, str),
    "prep.cs": _Key(_as_complex, _fmt_complex),
    "prep.ca": _Key(_as_complex, _fmt_complex),
    "prep.amplitudes": _Key(_complex_list, lambda amps: ",".join(map(_fmt_complex, amps))),
    "grid.t_max": _Key(_positive_float, _fmt_float),
    "grid.n_steps": _Key(partial(_int_at_least, minimum=2), str),
    "output.path": _TEXT,
}

#: Data-file keys: the value is a path, resolved against the config's
#: directory, and the RunConfig field that records it for the sidecar.
_PATH_FIELDS = {"coupling.file": "coupling_path", "dispersion.file": "dispersion_path"}


class _Family(NamedTuple):
    noun: str
    default: str | None
    variants: dict[str, tuple[type, tuple[str, ...]]]


_FAMILIES = {
    "coupling": _Family("coupling", None, {
        "uniform": (UniformCoupling, ("coupling.g0",)),
        "cosine": (CosineCoupling, ("coupling.g0", "coupling.xi")),
        "explicit": (ExplicitCoupling, ("coupling.file",)),
    }),
    "dispersion": _Family("dispersion", "linear", {
        "linear": (LinearDispersion, ()),
        "explicit": (ExplicitDispersion, ("dispersion.file",)),
    }),
    "prep": _Family("preparation", None, {
        "symmetric": (SymmetricPrep, ()),
        "momentum": (MomentumPrep, ("prep.n",)),
        "m_superposition": (MSuperpositionPrep, ("prep.m",)),
        "bell_mix": (BellMixPrep, ("prep.cs", "prep.ca")),
        "explicit": (ExplicitPrep, ("prep.amplitudes",)),
    }),
}

_VARIANT_OF = {
    cls: (name, keys)
    for family in _FAMILIES.values()
    for name, (cls, keys) in family.variants.items()
}


#: key -> (value text, line number)
_Entries = dict[str, tuple[str, int]]


def _read_entries(text: str, base: Path) -> _Entries:
    """The document's entries, with data-file paths resolved against base."""
    entries: _Entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            first = entries[key][1]
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {first})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in _PATH_FIELDS:
            value = str((base / value).resolve())
            try:
                _check_echoable(key, value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        entries[key] = (value, lineno)
    return entries


def _require(entries: _Entries, key: str) -> tuple[str, int]:
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    return entries[key]


def _value(entries: _Entries, key: str) -> object:
    value, lineno = _require(entries, key)
    return _KEYS[key].parse(key, value, lineno)


def _read_family(entries: _Entries, family: str, check: Callable[[object], object]) -> object:
    """Build the spec that a family's .type selects, then cross-check it.

    A ValueError from the spec class or from check becomes a ConfigError at
    the variant's last key, which supplied the value that completed the spec.
    """
    noun, default, variants = _FAMILIES[family]
    type_key = f"{family}.type"
    if default is None:
        name, lineno = _require(entries, type_key)
    else:
        name, lineno = entries.get(type_key, (default, 0))
    if name not in variants:
        *rest, last = variants
        choices = f"{', '.join(rest)}, or {last}" if len(rest) > 1 else f"{rest[0]} or {last}"
        raise ConfigError(f"line {lineno}: {type_key} must be {choices}, got {name!r}")
    cls, keys = variants[name]
    for key, (_, line) in entries.items():
        if key.startswith(family + ".") and key != type_key and key not in keys:
            raise ConfigError(f"line {line}: unknown key for {name} {noun}: {key!r}")
    values = [_value(entries, key) for key in keys]
    source, line = (keys[-1], entries[keys[-1]][1]) if keys else (type_key, lineno)
    try:
        spec = cls(*values)
        check(spec)
    except ValueError as exc:
        raise ConfigError(f"line {line}: {source}: {exc}") from None
    return spec


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and fully validate a configuration document."""
    entries = _read_entries(text, Path(base_dir))
    n_qubits = _value(entries, "register.n_qubits")
    shape = RegisterShape(n_qubits, _value(entries, "register.n_modes"))
    epsilon = _value(entries, "model.epsilon") if "model.epsilon" in entries else 1.0
    coupling = _read_family(entries, "coupling", lambda c: ModelParams(shape, c, epsilon))
    dispersion = _read_family(
        entries, "dispersion", lambda d: ModelParams(shape, coupling, epsilon, d)
    )
    prep = _read_family(
        entries, "prep", lambda p: initial_amplitudes(prep_vector(p, n_qubits), shape)
    )
    return RunConfig(
        params=ModelParams(shape, coupling, epsilon, dispersion),
        prep=prep,
        grid=TimeGrid(_value(entries, "grid.t_max"), _value(entries, "grid.n_steps")),
        output_path=_value(entries, "output.path"),
        **{field: entries[key][0] for key, field in _PATH_FIELDS.items() if key in entries},
    )


def parse_config_file(path: str | Path) -> RunConfig:
    """Parse a config file; relative data-file paths resolve against its directory."""
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


def format_config(cfg: RunConfig) -> str:
    """Canonical configuration text reproducing this run when parsed back.

    All resolved values are written out, one ``key = value`` line each,
    including defaulted ones; the text holds no comments.
    """
    params = cfg.params
    values: dict[str, object] = {
        "register.n_qubits": params.shape.n_qubits,
        "register.n_modes": params.shape.n_modes,
        "model.epsilon": params.epsilon,
        "grid.t_max": cfg.grid.t_max,
        "grid.n_steps": cfg.grid.n_steps,
        "output.path": cfg.output_path,
    }
    specs = {"coupling": params.coupling, "dispersion": params.dispersion, "prep": cfg.prep}
    for family, spec in specs.items():
        name, keys = _VARIANT_OF[type(spec)]
        values[f"{family}.type"] = name
        values.update(zip(keys, (getattr(spec, f.name) for f in fields(spec))))
    # a data-file key echoes the path its data was read from
    for key, field in _PATH_FIELDS.items():
        if key in values:
            values[key] = getattr(cfg, field)
            if values[key] is None:
                raise ValueError(f"explicit {key.split('.')[0]} has no source file to reference")
    lines = []
    for key, spec in _KEYS.items():
        if key in values:
            lines.append(f"{key} = {spec.format(values[key])}")
    return "\n".join(lines) + "\n"
