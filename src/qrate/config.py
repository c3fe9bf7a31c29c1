"""Flat key/value scenario configuration with dotted section prefixes.

The format is deliberately plain: one ``section.key = value`` per line,
``#`` starts a comment line, matrices write rows separated by ``;`` with
whitespace-separated entries.  One ordered key table per section (``plant``,
``design``, ``sim``, ``outputs`` and each disturbance kind) gives every
key's attribute, value kind and default; parsing, serialization and the set
of known keys all come from these tables.  A bad value is a
:class:`ConfigError` naming its line and key, whether a reader or the
constructor rejects it, and so is a ``disturbance.*`` key that the selected
kind does not read.  Numbers are written with 17
significant digits, so a serialized scenario reads back to the same text and
reproduces bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .design import DesignParams, PlantModel
from .plant import DEFAULT_SUBSTEPS
from .signals import Constant, Disturbance, PulseTrain, SeededUniform, Sinusoid, Zero

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "load_config",
           "serialize_config", "save_config"]


class ConfigError(ValueError):
    """Malformed scenario file; carries a line diagnostic when available."""


@dataclass(eq=False)
class ScenarioConfig:
    plant: PlantModel
    design: DesignParams
    x0: np.ndarray
    horizon: float
    disturbance: Disturbance
    substeps: int = DEFAULT_SUBSTEPS
    synthesize_if_invalid: bool = False
    out_dir: str | None = None


# the one float conversion of config files, reports and CSV tables
_FLOAT_FORMAT = "%.17g"


def fmt_num(x) -> str:
    """17 significant digits: every finite float reads back to the same
    bits (-0.0 included); infinities and nan print as inf, -inf, nan."""
    return _FLOAT_FORMAT % float(x)


def _fmt_row(row) -> str:
    return " ".join(fmt_num(v) for v in np.atleast_1d(row))


def _fmt_matrix(M: np.ndarray) -> str:
    return " ; ".join(_fmt_row(r) for r in np.atleast_2d(M))


def _fmt_pulses(pulses) -> str:
    return " ; ".join(f"{fmt_num(s)} {fmt_num(e)} {_fmt_row(lv)}" for s, e, lv in pulses)


# Readers take (text, where, plant): ``where`` starts every diagnostic and
# ``plant`` (None while the plant section itself is read) gives dimensions.

def _parse_row(text: str, where: str) -> list[float]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: empty numeric value")
    return [_parse_number(p, where) for p in parts]


def _parse_number(text: str, where: str, plant=None, integer: bool = False):
    """A finite float, or with ``integer`` an int written without a fraction."""
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not math.isfinite(v) or (integer and v != int(v)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where}: expected {kind}, got '{text}'")
    if not integer:
        return v
    return int(text) if text.strip().isdecimal() else int(v)  # exact past 2**53


def _parse_matrix(text: str, where: str, plant=None) -> np.ndarray:
    rows = [_parse_row(r, where) for r in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{where}: ragged matrix rows")
    return np.array(rows)


def _state_matrix(text: str, where: str, plant: PlantModel) -> np.ndarray:
    M = _parse_matrix(text, where)
    if M.shape != (plant.n_x, plant.n_x):
        n = plant.n_x
        raise ConfigError(f"{where}: shape {M.shape[0]}x{M.shape[1]} != n_x x n_x {n}x{n}")
    return M


def _parse_seed(text: str, where: str, plant=None) -> int:
    try:
        return SeededUniform.check_seed(_parse_number(text, where, integer=True))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _vector(size: str):
    """Reader of a vector with ``plant.<size>`` entries."""
    def parse(text: str, where: str, plant: PlantModel) -> np.ndarray:
        if ";" in text:
            raise ConfigError(f"{where}: expected a vector, got matrix rows")
        v = np.array(_parse_row(text, where))
        if v.size != getattr(plant, size):
            raise ConfigError(f"{where}: dimension {v.size} != {size} {getattr(plant, size)}")
        return v
    return parse


def _parse_pulses(text: str, where: str, plant: PlantModel) -> list:
    width = 2 + plant.n_d
    M = _parse_matrix(text, where) if text else np.zeros((0, width))  # empty: no pulses
    if M.shape[1] != width:
        raise ConfigError(f"{where}: rows must be: start end level_1..level_nd")
    return [(row[0], row[1], row[2:]) for row in M]


def _parse_bool(text: str, where: str, plant=None) -> bool:
    v = text.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected true/false")


@dataclass(frozen=True)
class _Kind:
    """A value kind: its reader (text, where, plant) -> value and its writer."""

    read: Callable
    write: Callable[[object], str]


_NUMBER = _Kind(_parse_number, fmt_num)
_INTEGER = _Kind(partial(_parse_number, integer=True), str)  # str(int): exact past 2**53
_MATRIX = _Kind(_parse_matrix, _fmt_matrix)
_STATE_MATRIX = _Kind(_state_matrix, _fmt_matrix)
_SEED = _Kind(_parse_seed, str)
_STATE_VECTOR = _Kind(_vector("n_x"), _fmt_row)
_DIST_VECTOR = _Kind(_vector("n_d"), _fmt_row)
_PULSES = _Kind(_parse_pulses, _fmt_pulses)
_BOOL = _Kind(_parse_bool, lambda v: "true" if v else "false")
_TEXT = _Kind(lambda text, where, plant: text, str)

_REQUIRED = object()  # the default of a key the file must give


def _section(prefix: str, **keys) -> dict:
    """``name=kind`` (required) or ``name=(kind, default)`` entries, in file
    order, as ``{"prefix.name": (attribute, kind, default)}``."""
    table = {}
    for name, spec in keys.items():
        kind, default = (spec, _REQUIRED) if isinstance(spec, _Kind) else spec
        table[f"{prefix}.{name}"] = (name, kind, default)
    return table


# A default of None is also never written: design.Q, outputs.dir.
_PLANT = _section("plant", A=_MATRIX, B=_MATRIX, D=_MATRIX, K=_MATRIX, dt=_NUMBER,
                  n_levels=_INTEGER)
_DESIGN = _section("design", radius0=_NUMBER, search_margin=_NUMBER, dist_level=_NUMBER,
                   psi=_NUMBER, rho=_NUMBER, phi=_NUMBER, Q=(_STATE_MATRIX, None),
                   floor_margin=(_NUMBER, 0.01))
_SIM = _section("sim", x0=_STATE_VECTOR, horizon=_NUMBER,
                substeps=(_INTEGER, DEFAULT_SUBSTEPS), synthesize_if_invalid=(_BOOL, False))
_OUTPUTS = {"outputs.dir": ("out_dir", _TEXT, None)}
# disturbance.kind -> (class, whether it takes dim=n_d, keys)
_DISTURBANCES = {
    "zero": (Zero, True, {}),
    "constant": (Constant, False, _section("disturbance", level=_DIST_VECTOR)),
    "pulses": (PulseTrain, True, _section("disturbance", pulses=_PULSES)),
    "sinusoid": (Sinusoid, False, _section("disturbance", amplitude=_DIST_VECTOR,
                                          freq_hz=(_NUMBER, 1.0), phase=(_NUMBER, 0.0))),
    "uniform": (SeededUniform, True, _section("disturbance", bound=_NUMBER,
                                              seed=(_SEED, 0), hold=(_NUMBER, 0.1))),
}
_KNOWN_KEYS = {"disturbance.kind"}.union(
    _PLANT, _DESIGN, _SIM, _OUTPUTS, *(keys for _, _, keys in _DISTURBANCES.values()))


def parse_config(text: str) -> ScenarioConfig:
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value
        lines[key] = lineno

    def where(key: str) -> str:
        return f"line {lines.get(key, '?')}, {key}"

    def read(table: dict, plant: PlantModel | None = None) -> dict:
        """Each table key's value, read from the file or else its default."""
        values = {}
        for key, (attr, kind, default) in table.items():
            if key in entries:
                values[attr] = kind.read(entries[key], where(key), plant)
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}'")
            else:
                values[attr] = default
        return values

    def build(section: str, cls, table: dict, values: dict):
        try:
            return cls(**values)
        except ValueError as exc:
            # A constructor's message starts with the argument it rejects.
            arg = str(exc).split(" ", 1)[0]
            key = next((k for k, (attr, _, _) in table.items() if attr == arg), None)
            raise ConfigError(f"{where(key) if key in entries else section}: {exc}") from None

    plant = build("plant", PlantModel, _PLANT, read(_PLANT))
    design = build("design", DesignParams, _DESIGN, read(_DESIGN, plant))
    sim = read(_SIM, plant)
    if sim["horizon"] < plant.dt:
        raise ConfigError(f"{where('sim.horizon')}: must cover at least one sampling period")
    if not math.isfinite(sim["horizon"] / plant.dt):
        raise ConfigError(f"{where('sim.horizon')}: horizon / plant.dt overflows, so the "
                          "sampling periods cannot be counted")
    if sim["substeps"] < 1:
        raise ConfigError(f"{where('sim.substeps')}: must be a positive integer")

    kind = entries.get("disturbance.kind", "zero").lower()
    if kind not in _DISTURBANCES:
        raise ConfigError(f"{where('disturbance.kind')}: unknown disturbance kind '{kind}'")
    cls, takes_dim, keys = _DISTURBANCES[kind]
    for key in entries:
        if key.startswith("disturbance.") and key != "disturbance.kind" and key not in keys:
            raise ConfigError(f"{where(key)}: not read by disturbance.kind = {kind}")
    values = read(keys, plant)
    if takes_dim:
        values["dim"] = plant.n_d
    disturbance = build("disturbance", cls, keys, values)
    if isinstance(disturbance, Sinusoid) and not math.isfinite(
            2.0 * math.pi * disturbance.freq_hz * (sim["horizon"] + plant.dt) + disturbance.phase):
        raise ConfigError(f"{where('disturbance.freq_hz')}: the sine's argument "
                          "2 pi freq_hz t + phase leaves the float range within the horizon")
    return ScenarioConfig(plant, design, disturbance=disturbance, **sim, **read(_OUTPUTS))


def serialize_config(cfg: ScenarioConfig) -> str:
    sig = cfg.disturbance
    kind = next((k for k, (cls, _, _) in _DISTURBANCES.items() if isinstance(sig, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize disturbance {type(sig).__name__}")
    out = ["# qrate scenario"]

    def write(obj, table: dict) -> None:
        for key, (attr, value_kind, _) in table.items():
            value = getattr(obj, attr)
            if value is None:
                continue
            text = value_kind.write(value)
            line = f"{key} = {text}"
            if text != text.strip() or line.splitlines() != [line]:  # would not read back
                raise ConfigError(f"{key} {value!r} must be one line, not padded")
            out.append(line)

    write(cfg.plant, _PLANT)
    write(cfg.design, _DESIGN)
    write(cfg, _SIM)
    out.append(f"disturbance.kind = {kind}")
    write(sig, _DISTURBANCES[kind][2])
    write(cfg, _OUTPUTS)
    return "\n".join(out) + "\n"


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))
