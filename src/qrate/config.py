"""Flat key/value scenario configuration with dotted section prefixes.

The format is deliberately plain: one ``section.key = value`` per line,
``#`` starts a comment line, matrices write rows separated by ``;`` with
whitespace-separated entries.  Parsing and serialization round-trip every
field; numbers are written with 17 significant digits so a serialized
scenario reproduces bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DesignParams, PlantModel
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
    substeps: int = 100
    synthesize_if_invalid: bool = False
    out_dir: str | None = None


def fmt_num(x) -> str:
    """17 significant digits: every finite float reads back to the same
    bits (-0.0 included); infinities and nan print as inf, -inf, nan."""
    return format(float(x), ".17g")


def _fmt_row(row) -> str:
    return " ".join(fmt_num(v) for v in np.atleast_1d(row))


def _fmt_matrix(M: np.ndarray) -> str:
    return " ; ".join(_fmt_row(r) for r in np.atleast_2d(M))


def _parse_row(text: str, where: str) -> list[float]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{where}: empty numeric value")
    return [_parse_number(p, where) for p in parts]


def _parse_number(text: str, where: str, integer: bool = False):
    """A finite float, or with ``integer`` an int written without a fraction."""
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not math.isfinite(v) or (integer and v != int(v)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where}: expected {kind}, got '{text}'")
    return int(v) if integer else v


def _parse_matrix(text: str, where: str) -> np.ndarray:
    rows = [_parse_row(r, where) for r in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{where}: ragged matrix rows")
    return np.array(rows)


def _parse_vector(text: str, where: str) -> np.ndarray:
    if ";" in text:
        raise ConfigError(f"{where}: expected a vector, got matrix rows")
    return np.array(_parse_row(text, where))


def _parse_bool(text: str, where: str) -> bool:
    v = text.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected true/false")


_KNOWN_KEYS = {
    "plant.A", "plant.B", "plant.D", "plant.K", "plant.dt", "plant.n_levels",
    "design.radius0", "design.search_margin", "design.dist_level",
    "design.psi", "design.rho", "design.phi", "design.Q", "design.floor_margin",
    "sim.x0", "sim.horizon", "sim.substeps", "sim.synthesize_if_invalid",
    "disturbance.kind", "disturbance.level", "disturbance.pulses",
    "disturbance.amplitude", "disturbance.freq_hz", "disturbance.phase",
    "disturbance.bound", "disturbance.seed", "disturbance.hold",
    "outputs.dir",
}


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

    def need(key: str) -> str:
        if key not in entries:
            raise ConfigError(f"missing required key '{key}'")
        return entries[key]

    def where(key: str) -> str:
        return f"line {lines.get(key, '?')}, {key}"

    def number(key: str, default: str | None = None, integer: bool = False):
        """The key's value (or ``default`` when absent) as a finite number."""
        text = need(key) if default is None else entries.get(key, default)
        return _parse_number(text, where(key), integer)

    try:
        plant = PlantModel(
            A=_parse_matrix(need("plant.A"), where("plant.A")),
            B=_parse_matrix(need("plant.B"), where("plant.B")),
            D=_parse_matrix(need("plant.D"), where("plant.D")),
            K=_parse_matrix(need("plant.K"), where("plant.K")),
            dt=number("plant.dt"),
            n_levels=number("plant.n_levels", integer=True),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from None

    try:
        design = DesignParams(
            radius0=number("design.radius0"),
            search_margin=number("design.search_margin"),
            dist_level=number("design.dist_level"),
            psi=number("design.psi"),
            rho=number("design.rho"),
            phi=number("design.phi"),
            Q=(_parse_matrix(entries["design.Q"], where("design.Q"))
               if "design.Q" in entries else None),
            floor_margin=number("design.floor_margin", "0.01"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from None

    x0 = _parse_vector(need("sim.x0"), where("sim.x0"))
    if x0.size != plant.n_x:
        raise ConfigError(f"{where('sim.x0')}: dimension {x0.size} != n_x {plant.n_x}")
    horizon = number("sim.horizon")
    if horizon < plant.dt:
        raise ConfigError("sim.horizon must cover at least one sampling period")

    substeps = number("sim.substeps", "100", integer=True)
    if substeps < 1:
        raise ConfigError(f"{where('sim.substeps')}: must be a positive integer")

    try:
        disturbance = _parse_disturbance(entries, plant.n_d, where, number)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"disturbance: {exc}") from None
    return ScenarioConfig(
        plant=plant,
        design=design,
        x0=x0,
        horizon=horizon,
        disturbance=disturbance,
        substeps=substeps,
        synthesize_if_invalid=_parse_bool(entries.get("sim.synthesize_if_invalid", "false"),
                                          "sim.synthesize_if_invalid"),
        out_dir=entries.get("outputs.dir"),
    )


def _parse_disturbance(entries: dict[str, str], n_d: int, where, number) -> Disturbance:
    kind = entries.get("disturbance.kind", "zero").strip().lower()

    def need(key: str) -> str:
        if key not in entries:
            raise ConfigError(f"disturbance.kind = {kind} requires '{key}'")
        return entries[key]

    if kind == "zero":
        return Zero(dim=n_d)
    if kind == "constant":
        level = _parse_vector(need("disturbance.level"), where("disturbance.level"))
        if level.size != n_d:
            raise ConfigError("disturbance.level dimension mismatch")
        return Constant(level)
    if kind == "pulses":
        M = _parse_matrix(need("disturbance.pulses"), where("disturbance.pulses"))
        if M.shape[1] != 2 + n_d:
            raise ConfigError("disturbance.pulses rows must be: start end level_1..level_nd")
        pulses = [(row[0], row[1], row[2:]) for row in M]
        try:
            return PulseTrain(pulses, dim=n_d)
        except ValueError as exc:
            raise ConfigError(f"disturbance.pulses: {exc}") from None
    if kind == "sinusoid":
        amp = _parse_vector(need("disturbance.amplitude"), where("disturbance.amplitude"))
        if amp.size != n_d:
            raise ConfigError("disturbance.amplitude dimension mismatch")
        return Sinusoid(amp, number("disturbance.freq_hz", "1"),
                        number("disturbance.phase", "0"))
    if kind == "uniform":
        return SeededUniform(
            bound=_parse_number(need("disturbance.bound"), where("disturbance.bound")),
            seed=number("disturbance.seed", "0", integer=True),
            hold=number("disturbance.hold", "0.1"),
            dim=n_d,
        )
    raise ConfigError(f"unknown disturbance.kind '{kind}'")


def serialize_config(cfg: ScenarioConfig) -> str:
    m, p = cfg.plant, cfg.design
    out = [
        "# qrate scenario",
        f"plant.A = {_fmt_matrix(m.A)}",
        f"plant.B = {_fmt_matrix(m.B)}",
        f"plant.D = {_fmt_matrix(m.D)}",
        f"plant.K = {_fmt_matrix(m.K)}",
        f"plant.dt = {fmt_num(m.dt)}",
        f"plant.n_levels = {m.n_levels}",
        f"design.radius0 = {fmt_num(p.radius0)}",
        f"design.search_margin = {fmt_num(p.search_margin)}",
        f"design.dist_level = {fmt_num(p.dist_level)}",
        f"design.psi = {fmt_num(p.psi)}",
        f"design.rho = {fmt_num(p.rho)}",
        f"design.phi = {fmt_num(p.phi)}",
    ]
    if p.Q is not None:
        out.append(f"design.Q = {_fmt_matrix(p.Q)}")
    out.append(f"design.floor_margin = {fmt_num(p.floor_margin)}")
    out.append(f"sim.x0 = {_fmt_row(cfg.x0)}")
    out.append(f"sim.horizon = {fmt_num(cfg.horizon)}")
    out.append(f"sim.substeps = {cfg.substeps}")
    out.append(f"sim.synthesize_if_invalid = {'true' if cfg.synthesize_if_invalid else 'false'}")

    sig = cfg.disturbance
    if isinstance(sig, Zero):
        out.append("disturbance.kind = zero")
    elif isinstance(sig, Constant):
        out.append("disturbance.kind = constant")
        out.append(f"disturbance.level = {_fmt_row(sig.level)}")
    elif isinstance(sig, PulseTrain):
        out.append("disturbance.kind = pulses")
        rows = " ; ".join(f"{fmt_num(s)} {fmt_num(e)} {_fmt_row(lv)}"
                          for s, e, lv in sig.pulses)
        out.append(f"disturbance.pulses = {rows}")
    elif isinstance(sig, Sinusoid):
        out.append("disturbance.kind = sinusoid")
        out.append(f"disturbance.amplitude = {_fmt_row(sig.amplitude)}")
        out.append(f"disturbance.freq_hz = {fmt_num(sig.freq_hz)}")
        out.append(f"disturbance.phase = {fmt_num(sig.phase)}")
    elif isinstance(sig, SeededUniform):
        out.append("disturbance.kind = uniform")
        out.append(f"disturbance.bound = {fmt_num(sig.bound)}")
        out.append(f"disturbance.seed = {sig.seed}")
        out.append(f"disturbance.hold = {fmt_num(sig.hold)}")
    else:
        raise ConfigError(f"cannot serialize disturbance {type(sig).__name__}")

    if cfg.out_dir is not None:
        out.append(f"outputs.dir = {cfg.out_dir}")
    return "\n".join(out) + "\n"


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))
