"""Flat key-value experiment configuration.

The format is one dotted key per line, ``key = value``, with ``#`` comments:

    params.n = 1
    params.eta = 1.0
    grid.x_min = 1.0
    k_schedule = 0.5, 0.5
    seed.kind = integrate

Unknown keys and duplicates are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .gp import GPParams


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not finite")
    return value


# grid.points cap: over 1000 times the largest benchmark grid (8001 points),
# and under 100 MB for one column of floats
_MAX_POINTS = 10_000_000


def _points(text: str) -> int:
    value = int(text)
    if value > _MAX_POINTS:
        raise ValueError(f"{value} exceeds the cap of {_MAX_POINTS}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _parse_float_list(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    return [_finite_float(tok) for tok in text.split(",")]


_SCHEMA: dict[str, tuple] = {
    # key: (converter, default)
    "params.n": (int, 1),
    "params.eta": (_finite_float, 0.0),
    "params.b": (_finite_float, -1.0),
    "params.c": (_finite_float, 1.0),
    "params.v": (_finite_float, 1.0),
    "params.mu": (_finite_float, 0.0),
    "params.theta0": (_finite_float, 0.0),
    "grid.x_min": (_finite_float, 0.5),
    "grid.x_max": (_finite_float, 5.0),
    "grid.points": (_points, 401),
    "k_schedule": (_parse_float_list, []),
    "seed.kind": (str, "closed_form"),
    "seed.x0": (_finite_float, None),
    "seed.r0": (_finite_float, None),
    "seed.rp0": (_finite_float, 0.0),
    "tolerances.ode_abs": (_finite_float, 1e-10),
    "tolerances.ode_rel": (_finite_float, 1e-10),
    "tolerances.residual_pass": (_finite_float, 1e-5),
    "outputs.solution_csv": (str, "solution.csv"),
    "outputs.wave_csv": (str, "wave.csv"),
    "outputs.report_json": (str, "report.json"),
    "verify.rng_seed": (_seed, 0),
}


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    points: int

    def linspace(self):
        return np.linspace(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class SeedSpec:
    kind: str
    x0: float | None = None
    r0: float | None = None
    rp0: float = 0.0


@dataclass(frozen=True)
class Tolerances:
    ode_abs: float
    ode_rel: float
    residual_pass: float


@dataclass(frozen=True)
class OutputPaths:
    solution_csv: str
    wave_csv: str
    report_json: str


@dataclass(frozen=True)
class ExperimentConfig:
    params: GPParams
    grid: GridSpec
    k_schedule: list[float]
    seed: SeedSpec
    tolerances: Tolerances
    outputs: OutputPaths
    rng_seed: int = 0
    raw: dict = field(default_factory=dict)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        convert, _ = _SCHEMA[key]
        try:
            values[key] = convert(value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_config(values: dict) -> ExperimentConfig:
    def get(key: str):
        return values.get(key, _SCHEMA[key][1])

    try:
        params = GPParams(
            n=get("params.n"), eta=get("params.eta"), b=get("params.b"),
            c=get("params.c"), v=get("params.v"), mu=get("params.mu"),
            theta0=get("params.theta0"))
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from exc

    grid = GridSpec(x_min=get("grid.x_min"), x_max=get("grid.x_max"),
                    points=get("grid.points"))
    if not (0.0 < grid.x_min < grid.x_max):
        raise ConfigError("grid requires 0 < x_min < x_max")
    if grid.points < 7:
        raise ConfigError(f"grid too small: need at least 7 points, "
                          f"got {grid.points}")
    if not (np.diff(grid.linspace()) > 0.0).all():
        raise ConfigError("grid points are not distinct: x_max - x_min is "
                          "too small for grid.points")

    seed = SeedSpec(kind=get("seed.kind"), x0=get("seed.x0"),
                    r0=get("seed.r0"), rp0=get("seed.rp0"))
    if seed.kind not in ("closed_form", "integrate"):
        raise ConfigError(
            f"seed.kind must be 'closed_form' or 'integrate', got {seed.kind!r}")
    if seed.kind == "integrate":
        if seed.x0 is None or seed.r0 is None:
            raise ConfigError("seed.kind = integrate requires seed.x0 and seed.r0")
        if not (grid.x_min <= seed.x0 <= grid.x_max):
            raise ConfigError("seed.x0 must lie inside [x_min, x_max]")
        if not seed.r0 > 0.0:
            raise ConfigError("seed.r0 must be positive")

    tolerances = Tolerances(ode_abs=get("tolerances.ode_abs"),
                            ode_rel=get("tolerances.ode_rel"),
                            residual_pass=get("tolerances.residual_pass"))
    for name in ("ode_abs", "ode_rel", "residual_pass"):
        if not getattr(tolerances, name) > 0.0:
            raise ConfigError(f"tolerances.{name} must be strictly positive")

    k_schedule = [float(k) for k in get("k_schedule")]
    outputs = OutputPaths(solution_csv=get("outputs.solution_csv"),
                          wave_csv=get("outputs.wave_csv"),
                          report_json=get("outputs.report_json"))
    for key, name in vars(outputs).items():
        if name in ("", "..") or Path(name).name != name or "\0" in name:
            raise ConfigError(f"outputs.{key} must be a plain file name in "
                              f"--out-dir, got {name!r}")

    echo = {key: values.get(key, default) for key, (_, default) in _SCHEMA.items()}
    return ExperimentConfig(params=params, grid=grid, k_schedule=k_schedule,
                            seed=seed, tolerances=tolerances, outputs=outputs,
                            rng_seed=get("verify.rng_seed"), raw=echo)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return build_config(parse_config_text(path.read_text(), source=str(path)))
