"""Seeded generators for the benchmark workloads.

Each workload is a fixed pool of configs, built only from ``--seed``; the
program sees nothing but the config files written here. Every pool has the
same strata on every seed (point counts, tolerances, seed kinds) and the
seed only places the continuous parameters inside them, by Latin-hypercube
draws, so the cost of one pass barely moves from seed to seed.

Parameter ranges were chosen so that every command passes its checks: the
span of an integrated seed is set through G(x_max), because the oscillation
of a seed around the closed form has local frequency G'(x)/n, and the grid
must resolve it for the finite-difference residual to meet residual_pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("orbit", "verify", "wave")
T_SAMPLES = "0,0.5,1,1.5"
VERIFY_CASES = 16
WAVE_CASES = 12


@dataclass
class Case:
    """One generated config and what the benchmark knows about it."""

    name: str
    values: dict
    path: Path | None = None


@dataclass
class Command:
    """One ``gpbacklund.cli.main`` call and the files it writes."""

    case: Case
    subcommand: str
    out_dir: Path
    outputs: list[str] = field(default_factory=list)

    @property
    def argv(self) -> list[str]:
        argv = [self.subcommand, "--config", str(self.case.path),
                "--out-dir", str(self.out_dir)]
        if self.subcommand == "wavefunction":
            argv += ["--t-samples", T_SAMPLES]
        return argv


def _slices(rng: np.random.Generator, lo: float, hi: float,
            k: int) -> list[float]:
    """k values, the i-th drawn uniformly from the i-th of k equal slices
    of [lo, hi): the seed moves each value only inside its own slice."""
    u = (np.arange(k) + rng.uniform(size=k)) / k
    return [lo + (hi - lo) * float(v) for v in u]


def g(n: int, eta: float, x):
    """G(x) = x^n (1 + eta x^n); x may be an array."""
    return x ** n * (1.0 + eta * x ** n)


def _g_inverse(n: int, eta: float, y: float) -> float:
    return (2.0 * y / (1.0 + math.sqrt(1.0 + 4.0 * eta * y))) ** (1.0 / n)


def closed_form(n: int, eta: float, v: float, x):
    """r = v / sqrt(s) with s = x^(n-1)(1 + 2 eta x^n), and r'; x may be
    an array."""
    s = x ** (n - 1) + 2.0 * eta * x ** (2 * n - 1)
    s1 = (n - 1) * x ** (n - 2) + 2.0 * eta * (2 * n - 1) * x ** (2 * n - 2)
    return v / np.sqrt(s), -0.5 * v * s1 * s ** -1.5


def _params(n: int, eta: float, c: float = 1.0, v: float = 1.0,
            mu: float = 0.0, theta0: float = 0.0) -> dict:
    """Parameters on the closed-form constraint b v^6 + c^2 = 0."""
    return {"params.n": n, "params.eta": eta, "params.b": -(c * c) / v ** 6,
            "params.c": c, "params.v": v, "params.mu": mu,
            "params.theta0": theta0}


def _integrate_seed(n: int, eta: float, x0: float, factor: float) -> dict:
    """Initial data ``factor`` times the closed form (v = 1) at x0."""
    r, rp = closed_form(n, eta, 1.0, x0)
    return {"seed.kind": "integrate", "seed.x0": x0,
            "seed.r0": float(factor * r), "seed.rp0": float(factor * rp)}


def _k_schedule(rng: np.random.Generator, count: int) -> list[float]:
    """``count`` positive K values, each in [0.25, 1)."""
    return [float(k) for k in rng.uniform(0.25, 1.0, size=count)]


# (n, grid points, G(x_max), ODE tolerance) of the integrated orbit seeds
_ORBIT_STRATA = ((1, 2001, 12.0, 1e-10), (2, 2001, 12.0, 1e-11),
                 (1, 4001, 22.0, 1e-11), (2, 4001, 22.0, 1e-12),
                 (1, 8001, 40.0, 1e-12), (2, 8001, 40.0, 1e-10))
# (n, grid points, G(x_max)) of the closed-form orbit seeds
_ORBIT_CLOSED = ((1, 4001, 30.0), (2, 8001, 30.0))


def orbit_cases(rng: np.random.Generator) -> list[Case]:
    """solve + transform: integrated seeds off the closed form (3 in 4) and
    closed-form seeds (1 in 4, the fixed-point path)."""
    k = len(_ORBIT_STRATA)
    etas = _slices(rng, 0.5, 1.5, k + len(_ORBIT_CLOSED))
    factors = _slices(rng, 0.85, 1.2, k)
    x_mins = _slices(rng, 0.8, 1.2, k + len(_ORBIT_CLOSED))
    cases = []
    for i, (n, points, g_max, tol) in enumerate(_ORBIT_STRATA):
        eta, x_min = etas[i], x_mins[i]
        values = {**_params(n, eta),
                  "grid.x_min": x_min,
                  "grid.x_max": _g_inverse(n, eta, g_max),
                  "grid.points": points,
                  "k_schedule": _k_schedule(rng, 2 + i % 2),
                  **_integrate_seed(n, eta, x_min, factors[i]),
                  "tolerances.ode_abs": tol, "tolerances.ode_rel": tol}
        cases.append(Case(f"orbit{i}", values))
    for j, (n, points, g_max) in enumerate(_ORBIT_CLOSED, start=k):
        eta = etas[j]
        values = {**_params(n, eta),
                  "grid.x_min": 0.5 * x_mins[j],
                  "grid.x_max": _g_inverse(n, eta, g_max),
                  "grid.points": points,
                  "k_schedule": _k_schedule(rng, 2 + j % 2),
                  "seed.kind": "closed_form"}
        cases.append(Case(f"orbit{j}", values))
    return cases


def verify_cases(rng: np.random.Generator) -> list[Case]:
    """The identity suite on closed-form configs. Its cost grows with the
    number of K values; one config in four has three, the rest two, so the
    median command stays inside the larger group."""
    etas = _slices(rng, 0.5, 1.5, VERIFY_CASES)
    cs = _slices(rng, 0.5, 2.0, VERIFY_CASES)
    vs = _slices(rng, 0.7, 1.4, VERIFY_CASES)
    x_mins = _slices(rng, 0.5, 1.0, VERIFY_CASES)
    x_maxs = _slices(rng, 2.5, 4.0, VERIFY_CASES)
    points = _slices(rng, 101, 402, VERIFY_CASES)
    cases = []
    for i in range(VERIFY_CASES):
        values = {**_params(1 + i % 2, etas[i], cs[i], vs[i]),
                  "grid.x_min": x_mins[i], "grid.x_max": x_maxs[i],
                  "grid.points": int(points[i]),
                  "k_schedule": _k_schedule(rng, 3 if i % 4 == 3 else 2),
                  "seed.kind": "closed_form",
                  "verify.rng_seed": int(rng.integers(0, 2 ** 31 - 1))}
        cases.append(Case(f"verify{i}", values))
    return cases


_WAVE_TOLS = (1e-10, 1e-11, 1e-12)


def wave_cases(rng: np.random.Generator) -> list[Case]:
    """wavefunction on integrated seeds: even cases start on the closed form
    (analytic phase known), odd cases start off it (generic). Grid sizes
    climb from 70 to 130 points across the pool, so command costs form an
    even ladder rather than clusters the median could jump between."""
    etas = _slices(rng, 0.5, 1.5, WAVE_CASES)
    cs = _slices(rng, 0.8, 1.2, WAVE_CASES)
    mus = _slices(rng, 0.2, 1.0, WAVE_CASES)
    theta0s = _slices(rng, -1.0, 1.0, WAVE_CASES)
    x_mins = _slices(rng, 0.8, 1.2, WAVE_CASES)
    offsets = _slices(rng, 0.05, 0.1, WAVE_CASES // 2)
    cases = []
    for i in range(WAVE_CASES):
        n, eta = 1 + (i // 2) % 2, etas[i]
        x_min = x_mins[i]
        on_curve = i % 2 == 0
        factor = 1.0 if on_curve else 1.0 + offsets[i // 2] * (-1) ** (i // 2)
        tol = _WAVE_TOLS[i % len(_WAVE_TOLS)]
        values = {**_params(n, eta, cs[i], 1.0, mus[i], theta0s[i]),
                  "grid.x_min": x_min,
                  "grid.x_max": _g_inverse(n, eta, g(n, eta, x_min) + 4.0),
                  "grid.points": 70 + round(60 * i / (WAVE_CASES - 1)),
                  **_integrate_seed(n, eta, x_min, factor),
                  "tolerances.ode_abs": tol, "tolerances.ode_rel": tol}
        cases.append(Case(f"wave{i}", values))
    return cases


def _format(value) -> str:
    if isinstance(value, list):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(case: Case, path: Path) -> None:
    path.write_text("".join(f"{key} = {_format(val)}\n"
                            for key, val in case.values.items()))
    case.path = path


def build(workload: str, seed: int, work_dir: Path) -> list[Command]:
    """Write the workload's configs under ``work_dir``; return one pass of
    commands, in the order the benchmark issues them."""
    rng = np.random.default_rng([seed & (2 ** 64 - 1),
                                 WORKLOADS.index(workload)])
    cases = {"orbit": orbit_cases, "verify": verify_cases,
             "wave": wave_cases}[workload](rng)
    commands = []
    for case in cases:
        case_dir = work_dir / case.name
        case_dir.mkdir(parents=True, exist_ok=True)
        write_config(case, case_dir / "exp.cfg")
        if workload == "orbit":
            ks = len(case.values["k_schedule"])
            commands.append(Command(case, "solve", case_dir, ["solution.csv"]))
            commands.append(Command(
                case, "transform", case_dir,
                [f"solution_k{j}.csv" for j in range(1, ks + 1)]
                + ["report.json"]))
        elif workload == "verify":
            commands.append(Command(case, "verify", case_dir, ["report.json"]))
        else:
            commands.append(Command(case, "wavefunction", case_dir,
                                    ["wave.csv"]))
    return commands
