"""Command-line front end: solve, transform, verify, wavefunction.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (the message names the failing stage and error class).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .backlund import BacklundMap, is_fixed_point, orbit
from .config import ExperimentConfig, _finite_float, load_config
from .errors import ConfigError, NonFinite, NumericalError
from .functional import ShiftMap
from .gp import ClosedFormSolution, closed_form_residual, gp_rhs, phase
from .ode import SolutionGrid, ToleranceSpec, integrate_span, residual_max, sample
from .verify import run_identity_checks

_FMT = "%.16e"  # 17 significant digits: exact binary64 round trip


@contextmanager
def _stage(name: str):
    """Tag numerical failures with the pipeline stage that raised them."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _write_rows(path: Path, header: list[str], table) -> None:
    """Write a numeric table as CSV; a non-finite value writes nothing."""
    table = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise NonFinite(f"refusing to write non-finite values to {path}")
    rows, cols = table.shape
    # a single % over the whole body: no Python-level loop per value
    body = ("".join([",".join([_FMT] * cols) + "\n"] * rows)
            % tuple(table.ravel().tolist()))
    path.write_text(",".join(header) + "\n" + body)


def write_solution_csv(path: Path, grid: SolutionGrid) -> None:
    _write_rows(path, ["x", "r", "r_prime"],
                np.column_stack([grid.xs, grid.rs, grid.rps]))


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    """Write strict JSON: a NaN or an infinity is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    path.write_text(text + "\n")


def _tolerances(cfg: ExperimentConfig) -> ToleranceSpec:
    return ToleranceSpec(atol=cfg.tolerances.ode_abs,
                         rtol=cfg.tolerances.ode_rel)


def _build_seed(cfg: ExperimentConfig, cover: tuple[float, float]):
    """Seed solution covering at least the interval ``cover``."""
    if cfg.seed.kind == "closed_form":
        return ClosedFormSolution(cfg.params)
    ode = gp_rhs(cfg.params)
    lo = max(ode.domain[0] * 2.0, cover[0])
    with _stage("seed integration"):
        return integrate_span(ode, cfg.seed.x0, cfg.seed.r0, cfg.seed.rp0,
                              lo, cover[1], _tolerances(cfg))


def _orbit_cover(cfg: ExperimentConfig) -> tuple[float, float]:
    """Interval the seed must cover so every orbit element stays inside."""
    lo, hi = cfg.grid.x_min, cfg.grid.x_max
    for k_sum in np.cumsum(cfg.k_schedule):
        shift = ShiftMap(cfg.params.g, float(k_sum))
        for edge in (cfg.grid.x_min, cfg.grid.x_max):
            if edge > shift.x_min:
                try:
                    image = float(shift.f(edge))
                except NumericalError:
                    continue
                lo = min(lo, image)
                hi = max(hi, image)
    return lo, hi


def _grid_residual(cfg: ExperimentConfig, grid: SolutionGrid) -> float:
    with _stage("residual evaluation"):
        return residual_max(gp_rhs(cfg.params), grid)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    xs = cfg.grid.linspace()
    if cfg.seed.kind == "closed_form":
        seed = ClosedFormSolution(cfg.params)
        with _stage("closed-form evaluation"):
            rs, rps = seed.eval_with_derivative(xs)
        grid = SolutionGrid(xs=xs, rs=rs, rps=rps, meta=seed.meta)
        with _stage("residual evaluation"):
            res = float(np.max(np.abs(closed_form_residual(cfg.params, xs))))
            if not np.isfinite(res):
                raise NonFinite("closed-form residual is not finite")
    else:
        dense = _build_seed(cfg, (cfg.grid.x_min, cfg.grid.x_max))
        with _stage("sampling"):
            grid = sample(dense, xs)
        res = _grid_residual(cfg, grid)
    path = out_dir / cfg.outputs.solution_csv
    write_solution_csv(path, grid)
    print(f"solve: wrote {path} ({len(grid)} points on "
          f"[{cfg.grid.x_min:g}, {cfg.grid.x_max:g}]), residual max {res:.3e}")
    return 0


def cmd_transform(cfg: ExperimentConfig, out_dir: Path) -> int:
    if not cfg.k_schedule:
        raise ConfigError("transform requires a nonempty k_schedule")
    seed = _build_seed(cfg, _orbit_cover(cfg))
    xs = cfg.grid.linspace()
    with _stage("transform"):
        grids = orbit(cfg.params.g, cfg.k_schedule, seed, xs)

    stem = Path(cfg.outputs.solution_csv)
    elements = []
    all_pass = True
    for j, grid in enumerate(grids, start=1):
        path = out_dir / f"{stem.stem}_k{j}{stem.suffix}"
        write_solution_csv(path, grid)
        res = _grid_residual(cfg, grid)
        k_sum = float(np.sum(cfg.k_schedule[:j]))
        with _stage(f"fixed-point check (element {j})"):
            fp = is_fixed_point(BacklundMap(shift=ShiftMap(cfg.params.g, k_sum)),
                                seed, xs)
        passed = res < cfg.tolerances.residual_pass
        all_pass = all_pass and passed
        elements.append({
            "element": j,
            "k_sum": k_sum,
            "points": len(grid),
            "interval": list(grid.meta["interval"]),
            "residual_max": res,
            "residual_pass": passed,
            "fixed_point": fp.is_fixed,
            "fixed_point_deviation": fp.deviation,
            "csv": path.name,
        })
        print(f"transform k{j} (K={k_sum:g}): residual max {res:.3e} "
              f"({'pass' if passed else 'FAIL'}), fixed-point deviation "
              f"{fp.deviation:.3e}")

    report = out_dir / cfg.outputs.report_json
    _write_json(report, {"elements": elements, "params": cfg.raw})
    print(f"transform: wrote {report}")
    return 0 if all_pass else 3


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    report_path = out_dir / cfg.outputs.report_json
    checks = []
    try:
        with _stage("verify"):
            results = run_identity_checks(
                rng_seed=cfg.rng_seed, c=cfg.params.c, v=cfg.params.v,
                k_values=tuple(cfg.k_schedule) or (0.25, 0.5, 1.0),
                params=cfg.params, xs=cfg.grid.linspace())
        checks = [r.as_dict() for r in results]
    except NumericalError:
        _write_json(report_path, {"checks": checks, "params": cfg.raw,
                                  "complete": False})
        raise
    _write_json(report_path, {"checks": checks, "params": cfg.raw,
                              "complete": True})
    ok = all(c["pass"] for c in checks)
    for c in checks:
        print(f"{'PASS' if c['pass'] else 'FAIL'}  {c['name']:28s} "
              f"deviation {c['deviation']:.3e}  tolerance {c['tolerance']:.0e}")
    print(f"verify: wrote {report_path}")
    return 0 if ok else 3


def cmd_wavefunction(cfg: ExperimentConfig, out_dir: Path,
                     t_samples: list[float]) -> int:
    xs = cfg.grid.linspace()
    seed = _build_seed(cfg, (cfg.grid.x_min, cfg.grid.x_max))
    p = cfg.params
    with _stage("wavefunction"):
        rs = seed.eval_with_derivative(xs)[0]
        # anchors: the closed form's domain starts at 0, where its phase
        # vanishes; an integrated seed's starts at grid.x_min
        thetas = phase(p, xs, r_source=seed, x_ref=seed.domain[0])
    ts = np.asarray(t_samples, dtype=float)
    angle = thetas[:, None] - p.mu * ts  # one row per x, one column per t
    re = rs[:, None] * np.cos(angle)
    im = rs[:, None] * np.sin(angle)
    table = np.column_stack([np.repeat(xs, ts.size), np.tile(ts, xs.size),
                             re.ravel(), im.ravel(), np.hypot(re, im).ravel()])
    path = out_dir / cfg.outputs.wave_csv
    _write_rows(path, ["x", "t", "re", "im", "modulus"], table)
    print(f"wavefunction: wrote {path} ({len(table)} samples)")
    return 0


def _parse_t_samples(text: str) -> list[float]:
    try:
        vals = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --t-samples: {exc}") from exc
    if not vals:
        raise ConfigError("--t-samples must contain at least one value")
    return vals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpbacklund",
        description="Solve the reduced Gross-Pitaevskii amplitude equation, "
                    "apply translation-map Backlund transforms, and verify "
                    "the functional identities behind them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "transform", "verify", "wavefunction"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        if name == "wavefunction":
            p.add_argument("--t-samples", default="0",
                           help="comma-separated times, e.g. 0,0.5,1")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "wavefunction":
            t_samples = _parse_t_samples(args.t_samples)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "transform":
            return cmd_transform(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        return cmd_wavefunction(cfg, out_dir, t_samples)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
