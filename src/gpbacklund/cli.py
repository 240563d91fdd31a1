"""Command-line front end: solve, transform, verify, wavefunction.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (the message names the failing stage and error class).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .backlund import is_fixed_point, orbit
from .config import _MAX_POINTS, ExperimentConfig, _finite_float, load_config
from .errors import ConfigError, NonFinite, NumericalError
from .functional import ShiftMap
from .gp import (_X_FLOOR, ClosedFormSolution, LiouvilleSolution,
                 closed_form_residual, energy, gp_rhs, phase)
from .ode import SolutionGrid, ToleranceSpec, residual_max, sample
from .verify import run_identity_checks

# CSV values are written exactly as "%.16e" writes them: 17 significant
# digits, an exact binary64 round trip. Each value fills a right-aligned
# field of _FIELD bytes, then its separator; the padding spaces are dropped.
_FIELD = 24  # len("-1.2345678901234567e-308"), the widest "%.16e"
_FALLBACK_FMT = f"%{_FIELD}.16e"
_BLOCK_ROWS = 1024  # rows per numpy pass: keeps the temporaries small
# Fast path, after Grisu3 (Loitsch, PLDI 2010): with e = floor(log10|a|),
# y = |a| 10^(16-e) is formed in np.longdouble with a single rounding, as
# 10^k is exact while 5^k < 2^(nmant+1). The 17 digits are round(y) when y
# lies in [1e16, 1e17 - 1) and farther than _TIE_MARGIN from a half-integer:
# y is within u 1e17 of the exact product, u = eps/2, and binary64's eps
# covers rounding frac(y) to a float. Every other value goes through "%".
# Where longdouble is binary64 the margin exceeds 1/2 and every value does.
_LONG = np.finfo(np.longdouble)
_TIE_MARGIN = float(_LONG.eps) / 2 * 1e17 + float(np.finfo(float).eps)
_POW_MAX = 0
while 5 ** (_POW_MAX + 1) < 2 ** (_LONG.nmant + 1):
    _POW_MAX += 1
_POW10 = np.cumprod(np.r_[1, [10] * _POW_MAX].astype(np.longdouble))
_ONES = np.ones(_POW_MAX, dtype=np.longdouble)
# |a| * _SCALE_MUL[i] / _SCALE_DIV[i] = |a| 10^(i - _POW_MAX), one rounding
_SCALE_MUL = np.concatenate([_ONES, _POW10])
_SCALE_DIV = np.concatenate([_POW10[::-1], _ONES])
_EXPONENTS = np.array([b"e%+03d" % (16 + _POW_MAX - i)
                       for i in range(2 * _POW_MAX + 1)], dtype="S4")
_QUADS = (np.arange(10_000, dtype=np.int16)[:, None]  # b"0000".."9999"
          // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
          + ord("0")).astype(np.uint8).view("S4").ravel()
_SPACE = ord(" ")


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
    chunks = [(",".join(header) + "\n").encode()]
    chunks += [_format_block(table[i:i + _BLOCK_ROWS].ravel(), cols)
               for i in range(0, rows, _BLOCK_ROWS)]
    path.write_bytes(b"".join(chunks))


def _format_block(a: np.ndarray, cols: int) -> bytes:
    """The bytes of "%.16e" for every value of ``a``, ``cols`` to a line."""
    mag = np.abs(a)
    nonzero = mag > 0.0
    e = np.floor(np.log10(np.where(nonzero, mag, 1.0))).astype(np.int64)
    scale = np.clip(16 - e, -_POW_MAX, _POW_MAX) + _POW_MAX
    y = mag.astype(np.longdouble) * _SCALE_MUL[scale] / _SCALE_DIV[scale]
    fast = (nonzero & (scale == 16 - e + _POW_MAX)
            & (y >= _POW10[16]) & (y < _POW10[17] - 1))
    y = np.where(fast, y, _POW10[16])
    whole = y.astype(np.int64)
    frac = (y - whole).astype(float)
    fast &= np.abs(frac - 0.5) > _TIE_MARGIN
    lead, rest = np.divmod(whole + (frac > 0.5), 10 ** 16)
    quads = np.empty((a.size, 4), dtype=np.int64)
    quads[:, 0], rest = np.divmod(rest, 10 ** 12)
    quads[:, 1], rest = np.divmod(rest, 10 ** 8)
    quads[:, 2], quads[:, 3] = np.divmod(rest, 10 ** 4)

    buf = np.full((a.size, _FIELD + 1), _SPACE, dtype=np.uint8)
    buf[:, 1] = np.where(np.signbit(a), ord("-"), _SPACE)
    buf[:, 2] = lead + ord("0")
    buf[:, 3] = ord(".")
    buf[:, 4:20] = _QUADS[quads].view(np.uint8)
    buf[:, 20:24] = _EXPONENTS[scale].view(np.uint8).reshape(-1, 4)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (_FALLBACK_FMT * slow.size) % tuple(a[slow].tolist())
        buf[slow, :_FIELD] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(-1, _FIELD)
    seps = buf[:, _FIELD].reshape(-1, cols)
    seps[:, :-1] = ord(",")
    seps[:, -1] = ord("\n")
    return buf[buf != _SPACE].tobytes()


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


def _closed_form(cfg: ExperimentConfig) -> ClosedFormSolution:
    """The closed-form seed; refused where b v^6 + c^2 is not finite, as the
    closed form then solves no equation the run could check."""
    p = cfg.params
    if not math.isfinite(p.constraint_residual):
        raise NonFinite(f"b*v^6 + c^2 is not finite for v={p.v:g}")
    return ClosedFormSolution(p)


def _build_seed(cfg: ExperimentConfig, cover: tuple[float, float]):
    """Seed solution covering at least the interval ``cover``."""
    if cfg.seed.kind == "closed_form":
        return _closed_form(cfg)
    lo = max(2.0 * _X_FLOOR, cover[0])
    with _stage("seed integration"):
        return LiouvilleSolution(cfg.params, cfg.seed.x0, cfg.seed.r0,
                                 cfg.seed.rp0, lo, cover[1], _tolerances(cfg))


def _orbit_cover(cfg: ExperimentConfig) -> tuple[float, float]:
    """Interval the seed must cover so every orbit element stays inside:
    the grid and the images G^{-1}(G(edge) + K) of its edges for every
    partial sum K whose target is finite and positive."""
    g, edges = cfg.params.g, np.array([cfg.grid.x_min, cfg.grid.x_max])
    targets = g.value(edges) + np.cumsum(cfg.k_schedule)[:, None]
    # a root that overflows the solver is nan, which nanmin and nanmax skip
    cover = np.append(edges, g.inverse(
        targets[np.isfinite(targets) & (targets > 0.0)]))
    return float(np.nanmin(cover)), float(np.nanmax(cover))


def _grid_residual(cfg: ExperimentConfig, grid: SolutionGrid) -> float:
    with _stage("residual evaluation"):
        return residual_max(gp_rhs(cfg.params), grid)


def cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    xs = cfg.grid.linspace()
    if cfg.seed.kind == "closed_form":
        seed = _closed_form(cfg)
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
    cover = _orbit_cover(cfg)
    seed = _build_seed(cfg, cover)
    xs = cfg.grid.linspace()
    with _stage("transform"):
        grids = orbit(cfg.params.g, cfg.k_schedule, seed, xs)
    # E along the seed over the cover, as many points as the grid: its
    # spread, and the E each element is compared with, at the cover's start
    xe = np.linspace(max(seed.domain[0], cover[0]),
                     min(seed.domain[1], cover[1]), cfg.grid.points)
    with _stage("energy"):
        e_seed = energy(cfg.params, xe, *seed.eval_with_derivative(xe))

    stem = Path(cfg.outputs.solution_csv)
    elements = []
    all_pass = True
    for j, grid in enumerate(grids, start=1):
        path = out_dir / f"{stem.stem}_k{j}{stem.suffix}"
        write_solution_csv(path, grid)
        res = _grid_residual(cfg, grid)
        k_sum = grid.meta["K"]
        with _stage(f"fixed-point check (element {j})"):
            fp = is_fixed_point(ShiftMap(cfg.params.g, k_sum), seed, xs)
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
            "energy_spread": float(np.ptp(e_seed)),
            "energy_shift": float(np.max(np.abs(energy(
                cfg.params, grid.xs, grid.rs, grid.rps) - e_seed[0]))),
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
            results = run_identity_checks(cfg.params, cfg.k_schedule,
                                          cfg.grid.linspace(), cfg.rng_seed)
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


def _parse_t_samples(text: str, points: int) -> list[float]:
    """The times of --t-samples; the table of points x times rows is held
    to the cap on grid.points, so it fits in memory as one column does."""
    try:
        vals = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --t-samples: {exc}") from exc
    if not vals:
        raise ConfigError("--t-samples must contain at least one value")
    if points * len(vals) > _MAX_POINTS:
        raise ConfigError(f"wavefunction table of {points} points x "
                          f"{len(vals)} times exceeds the cap of "
                          f"{_MAX_POINTS} rows")
    return vals


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and building it again would cost about 0.5 ms a command."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # every stage tests its values and raises NonFinite itself, so numpy's
    # floating-point warnings add nothing; with warnings as errors they
    # would turn that exit 3 into a traceback
    with np.errstate(all="ignore"):
        try:
            cfg = load_config(args.config)
            if args.command == "wavefunction":
                t_samples = _parse_t_samples(args.t_samples,
                                             cfg.grid.points)
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
