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
from .gp import (_T_TOL_DIVISOR, _X_FLOOR, ClosedFormSolution,
                 LiouvilleSolution, closed_form_residual, energy, gp_rhs,
                 phase)
from .ode import SolutionGrid, ToleranceSpec, residual_max, sample
from .verify import run_identity_checks

# CSV values are written exactly as "%.16e" writes them: 17 significant
# digits, an exact binary64 round trip. Each value fills _WORDS little-endian
# uint32 words: a pad, the sign, the lead digit and "."; four words of four
# digits; the exponent; the separator and three spaces. A value formatted by
# "%" fills the first _FIELD bytes instead. The spaces are dropped when the
# block is joined.
_WORDS = 7
_FIELD = 24  # len("-1.2345678901234567e-308"), the widest "%.16e"
_FALLBACK_FMT = f"%{_FIELD}.16e"
_BLOCK_ROWS = 1024  # rows per numpy pass: keeps the temporaries small
# Fast path, after Grisu3 (Loitsch, PLDI 2010), in float64 only: with
# k = 16 - floor(log10|a|) in [0, _K_MAX], 10^k = P_hi + P_lo exactly, and
# Dekker's product (Numer. Math. 18, 1971) gives |a| P_hi = p1 + e1 exactly.
# So y = |a| 10^k = p1 + rest, rest = e1 + fl(|a| P_lo). Where y < 1e17,
# |e1| <= 8 and |a| P_lo < 12, so rest is within 2^-50 + 2^-49 < 3e-15 of
# y - p1; and p1 >= 2^53 is an integer wherever floor(y) >= 1e16. The 17
# digits are round(y) = floor(y) + (frac(rest) > 1/2) when floor(y) >= 1e16,
# round(y) < 1e17 and frac(rest) is farther than _TIE_MARGIN from a half.
# (Where floor(rest) is off by one, y is within 3e-15 of an integer, and
# round(y) still gives the bytes.)
# Zero is formatted as 1.0 is, with digits 0. Every other value goes
# through "%": a subnormal, |a| outside [1e-24, 1e17), or a near-tie.
_K_MAX = 40  # 10^k splits exactly while 5^k needs at most 106 bits
_TIE_MARGIN = 1e-14  # over 3e-15 plus frac(rest)'s own rounding, 2^-53
_SPLIT = 2.0 ** 27 + 1.0


def _dekker_split(v):
    """(hi, lo) with hi + lo = v exactly, each of at most 26 bits."""
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


_P_HI = np.array([float(10 ** k) for k in range(_K_MAX + 1)])
_P_LO = np.array([float(10 ** k - int(p)) for k, p in enumerate(_P_HI)])
_P_HI_HI, _P_HI_LO = _dekker_split(_P_HI)


def _words(byte_strings) -> np.ndarray:
    """Four-byte strings as little-endian uint32 words."""
    return np.array(byte_strings, dtype="S4").view("<u4")


# word 0 by 10 sign + lead digit; words 1-4 by four digits, b"0000".."9999"
_HEADS = _words([b" " + sign + b"%d." % lead
                 for sign in (b" ", b"-") for lead in range(10)])
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_QUADS = (_DIGITS[:, None, None, None] | _DIGITS[:, None, None] << 8
          | _DIGITS[:, None] << 16 | _DIGITS << 24).ravel()
_EXPONENTS = _words([b"e%+03d" % (16 - k) for k in range(_K_MAX + 1)])
_COMMA, _NEWLINE = _words([b",   ", b"\n   "])


@contextmanager
def _stage(name: str):
    """Tag numerical failures with the pipeline stage that raised them."""
    try:
        yield
    except NumericalError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


@contextmanager
def _writing(path: Path):
    """``path`` opened for binary writing. An OSError from the open or a
    write, as for a directory at that name, becomes a ConfigError naming
    the path and the OS's reason, so the run exits 2."""
    try:
        with path.open("wb") as out:
            yield out
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_rows(path: Path, header: list[str], table) -> None:
    """Write a numeric table as CSV; a non-finite value writes nothing."""
    table = np.asarray(table, dtype=float)
    if not np.all(np.isfinite(table)):
        raise NonFinite(f"refusing to write non-finite values to {path}")
    rows, cols = table.shape
    blocks = (_format_block(table[i:i + _BLOCK_ROWS].ravel(), cols)
              for i in range(0, rows, _BLOCK_ROWS))
    # block by block, the header with the first: a joined copy of every
    # block would add the whole file's bytes to the command's peak memory
    with _writing(path) as out:
        out.write((",".join(header) + "\n").encode() + next(blocks, b""))
        out.writelines(blocks)


def _format_block(a: np.ndarray, cols: int) -> bytes:
    """The bytes of "%.16e" for every value of ``a``, ``cols`` to a line."""
    mag = np.abs(a)
    nonzero = mag > 0.0
    k = 16.0 - np.floor(np.log10(np.where(nonzero, mag, 1.0)))
    in_range = (k >= 0.0) & (k <= _K_MAX)
    # a value out of range is formatted as 1.0, so that nothing overflows,
    # and goes through "%"
    k = np.where(in_range, k, 16.0).astype(np.intp)
    m = np.where(in_range & nonzero, mag, 1.0)
    m_hi, m_lo = _dekker_split(m)
    p_hi, p_hi_hi, p_hi_lo = _P_HI[k], _P_HI_HI[k], _P_HI_LO[k]
    p1 = m * p_hi
    e1 = (((m_hi * p_hi_hi - p1) + m_hi * p_hi_lo + m_lo * p_hi_hi)
          + m_lo * p_hi_lo)
    rest = e1 + m * _P_LO[k]
    whole = np.floor(rest)
    frac = rest - whole
    floor_y = p1.astype(np.int64) + whole.astype(np.int64)
    digits = floor_y + (frac > 0.5)
    fast = (in_range & (floor_y >= 10 ** 16) & (digits < 10 ** 17)
            & (np.abs(frac - 0.5) > _TIE_MARGIN))
    digits = np.where(fast & nonzero, digits, 0)

    buf = np.empty((a.size, _WORDS), dtype="<u4")
    lead = digits // 10 ** 16
    buf[:, 0] = _HEADS[lead + 10 * np.signbit(a)]
    digits -= lead * 10 ** 16
    for word, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=1):
        quad = digits // unit
        buf[:, word] = _QUADS[quad]
        digits -= quad * unit
    buf[:, 4] = _QUADS[digits]
    buf[:, 5] = _EXPONENTS[k]
    seps = buf.reshape(-1, cols, _WORDS)[:, :, 6]
    seps[:, :-1] = _COMMA
    seps[:, -1] = _NEWLINE
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (_FALLBACK_FMT * slow.size) % tuple(a[slow].tolist())
        buf.view(np.uint8)[slow, :_FIELD] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(-1, _FIELD)
    return buf.tobytes().translate(None, b" ")


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
    with _writing(path) as out:
        out.write(text.encode() + b"\n")


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
    # no integrated seed reaches nearer the singular x = 0 than 2 _X_FLOOR;
    # the config keeps seed.x0 >= grid.x_min
    if cfg.grid.x_min < 2.0 * _X_FLOOR:
        raise ConfigError(f"grid.x_min = {cfg.grid.x_min:g} lies below "
                          f"{2.0 * _X_FLOOR:g}, the least x of an integrated "
                          f"seed")
    tol = _tolerances(cfg)
    if not min(tol.atol, tol.rtol) / _T_TOL_DIVISOR > 0.0:
        raise ConfigError(f"tolerances.ode_abs = {tol.atol:g} or ode_rel = "
                          f"{tol.rtol:g} underflows to 0 divided by "
                          f"{_T_TOL_DIVISOR:g}, as seeds are integrated in t")
    lo = max(2.0 * _X_FLOOR, cover[0])
    with _stage("seed integration"):
        return LiouvilleSolution(cfg.params, cfg.seed.x0, cfg.seed.r0,
                                 cfg.seed.rp0, lo, cover[1], tol)


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
    seed = _build_seed(cfg, (cfg.grid.x_min, cfg.grid.x_max))
    with _stage("sampling"):
        grid = sample(seed, xs)
    if cfg.seed.kind == "closed_form":
        with _stage("residual evaluation"):
            res = float(np.max(np.abs(closed_form_residual(cfg.params, xs))))
            if not np.isfinite(res):
                raise NonFinite("closed-form residual is not finite")
    else:
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
        if not np.all(np.isfinite(e_seed)):
            raise NonFinite("E along the seed is not finite")
    energy_spread = float(np.ptp(e_seed))
    # every element keeps a contiguous run of xs, as f is monotone: one read
    # of the seed from the first kept point to the last serves each
    # element's fixed-point check
    lo = np.searchsorted(xs, min(grid.xs[0] for grid in grids))
    hi = np.searchsorted(xs, max(grid.xs[-1] for grid in grids)) + 1
    xs_read = xs[lo:hi]
    with _stage("fixed-point check"):
        r_read = seed.eval_with_derivative(xs_read)[0]

    stem = Path(cfg.outputs.solution_csv)
    elements = []
    all_pass = True
    for j, grid in enumerate(grids, start=1):
        path = out_dir / f"{stem.stem}_k{j}{stem.suffix}"
        write_solution_csv(path, grid)
        res = _grid_residual(cfg, grid)
        k_sum = grid.meta["K"]
        with _stage(f"fixed-point check (element {j})"):
            start = np.searchsorted(xs_read, grid.xs[0])
            fp = is_fixed_point(r_read[start:start + len(grid)],
                                grid.r0_f, grid.f_prime)
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
            "energy_spread": energy_spread,
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
    try:
        with _stage("verify"):
            results = run_identity_checks(cfg.params, cfg.k_schedule,
                                          cfg.grid.linspace(), cfg.rng_seed)
    except NumericalError:
        _write_json(report_path, {"checks": [], "params": cfg.raw,
                                  "complete": False})
        raise
    checks = [r.as_dict() for r in results]
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
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create --out-dir {out_dir}: "
                                  f"{exc.strerror}") from exc
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
