#!/usr/bin/env python3
"""Benchmark record of every workload, end to end and per layer.

    python scripts/bench.py --out BENCH_<n>.json [--seconds S]
    python scripts/bench.py --compare BENCH_a.json BENCH_b.json

Runs ``perfbench/run.py`` once per workload of BENCHMARK.json with
``--trace 0`` (the end-to-end metrics) and once with ``--trace 1`` (the
per-layer metrics), all on seed ``SEED`` so that every record draws the
same configs, and writes ``{env, commit, src_lines, tests_lines,
workloads: {name: {end_to_end, per_layer, host_ref_s}}}``. Each metric
keeps its ``value`` and ``unit`` as run.py reports them. ``env`` also
records the bytecode-cache state the runs start from:
``PYTHONDONTWRITEBYTECODE`` (empty when unset) and whether
``src/gpbacklund/__pycache__`` existed before the first run. With no cache
written, ``setup_s`` and ``peak_rss_mb`` include compiling the package, so
two records compare only at the same cache state. The end-to-end times are
host-normalised by run.py; the per-layer times are wall clock, so
``host_ref_s`` records the time of perfbench's host reference kernel
(``perfbench/hostclock.py``) just before and just after the traced run.
Each workload's ``accuracy`` block, computed in-process after all the
runs, gives for every integrated seed of its pool on seed ``SEED``,
built as its command builds it, the worst error of r, r' and the phase
theta on the command's grid, relative to the column's largest |value|:
``seeds`` counts them, and ``r``, ``rp`` and ``theta`` are the worst over
the pool. The reference integrates the same seed in t = G(x) with
``integrate_span`` at 1e-14 over its whole t span, unfolded, and takes
theta by an 8-point Gauss-Legendre rule on every interval between its t
nodes. A pool without integrated seeds has ``seeds`` 0.
Exits 1 if any run reports an output that failed its checks.
``--compare A B`` prints both records' line counts and cache states, every
metric the two files share, with the ratio B / A, and the ratio of the two
records' host reference times; where both records have one, each
per-layer time's ratio is also given divided by it, which takes the host's
change of speed out of the comparison. The accuracy blocks follow, with
the same ratio.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from perfbench import workloads  # noqa: E402
from perfbench.hostclock import reference_s  # noqa: E402

SEED = 1
REFERENCE_TOL = 1e-14
# 8-point Gauss-Legendre rule on [-1, 1] for the reference phase
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def run(workload: str, seconds: float, trace: int) -> dict:
    """One perfbench run; its env line and closing JSON line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def reference(p, x0: float, r0: float, rp0: float, domain, xs,
              x_ref: float):
    """(r, r', theta - theta0) on xs of the seed from (x0, r0, rp0),
    integrated in t = G(x) at REFERENCE_TOL over all of ``domain``, with
    steps bounded as LiouvilleSolution bounds them; theta from x_ref."""
    from gpbacklund.ode import SecondOrderODE, ToleranceSpec, integrate_span
    g = p.g
    c2, beta = p.c * p.c, p.b / p.n ** 3
    t_lo, t0, t_hi = g.value(np.array([domain[0], x0, domain[1]]))
    d1 = g.prime(np.float64(x0))
    rho0 = math.sqrt(d1) * r0
    rho_t0 = (rp0 + 0.5 * g.second(np.float64(x0)) * r0 / d1) / math.sqrt(d1)
    omega = math.sqrt(6.0) * (abs(p.c) * -beta) ** (1.0 / 3.0) \
        if beta < 0.0 else 0.0
    ode = SecondOrderODE(rhs=lambda t, rho: c2 / rho ** 3 + beta * rho ** 3,
                         domain=(0.5 * t_lo, math.inf),
                         max_step=1.0 / omega if omega > 0.0 else math.inf)
    dense = integrate_span(ode, float(t0), float(rho0), float(rho_t0),
                           float(t_lo), float(t_hi),
                           ToleranceSpec(REFERENCE_TOL, REFERENCE_TOL))
    ts = g.value(xs)
    rho, rho_t = dense.evaluate(ts)
    d1 = g.prime(xs)
    r = rho / np.sqrt(d1)
    rp = rho_t * np.sqrt(d1) - 0.5 * r * g.second(xs) / d1
    t_ref = float(g.value(np.float64(x_ref)))
    ends = np.append(ts, t_ref)
    nodes = dense.xs[(dense.xs > ends.min()) & (dense.xs < ends.max())]
    knots = np.unique(np.concatenate([ends, nodes]))
    mid, half = 0.5 * (knots[1:] + knots[:-1]), 0.5 * (knots[1:] - knots[:-1])
    rho_q = dense.evaluate(
        (mid[:, None] + half[:, None] * GL_NODES).ravel())[0]
    segments = half * ((p.c / rho_q.reshape(-1, 8) ** 2) @ GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(segments)])
    theta = (cum[np.searchsorted(knots, ts)]
             - cum[np.searchsorted(knots, t_ref)])
    return r, rp, theta


def accuracy(workload: str, seed: int = SEED) -> dict:
    """The accuracy block of one workload's pool: the number of integrated
    seeds and the worst error of r, r' and theta over them, each relative
    to its column's largest |value| on the command's grid."""
    # imported here: the cache state is read and every run made before
    # this process imports the package, writes its bytecode and grows
    from gpbacklund import cli, config, gp
    worst = {"r": 0.0, "rp": 0.0, "theta": 0.0}
    seeds = 0
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        for cmd in workloads.build(workload, seed, Path(tmp)):
            cfg = config.load_config(cmd.case.path)
            if cfg.seed.kind != "integrate":
                continue
            cover = cli._orbit_cover(cfg) if cmd.subcommand == "transform" \
                else (cfg.grid.x_min, cfg.grid.x_max)
            sol = cli._build_seed(cfg, cover)
            xs = cfg.grid.linspace()
            x_ref = sol.domain[0]
            p = cfg.params
            got = (*sol.eval_with_derivative(xs),
                   gp.phase(p, xs, sol, x_ref) - p.theta0)
            want = reference(p, cfg.seed.x0, cfg.seed.r0, cfg.seed.rp0,
                             sol.domain, xs, x_ref)
            for key, a, b in zip(worst, got, want):
                err = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
                worst[key] = max(worst[key], err)
            seeds += 1
    return {"seeds": seeds, **worst}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def record(seconds: float, workloads) -> tuple[dict, bool]:
    """The record of one run per workload and trace mode, and whether every
    command passed its checks."""
    records, env, correct = {}, None, True
    cache = {"PYTHONDONTWRITEBYTECODE":
             os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
             "src_pycache": (ROOT / "src/gpbacklund/__pycache__").is_dir()}
    for name in workloads:
        runs = {0: run(name, seconds, 0)}
        host_ref_s = [reference_s()]
        runs[1] = run(name, seconds, 1)
        host_ref_s.append(reference_s())
        for trace, r in runs.items():
            if not r["correct"]:
                print(f"{name} --trace {trace}: {r['failed']} of "
                      f"{r['attempted']} commands failed", file=sys.stderr)
                correct = False
        env = {**runs[0]["env"], "seed": SEED, "seconds": seconds, **cache}
        records[name] = {"end_to_end": runs[0]["metrics"],
                         "per_layer": runs[1]["metrics"],
                         "host_ref_s": host_ref_s}
        print(f"{name}: " + ", ".join(
            f"{m} = {v['value']:.6g} {v['unit']}"
            for m, v in runs[0]["metrics"].items()))
    # after every run: ru_maxrss survives fork and exec, so a run started
    # once this process has grown would report this process's peak memory
    for name in workloads:
        records[name]["accuracy"] = accuracy(name)
    dirty = "+dirty" if git("status", "--porcelain", "--", "src") else ""
    lines = {f"{d}_lines": sum(len(p.read_text().splitlines())
                               for p in (ROOT / d).rglob("*.py"))
             for d in ("src", "tests")}
    return {"env": env, "commit": git("rev-parse", "--short", "HEAD") + dirty,
            **lines, "workloads": records}, correct


def compare(a: dict, b: dict) -> None:
    for label, r in (("A", a), ("B", b)):
        env = r["env"]
        state = ", ".join(
            f"{key}={env[key]!r}" if key in env else f"{key} not recorded"
            for key in ("PYTHONDONTWRITEBYTECODE", "src_pycache"))
        print(f"{label}: {r['commit']}, {r['src_lines']} src lines, "
              f"{r.get('tests_lines', 'unrecorded')} tests lines; {state}")
    print("ratio is B / A; host is the ratio divided by B / A of the host "
          "reference time, for per-layer times")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        host = None
        if "host_ref_s" in wa and "host_ref_s" in wb:
            ref_a, ref_b = (statistics.fmean(w["host_ref_s"])
                            for w in (wa, wb))
            host = ref_b / ref_a
            print(f"{name:7s} host reference time {ref_a * 1e3:.3f} ms -> "
                  f"{ref_b * 1e3:.3f} ms, ratio {host:.3f}")
        else:
            print(f"{name:7s} host reference time not recorded in both: "
                  f"per-layer times include the host's change of speed")
        for kind in ("end_to_end", "per_layer"):
            for metric, ma in wa[kind].items():
                mb = wb[kind].get(metric)
                if mb is None:
                    continue
                va, vb = ma["value"], mb["value"]
                ratio = f"{vb / va:.3f}" if va else "-"
                normal = ""
                if kind == "per_layer" and ma["unit"] == "s" and host and va:
                    normal = f"host {vb / va / host:.3f}"
                print(f"{name:7s} {metric:42s} {va:12.6g} {vb:12.6g} "
                      f"{ratio:>8s}  {ma['unit']:11s} {normal}".rstrip())
        acc_a, acc_b = wa.get("accuracy"), wb.get("accuracy")
        if not (acc_a and acc_b):
            print(f"{name:7s} accuracy not recorded in both")
            continue
        for key in ("seeds", "r", "rp", "theta"):
            va, vb = acc_a[key], acc_b[key]
            ratio = f"{vb / va:.3f}" if va else "-"
            print(f"{name:7s} {'accuracy.' + key:42s} {va:12.6g} {vb:12.6g} "
                  f"{ratio:>8s}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="where to write the record")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        compare(a, b)
        return 0
    if args.out is None:
        ap.error("--out is required unless --compare is given")
    result, correct = record(args.seconds,
                             [w["name"] for w in bench["workloads"]])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
