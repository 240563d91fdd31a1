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
Exits 1 if any run reports an output that failed its checks.
``--compare A B`` prints both records' line counts and cache states, every
metric the two files share, with the ratio B / A, and the ratio of the two
records' host reference times; where both records have one, each
per-layer time's ratio is also given divided by it, which takes the host's
change of speed out of the comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.hostclock import reference_s  # noqa: E402

SEED = 1


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
