"""Tests of the benchmark itself: run with ``python -m pytest perfbench``
from the root of the repository. Each workload is traced twice on one seed,
in separate processes, so the tests take a few minutes."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("ode.steps", "ode.rhs_calls", "ode.evaluate.calls",
                "functional.ShiftMap.f.calls", "calculus.schwarzian.calls",
                "gp.phase.integrand_evals", "cli.bytes_written")
SEED = 3


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traces():
    """Two traced runs per workload: (result line, trace file) pairs."""
    out = {}
    for workload in workloads.WORKLOADS:
        for _ in range(2):
            proc = _run(ROOT, workload, trace=1)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            path = ROOT / ".perfbench_out" / f"trace-{workload}-seed{SEED}.json"
            out.setdefault(workload, []).append(
                (result, json.loads(path.read_text())))
    return out


def test_every_traced_run_passes_its_checks(traces):
    for workload, runs in traces.items():
        for result, _ in runs:
            assert result["correct"] and result["failed"] == 0, workload


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrapped_names_record_calls(traces, workload):
    calls = traces[workload][0][1]["calls"]
    silent = [name for name, meant in tracer.WRAPPED.items()
              if workload in meant and calls[name] < 1]
    assert not silent, f"{workload} never called {silent}"


def test_every_per_layer_metric_is_reported(traces):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    for workload, runs in traces.items():
        assert set(runs[0][0]["metrics"]) == names, workload


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(traces, workload):
    first, second = (r[0]["metrics"] for r in traces[workload])
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_same_seed_same_configs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 7, tmp_path / "a")
        b = workloads.build(workload, 7, tmp_path / "b")
        c = workloads.build(workload, 8, tmp_path / "c")
        text = [[cmd.case.path.read_text() for cmd in cmds]
                for cmds in (a, b, c)]
        assert text[0] == text[1]
        assert text[0] != text[2]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "orbit", trace=0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_host_clock_takes_its_samples_off_the_call():
    def spin():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return "done"

    clock = hostclock.HostClock(sample=True)
    result, scaled = clock.measure(spin)
    assert result == "done" and scaled > 0.0
    # the reference kernel ran about three times inside the call
    assert 0.2 < clock.wall[0] < 0.35
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
