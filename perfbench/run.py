"""gpbacklund benchmark: one workload, one run.

    python3 perfbench/run.py --workload orbit|verify|wave --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/gpbacklund``). A
seeded generator writes the workload's configs (see ``workloads.py``); one
client then issues ``gpbacklund.cli.main`` commands on them in-process, one
after another (a closed loop), on one thread with BLAS threads pinned to 1,
and checks every output (see ``checks.py``).

Every end-to-end time is host-normalised, scaled to the host's usual speed
by a reference kernel timed around and inside it (see ``hostclock.py``),
because the shared host's own speed swings far more than the bounds allow.
The wall-clock figures are printed as well.

``--trace 0`` runs whole passes over the workload's configs until the
commands have taken ``--seconds`` of host-normalised time and reports the
end-to-end metrics.
``--trace 1`` runs a warm-up pass over the workload's configs, then every
command untraced and once more with the package's public functions wrapped
(see ``tracer.py``), reports the per-layer metrics, and writes the spans to
``.perfbench_out/``. The last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostclock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
WALL_LIMIT = 4  # a timed run stops after this many times --seconds of wall time


class Client:
    """Issues commands through ``gpbacklund.cli.main`` and checks them.

    The first passing execution of a command is checked in full and its
    output bytes recorded; every later execution must write the same bytes.
    ``rows_written`` and ``bytes_written`` count the checked executions, so
    one pass over the commands.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.digests: dict[int, bytes] = {}
        self.phase_err: list[float] = []
        self.rows_written = 0
        self.bytes_written = 0

    def execute(self, index: int, cmd: workloads.Command,
                clock: hostclock.HostClock | None = None) -> tuple[bool, float]:
        """Run one command; return (passed, seconds inside cli.main), the
        seconds host-normalised when a clock is given."""
        for name in cmd.outputs:
            (cmd.out_dir / name).unlink(missing_ok=True)
        sink = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    return self.cli.main(cmd.argv)
            except Exception as exc:  # a crash is a failed command, not a crash of the run
                return f"{type(exc).__name__}: {exc}"

        if clock is None:
            start = time.perf_counter()
            code = call()
            elapsed = time.perf_counter() - start
        else:
            code, elapsed = clock.measure(call)
        errors = [] if code == 0 else [f"exit {code}: {sink.getvalue()[-300:]}"]
        if not errors:
            errors = self._check(index, cmd)
        if errors:
            print(f"FAIL {cmd.case.name} {cmd.subcommand}: {'; '.join(errors)}",
                  file=sys.stderr)
        return not errors, elapsed

    def _check(self, index: int, cmd: workloads.Command) -> list[str]:
        missing = [n for n in cmd.outputs if not (cmd.out_dir / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        blobs = [(cmd.out_dir / n).read_bytes() for n in cmd.outputs]
        digest = hashlib.sha256(b"\0".join(blobs)).digest()
        if index in self.digests:
            return [] if digest == self.digests[index] else [
                "outputs differ from the first run of the same command"]
        self.bytes_written += sum(len(b) for b in blobs)
        self.rows_written += sum(b.count(b"\n") - 1 for n, b
                                 in zip(cmd.outputs, blobs) if n.endswith(".csv"))
        values = cmd.case.values
        if cmd.subcommand == "solve":
            errors = checks.check_solve(values, cmd.out_dir)
        elif cmd.subcommand == "transform":
            errors = checks.check_transform(values, cmd.out_dir)
        elif cmd.subcommand == "verify":
            errors = checks.check_verify(values, cmd.out_dir)
        else:
            t_samples = [float(t) for t in workloads.T_SAMPLES.split(",")]
            errors = checks.check_wave(values, cmd.out_dir, t_samples,
                                       self.phase_err)
        if not errors:
            self.digests[index] = digest
        return errors


def _version(dist: str) -> str:
    """Installed version, read without importing the package."""
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """(host-normalised, wall) times of cold ``python -c "import
    gpbacklund"`` subprocesses, after one untimed import that leaves the
    bytecode cache warm."""
    argv = [sys.executable, "-c", "import gpbacklund"]
    subprocess.run(argv, env=_env(root), cwd=root, check=True)
    clock = hostclock.HostClock(sample=False)
    times = [clock.measure(lambda: subprocess.run(
        argv, env=_env(root), cwd=root, check=True))[1]
        for _ in range(SETUP_REPEATS)]
    return times, clock.wall


def import_times(root: Path) -> tuple[float, float]:
    """(gpbacklund, scipy) cumulative import seconds from -X importtime,
    medians over repeated cold imports. scipy counts every top-level scipy
    import made while importing the package."""
    argv = [sys.executable, "-X", "importtime", "-c", "import gpbacklund"]
    pkg, sci = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run(argv, env=_env(root), cwd=root, check=True,
                             capture_output=True, text=True).stderr
        rows = []
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4),
                             int(m.group(2)) * 1e-6))
        pkg.append(sum(t for lvl, name, t in rows
                       if name == "gpbacklund" and lvl == 0))
        # rows come children first: a row's parent is the next row one
        # level up, so walk backwards keeping the open ancestors
        total, ancestors = 0.0, []
        for lvl, name, t in reversed(rows):
            del ancestors[lvl:]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(a.startswith("scipy") for a in ancestors):
                total += t
            ancestors.append(name)
        sci.append(total)
    return statistics.median(pkg), statistics.median(sci)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the highest percentile with
    at least TAIL_BEYOND samples above it (the maximum when there are too
    few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def timed_run(client: Client, commands, seconds: float) -> dict:
    """Whole passes over the commands until they have taken ``seconds`` of
    host-normalised time, so every config weighs the same in the statistics
    and the number of passes does not follow the host's speed. Latencies
    are host-normalised; ``wall`` keeps them as measured."""
    # warm-up: the first command of the pass, untimed and unchecked
    with contextlib.redirect_stdout(io.StringIO()):
        client.cli.main(commands[0].argv)
    latencies, passed = [], 0
    clock = hostclock.HostClock(sample=True)
    # a wall-clock limit as well, so that a run whose commands fail at once
    # (and spend their time in the reference kernel) still ends in time
    hard_stop = time.perf_counter() + WALL_LIMIT * seconds
    while sum(latencies) < seconds and time.perf_counter() < hard_stop:
        for i, cmd in enumerate(commands):
            ok, elapsed = client.execute(i, cmd, clock)
            latencies.append(elapsed)
            passed += ok
    value, pct, beyond = tail(latencies)
    return {"attempted": len(latencies), "passed": passed,
            "latencies": latencies, "wall": clock.wall, "tail": value,
            "tail_pct": pct, "tail_beyond": beyond}


def traced_run(client: Client, commands):
    """A warm-up pass, which also checks every output in full, then every
    command twice in a row, untraced and traced, so that the tracing
    overhead is taken on warm caches and in the same state of the host.
    Returns the per-layer metrics, every command's verdict and the tracer."""
    from gpbacklund import ode

    per_attempt = tracing.rhs_per_attempt(ode)
    verdicts = [client.execute(i, cmd)[0] for i, cmd in enumerate(commands)]
    tr = tracing.Tracer()
    overhead_s = 0.0
    for i, cmd in enumerate(commands):
        ok, untraced = client.execute(i, cmd)
        verdicts.append(ok)
        tr.command = i
        tr.install()
        try:
            ok, traced = client.execute(i, cmd)
        finally:
            tr.uninstall()
        verdicts.append(ok)
        overhead_s += traced - untraced
    return layer_metrics(tr, client, per_attempt, overhead_s), verdicts, tr


def layer_metrics(tr, client: Client, per_attempt: float,
                  overhead_s: float) -> dict:
    st = tr.stats

    def ratio(a, b):
        return a / b if b else 0.0

    evaluate, shift = st["ode.DenseSolution.evaluate"], st["functional.ShiftMap.f"]
    integrations = st["ode.integrate"].calls
    attempted_steps = ratio(tr.rhs_calls - integrations, per_attempt)
    transform = st["backlund.transform"]
    out = {
        "config.load_config.s": (st["config.load_config"].total_s, "s"),
        "cli.rows_written": (client.rows_written, "count"),
        "cli.bytes_written": (client.bytes_written, "B"),
        "ode.integrate_span.s": (st["ode.integrate_span"].total_s, "s"),
        "ode.steps": (tr.steps, "count"),
        "ode.steps_per_s": (ratio(tr.steps, st["ode.integrate_span"].total_s), "1/s"),
        "ode.rhs_calls": (tr.rhs_calls, "count"),
        "ode.rhs_per_step": (ratio(tr.rhs_calls, tr.steps), "calls/step"),
        "ode.accept_ratio": (ratio(tr.steps, attempted_steps), "ratio"),
        "ode.evaluate.calls": (evaluate.calls, "count"),
        "ode.evaluate.points_per_call": (
            ratio(evaluate.points, evaluate.calls), "points/call"),
        "ode.evaluate.s": (evaluate.total_s, "s"),
        "ode.residual_max.s": (st["ode.residual_max"].total_s, "s"),
        "ode.residual_max.worst": (tr.residual_worst, "1"),
        "functional.ShiftMap.f.calls": (shift.calls, "count"),
        "functional.ShiftMap.f.points_per_call": (
            ratio(shift.points, shift.calls), "points/call"),
        "functional.ShiftMap.f.s": (shift.total_s, "s"),
        "backlund.orbit.s": (st["backlund.orbit"].total_s, "s"),
        "backlund.transform.s": (transform.total_s, "s"),
        "backlund.is_fixed_point.s": (st["backlund.is_fixed_point"].total_s, "s"),
        "backlund.keep_ratio": (ratio(tr.kept_points, transform.points), "ratio"),
        "gp.phase.s": (st["gp.phase"].total_s, "s"),
        "gp.phase.points": (st["gp.phase"].points, "count"),
        "gp.phase.integrand_evals": (tr.phase_points_evaluated, "count"),
        "gp.phase.err_max": (max(client.phase_err, default=0.0), "rad"),
        "calculus.schwarzian.calls": (st["calculus.schwarzian"].calls, "count"),
        "calculus.schwarzian.s": (st["calculus.schwarzian"].total_s, "s"),
        "calculus.derivative.calls": (st["calculus.derivative"].calls, "count"),
    }
    for check in tracing.CHECKS:
        out[f"verify.{check}.s"] = (st[f"verify.check_{check}"].total_s, "s")
        out[f"verify.{check}.deviation"] = (tr.deviation.get(check, 0.0), "1")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gpbacklund" / "__init__.py").is_file():
        print(f"error: no src/gpbacklund under {root}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from gpbacklund import cli

    env = {"python": platform.python_version(), "numpy": _version("numpy"),
           "scipy": _version("scipy"), "nproc": os.cpu_count(),
           "blas_threads": 1, "client": "1 closed-loop client, in-process"}
    print("env " + json.dumps(env))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands = workloads.build(args.workload, args.seed, work)
        client = Client(cli)
        if args.trace:
            pkg_s, sci_s = import_times(root)
            metrics, verdicts, tr = traced_run(client, commands)
            metrics["init.import_s"] = (pkg_s, "s")
            metrics["init.scipy_import_s"] = (sci_s, "s")
            attempted, passed = len(verdicts), sum(verdicts)
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"env": env, "workload": args.workload, "seed": args.seed,
                 "commands": [c.argv for c in commands],
                 "calls": {n: tr.stats[n].calls for n in tracing.WRAPPED},
                 "metrics": metrics, "spans": tr.dump()}, indent=1) + "\n")
            print(f"spans written to {trace_path.relative_to(root)}")
        else:
            setup, setup_wall = measure_setup(root)
            run = timed_run(client, commands, args.seconds)
            attempted, passed = run["attempted"], run["passed"]
            lat, wall = run["latencies"], run["wall"]
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                # per host-normalised second spent inside cli.main, so
                # without the checks and the reference kernel
                "cmds_per_s": (passed / sum(lat), "1/s"),
                "cmd_ms.p50": (1e3 * statistics.median(lat), "ms"),
                "cmd_ms.tail": (1e3 * run["tail"], "ms"),
                "pass_ratio": (passed / attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            print(f"cmd_ms.tail is p{run['tail_pct']:.1f} of {attempted} "
                  f"commands ({run['tail_beyond']} beyond it); "
                  f"fail_ratio = {(attempted - passed) / attempted:.6g}")
            print(f"wall clock, not normalised: setup_s = "
                  f"{statistics.median(setup_wall):.6g} s, cmds_per_s = "
                  f"{passed / sum(wall):.6g} 1/s, cmd_ms.p50 = "
                  f"{1e3 * statistics.median(wall):.6g} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": passed == attempted, "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
