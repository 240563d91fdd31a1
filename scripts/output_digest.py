#!/usr/bin/env python3
"""One sha256 per command over everything the command leaves behind.

    python scripts/output_digest.py [--seeds 1 2 3] [--keep DIR]

Runs ``gpbacklund.cli.main`` in-process: every subcommand on the shipped
configs (``configs/*.cfg``), then the command pools that
``perfbench/workloads.py`` builds for each seed (perfbench is only read).
Each command writes into a fresh directory. Its digest covers the exit code
(or the exception it raised), stdout, stderr and the name and bytes of every
file it wrote, with that directory, the temporary directory and the
repository root masked in the text, so that a command's digest does not
depend on how many commands come before it. One line per command gives the digest, the exit code and the
command; a last line gives the digest of all the lines before it.

Identical code must print identical lines, from any checkout and in any
process. Diff two runs to show that, or diff the output of two trees to
find the commands whose bytes changed. ``--keep DIR`` also copies what
each command left into ``DIR/<command label>/``: its output files and a
``console.txt`` of its exit code, stdout and stderr, masked as digested;
``scripts/output_drift.py`` compares two such directories number by number.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
from gpbacklund import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

SUBCOMMANDS = ("solve", "transform", "verify", "wavefunction")


def _commands(seeds, tmp: Path):
    """(label, argv, output directory) of every command, in a fixed order."""
    out = (tmp / "out" / str(i) for i in itertools.count())
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for sub in SUBCOMMANDS:
            out_dir = next(out)
            argv = [sub, "--config", str(cfg), "--out-dir", str(out_dir)]
            yield f"{cfg.name} {sub}", argv, out_dir
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            pool = workloads.build(workload, seed, tmp / f"{workload}{seed}")
            for cmd in pool:
                cmd.out_dir = next(out)  # not the pool's shared case directory
                label = (f"{workload} seed {seed} {cmd.case.name} "
                         f"{cmd.subcommand}")
                yield label, cmd.argv, cmd.out_dir


def _digest(argv, out_dir: Path, masks) -> tuple[str, str, list[str]]:
    """(exit code or exception, sha256, [code, stdout, stderr]) of one
    in-process command."""
    out, err = io.StringIO(), io.StringIO()
    # a fresh warnings registry per command, so a warning prints as it
    # would in a process of its own
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a crash is recorded, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
    parts = [code, out.getvalue(), err.getvalue()]
    for path, name in masks:
        parts = [p.replace(str(path), name) for p in parts]
    blobs = [p.encode() for p in parts]
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            blobs += [path.relative_to(out_dir).as_posix().encode(),
                      path.read_bytes()]
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return code.split(":")[0], h.hexdigest(), parts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                    help="perfbench workload seeds (default: 1 2 3)")
    ap.add_argument("--keep", type=Path, default=None, metavar="DIR",
                    help="copy every command's outputs into DIR")
    args = ap.parse_args()
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        masks = [(tmp, "<tmp>"), (ROOT, "<root>")]
        for label, argv, out_dir in _commands(args.seeds, tmp):
            out_dir.mkdir(parents=True)
            code, digest, parts = _digest(argv, out_dir,
                                          [(out_dir, "<out>"), *masks])
            if args.keep is not None:
                kept = args.keep / label.replace(" ", "_")
                shutil.copytree(out_dir, kept)
                (kept / "console.txt").write_text("\n".join(parts))
            line = f"{digest} {code} {label}"
            print(line)
            total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
