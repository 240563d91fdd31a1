#!/usr/bin/env python3
"""How far the numbers moved between two kept output trees.

    python scripts/output_drift.py A B

A and B are directories written by ``scripts/output_digest.py --keep``,
one subdirectory per command. For every file that differs between them,
prints its path and the largest relative change of its numbers,
|a - b| / max(|a|, |b|), taken over the numbers in the same places, or
inf where a number became or ceased to be nan or inf; a file whose text
differs outside its numbers, or that only one tree holds, is named as
such. The first line of a ``console.txt``, the command's exit code, is
compared as text: where it differs, the file is named with both codes.
Then one line per kind of file, a subcommand (the end of
each directory name) with a file name whose digits read '#', gives the
count of differing files, for consoles the count of changed exit codes,
and their largest change. A line per column of
every kind of CSV file follows: the largest change of that column in a
differing file, |a - b| relative to the column's largest finite |value| in
that file, so that values crossing zero do not swamp it, or inf where a
value of the column became or ceased to be nan or inf.
Exits 1 if anything differs, 0 if the trees hold the same bytes.
"""

import argparse
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _numbers(data: bytes):
    """(text with every number replaced by '#', the numbers as floats)."""
    return NUMBER.sub(b"#", data), [float(m) for m in NUMBER.findall(data)]


def _drift(a: bytes, b: bytes):
    """Largest relative change between the numbers of a and b, or None if
    their text differs elsewhere or in how many numbers it holds."""
    text_a, nums_a = _numbers(a)
    text_b, nums_b = _numbers(b)
    if text_a != text_b:
        return None
    worst = 0.0
    for x, y in zip(nums_a, nums_b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf  # a number became or ceased to be nan or inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _exit_codes(a: bytes, b: bytes):
    """(code in a, code in b): the first lines of two consoles, as text,
    or None where they agree."""
    code_a, code_b = (d.partition(b"\n")[0].decode() for d in (a, b))
    return None if code_a == code_b else (code_a, code_b)


def _column_drift(a: bytes, b: bytes):
    """{column name: largest |a - b| in the column over its largest |value|}
    of two CSV files with the same header and shape, or None."""
    head, _, body_a = a.partition(b"\n")
    head_b, _, body_b = b.partition(b"\n")
    names = head.decode().split(",")
    try:
        rows = [[[float(v) for v in line.split(b",")]
                 for line in body.splitlines()] for body in (body_a, body_b)]
    except ValueError:
        return None
    if head != head_b or len(rows[0]) != len(rows[1]) or any(
            len(row) != len(names) for table in rows for row in table):
        return None
    change = {}
    for j, name in enumerate(names):
        pairs = [(row_a[j], row_b[j]) for row_a, row_b in zip(*rows)]
        moved = [(x, y) for x, y in pairs
                 if not (x == y or (math.isnan(x) and math.isnan(y)))]
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in moved):
            change[name] = math.inf  # became or ceased to be nan or inf
            continue
        scale = max((abs(v) for pair in pairs for v in pair
                     if math.isfinite(v)), default=0.0)
        diff = max((abs(x - y) for x, y in moved), default=0.0)
        change[name] = diff / scale if scale else diff
    return change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args()
    files = {p.relative_to(root).as_posix()
             for root in (args.a, args.b) for p in root.rglob("*")
             if p.is_file()}
    kinds: dict[str, list] = {}
    flips: dict[str, int] = {}  # changed exit codes per console kind
    columns: dict[tuple[str, str], float] = {}
    for rel in sorted(files):
        pa, pb = args.a / rel, args.b / rel
        command, name = rel.split("/", 1)
        kind = f"{command.rsplit('_', 1)[-1]} {re.sub(r'[0-9]+', '#', name)}"
        codes = None
        if not (pa.is_file() and pb.is_file()):
            change = None
            shown = f"only in {args.a if pa.is_file() else args.b}"
        else:
            da, db = pa.read_bytes(), pb.read_bytes()
            if da == db:
                continue
            if name == "console.txt":
                codes = _exit_codes(da, db)
                flips[kind] = flips.get(kind, 0) + (codes is not None)
            change = None if codes else _drift(da, db)
            shown = ("exit code {} -> {}".format(*codes) if codes
                     else "text differs" if change is None
                     else f"{change:.3e}")
        print(f"{rel} {shown}")
        kinds.setdefault(kind, []).append(change)
        if change is not None and rel.endswith(".csv"):
            for name, col in (_column_drift(da, db) or {}).items():
                columns[kind, name] = max(columns.get((kind, name), 0.0), col)
    for kind, changes in sorted(kinds.items()):
        numeric = [c for c in changes if c is not None]
        worst = f"{max(numeric):.3e}" if numeric else "none numeric"
        flipped = f", {flips[kind]} exit codes changed" \
            if kind in flips else ""
        print(f"{kind}: {len(changes)} differ{flipped}, largest relative "
              f"change {worst}")
    for (kind, name), col in sorted(columns.items()):
        print(f"{kind} column {name}: largest change {col:.3e} of its "
              f"largest |value|")
    return 1 if kinds else 0


if __name__ == "__main__":
    sys.exit(main())
