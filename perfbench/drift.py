"""Trace drift between two archives of the same run.

    python3 perfbench/drift.py ARCHIVE_A ARCHIVE_B

Prints the largest absolute difference of `fast.csv`, of `slow.csv` and of
the final state in `metadata.json`, with the column where it occurs, and as
its last line the same numbers as JSON.  It reads the files directly, not
through `hiermpc`, so archives written by two versions of the package can be
compared.  Exits 2 when the archives do not have the same columns and rows.

To measure how far a change moves the trace, write an archive of a workload
on each commit, for example

    PYTHONPATH=src python3 -m hiermpc.cli simulate --config perfbench/chain4_n40.json --out A

(`simulate` alone is coupled_n20 and `simulate --decoupled` decoupled_n20,
both from the default start), then compare them with this script and run
`hiermpc verify` on the new one.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np


class Mismatch(Exception):
    pass


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    columns = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return columns, rows.reshape(len(lines) - 2, len(columns))


def max_difference(columns, a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise Mismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0, None
    diff = np.abs(a - b)
    flat = int(np.argmax(diff))
    return float(diff.flat[flat]), columns[flat % len(columns)]


def drift(root_a: Path, root_b: Path) -> dict:
    out = {}
    for name in ("fast.csv", "slow.csv"):
        cols_a, rows_a = read_csv(root_a / name)
        cols_b, rows_b = read_csv(root_b / name)
        if cols_a != cols_b:
            raise Mismatch(f"{name}: columns differ")
        out[name] = max_difference(cols_a, rows_a, rows_b)
    finals = [np.array(json.loads((root / "metadata.json").read_text())["final_state"])
              for root in (root_a, root_b)]
    out["final_state"] = max_difference(
        [f"x{i}" for i in range(finals[0].size)], *finals)
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        result = drift(Path(args[0]), Path(args[1]))
    except (OSError, IndexError, ValueError, KeyError, Mismatch) as exc:
        print(f"drift: cannot compare: {exc}", file=sys.stderr)
        return 2
    for name, (value, column) in result.items():
        print(f"{name}: max |a - b| = {value!r}" + (f" (column {column})" if column else ""))
    print(json.dumps({name: value for name, (value, _) in result.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
