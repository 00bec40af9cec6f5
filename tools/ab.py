"""Interleaved in-process A/B timing of two posetdet source trees.

Usage:

    python3 tools/ab.py BASE/src/posetdet CHANGE/src/posetdet \\
        [--workload campaign] [--seed 1] [--rounds 16]

Both trees are copied to a temporary directory as two package names and
imported side by side in this one process.  The invocations are one
benchmark workload's, built by ``perfbench/workloads.py`` (read-only; its
files go to the temporary directory).  Each round runs every invocation
once on each side, alternating which side goes first, and checks that
both sides print the same stdout and stderr and return the same exit
code.  The output is the ratio of total change time to total base time,
and the median and quartiles of the per-round ratios, then one line per
invocation with its own total ratio, so that a change which speeds up
one invocation and slows another shows.  On a machine
whose speed drifts from second to second, interleaving single
invocations cancels most of the drift that separates two whole-process
runs.  Nothing is written into the repo.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def load_workloads():
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = False


def import_side(tree: Path, name: str, tmp: Path):
    """posetdet's cli from tree, imported as the package name."""
    if not (tree / "cli.py").is_file():
        raise SystemExit(f"error: no cli.py in {tree}")
    shutil.copytree(tree, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def invoke(cli, argv) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the parent's src/posetdet")
    parser.add_argument("change", type=Path, help="the change's src/posetdet")
    parser.add_argument("--workload", default="campaign")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory(prefix="posetdet-ab-") as tmp_name:
        tmp = Path(tmp_name)
        invocations = workloads.build(args.workload, args.seed, str(tmp / "files"))
        sys.path.insert(0, str(tmp))
        clis = [import_side(tree, f"posetdet_ab_{side}", tmp)
                for tree, side in zip((args.base, args.change), SIDES)]
        totals = [0.0, 0.0]
        by_invocation = [[0.0, 0.0] for _ in invocations]
        ratios = []
        for rnd in range(args.rounds):
            spent = [0.0, 0.0]
            for i, inv in enumerate(invocations):
                first = (rnd + i) % 2
                results = {}
                for side in (first, 1 - first):
                    results[side] = invoke(clis[side], inv.argv)
                    spent[side] += results[side][0]
                    by_invocation[i][side] += results[side][0]
                if results[0][1:] != results[1][1:]:
                    print(f"error: the two sides differ on {inv.key}", file=sys.stderr)
                    return 1
            totals = [t + s for t, s in zip(totals, spent)]
            ratios.append(spent[1] / spent[0])
    q1, med, q3 = quartiles(ratios)
    print(f"{args.workload} seed={args.seed}: {len(invocations)} invocations x {args.rounds} "
          f"rounds, identical stdout, stderr and exit codes")
    print(f"base {totals[0] / args.rounds:.4f} s a pass, change {totals[1] / args.rounds:.4f} s")
    print(f"total ratio {totals[1] / totals[0]:.4f}; per-round median {med:.4f}, "
          f"IQR {q1:.4f}-{q3:.4f}")
    for inv, (base, change) in zip(invocations, by_invocation):
        key = inv.key if len(inv.key) <= 48 else inv.key[:45] + "..."
        print(f"{key}: total ratio {change / base:.4f}, base {base / args.rounds:.4f} s a pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
