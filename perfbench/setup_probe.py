"""The set-up that ``setup_s`` times, run in a fresh interpreter: import
``posetdet.cli`` from the checkout and build one workload's inputs from
the seed (argv lists, digraph files, value sets).

Afterwards it prints the machine's speed, sampled in this interpreter,
and the seconds that sampling took, which the parent leaves out of the
time.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
# More than a sample in ``run.py`` takes: this is the only one made here.
SPEED_REPEATS = 15


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import posetdet.cli  # noqa: F401 - the import is part of what is timed

    workloads.build(args.workload, args.seed, args.workdir)

    start = time.perf_counter()
    # Imported only now: it imports modules that posetdet imports too, and
    # importing them first would hide their cost from the timed set-up.
    import calibrate

    speed = calibrate.machine_speed(SPEED_REPEATS)
    print(speed, time.perf_counter() - start)


if __name__ == "__main__":
    main()
