"""The oldest Python that pyproject.toml accepts reproduces the pinned output.

pyproject.toml declares ``requires-python >= 3.10``.  When a ``python3.10``
on PATH reports version 3.10, each pinned invocation runs under it in a
subprocess, with ``PYTHONPATH`` set to ``src``, and the sha256 of its
stdout must equal its digest in ``test_golden.GOLDEN``.  Otherwise the
test is skipped; put a 3.10 interpreter first on PATH to run it.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess

import pytest

from posetdet.arith import divisors
from test_golden import GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLOOR = "python3.10"
PINNED = (
    "verify main",
    "verify tutte --n 5",
    "verify tutte --n 6",
    "verify apostol --n 64",
    "verify daniloff --n 64",
    "verify smith --set " + ",".join(map(str, divisors(55440))),
    "verify smith --set " + ",".join(map(str, divisors(720720))),
    "verify weighted --max-size 64",
    "verify three-layer --max-size 64",
    "verify lindstrom --max-size 64 --cases 200",
    "verify meet-closed",
    "verify definiteness",
    "verify definiteness --max-size 64 --cases 40",
    "random-suite",
    "random-suite --max-size 64",
)


@pytest.fixture(scope="module")
def floor_python():
    exe = shutil.which(FLOOR)
    if exe is not None:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2], sep='.')"],
            capture_output=True,
            text=True,
        )
        if probe.returncode == 0 and probe.stdout.strip() == "3.10":
            return exe
    pytest.skip(f"no {FLOOR} on PATH that reports version 3.10")


@pytest.mark.parametrize("argv", PINNED)
def test_floor_python_matches_golden_digest(floor_python, argv):
    run = subprocess.run(
        [floor_python, "-m", "posetdet.cli", *argv.split()],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == dict(GOLDEN)[argv]
