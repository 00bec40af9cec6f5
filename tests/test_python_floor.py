"""The oldest Python that pyproject.toml accepts, and the newest tested,
reproduce the pinned output.

pyproject.toml declares ``requires-python >= 3.10``.  For each of
``python3.10`` and ``python3.13``, when that name on PATH reports its
version, each pinned invocation runs under it in a subprocess, with
``PYTHONPATH`` set to ``src``, and the sha256 of its stdout must equal its
digest in ``test_golden.GOLDEN``.  Otherwise that interpreter's cases are
skipped; put it on PATH to run them.
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
VERSIONS = ("3.10", "3.13")
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


@pytest.fixture(scope="module", params=VERSIONS)
def python(request):
    version = request.param
    exe = shutil.which("python" + version)
    if exe is not None:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(*sys.version_info[:2], sep='.')"],
            capture_output=True,
            text=True,
        )
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe
    pytest.skip(f"no python{version} on PATH that reports version {version}")


@pytest.mark.parametrize("argv", PINNED)
def test_python_matches_golden_digest(python, argv):
    run = subprocess.run(
        [python, "-m", "posetdet.cli", *argv.split()],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=300,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == dict(GOLDEN)[argv]
