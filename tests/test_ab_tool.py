"""tools/ab.py times two source trees side by side and refuses to time
them when they print differently, on stderr as on stdout."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetdet"


def _files(root):
    return {
        path: path.stat().st_mtime_ns
        for path in root.rglob("*")
        if ".git" not in path.relative_to(root).parts
    }


def _ab(base, change):
    before = _files(ROOT)
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(base), str(change),
         "--workload", "poly-chromatic", "--rounds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert _files(ROOT) == before  # nothing written into the repo
    return run


def test_ab_passes_a_tree_against_itself():
    run = _ab(PACKAGE, PACKAGE)
    assert run.returncode == 0, run.stderr
    assert "identical stdout, stderr and exit codes" in run.stdout
    # after the summary, one total ratio per invocation of the workload,
    # tutte at n = 2..5, in workload order
    lines = run.stdout.splitlines()
    assert lines[2].startswith("total ratio ")
    # the summary ends with the rounds the change won, out of all rounds
    wins, of, rounds = lines[2].split("; change faster in ")[1].split()[:3]
    assert of == "of" and 0 <= int(wins) <= int(rounds) == 1
    assert [line.split(": total ratio ")[0] for line in lines[3:]] == [
        f"verify tutte --n {n}" for n in (2, 3, 4, 5)
    ]


def test_ab_fails_on_a_change_to_stderr_alone(tmp_path):
    change = tmp_path / "posetdet"
    shutil.copytree(PACKAGE, change, ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "cli.py", "a") as fh:
        fh.write(
            "\n\n_quiet_emit = _emit\n\n\n"
            "def _emit(*args):\n"
            "    print('one extra line', file=sys.stderr)\n"
            "    return _quiet_emit(*args)\n"
        )
    run = _ab(PACKAGE, change)
    assert run.returncode == 1
    assert run.stderr.startswith("error: the two sides differ on ")
