"""The package needs nothing beyond the standard library, and importing it
loads no module it does not use."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posetdet"


def _absolute_imports(path):
    """The top-level module of every absolute import in the file, lazy
    imports inside functions included."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_from_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {name for path in sources for name in _absolute_imports(path)}
    assert found  # the walk did see the imports
    assert sorted(found - sys.stdlib_module_names) == []


def test_the_project_declares_no_dependencies():
    # a text check: tomllib is not in Python 3.10
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, posetdet; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
        check=True,
    )
    assert run.stdout == "[]\n"
