"""Seeded fuzz test of the CLI's exit-code contract.

Every run of ``cli.main`` returns 0 (pass), 1 (violation) or 2 (bad
input) and never raises.  It returns 2 only with an ``error:`` line or a
hypothesis-failed report, and 1 only with a FAIL line.  The inputs are
mutations of every fixture file, malformed copies of them and the edge
values of the size flags.
Everything runs in-process: no processes or threads.
"""

import json
import math
import pathlib
import random

import pytest

from posetdet.cli import IDENTITY_NAMES, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SEED = 20260
MUTANTS_PER_FIXTURE = 60
DEEP = "[" * 100_000 + "1" + "]" * 100_000
# Each mutation maps a value to its replacement.  DROP removes the value
# from its container; RENAME renames a key, or repeats a list item.
DROP, RENAME = object(), object()
MUTATIONS = [
    DROP,
    RENAME,
    lambda v: [v],
    lambda v: str(v),
    lambda v: {"value": v},
    lambda v: None,
    lambda v: 10**12,
    lambda v: 10**100,
    lambda v: -1,
    lambda v: True,
    lambda v: 1.5,
    lambda v: math.nan,
    lambda v: DEEP,
]


def _places(doc, path=()):
    """Every (container path, key or index) below the root, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path, key
        yield from _places(value, path + (key,))


def _mutant(doc, rng) -> str:
    """JSON text of doc with one randomly chosen value mutated."""
    doc = json.loads(json.dumps(doc))
    path, key = rng.choice(list(_places(doc)))
    parent = doc
    for step in path:
        parent = parent[step]
    mutation = rng.choice(MUTATIONS)
    if mutation is DROP:
        del parent[key]
    elif mutation is RENAME and isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    elif mutation is RENAME:
        parent.insert(key, parent[key])
    else:
        parent[key] = mutation(parent[key])
    # json.dumps would recurse 100 000 deep, so the deep value is spliced in
    return json.dumps(doc).replace(json.dumps(DEEP), DEEP)


def _commands(name: str, path: str) -> list[list[str]]:
    if name.endswith("_poset.json"):
        return [
            ["mobius", path],
            ["verify", "main", "--poset", path, "--cases", "1"],
            ["verify", "lindstrom", "--poset", path, "--cases", "1"],
        ]
    return [["verify", "stembridge", "--digraph", path]]


def _assert_contract(capsys, argv):
    try:
        code = main(argv)
    except Exception as exc:  # the contract says no input raises
        pytest.fail(f"{argv} raised {exc!r}")
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert captured.err.startswith("error: ") or any(
            line.startswith("HYPOTHESIS-FAILED ") for line in lines
        ), argv
    if code == 1:
        assert any(line.startswith("FAIL ") for line in lines), argv
    return code, captured.err


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_mutated_fixture_files_keep_the_exit_code_contract(tmp_path, capsys, name):
    doc = json.loads((FIXTURES / name).read_text())
    rng = random.Random(f"{SEED}:{name}")
    path = tmp_path / name
    for _ in range(MUTANTS_PER_FIXTURE):
        path.write_text(_mutant(doc, rng))
        for argv in _commands(name, str(path)):
            _assert_contract(capsys, argv)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_malformed_fixture_files_exit_two_naming_the_file(tmp_path, capsys, name):
    # cut off halfway, and with a 5000-digit integer, past the parse limit
    text = (FIXTURES / name).read_text()
    path = tmp_path / name
    for bad in (text[: len(text) // 2], text.replace("{", '{"x": ' + "7" * 5000 + ", ", 1)):
        path.write_text(bad)
        for argv in _commands(name, str(path)):
            code, err = _assert_contract(capsys, argv)
            assert code == 2 and err.startswith(f"error: {path}: "), argv


SIZE_VALUES = ["0", "1", "64", "65", str(10**12)]
SIZE_RUNS = [
    ["verify", identity, flag, value, "--cases", "1"]
    for identity in IDENTITY_NAMES
    for flag in ("--n", "--k", "--max-size")
    for value in SIZE_VALUES
] + [["random-suite", "--max-size", value, "--cases", "1"] for value in SIZE_VALUES]


@pytest.mark.parametrize("argv", SIZE_RUNS, ids=" ".join)
def test_size_flag_edge_values_keep_the_exit_code_contract(capsys, argv):
    _assert_contract(capsys, argv)
