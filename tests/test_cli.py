import decimal
import hashlib
import json
import pathlib
import random
import time

import pytest

from posetdet import chromatic, cli, identities, lgv
from posetdet.arith import divisors
from posetdet.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from posetdet.matrix import SquareMatrix
from posetdet.poset import IncidenceFunction
from posetdet.ring import Poly
from test_traced_names import _load_spans

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_smith_set(capsys):
    code, out, err = run(capsys, "verify", "smith", "--set", "1,2,3,4")
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS smith det=4 predicted=4"]


def test_verify_smith_rejects_open_set(capsys):
    code, out, err = run(capsys, "verify", "smith", "--set", "2,4")
    assert code == EXIT_INPUT
    assert "factor closed" in err


def test_smith_set_value_above_the_factorisation_range_exits_two(capsys):
    # 1000003 is prime and quick to factorise: the bound, not the cost,
    # rejects it; the divisors of 10**6 sit at the bound and pass
    code, out, err = run(capsys, "verify", "smith", "--set", "1,1000003")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --set values must be at most 1000000\n"
    code, out, err = run(capsys, "verify", "smith", "--set", ",".join(map(str, divisors(10**6))))
    assert code == EXIT_OK
    assert out.startswith("PASS smith")


def test_smith_set_above_the_size_bound_exits_two_before_any_matrix(capsys, monkeypatch):
    # {1..241} is factor closed and its values are in range: only the count
    # rejects it, before the GCD matrix is built
    def no_matrix(values):
        raise AssertionError("built a GCD matrix before checking the --set size")

    monkeypatch.setattr(cli, "gcd_matrix", no_matrix)
    code, out, err = run(capsys, "verify", "smith", "--set", ",".join(map(str, range(1, 242))))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --set must name at most 240 integers\n"


# Every --set rejection in the order run_smith checks them; each set also
# carries every later fault, so only that order picks the message.
SMITH_SET_REJECTIONS = {
    "empty": ("", "--set must name at least one integer"),
    "too-many": (
        ",".join(map(str, [0, 0, 2 * 10**6, *range(7, 245)])),
        "--set must name at most 240 integers",
    ),
    "non-positive": ("0,0,2000000,7", "values must be positive"),
    "duplicate": ("7,7,2000000", "values must be distinct"),
    "above-range": ("7,2000000", "--set values must be at most 1000000"),
    "above-range-divisors-present": ("1,2,2000000", "--set values must be at most 1000000"),
    "not-factor-closed": (
        "1,4",
        "set is not factor closed: the totient-product identity needs every divisor present",
    ),
}


@pytest.mark.parametrize("value_set, message", SMITH_SET_REJECTIONS.values(), ids=SMITH_SET_REJECTIONS)
def test_smith_set_rejections_keep_their_messages_and_order(capsys, value_set, message):
    code, out, err = run(capsys, "verify", "smith", "--set", value_set)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


@pytest.mark.parametrize("value_set, message", SMITH_SET_REJECTIONS.values(), ids=SMITH_SET_REJECTIONS)
def test_smith_set_rejections_build_no_gcd_matrix(capsys, monkeypatch, value_set, message):
    def no_matrix(values):
        raise AssertionError(f"built a GCD matrix of {values!r} before rejecting the --set")

    monkeypatch.setattr(cli, "gcd_matrix", no_matrix)
    code, out, err = run(capsys, "verify", "smith", "--set", value_set)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


def test_verify_smith_set_prints_the_same_in_any_order(capsys):
    # the runner sorts the set, so a shuffled copy is eliminated in the
    # same ascending order and prints the same line
    ordered = divisors(55440)
    shuffled = list(ordered)
    random.Random("smith-order").shuffle(shuffled)
    assert shuffled != ordered
    sorted_run = run(capsys, "verify", "smith", "--set", ",".join(map(str, ordered)))
    shuffled_run = run(capsys, "verify", "smith", "--set", ",".join(map(str, shuffled)))
    assert shuffled_run == sorted_run
    assert sorted_run[0] == EXIT_OK and sorted_run[1].startswith("PASS smith det=")


def test_verify_smith_random_campaign(capsys):
    code, out, err = run(capsys, "verify", "smith", "--cases", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
    assert all(line.startswith("PASS smith") for line in out.splitlines())


def test_verify_daniloff_with_a_huge_exponent(capsys):
    # only the trivial quotient 1 has a k-th root, so det = 1 * 2 * 3 * 4
    code, out, err = run(capsys, "verify", "daniloff", "--n", "4", "--k", "1000000000000")
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS daniloff det=24 predicted=24"]


def test_verify_apostol(capsys):
    code, out, err = run(capsys, "verify", "apostol", "--n", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS apostol det=6 predicted=6"]


def test_verify_apostol_default_range(capsys):
    code, out, err = run(capsys, "verify", "apostol")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 10


def test_verify_daniloff(capsys):
    code, out, err = run(capsys, "verify", "daniloff", "--n", "4", "--k", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS daniloff det=24 predicted=24"]


def test_verify_tutte(capsys):
    code, out, err = run(capsys, "verify", "tutte", "--n", "3")
    assert code == EXIT_OK
    (line,) = out.splitlines()
    assert line.startswith("PASS tutte det=")
    assert "factored: q^10 (q - 1)^4 (q^2 - 2q)^1 / (q)^4 (q^2)^1" in line


def test_verify_tutte_machine(capsys):
    code, out, err = run(capsys, "verify", "tutte", "--n", "2", "--machine")
    assert code == EXIT_OK
    fields = out.splitlines()[0].split("\t")
    assert fields == ["tutte", "2", "q^3 - q^2", "q^3 - q^2", "pass"]


def test_verify_tutte_out_of_range(capsys):
    code, out, err = run(capsys, "verify", "tutte", "--n", "9")
    assert code == EXIT_INPUT


def test_verify_main_with_poset_file(capsys):
    code, out, err = run(
        capsys, "verify", "main", "--poset", fixture("vee_poset.json"), "--cases", "20"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 20
    assert all(line.startswith("PASS main") for line in lines)


def test_verify_main_random(capsys):
    code, out, err = run(capsys, "verify", "main", "--cases", "15", "--max-size", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 15


def test_verify_main_zero_cases_is_vacuous(capsys):
    # No bare newline either: no cases write nothing.
    for argv in (["verify", "main"], ["verify", "main", "--machine"]):
        code, out, err = run(capsys, *argv, "--cases", "0")
        assert (code, out, err) == (EXIT_OK, "", "")
    assert cli._emit([], False, "main", 0) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_emit_prints_every_report_of_list_and_tuple_cases_in_order(capsys):
    a = identities.make_report("a", 1, 2, 2)
    b = identities.make_report("b", 3, 4, 5)
    assert cli._emit([(a, b), [a]], False, "x", 9) == EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out == "PASS a det=2 predicted=2\nFAIL b det=4 predicted=5\nPASS a det=2 predicted=2\n"
    assert err == "reproduce: x seed=9 case=0\n"
    cli._emit([[a], (b,)], True, "x", 9)
    assert capsys.readouterr().out == "a\t1\t2\t2\tpass\nb\t3\t4\t5\tfail\n"


def test_emit_is_handed_cases_of_reports_never_a_bare_report(capsys, monkeypatch):
    # A report is itself a tuple, so a bare one would be read as six reports.
    seen = []
    emit = cli._emit

    def spy(cases, *rest):
        seen.extend(cases)
        return emit(cases, *rest)

    monkeypatch.setattr(cli, "_emit", spy)
    for argv in (
        ["verify", "main", "--cases", "3"],
        ["verify", "stembridge", "--cases", "2"],
        ["verify", "tutte", "--n", "3"],
        ["random-suite", "--cases", "3"],
    ):
        run(capsys, *argv)
    assert len(seen) == 9
    for case in seen:
        assert isinstance(case, (list, tuple)) and case
        assert all(isinstance(r, identities.IdentityReport) for r in case)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "apostol", "--n", "0"],
        ["verify", "daniloff", "--n", "0"],
        ["verify", "daniloff", "--k", "0"],
        ["verify", "tutte", "--n", "0"],
        ["verify", "main", "--max-size", "0"],
        ["verify", "three-layer", "--max-size", "-2"],
        ["verify", "main", "--cases", "-1"],
        ["verify", "main", "--cases", "0", "--max-size", "0"],
        ["random-suite", "--cases", "-1"],
        ["random-suite", "--max-size", "0"],
    ],
    ids=" ".join,
)
def test_size_arguments_below_minimum_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: --")


def test_verify_weighted(capsys):
    code, out, err = run(capsys, "verify", "weighted", "--cases", "8")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 8


def test_verify_lindstrom(capsys):
    code, out, err = run(capsys, "verify", "lindstrom", "--cases", "8")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 8


def test_verify_lindstrom_with_poset(capsys):
    code, out, err = run(
        capsys, "verify", "lindstrom", "--poset", fixture("vee_poset.json"), "--cases", "4"
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4


def test_verify_lindstrom_rejects_non_semilattice(capsys):
    code, out, err = run(
        capsys, "verify", "lindstrom", "--poset", fixture("bowtie_poset.json")
    )
    assert code == EXIT_INPUT
    assert "meet semilattice" in err


def test_verify_meet_closed(capsys):
    code, out, err = run(capsys, "verify", "meet-closed", "--cases", "6")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 6


def test_verify_stembridge_digraph_file(capsys):
    code, out, err = run(
        capsys, "verify", "stembridge", "--digraph", fixture("two_paths_digraph.json")
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["PASS stembridge det=6 predicted=6"]


def test_verify_stembridge_complete_dag_at_vertex_cap(capsys):
    # one source, one sink, an arc between every ordered pair: 2**16 paths
    path = fixture("complete18_digraph.json")
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["vertices"]
    indegree = [0] * n
    weight = {}
    for u, v, w in doc["arcs"]:
        indegree[v] += 1
        weight[(u, v)] = w
    # in a complete DAG the vertex of in-degree i is i-th in the order
    order = sorted(range(n), key=indegree.__getitem__)
    assert order[0] == doc["sources"][0] and order[-1] == doc["sinks"][0]
    ways = {order[0]: 1}
    for i, v in enumerate(order[1:], start=1):
        ways[v] = sum(ways[u] * weight[(u, v)] for u in order[:i])
    total = ways[order[-1]]
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", path)
    assert code == EXIT_OK
    assert out == f"PASS stembridge det={total} predicted={total}\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15c5f96b69814c21ece488fa6a633e2d257abab199929e67d73ce83cefa830c9"
    )


def test_verify_stembridge_hypothesis_failure(capsys):
    code, out, err = run(
        capsys, "verify", "stembridge", "--digraph", fixture("crossed_digraph.json")
    )
    assert code == EXIT_INPUT
    assert "HYPOTHESIS-FAILED" in out


def test_verify_stembridge_random(capsys):
    code, out, err = run(capsys, "verify", "stembridge", "--cases", "4")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 4


def test_verify_three_layer(capsys):
    code, out, err = run(capsys, "verify", "three-layer", "--cases", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5


def test_verify_definiteness(capsys):
    code, out, err = run(capsys, "verify", "definiteness", "--cases", "6")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 9  # 6 predicate cases plus 3 singular


def test_verify_definiteness_builds_each_product_matrix_once(capsys, monkeypatch):
    builds = 0
    build = identities.incidence_product_matrix

    def counting_build(p, f, g):
        nonlocal builds
        builds += 1
        return build(p, f, g)

    monkeypatch.setattr(identities, "incidence_product_matrix", counting_build)
    monkeypatch.setattr(cli, "incidence_product_matrix", counting_build)
    code, out, err = run(capsys, "verify", "definiteness")
    assert code == EXIT_OK
    assert len(out.splitlines()) == builds == 150  # 100 predicate cases plus 50 singular


@pytest.mark.parametrize(
    "builder, argv, calls",
    [
        ("_ramanujan_config", ["verify", "apostol", "--n", "5"], 1),
        ("_kth_root_config", ["verify", "daniloff", "--n", "5", "--k", "2"], 1),
        ("scale_by_source", ["verify", "weighted", "--cases", "3"], 6),
    ],
)
def test_divisor_and_weighted_runners_build_each_configuration_once(
    capsys, monkeypatch, builder, argv, calls
):
    # one configuration per check (two rescaled functions per weighted
    # case), counted however the runner reaches the builder
    count = 0
    build = getattr(identities, builder)

    def counting_build(*args):
        nonlocal count
        count += 1
        return build(*args)

    monkeypatch.setattr(identities, builder, counting_build)
    monkeypatch.setattr(cli, builder, counting_build, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert count == calls


def test_verify_definiteness_runs_under_the_benchmark_tracer(capsys):
    # the tracer wraps det_bareiss in a function of m alone, so the first
    # loop's single elimination per matrix, which records the minors, is
    # timed as det_and_leading_minors and only the singular cases count
    # as det_bareiss calls
    spans = _load_spans()
    rec = spans.Recorder()
    with spans.Tracing(rec):
        code, out, err = run(capsys, "verify", "definiteness", "--cases", "6")
    assert code == EXIT_OK and len(out.splitlines()) == 9
    assert rec.counts["matrix.det_bareiss.calls"] == 3
    assert [name for name, *_ in rec.spans].count("matrix.det_and_leading_minors") == 6


def test_random_suite_builds_each_product_matrix_once(capsys, monkeypatch):
    builds = 0
    build = identities.incidence_product_matrix

    def counting_build(p, f, g):
        nonlocal builds
        builds += 1
        return build(p, f, g)

    monkeypatch.setattr(identities, "incidence_product_matrix", counting_build)
    monkeypatch.setattr(cli, "incidence_product_matrix", counting_build)
    code, out, err = run(capsys, "random-suite", "--cases", "30")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "30/30 pass"
    assert builds == 30


def test_machine_mode_fields(capsys):
    code, out, err = run(
        capsys, "verify", "smith", "--set", "1,2,3,4", "--machine"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["smith\t4\t4\t4\tpass"]


def test_mobius_table_chain(capsys):
    code, out, err = run(capsys, "mobius", fixture("chain3_poset.json"))
    assert code == EXIT_OK
    assert out.splitlines() == [
        "mu(x,x) = 1",
        "mu(x,y) = -1",
        "mu(x,z) = 0",
        "mu(y,y) = 1",
        "mu(y,z) = -1",
        "mu(z,z) = 1",
    ]


def test_mobius_table_vee(capsys):
    code, out, err = run(capsys, "mobius", fixture("vee_poset.json"))
    assert code == EXIT_OK
    assert sorted(out.splitlines()) == sorted(
        [
            "mu(a,a) = 1",
            "mu(a,b) = -1",
            "mu(a,c) = -1",
            "mu(b,b) = 1",
            "mu(c,c) = 1",
        ]
    )


def test_mobius_missing_file(capsys):
    code, out, err = run(capsys, "mobius", "nope.json")
    assert code == EXIT_INPUT


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "mobius", str(bad))
    assert code == EXIT_INPUT
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"labels": ["a"]}))
    code, out, err = run(capsys, "mobius", str(bad2))
    assert code == EXIT_INPUT


def test_cyclic_poset_file(tmp_path, capsys):
    doc = {"labels": ["a", "b"], "covers": [[0, 1], [1, 0]]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "main", "--poset", str(path))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", [["mobius"], ["verify", "main", "--poset"]], ids=" ".join)
def test_oversized_poset_file_is_rejected_before_the_relation(tmp_path, capsys, command):
    # 65 labels whose covers form one cycle: the size check comes first
    n = 65
    doc = {"labels": [f"e{i}" for i in range(n)], "covers": [[i, (i + 1) % n] for i in range(n)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: poset too large (65 > 64)\n"


@pytest.mark.parametrize("value_set", ["0,1", "-2,1"])
def test_smith_set_with_nonpositive_value_exits_two(capsys, value_set):
    code, out, err = run(capsys, "verify", "smith", f"--set={value_set}")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: values must be positive\n"


def test_bad_set_argument(capsys):
    code, out, err = run(capsys, "verify", "smith", "--set", "1,x")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("value_set", ["", ",", " , "])
def test_empty_set_argument_is_rejected(capsys, value_set):
    # an empty --set is a bad value, not "unset": no random campaign runs
    code, out, err = run(capsys, "verify", "smith", "--set", value_set)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: --set")


@pytest.mark.parametrize(
    "doc",
    [
        {"labels": ["a", "b"], "covers": [["0", 1]]},
        {"labels": ["a", "b"], "covers": [[True, 1]]},
        {"labels": "ab", "covers": []},
        {"labels": ["a", "a"], "covers": []},
    ],
    ids=["string-index", "bool-index", "string-labels", "repeated-labels"],
)
def test_mistyped_poset_file_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(doc))
    for argv in (["mobius", str(path)], ["verify", "main", "--poset", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [["mobius"], ["verify", "main", "--poset"], ["verify", "stembridge", "--digraph"]],
    ids=" ".join,
)
def test_deeply_nested_json_file_exits_two(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *command, str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


GOOD_DIGRAPH = {
    "vertices": 4,
    "arcs": [[0, 2, 2], [0, 3, 5], [1, 3, 3]],
    "sources": [0, 1],
    "sinks": [2, 3],
}


@pytest.mark.parametrize(
    "change",
    [
        {"arcs": 5},
        {"arcs": [5]},
        {"vertices": "3"},
        {"vertices": 2.0},
        {"vertices": True},
        {"arcs": [["0", 2, 2]]},
        {"arcs": [[0, 2, 2], [True, 3, 3]]},
        {"sources": 0},
        {"sources": ["0"]},
        {"sinks": [2, 3.0]},
        {"arcs": [[0, 2, [1, "a"]]]},
        {"arcs": [[0, 2, [True, 1]]]},
    ],
    ids=lambda change: json.dumps(change),
)
def test_mistyped_digraph_file_exits_two(tmp_path, capsys, change):
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({**GOOD_DIGRAPH, **change}))
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


def test_stembridge_digraph_above_vertex_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "digraph.json"
    path.write_text(
        json.dumps({"vertices": 19, "arcs": [[0, 18, 1]], "sources": [0], "sinks": [18]})
    )
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: digraphs are capped at 18 vertices\n"


def test_stembridge_digraph_file_is_capped_before_any_vertex_table(tmp_path, capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("built a digraph before checking the vertex count")

    monkeypatch.setattr(lgv, "WeightedDigraph", no_table)
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps({"vertices": 10**9, "arcs": [], "sources": [0], "sinks": [1]}))
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: digraphs are capped at 18 vertices\n"


def test_stembridge_dense_digraph_at_the_vertex_cap_fails_the_hypothesis(tmp_path, capsys):
    # every forward arc on 18 vertices, four sources and four sinks: the
    # families of every sink permutation, found in one sweep
    arcs = [[u, v, 1] for u in range(18) for v in range(u + 1, 18)]
    doc = {"vertices": 18, "arcs": arcs, "sources": [0, 1, 2, 3], "sinks": [14, 15, 16, 17]}
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert time.perf_counter() - started < 10
    assert code == EXIT_INPUT
    assert out.startswith("HYPOTHESIS-FAILED stembridge")
    assert err == ""


def test_det_above_the_int_to_str_digit_limit_is_printed(tmp_path, capsys):
    # five arcs of weight 10**4000 (4001 digits each, inside the parse
    # limit) on a chain: the det 10**20000 is longer than str(int) renders
    path = tmp_path / "digraph.json"
    arcs = [[i, i + 1, 10**4000] for i in range(5)]
    path.write_text(json.dumps({"vertices": 6, "arcs": arcs, "sources": [0], "sinks": [5]}))
    det = str(decimal.Decimal(10**20000))
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_OK
    assert out == f"PASS stembridge det={det} predicted={det}\n"
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path), "--machine")
    assert code == EXIT_OK
    assert out == f"stembridge\t1\t{det}\t{det}\tpass\n"
    # the parse side keeps its limit: a 5000-digit weight is bad input
    path.write_text(
        '{"vertices": 2, "arcs": [[0, 1, %s]], "sources": [0], "sinks": [1]}' % ("7" * 5000)
    )
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: Exceeds the limit (4300 digits)")


def test_stembridge_digraph_file_with_polynomial_weights(tmp_path, capsys):
    # the README's Z[q] example: arc weights q, 5 and 1 + 2q
    doc = {
        "vertices": 4,
        "arcs": [[0, 2, [0, 1]], [0, 3, [5]], [1, 3, [1, 2]]],
        "sources": [0, 1],
        "sinks": [2, 3],
    }
    path = tmp_path / "digraph.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_OK
    assert out == "PASS stembridge det=2q^2 + q predicted=2q^2 + q\n"
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path), "--machine")
    assert code == EXIT_OK
    assert out == "stembridge\t2\t2q^2 + q\t2q^2 + q\tpass\n"
    doc["arcs"][1][2] = 5
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "stembridge", "--digraph", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: arc weights must share one ring tag\n"


@pytest.mark.parametrize("cases", [None, "0"])
def test_three_layer_max_size_above_family_cap_is_rejected(capsys, cases):
    argv = ["verify", "three-layer", "--max-size", "65"]
    if cases is not None:
        argv += ["--cases", cases]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --max-size must be at most 64\n"
    code, out, err = run(capsys, "verify", "three-layer", "--max-size", "64", "--cases", "2")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--poset", ""],
        ["verify", "lindstrom", "--poset", ""],
        ["verify", "stembridge", "--digraph", ""],
    ],
    ids=" ".join,
)
def test_empty_file_argument_is_not_unset(capsys, argv):
    # an empty path is a missing file, not a request for the random campaign
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main", "--max-size", "400", "--cases", "1", "--seed", "1"],
        ["verify", "main", "--max-size", "65"],
        ["verify", "lindstrom", "--max-size", "65", "--cases", "0"],
        ["random-suite", "--max-size", "65"],
        ["random-suite", "--max-size", "65", "--cases", "0"],
    ],
    ids=" ".join,
)
def test_max_size_above_poset_cap_is_rejected_before_any_draw(capsys, monkeypatch, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random poset before checking --max-size")

    monkeypatch.setattr(cli.randgen, "random_poset", no_draw)
    monkeypatch.setattr(cli.randgen, "random_meet_semilattice", no_draw)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --max-size must be at most 64\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "apostol", "--n", "1000"],
        ["verify", "daniloff", "--n", "65", "--k", "2"],
        # rejected before any O(n) table is built
        ["verify", "apostol", "--n", "1000000000000"],
        ["verify", "daniloff", "--n", "1000000000", "--k", "2"],
    ],
    ids=" ".join,
)
def test_divisor_order_above_poset_cap_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: poset too large ({argv[3]} > 64)\n"


def test_semilattice_sampler_giving_up_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.randgen, "SEMILATTICE_TRIES", 1)
    # only sizes up to REJECTION_MAX_SIZE are drawn by rejection; at seed 42
    # the 50 draws include a 5-element one that one try does not accept
    code, out, err = run(capsys, "verify", "lindstrom", "--max-size", "6", "--cases", "50")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: could not sample a meet semilattice on ")


def test_verify_lindstrom_at_the_poset_cap_is_grown_not_rejected(capsys, monkeypatch):
    sampler = cli.randgen.random_meet_semilattice

    def rejection(rng, n):
        assert n <= cli.randgen.REJECTION_MAX_SIZE, f"rejection sampling {n} elements"
        return sampler(rng, n)

    monkeypatch.setattr(cli.randgen, "random_meet_semilattice", rejection)
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "lindstrom", "--max-size", "64", "--cases", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
    assert time.perf_counter() - started < 10


def _bump_identity_weight(d, weights):
    identity = tuple(range(len(d.sources)))
    return {**weights, identity: weights.get(identity, 0) + 1}


def _double_incidence(p, f):
    return IncidenceFunction(p, {pair: 2 * v for pair, v in f.items()})


def _identity_on_three_elements(p, m):
    return SquareMatrix.identity(p.n) if p.n == 3 else m


# Each mutation breaks one producer of a report; the verifier must then
# report FAIL, name a reproduction and exit 1.  A callable bump maps the
# producer's first argument and result to the mutated result.
MUTATIONS = [
    (cli, "totient_product", 1, ["verify", "smith", "--set", "1,2,3,4"]),
    (lgv, "nonintersecting_weights", _bump_identity_weight, ["verify", "stembridge", "--cases", "5"]),
    (cli, "nonintersecting_weights", _bump_identity_weight, ["verify", "three-layer"]),
    # breaks only the family count: weight 2 on every arc of the count sweep
    (cli, "zeta_function", _double_incidence, ["verify", "three-layer"]),
    (chromatic, "chromatic_join_det", Poly((1,)), ["verify", "tutte", "--n", "3"]),
    (cli, "meet_matrix_det", 1, ["verify", "meet-closed"]),
    (cli, "incidence_product_det", 1, ["random-suite"]),
    # reaches only the transpose factorization check
    (cli, "incidence_matrix", _identity_on_three_elements, ["random-suite"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "main"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "weighted"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "apostol", "--n", "12"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "daniloff", "--n", "12"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "three-layer"]),
    (cli, "product_matrix_invertible", lambda p, out: not out, ["verify", "definiteness"]),
    # reaches only the check of the diagonal predicate against the minors
    (cli, "product_matrix_positive_definite", lambda m, out: not out, ["verify", "definiteness"]),
]


def _mutation_ids():
    """module.attr, with the argv after the first entry for that producer."""
    ids = []
    for m, attr, _, argv in MUTATIONS:
        name = f"{m.__name__}.{attr}"
        ids.append(f"{name} {' '.join(argv[1:])}" if name in ids else name)
    return ids


@pytest.mark.parametrize("module, attr, bump, argv", MUTATIONS, ids=_mutation_ids())
def test_mutation_is_reported_as_a_violation(capsys, monkeypatch, module, attr, bump, argv):
    original = getattr(module, attr)

    def mutated(*args):
        out = original(*args)
        return bump(args[0], out) if callable(bump) else out + bump

    monkeypatch.setattr(module, attr, mutated)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VIOLATION
    assert any(line.startswith("FAIL ") for line in out.splitlines())
    assert "reproduce: " in err
    # no FAIL shows equal sides; read from the tab-separated fields, as
    # the text of a polynomial holds spaces
    code, out, err = run(capsys, *argv, "--machine")
    fails = [line.split("\t") for line in out.splitlines() if line.endswith("\tfail")]
    assert fails and all(det != predicted for _, _, det, predicted, _ in fails)


def test_lower_closed_cross_check_mismatch_prints_the_prediction(capsys, monkeypatch):
    # the det agrees with meet_closed_det, so only the cross-check fails
    original = cli.meet_matrix_det
    monkeypatch.setattr(cli, "meet_matrix_det", lambda p, f: original(p, f) + 1)
    code, out, err = run(capsys, "verify", "meet-closed")
    assert code == EXIT_VIOLATION
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails[0] == "FAIL meet-closed det=- predicted=1 (lower-closed cross-check mismatch)"


def test_a_report_failing_two_side_checks_names_both(capsys, monkeypatch):
    # case 1 of the suite has a 3-element poset: both its invertibility
    # check and its transpose factorization check fail, in that order
    invertible, incidence = cli.product_matrix_invertible, cli.incidence_matrix
    monkeypatch.setattr(cli, "product_matrix_invertible", lambda *args: not invertible(*args))
    monkeypatch.setattr(
        cli, "incidence_matrix", lambda p, f: _identity_on_three_elements(p, incidence(p, f))
    )
    code, out, err = run(capsys, "random-suite", "--cases", "30")
    assert code == EXIT_VIOLATION
    assert out.splitlines()[2] == (
        "FAIL suite-main det=- predicted=1600 (invertibility predicate disagrees with det)"
        " (transpose factorization mismatch)"
    )

def _meet_det_plus_one_on_odd_sizes(p, det):
    return det + 1 if p.n % 2 else det


# (mutated cli producer, bump, sha256 of stdout, failing cases, summary);
# both runs are `random-suite --cases 30` at seed 42.
SUITE_MUTATIONS = [
    (
        "meet_matrix_det",
        _meet_det_plus_one_on_odd_sizes,
        "33911e2118342b1491551a6845dd0feb71e05423251c0e131ad6d9daaac5c126",
        (0, 1, 3, 4, 6, 14, 15, 17, 18, 21, 22, 24, 26, 28),
        "16/30 pass",
    ),
    (
        "incidence_matrix",
        _identity_on_three_elements,
        "da759a072756dcdf4c206d831bab04a19e820f68fd50b93ab14e0ac660efeb09",
        (1, 25),
        "28/30 pass",
    ),
]


@pytest.mark.parametrize(
    "attr, bump, digest, failing, summary",
    SUITE_MUTATIONS,
    ids=[attr for attr, *_ in SUITE_MUTATIONS],
)
def test_mutated_random_suite_output_is_pinned(
    capsys, monkeypatch, attr, bump, digest, failing, summary
):
    original = getattr(cli, attr)
    monkeypatch.setattr(cli, attr, lambda p, x: bump(p, original(p, x)))
    code, out, err = run(capsys, "random-suite", "--cases", "30")
    assert code == EXIT_VIOLATION
    assert out.splitlines()[-1] == summary
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == "".join(f"reproduce: random-suite seed=42 case={c}\n" for c in failing)


def test_failing_singular_definiteness_case_names_the_family(capsys, monkeypatch):
    # without the forced zero diagonal entry the singular cases' dets are
    # nonzero, so they FAIL against the predicted 0
    draw = cli.randgen.random_symmetric_pair
    monkeypatch.setattr(
        cli.randgen, "random_symmetric_pair", lambda rng, p, force_zero_diag=False: draw(rng, p)
    )
    code, out, err = run(capsys, "verify", "definiteness", "--cases", "4")
    assert code == EXIT_VIOLATION
    assert "FAIL definiteness-singular" in out
    assert err == (
        "reproduce: definiteness seed=42 case=4\n"
        "reproduce: definiteness seed=42 case=5\n"
    )


def test_unknown_identity_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-identity"])
    assert exc.value.code == 2


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    argvs = (
        ["verify", "no-such-identity"],
        ["verify", "smith", "--set", "1,2,3,4"],
        ["random-suite", "--cases", "3"],
    )

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    imported = cli._PARSER
    alone = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        alone.append(outcome(argv))
    assert [code for code, _, _ in alone] == [2, EXIT_OK, EXIT_OK]
    assert "invalid choice: 'no-such-identity'" in alone[0][2]
    assert alone[1][1] == "PASS smith det=4 predicted=4\n"
    assert alone[2][1].endswith("3/3 pass\n")

    def no_parser():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "_PARSER", imported)
    monkeypatch.setattr(cli, "_build_parser", no_parser)
    assert [outcome(argv) for argv in argvs] == alone


def test_random_suite(capsys):
    code, out, err = run(capsys, "random-suite", "--cases", "5", "--max-size", "5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[-1] == "5/5 pass"
    assert len(lines) == 11  # two report lines per case plus the summary


def test_random_suite_zero_cases(capsys):
    code, out, err = run(capsys, "random-suite", "--cases", "0")
    assert code == EXIT_OK
    assert out.splitlines() == ["0/0 pass"]


def test_random_suite_is_deterministic(capsys):
    _, first, _ = run(capsys, "random-suite", "--cases", "4", "--seed", "11")
    _, second, _ = run(capsys, "random-suite", "--cases", "4", "--seed", "11")
    assert first == second
    _, third, _ = run(capsys, "random-suite", "--cases", "4", "--seed", "12")
    assert third != first


def test_verify_output_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "main", "--cases", "10", "--seed", "5")
    _, second, _ = run(capsys, "verify", "main", "--cases", "10", "--seed", "5")
    assert first == second


# Each family's defaults, written out: at seed 42 the bare run and the run
# that names them print the same reports.
DEFAULT_PINS = [
    (["main"], ["--cases", "200", "--max-size", "7"]),
    (["weighted"], ["--cases", "100", "--max-size", "7"]),
    (["lindstrom"], ["--cases", "100", "--max-size", "6"]),
    (["three-layer"], ["--cases", "30", "--max-size", "5"]),
    (["definiteness"], ["--cases", "100", "--max-size", "6"]),
    (["meet-closed"], ["--cases", "50"]),
    (["smith"], ["--cases", "50"]),
    (["stembridge"], ["--cases", "10"]),
    (["tutte"], ["--n", "3"]),
    (["main", "--poset", fixture("vee_poset.json")], ["--cases", "20"]),
    (["lindstrom", "--poset", fixture("chain3_poset.json")], ["--cases", "20"]),
]


@pytest.mark.parametrize(
    "bare, named",
    DEFAULT_PINS,
    ids=[" ".join(pathlib.Path(a).name for a in bare) for bare, _ in DEFAULT_PINS],
)
def test_bare_run_prints_what_its_named_defaults_print(capsys, bare, named):
    code, out, err = run(capsys, "verify", *bare)
    assert code == EXIT_OK
    assert out != ""
    assert run(capsys, "verify", *bare, *named) == (code, out, err)
    if "--poset" in bare:
        assert len(out.splitlines()) == 20


def test_bare_divisor_families_run_their_default_ranges_in_order(capsys):
    _, apostol, _ = run(capsys, "verify", "apostol")
    assert apostol == "".join(
        run(capsys, "verify", "apostol", "--n", str(n))[1] for n in range(1, 11)
    )
    _, daniloff, _ = run(capsys, "verify", "daniloff")
    assert daniloff == "".join(
        run(capsys, "verify", "daniloff", "--n", str(n), "--k", str(k))[1]
        for n in range(1, 11)
        for k in (1, 2, 3)
    )


@pytest.mark.parametrize("family", ["weighted", "stembridge"])
def test_families_that_read_no_poset_file_ignore_it(capsys, family):
    # only main and lindstrom read --poset, and only they draw 20 cases for it
    bare = run(capsys, "verify", family)
    assert run(capsys, "verify", family, "--poset", fixture("vee_poset.json")) == bare
    assert len(bare[1].splitlines()) == {"weighted": 100, "stembridge": 10}[family]


def test_n_help_names_the_enforced_ranges(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "apostol and daniloff 1..64" in text
    assert "tutte 2..6" in text
    # every family default, as RUNNERS holds it, in the help of its flag;
    # the last mention of a flag is its help entry, after the usage line
    def entry(flag, next_flag):
        return text[text.rindex(flag) : text.rindex(next_flag)]

    n_help = entry("--n N", "--k K")
    k_help = entry("--k K", "--set VALUE_SET")
    cases_help = entry("--cases CASES", "--max-size MAX_SIZE")
    max_size_help = entry("--max-size MAX_SIZE", "--machine")
    assert "apostol 1..10" in n_help
    assert "daniloff 1..10" in n_help
    assert "tutte 3)" in n_help
    assert "daniloff 1..3" in k_help
    assert "main 200 or 20 with --poset;" in cases_help
    assert "weighted 100;" in cases_help
    assert "lindstrom 100 or 20 with --poset;" in cases_help
    assert "meet-closed 50;" in cases_help
    assert "smith 50;" in cases_help
    assert "stembridge 10;" in cases_help
    assert "three-layer 30;" in cases_help
    assert "definiteness 100)" in cases_help
    assert "main 7;" in max_size_help
    assert "weighted 7;" in max_size_help
    assert "lindstrom 6;" in max_size_help
    assert "three-layer 5;" in max_size_help
    assert "definiteness 6)" in max_size_help


def test_verify_help_is_read_from_the_family_table(capsys, monkeypatch):
    monkeypatch.setitem(cli.RUNNERS, "smith", (cli.run_smith, {"cases": 7}))
    monkeypatch.setitem(cli.RUNNERS, "tutte", (cli.run_tutte, {"ns": (2, 4, 6)}))
    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "smith 7;" in text
    assert "tutte 2, 4, 6)" in text
