import json
import pathlib
import random

import pytest

import posetdet.lgv as lgv
from posetdet.cli import EXIT_OK, main
from posetdet.identities import (
    HYPOTHESIS_FAILED,
    incidence_product_det,
    incidence_product_matrix,
)
from posetdet.lgv import (
    PathFamily,
    WeightedDigraph,
    digraph_from_dict,
    digraph_to_dict,
    family_weight,
    nonintersecting_families,
    nonintersecting_weights,
    path_weight,
    path_weight_sum,
    path_weight_sum_dp,
    path_weight_sums,
    stembridge_matrix,
    three_layer_digraph,
    verify_stembridge,
)
from posetdet.matrix import SquareMatrix
from posetdet.poset import IncidenceFunction, Poset, poset_from_dict, zeta_function
from posetdet.randgen import (
    random_hypothesis_digraph,
    random_incidence,
    random_poset,
)
from posetdet.ring import Poly, TagMismatchError, zero_like

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def diamond():
    """Two parallel two-arc routes from 0 to 3, unit weights."""
    arcs = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
    return WeightedDigraph(4, arcs, sources=(0,), sinks=(3,))


def two_paths():
    """Two sources, two sinks, direct arcs; the swap family is impossible."""
    arcs = [(0, 2, 2), (0, 3, 5), (1, 3, 3)]
    return WeightedDigraph(4, arcs, sources=(0, 1), sinks=(2, 3))


def shared_middle():
    """Both routes must pass one middle vertex, so no family is disjoint."""
    arcs = [
        (0, 2, 1),
        (1, 2, 1),
        (2, 3, 1),
        (2, 4, 1),
    ]
    return WeightedDigraph(5, arcs, sources=(0, 1), sinks=(3, 4))


def random_dag(rng, n, density=0.4):
    arcs = [
        (u, v, rng.randint(-3, 3))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return WeightedDigraph(n, arcs)


def test_digraph_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1), (1, 0, 1)])  # cycle
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1), (0, 1, 2)])  # duplicate
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1)], sources=(0,), sinks=(0,))
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1)], sources=(0,), sinks=())
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 1, 1), (0, 1, Poly((1,)))])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [(0, 3, 1)])


def test_digraph_zero_is_read_from_the_weights():
    for d in (WeightedDigraph(2, [(0, 1, 3)]), WeightedDigraph(2, [])):
        assert type(d.zero) is int and d.zero == 0
    d = WeightedDigraph(2, [(0, 1, Poly((0, 1)))])
    assert type(d.zero) is Poly and d.zero == Poly()


def test_path_weight():
    d = WeightedDigraph(3, [(0, 1, 2), (1, 2, 3)])
    assert path_weight(d, (0,)) == 1
    assert path_weight(d, (0, 1, 2)) == 6
    with pytest.raises(ValueError):
        path_weight(d, (0, 2))


def test_path_weight_sum_basics():
    d = diamond()
    assert path_weight_sum(d, 0, 0) == 1  # the empty path
    assert path_weight_sum(d, 3, 0) == 0  # no path
    assert path_weight_sum(d, 0, 3) == 2  # both routes


def test_path_weight_sum_matches_dp():
    rng = random.Random("dp")
    for _ in range(50):
        d = random_dag(rng, rng.randint(1, 8))
        for u in range(d.n):
            for v in range(d.n):
                assert path_weight_sum(d, u, v) == path_weight_sum_dp(d, u, v)


def test_path_weight_sums_count_paths_through_other_terminals():
    rng = random.Random("row-dp")
    through = 0
    for _ in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, n // 2)
        terminals = rng.sample(range(n), 2 * k)
        arcs = random_dag(rng, n, density=0.5).arcs()
        d = WeightedDigraph(n, arcs, sources=terminals[:k], sinks=terminals[k:])
        for s in d.sources:
            sums = path_weight_sums(d, s)
            for t in range(d.n):
                if t in sums:
                    assert sums[t] == path_weight_sum(d, s, t)
                else:
                    # an unreached vertex is not a key
                    assert not list(lgv.iter_paths(d, s, t))
            for t in d.sinks:
                through += any(
                    x in terminals for path in lgv.iter_paths(d, s, t) for x in path[1:-1]
                )
    # the draws have paths that pass through another source or sink
    assert through >= 20


def test_stembridge_matrix_runs_one_pass_per_source(monkeypatch):
    passes = []
    real = lgv.path_weight_sums

    def counted(d, u):
        passes.append(u)
        return real(d, u)

    monkeypatch.setattr(lgv, "path_weight_sums", counted)
    p = random_poset(random.Random("rows"), 6)
    d = three_layer_digraph(p, zeta_function(p), zeta_function(p))
    stembridge_matrix(d)
    assert passes == list(d.sources)


def _enumerated_matrix(d):
    return SquareMatrix(
        [[path_weight_sum(d, s, t) for t in d.sinks] for s in d.sources]
    )


def _with_poly_weights(d):
    """Same digraph with each integer weight w replaced by q + w."""
    arcs = [(u, v, Poly((w, 1))) for u, v, w in d.arcs()]
    return WeightedDigraph(d.n, arcs, sources=d.sources, sinks=d.sinks)


def test_stembridge_matrix_matches_enumeration():
    rng = random.Random("engine")
    terminals = set()
    for _ in range(40):
        d = random_hypothesis_digraph(rng)
        terminals.add(len(d.sources))
        for g in (d, _with_poly_weights(d)):
            assert stembridge_matrix(g) == _enumerated_matrix(g)
    assert terminals == {1, 2, 3}


def test_stembridge_runs_without_enumerated_path_sums(monkeypatch):
    def oracle_only(*args):
        raise AssertionError("path_weight_sum is the test oracle only")

    monkeypatch.setattr(lgv, "path_weight_sum", oracle_only)
    rng = random.Random("flip")
    for _ in range(10):
        d = random_hypothesis_digraph(rng)
        assert verify_stembridge(d).passed
        assert verify_stembridge(_with_poly_weights(d)).passed
    assert main(["verify", "three-layer", "--cases", "5"]) == EXIT_OK


def test_stembridge_matrix_diamond():
    assert stembridge_matrix(diamond()) == SquareMatrix([[2]])


def test_stembridge_matrix_disconnected():
    d = WeightedDigraph(2, [], sources=(0,), sinks=(1,))
    assert stembridge_matrix(d) == SquareMatrix([[0]])


def test_nonintersecting_families_single_terminal():
    d = diamond()
    fams = nonintersecting_families(d)
    assert len(fams) == 2
    assert {f.paths[0] for f in fams} == {(0, 1, 3), (0, 2, 3)}
    assert all(f.perm == (0,) for f in fams)


def test_path_family_is_a_read_only_record():
    fam = PathFamily(perm=(1, 0), paths=((0, 3), (1, 2)))
    assert (fam.perm, fam.paths) == ((1, 0), ((0, 3), (1, 2)))
    same = PathFamily(perm=(1, 0), paths=((0, 3), (1, 2)))
    assert fam == same and hash(fam) == hash(same)
    assert fam != PathFamily(perm=(0, 1), paths=((0, 2), (1, 3)))
    assert len({fam, same}) == 1
    for field in ("perm", "paths"):
        with pytest.raises(AttributeError):
            setattr(fam, field, ())
    assert fam.perm == (1, 0)


def test_nonintersecting_families_shared_middle_is_empty():
    assert nonintersecting_families(shared_middle()) == []


def test_families_are_vertex_disjoint_and_match_perm():
    rng = random.Random("disjoint")
    for _ in range(20):
        d = random_hypothesis_digraph(rng)
        for fam in nonintersecting_families(d):
            seen = set()
            for path in fam.paths:
                assert not (seen & set(path))
                seen |= set(path)
            for i, path in enumerate(fam.paths):
                assert path[0] == d.sources[i]
                assert path[-1] == d.sinks[fam.perm[i]]


def test_all_permutation_vertex_cap():
    n = 20
    d = WeightedDigraph(n, [(0, 1, 1)], sources=(0,), sinks=(1,))
    with pytest.raises(ValueError):
        nonintersecting_families(d)


def test_nonintersecting_weights_need_sources():
    with pytest.raises(ValueError, match="no designated sources"):
        nonintersecting_weights(WeightedDigraph(2, [(0, 1, 1)]))


def test_digraph_from_dict_caps_the_vertex_count():
    # the input policy for digraph files; the sweep itself has no cap
    doc = {"vertices": 19, "arcs": [[0, 1, 1]], "sources": [0], "sinks": [1]}
    with pytest.raises(ValueError, match="capped at 18 vertices"):
        digraph_from_dict(doc)
    d = WeightedDigraph(19, [(0, 1, 1)], sources=(0,), sinks=(1,))
    assert nonintersecting_weights(d) == {(0,): 1}


def _family_weight_sums(d):
    """Per-permutation sums of family_weight over the enumerated families."""
    sums = {}
    for f in nonintersecting_families(d):
        sums[f.perm] = sums.get(f.perm, zero_like(d.one)) + family_weight(d, f)
    return sums


def test_nonintersecting_weights_match_enumeration():
    rng = random.Random("weights-vs-families")
    ks, several_perms, zero_sums = set(), 0, 0
    for _ in range(200):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(3, n // 2))
        # sources from the first half and sinks from the second, each in
        # a random order, so that most draws have paths to cross
        sources = rng.sample(range(n // 2), k)
        sinks = rng.sample(range(n - n // 2, n), k)
        arcs = random_dag(rng, n, density=rng.choice((0.3, 0.5, 0.7))).arcs()
        d = WeightedDigraph(n, arcs, sources=sources, sinks=sinks)
        ks.add(k)
        weights = nonintersecting_weights(d)
        assert weights == _family_weight_sums(d)
        poly = _with_poly_weights(d)
        assert nonintersecting_weights(poly) == _family_weight_sums(poly)
        several_perms += len(weights) > 1
        zero_sums += 0 in weights.values()
    # the draws reach every terminal count, mixed permutations and
    # permutations whose weights cancel
    assert ks == {1, 2, 3}
    assert several_perms >= 20 and zero_sums >= 20


def test_sweep_matches_enumeration_with_terminals_anywhere():
    rng = random.Random("sweep-vs-families")
    ks, sink_first, realised = set(), 0, 0
    for _ in range(300):
        n = rng.randint(2, 11)
        k = rng.randint(1, min(4, n // 2))
        # relabel the vertices, so the order is not the index order, and
        # draw the terminals from all of them
        label = rng.sample(range(n), n)
        dag = random_dag(rng, n, density=rng.choice((0.5, 0.7, 0.9)))
        arcs = [(label[u], label[v], w) for u, v, w in dag.arcs()]
        terminals = rng.sample(range(n), 2 * k)
        d = WeightedDigraph(n, arcs, sources=terminals[:k], sinks=terminals[k:])
        weights = nonintersecting_weights(d)
        assert weights == _family_weight_sums(d)
        poly = _with_poly_weights(d)
        assert nonintersecting_weights(poly) == _family_weight_sums(poly)
        ks.add(k)
        if weights:
            realised += 1
            position = {v: p for p, v in enumerate(d.topo)}
            sink_first += min(map(position.get, d.sinks)) < max(map(position.get, d.sources))
    # the draws reach every terminal count, and families that exist with a
    # sink ahead of a source in the order
    assert ks == {1, 2, 3, 4}
    assert realised >= 50 and sink_first >= 10


def test_sweep_hand_cases_at_terminals_and_dead_ends():
    # source 0 reaches sink 3 directly through 2, or through source 1
    into_source = WeightedDigraph(
        5,
        [(0, 1, 2), (0, 2, 7), (2, 3, 1), (1, 3, 3), (1, 4, 5)],
        sources=(0, 1),
        sinks=(3, 4),
    )
    # a path may not go on past sink 1 to sink 2
    out_of_sink = WeightedDigraph(
        4, [(0, 1, 2), (1, 2, 3), (3, 2, 5)], sources=(0, 3), sinks=(1, 2)
    )
    # no arc enters sink 3
    unreachable_sink = WeightedDigraph(4, [(0, 2, 1), (1, 2, 1)], sources=(0, 1), sinks=(2, 3))
    # vertex 1 has no arc out, and neither has source 4
    dead_end = WeightedDigraph(5, [(0, 1, 3), (0, 2, 2), (2, 3, 5)], sources=(0,), sinks=(3,))
    dead_source = WeightedDigraph(5, [(0, 1, 3), (0, 2, 2), (2, 3, 5)], sources=(0, 4), sinks=(3, 1))
    for d, expected in (
        (into_source, {(0, 1): 35}),
        (out_of_sink, {(0, 1): 10}),
        (unreachable_sink, {}),
        (dead_end, {(0,): 10}),
        (dead_source, {}),
    ):
        assert nonintersecting_weights(d) == _family_weight_sums(d) == expected


def test_nonintersecting_weights_keep_a_cancelled_identity():
    # two routes from 0 to 3 with weights 1 and -1
    arcs = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, -1)]
    d = WeightedDigraph(4, arcs, sources=(0,), sinks=(3,))
    assert len(nonintersecting_families(d)) == 2
    assert nonintersecting_weights(d) == {(0,): 0}
    report = verify_stembridge(d)
    assert report.passed and report.computed == 0


def _scaled_by_q(d):
    """Same digraph with each integer weight w replaced by w * q, so a path
    of length m carries q**m times its integer weight."""
    arcs = [(u, v, Poly((0, w))) for u, v, w in d.arcs()]
    return WeightedDigraph(d.n, arcs, sources=d.sources, sinks=d.sinks)


def blocked_by_first_route():
    """Source 0 reaches sink 4 through 2 (weight 2) or 3 (weight 3); the
    last source 1 reaches sink 5 only through 3 (weight 5).  Only the route
    through 2 leaves 3 free, so the families weigh 2 * 5 = 10; a last-source
    walk remembered from the first partial family would add 3 * 5."""
    arcs = [(0, 2, 2), (0, 3, 3), (2, 4, 1), (3, 4, 1), (1, 3, 5), (3, 5, 1)]
    return WeightedDigraph(6, arcs, sources=(0, 1), sinks=(4, 5))


def cancelling_last_source():
    """The last source 1 reaches sink 6 along two routes of weight +1 and
    -1, and sink 5 along one of weight 3; source 0 has direct arcs to both
    sinks."""
    arcs = [
        (0, 5, 2),
        (0, 6, 7),
        (1, 2, 1),
        (1, 3, 1),
        (2, 6, 1),
        (3, 6, -1),
        (1, 4, 3),
        (4, 5, 1),
    ]
    return WeightedDigraph(7, arcs, sources=(0, 1), sinks=(5, 6))


def test_last_source_walk_is_not_reused_across_partial_families():
    d = blocked_by_first_route()
    assert nonintersecting_weights(d) == _family_weight_sums(d) == {(0, 1): 10}
    poly = _scaled_by_q(d)
    assert nonintersecting_weights(poly) == _family_weight_sums(poly) == {
        (0, 1): Poly((0, 0, 0, 0, 10))
    }


def test_last_source_keeps_a_reached_sink_whose_weights_cancel():
    d = cancelling_last_source()
    assert nonintersecting_weights(d) == _family_weight_sums(d) == {(0, 1): 0, (1, 0): 21}
    poly = _scaled_by_q(d)
    assert nonintersecting_weights(poly) == _family_weight_sums(poly) == {
        (0, 1): Poly(),
        (1, 0): Poly((0, 0, 0, 21)),
    }


def test_nonintersecting_weights_hand_cases():
    assert nonintersecting_weights(diamond()) == {(0,): 2}
    assert nonintersecting_weights(two_paths()) == {(0, 1): 6}
    assert nonintersecting_weights(shared_middle()) == {}
    crossed = WeightedDigraph(4, [(0, 3, 2), (1, 2, 5)], sources=(0, 1), sinks=(2, 3))
    assert nonintersecting_weights(crossed) == {(1, 0): 10}


def test_stembridge_builds_no_path_or_family(monkeypatch):
    def oracle_only(*args):
        raise AssertionError("path and family enumeration is the test oracle only")

    for name in ("iter_paths", "nonintersecting_families", "family_weight", "path_weight"):
        monkeypatch.setattr(lgv, name, oracle_only)
    assert main(["verify", "stembridge", "--cases", "10"]) == EXIT_OK


def test_three_layer_builds_no_path_or_family(monkeypatch):
    def oracle_only(*args):
        raise AssertionError("path and family enumeration is the test oracle only")

    for name in ("iter_paths", "nonintersecting_families", "family_weight", "path_weight"):
        monkeypatch.setattr(lgv, name, oracle_only)
    assert main(["verify", "three-layer", "--cases", "10"]) == EXIT_OK


def test_topological_order_takes_smallest_ready_vertex_first():
    with open(FIXTURES / "bowtie_poset.json") as fh:
        p = poset_from_dict(json.load(fh))
    z = zeta_function(p)
    d = three_layer_digraph(p, z, z)
    # sources 0-3, sinks 4-7, middle copies 8-11; a middle copy becomes
    # ready only after every source above it, a sink after every middle
    # copy below it
    assert d.topo == (0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7)


def test_verify_stembridge_two_paths():
    report = verify_stembridge(two_paths())
    assert report.passed
    assert report.computed == 6  # det [[2, 5], [0, 3]]


def test_verify_stembridge_single_path():
    d = WeightedDigraph(2, [(0, 1, 7)], sources=(0,), sinks=(1,))
    report = verify_stembridge(d)
    assert report.passed and report.computed == 7


def test_verify_stembridge_shared_middle_passes_with_zero():
    report = verify_stembridge(shared_middle())
    assert report.passed
    assert report.computed == 0


def test_verify_stembridge_hypothesis_failure_is_flagged():
    arcs = [(0, 3, 1), (1, 2, 1)]
    d = WeightedDigraph(4, arcs, sources=(0, 1), sinks=(2, 3))
    report = verify_stembridge(d)
    assert report.verdict == HYPOTHESIS_FAILED
    assert report.computed is None


def test_verify_stembridge_on_random_hypothesis_digraphs():
    rng = random.Random("stembridge")
    for _ in range(15):
        report = verify_stembridge(random_hypothesis_digraph(rng))
        assert report.passed


def test_three_layer_singleton():
    p = Poset.from_covers(1, [])
    f = random_incidence(random.Random(1), p)
    g = random_incidence(random.Random(2), p)
    d = three_layer_digraph(p, f, g)
    assert d.n == 3
    assert d.arcs() == [(0, 2, f(0, 0)), (2, 1, g(0, 0))]


def test_three_layer_vee_structure():
    p = Poset.from_covers(3, [(0, 1), (0, 2)], labels=["a", "b", "c"])
    z = zeta_function(p)
    d = three_layer_digraph(p, z, z)
    n = 3
    # source a' reaches only its own middle copy; b' and c' also reach a'''
    assert {v for v, _ in d.succ[0]} == {2 * n + 0}
    assert {v for v, _ in d.succ[1]} == {2 * n + 0, 2 * n + 1}
    assert {v for v, _ in d.succ[2]} == {2 * n + 0, 2 * n + 2}
    # dual arcs from the middle copies into the sinks
    assert {v for v, _ in d.succ[2 * n + 0]} == {n + 0, n + 1, n + 2}
    assert {v for v, _ in d.succ[2 * n + 1]} == {n + 1}
    assert {v for v, _ in d.succ[2 * n + 2]} == {n + 2}
    assert d.sources == (0, 1, 2)
    assert d.sinks == (3, 4, 5)


def test_three_layer_checks_the_host_and_the_ring_tags():
    p = Poset.from_covers(2, [(0, 1)])
    z = zeta_function(p)
    with pytest.raises(ValueError, match="different poset"):
        three_layer_digraph(p, zeta_function(Poset.from_covers(2, [])), z)
    zq = IncidenceFunction(p, {(a, b): Poly((1,)) for a in range(2) for b in p.above(a)})
    with pytest.raises(TagMismatchError):
        three_layer_digraph(p, z, zq)


def test_three_layer_path_weights_pick_up_both_factors():
    p = Poset.from_covers(3, [(0, 1), (0, 2)])
    rng = random.Random("weights")
    f = random_incidence(rng, p)
    g = random_incidence(rng, p)
    d = three_layer_digraph(p, f, g)
    # the path b' -> a''' -> c'' carries f(a, b) * g(a, c)
    assert path_weight(d, (1, 6, 5)) == f(0, 1) * g(0, 2)
    report = verify_stembridge(d)
    assert report.passed
    assert report.computed == f(0, 0) * g(0, 0) * f(1, 1) * g(1, 1) * f(2, 2) * g(2, 2)


def test_three_layer_matrix_equals_incidence_product():
    rng = random.Random("threelayer")
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 5))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        d = three_layer_digraph(p, f, g)
        assert stembridge_matrix(d) == incidence_product_matrix(p, f, g)


def test_three_layer_unique_family_and_weight():
    rng = random.Random("unique")
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 5))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        d = three_layer_digraph(p, f, g)
        fams = nonintersecting_families(d)
        assert len(fams) == 1
        fam = fams[0]
        assert fam.perm == tuple(range(p.n))
        for i, e in enumerate(p.lin_ext):
            assert fam.paths[i] == (e, 2 * p.n + e, p.n + e)
        assert family_weight(d, fam) == incidence_product_det(p, f, g)
        assert verify_stembridge(d).passed
        # the count sweep that verify three-layer runs agrees with the
        # enumeration: one family, on the identity, of the product's weight
        zeta = zeta_function(p)
        assert nonintersecting_weights(three_layer_digraph(p, zeta, zeta)) == {fam.perm: 1}
        assert nonintersecting_weights(d) == _family_weight_sums(d)


def test_digraph_json_round_trip():
    d = two_paths()
    doc = digraph_to_dict(d)
    d2 = digraph_from_dict(doc)
    assert d2.arcs() == d.arcs()
    assert d2.sources == d.sources and d2.sinks == d.sinks
    with pytest.raises(ValueError):
        digraph_from_dict({"vertices": 1})
    with pytest.raises(ValueError):
        digraph_from_dict(
            {"vertices": 2, "arcs": [[0, 1]], "sources": [0], "sinks": [1]}
        )


def test_polynomial_weights():
    q = Poly.variable()
    d = WeightedDigraph(
        3,
        [(0, 1, q), (1, 2, q + Poly((1,)))],
        sources=(0,),
        sinks=(2,),
    )
    assert path_weight_sum(d, 0, 2) == q * q + q
    assert verify_stembridge(d).passed


def test_verify_stembridge_reports_a_failed_hypothesis():
    # The only nonintersecting family takes source 0 to sink 3 and 1 to 2.
    d = WeightedDigraph(4, [(0, 3, 1), (1, 2, 1)], sources=(0, 1), sinks=(2, 3))
    report = verify_stembridge(d)
    assert (report.name, report.size, report.verdict) == ("stembridge", 2, HYPOTHESIS_FAILED)
    assert (report.computed, report.predicted) == (None, None)
    assert report.line() == (
        "HYPOTHESIS-FAILED stembridge det=- predicted=- "
        "(a nonidentity permutation admits a nonintersecting family)"
    )
