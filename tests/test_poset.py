import heapq
import json
import pathlib
import random

import pytest

from posetdet.arith import mobius
from posetdet.identities import incidence_matrix, scale_by_source
from posetdet.matrix import SquareMatrix
from posetdet import poset as poset_module
from posetdet import randgen
from posetdet.poset import (
    MAX_ELEMENTS,
    IncidenceFunction,
    MeetError,
    Poset,
    delta_function,
    divisor_poset,
    incidence_from_dict,
    mobius_function,
    poset_from_dict,
    poset_to_dict,
    zeta_function,
)
from posetdet.randgen import (
    REJECTION_MAX_SIZE,
    grown_meet_semilattice,
    random_meet_semilattice,
    random_poset,
    sample_meet_semilattice,
)
from posetdet.ring import Poly


def vee():
    """Three elements with a below both b and c, b and c incomparable."""
    return Poset.from_covers(3, [(0, 1), (0, 2)], labels=["a", "b", "c"])


def chain(n):
    return Poset.from_covers(n, [(i, i + 1) for i in range(n - 1)])


def bowtie():
    """Two bottoms below two tops: not a meet semilattice."""
    return Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def test_from_covers_vee():
    p = vee()
    expected = {(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)}
    got = {(a, b) for a in range(3) for b in range(3) if p.leq(a, b)}
    assert got == expected


def test_from_covers_transitive():
    p = chain(4)
    assert p.leq(0, 3)
    assert not p.leq(3, 0)


def test_singleton():
    p = Poset.from_covers(1, [])
    assert p.n == 1 and p.leq(0, 0)


def test_cycle_is_rejected():
    for n, covers in ((2, [(0, 1), (1, 0)]), (1, [(0, 0)]), (3, iter([(0, 1), (1, 2), (2, 0)]))):
        with pytest.raises(ValueError, match="covers contain a directed cycle"):
            Poset.from_covers(n, covers)


def test_cover_out_of_range():
    with pytest.raises(ValueError, match=r"cover \(0, 2\) out of range"):
        Poset.from_covers(2, [(0, 2)])
    # the range check comes before the cycle check, wherever the bad cover is
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_covers(2, [(0, 1), (1, 0), (1, 5)])
    for bad in ((3, 0), (0, 3), (-1, 0), (2, -1)):
        with pytest.raises(ValueError, match=rf"cover \({bad[0]}, {bad[1]}\) out of range"):
            Poset.from_covers(3, [(0, 1), (1, 2), (2, 0), bad])
    with pytest.raises(ValueError, match="covers contain a directed cycle"):
        Poset.from_covers(3, iter([(0, 1), (1, 2), (2, 0)]))


def test_size_cap():
    with pytest.raises(ValueError):
        Poset.from_covers(65, [])


def validation_oracle(leq):
    """First failing check of the relation by the defining triple loop
    (reflexive, then antisymmetric, then transitive), or None."""
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            return "relation is not reflexive"
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                return "relation is not antisymmetric"
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        return "relation is not transitive"
    return None


def validation_outcome(leq):
    try:
        Poset(leq)
    except ValueError as exc:
        return str(exc)
    return None


def test_relation_validation():
    with pytest.raises(ValueError, match="not reflexive"):
        Poset([[False]])
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset([[True, True], [True, True]])
    leq = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    with pytest.raises(ValueError, match="not transitive"):
        Poset(leq)
    # 0 <= 1 <= 0 and 1 <= 2 without 0 <= 2: antisymmetry is reported first
    both = [
        [True, True, False],
        [True, True, True],
        [False, False, True],
    ]
    assert validation_oracle(both) == "relation is not antisymmetric"
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset(both)


def test_validation_matches_the_triple_loop_on_random_relations():
    rng = random.Random("validation")
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        leq = [[a == b or rng.random() < 0.3 for b in range(n)] for a in range(n)]
        expected = validation_oracle(leq)
        outcomes.add(expected)
        assert validation_outcome(leq) == expected
    assert outcomes == {
        None,
        "relation is not antisymmetric",
        "relation is not transitive",
    }


def test_validation_matches_the_triple_loop_on_one_flipped_bit():
    rng = random.Random("flipped")
    outcomes = set()
    for _ in range(150):
        p = random_poset(rng, rng.randint(1, 7))
        a, b = rng.randrange(p.n), rng.randrange(p.n)
        leq = [[p.leq(x, y) for y in range(p.n)] for x in range(p.n)]
        leq[a][b] = not leq[a][b]
        expected = validation_oracle(leq)
        outcomes.add(expected)
        assert validation_outcome(leq) == expected
    assert len(outcomes) == 4


def chain_covers(n):
    return [(i, i + 1) for i in range(n - 1)]


def test_chain_at_the_size_cap():
    p = Poset.from_covers(MAX_ELEMENTS, chain_covers(MAX_ELEMENTS))
    assert p.lin_ext == tuple(range(MAX_ELEMENTS))
    for a in range(MAX_ELEMENTS):
        for b in range(MAX_ELEMENTS):
            assert p.meet(a, b) == min(a, b)
    assert p.is_meet_semilattice()
    assert p.cover_pairs() == chain_covers(MAX_ELEMENTS)


def test_atoms_over_a_bottom_at_the_size_cap():
    p = Poset.from_covers(MAX_ELEMENTS, [(0, j) for j in range(1, MAX_ELEMENTS)])
    assert p.lin_ext == tuple(range(MAX_ELEMENTS))
    for a in range(1, MAX_ELEMENTS):
        for b in range(a + 1, MAX_ELEMENTS):
            assert p.meet(a, b) == 0
    assert p.is_meet_semilattice()


def test_back_cover_on_a_chain_at_the_size_cap_is_a_cycle():
    covers = chain_covers(MAX_ELEMENTS) + [(MAX_ELEMENTS - 1, 0)]
    with pytest.raises(ValueError, match="covers contain a directed cycle"):
        Poset.from_covers(MAX_ELEMENTS, covers)


def test_oversize_from_covers_fails_before_reading_covers(monkeypatch):
    def no_closure(*args):
        raise AssertionError("closure work before the size check")

    def covers():
        raise AssertionError("covers read before the size check")
        yield

    monkeypatch.setattr(poset_module, "_smallest_first_order", no_closure)
    with pytest.raises(ValueError, match=r"poset too large \(65 > 64\)"):
        Poset.from_covers(MAX_ELEMENTS + 1, covers())
    with pytest.raises(ValueError, match=r"poset too large \(65 > 64\)"):
        Poset.from_covers(MAX_ELEMENTS + 1, chain_covers(MAX_ELEMENTS + 1))


def test_linear_extension_is_consistent():
    rng = random.Random("linext")
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 8))
        pos = {e: i for i, e in enumerate(p.lin_ext)}
        assert sorted(p.lin_ext) == list(range(p.n))
        for a in range(p.n):
            for b in range(p.n):
                if a != b and p.leq(a, b):
                    assert pos[a] < pos[b]


def test_linear_extension_takes_the_smallest_minimal_element_first():
    rng = random.Random("smallest-minimal")
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 64))
        remaining = set(range(p.n))
        expected = []
        while remaining:
            pick = min(
                e for e in remaining if not any(p.leq(x, e) for x in remaining - {e})
            )
            expected.append(pick)
            remaining.remove(pick)
        assert p.lin_ext == tuple(expected)


def heap_order(n, succ):
    """_smallest_first_order as it was before its forward shortcut: Kahn's
    algorithm with a heap of ready indices."""
    indeg = [0] * n
    for out in succ:
        for v in out:
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return tuple(order)


def random_successors(rng, n, kind):
    """Successor sets on 0..n-1: every arc forward, arcs either way, or
    either way with a cycle or a self-loop added."""
    succ = [set() for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v and (v > u or kind != "forward") and rng.random() < 0.3:
                succ[u].add(v)
    if kind == "cycle" and n > 1:
        ring = rng.sample(range(n), rng.randint(2, n))
        for u, v in zip(ring, ring[1:] + ring[:1]):
            succ[u].add(v)
    if kind == "self-loop":
        u = rng.randrange(n)
        succ[u].add(u)
    return succ


def test_smallest_first_order_matches_the_heap_loop():
    rng = random.Random("smallest-first")
    kinds = ("forward", "mixed", "cycle", "self-loop")
    shapes = (set, frozenset, lambda out: {v: rng.randint(-3, 3) for v in out})
    short = forward = 0
    for i in range(2000):
        n = rng.randint(1, 12)
        succ = [shapes[i % 3](out) for out in random_successors(rng, n, kinds[i % 4])]
        expected = heap_order(n, succ)
        assert poset_module._smallest_first_order(n, succ) == expected
        short += len(expected) < n
        forward += expected == tuple(range(n))
    # Every kind shows up: cycles give short orders, forward arcs the identity.
    assert short > 500 and forward > 500


def closure_oracle(n, covers):
    """leq of the reflexive-transitive closure of covers, by Warshall."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    for c in range(n):
        for a in range(n):
            if leq[a][c]:
                for b in range(n):
                    leq[a][b] = leq[a][b] or leq[c][b]
    return leq


def assert_same_tables(p, q):
    assert p.lin_ext == q.lin_ext
    assert p.labels == q.labels
    for a in range(p.n):
        assert p.above(a) == q.above(a)
        assert p.below(a) == q.below(a)


def test_from_covers_builds_the_tables_of_the_closure():
    """from_covers hands its closure and its own order of the covers to the
    table builder; Poset(leq) sorts the closure.  Both give one poset."""
    rng = random.Random("closure-tables")
    for _ in range(2000):
        n = rng.randint(1, 12)
        topo = rng.sample(range(n), n)
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        covers = [
            (topo[i], topo[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        rng.shuffle(covers)
        labels = [f"x{v}" for v in rng.sample(range(100), n)]
        p = Poset.from_covers(n, covers, labels=labels)
        assert_same_tables(p, Poset(closure_oracle(n, covers), labels=labels))
        if covers:
            a, b = rng.choice(covers)
            with pytest.raises(ValueError, match="covers contain a directed cycle"):
                Poset.from_covers(n, covers + [(b, a)])
        with pytest.raises(ValueError, match="need one label per element"):
            Poset.from_covers(n, covers, labels=labels + ["extra"])
    for path in sorted(pathlib.Path(__file__).parent.glob("fixtures/*_poset.json")):
        doc = json.loads(path.read_text())
        n = len(doc["labels"])
        p = poset_from_dict(doc)
        q = Poset(closure_oracle(n, doc["covers"]), labels=doc["labels"])
        assert_same_tables(p, q)


def test_divisor_poset_small():
    p = divisor_poset([1, 2, 3, 4])
    assert p.leq(0, 1) and p.leq(0, 2) and p.leq(0, 3)
    assert p.leq(1, 3)  # 2 | 4
    assert not p.leq(1, 2) and not p.leq(2, 1)  # 2, 3 incomparable
    assert not p.leq(2, 3)  # 3 does not divide 4
    assert divisor_poset([5]).n == 1


def test_divisor_poset_rejects_bad_input():
    with pytest.raises(ValueError):
        divisor_poset([])
    with pytest.raises(ValueError):
        divisor_poset([2, 2])
    with pytest.raises(ValueError):
        divisor_poset([0, 1])


class _NoRelation(int):
    def __mod__(self, other):
        raise AssertionError("divisibility relation built before the count check")


def test_divisor_poset_checks_the_count_before_building_the_order():
    assert divisor_poset(range(1, 65)).n == 64
    with pytest.raises(ValueError, match=r"poset too large \(65 > 64\)"):
        divisor_poset([_NoRelation(v) for v in range(1, 66)])
    # a range is counted, not listed
    with pytest.raises(ValueError, match=r"poset too large \(1000000000000 > 64\)"):
        divisor_poset(range(1, 10**12 + 1))


def test_random_meet_semilattice_gives_up_with_value_error(monkeypatch):
    monkeypatch.setattr(randgen, "SEMILATTICE_TRIES", 3)
    with pytest.raises(ValueError, match="on 40 elements"):
        random_meet_semilattice(random.Random(0), 40)


def test_meet_semilattice_samplers_hit_the_requested_size():
    rng = random.Random(7)
    multi_cover = 0
    for n in list(range(1, 65, 3)) + [64] * 3:
        for draw in (grown_meet_semilattice, sample_meet_semilattice):
            p = draw(rng, n)
            assert p.n == n
            assert p.is_meet_semilattice()
            heads = [b for _, b in p.cover_pairs()]
            multi_cover += len(heads) - len(set(heads))
    # not only trees: some element covers two others
    assert multi_cover > 0


def test_sample_meet_semilattice_keeps_rejection_draws_up_to_six():
    for n in range(1, REJECTION_MAX_SIZE + 1):
        a, b = random.Random(n), random.Random(n)
        assert sample_meet_semilattice(a, n) == random_meet_semilattice(b, n)
        assert a.random() == b.random()


def test_zeta_and_delta_singleton():
    p = Poset.from_covers(1, [])
    assert incidence_matrix(p, zeta_function(p)) == SquareMatrix([[1]])
    assert incidence_matrix(p, delta_function(p)) == SquareMatrix([[1]])


def test_zeta_vee_has_five_ones():
    p = vee()
    z = zeta_function(p)
    ones = sum(
        1 for a in range(3) for b in range(3) if z(a, b) == 1
    )
    assert ones == 5


def test_zeta_chain_is_upper_triangular_ones():
    p = chain(3)
    m = incidence_matrix(p, zeta_function(p))
    for i in range(3):
        for j in range(3):
            assert m[i, j] == (1 if i <= j else 0)


def test_mobius_chain():
    p = chain(3)
    mu = mobius_function(p)
    assert mu(0, 0) == 1
    assert mu(0, 1) == -1
    assert mu(0, 2) == 0


def test_mobius_vee():
    mu = mobius_function(vee())
    assert mu(0, 1) == -1
    assert mu(0, 2) == -1


def test_mobius_matches_number_theory_on_divisor_posets():
    p = divisor_poset(list(range(1, 7)))
    mu = mobius_function(p)
    # indices are value - 1
    assert mu(0, 5) == mobius(6) == 1
    assert mu(0, 3) == mobius(4) == 0
    for a in range(6):
        for b in range(6):
            if p.leq(a, b):
                assert mu(a, b) == mobius((b + 1) // (a + 1))


def test_mobius_inversion_on_random_posets():
    rng = random.Random("inversion")
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 8))
        mu = mobius_function(p)
        delta = delta_function(p)
        for a in range(p.n):
            for b in range(p.n):
                if not p.leq(a, b):
                    continue
                interval = p.above(a) & p.below(b)
                left = sum(mu(a, c) for c in interval)
                right = sum(mu(c, b) for c in interval)
                expected = delta(a, b)
                assert left == expected and right == expected


def test_zeta_mobius_matrix_inverse():
    rng = random.Random("zetainv")
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 7))
        z = incidence_matrix(p, zeta_function(p))
        m = incidence_matrix(p, mobius_function(p))
        ident = SquareMatrix.identity(p.n)
        assert z @ m == ident
        assert m @ z == ident
        # both are unitriangular under the linear extension
        for i in range(p.n):
            assert z[i, i] == 1 and m[i, i] == 1
            for j in range(i):
                assert z[i, j] == 0 and m[i, j] == 0


def test_meet_vee():
    p = vee()
    assert p.meet(1, 2) == 0
    assert p.meet(1, 1) == 1


def test_meet_is_gcd_on_divisor_posets():
    import math

    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    for i in range(len(vals)):
        for j in range(len(vals)):
            expected = math.gcd(vals[i], vals[j])
            assert vals[p.meet(i, j)] == expected
    assert vals[p.meet(3, 4)] == 2  # 4 and 6


def test_meet_errors():
    two = Poset.from_covers(2, [])
    with pytest.raises(MeetError, match="^0 and 1 have no common lower bound$"):
        two.meet(0, 1)
    with pytest.raises(MeetError, match="^2 and 3 have maximal lower bounds 0, 1$"):
        bowtie().meet(2, 3)


def meet_oracle(p, a, b):
    """Meet by scanning the common lower bounds for maximal ones."""
    common = p.below(a) & p.below(b)
    if not common:
        raise MeetError(f"{p.labels[a]} and {p.labels[b]} have no common lower bound")
    maximal = [
        c for c in common if all(d == c or not p.leq(c, d) for d in common)
    ]
    if len(maximal) != 1:
        names = ", ".join(p.labels[c] for c in sorted(maximal))
        raise MeetError(
            f"{p.labels[a]} and {p.labels[b]} have maximal lower bounds {names}"
        )
    return maximal[0]


def meet_outcome(meet, p, a, b):
    try:
        return meet(p, a, b)
    except MeetError as exc:
        return str(exc)


def test_meet_matches_the_scan_on_random_posets():
    rng = random.Random("meet-oracle")
    posets = [random_poset(rng, rng.randint(1, 8)) for _ in range(150)]
    # at the size cap too: grown semilattices and one poset with every kind
    posets += [grown_meet_semilattice(rng, MAX_ELEMENTS) for _ in range(5)]
    posets.append(random_poset(rng, MAX_ELEMENTS))
    kinds = set()
    for p in posets:
        for a in range(p.n):
            for b in range(p.n):
                expected = meet_outcome(meet_oracle, p, a, b)
                assert meet_outcome(Poset.meet, p, a, b) == expected
                kinds.add(type(expected) if type(expected) is int else expected.split()[4])
    assert kinds == {int, "no", "maximal"}


def test_meet_properties_where_defined():
    rng = random.Random("meetprops")
    for _ in range(30):
        p = random_meet_semilattice(rng, rng.randint(1, 7))
        for a in range(p.n):
            assert p.meet(a, a) == a
            for b in range(p.n):
                assert p.meet(a, b) == p.meet(b, a)
                for c in range(p.n):
                    assert p.meet(p.meet(a, b), c) == p.meet(a, p.meet(b, c))


def test_is_meet_semilattice():
    assert vee().is_meet_semilattice()
    assert not Poset.from_covers(2, []).is_meet_semilattice()
    assert not bowtie().is_meet_semilattice()
    assert divisor_poset([1, 2, 3, 4, 6, 12]).is_meet_semilattice()


def meet_semilattice_oracle(p):
    """is_meet_semilattice as a scan that calls meet on every pair and
    stops at the first MeetError."""
    for a in range(p.n):
        for b in range(a + 1, p.n):
            try:
                p.meet(a, b)
            except MeetError:
                return False
    return True


def test_is_meet_semilattice_matches_the_meet_error_scan():
    rng = random.Random("semilattice-oracle")
    posets = [vee(), bowtie()] + [random_poset(rng, rng.randint(1, 7)) for _ in range(300)]
    verdicts = []
    for p in posets:
        expected = meet_semilattice_oracle(p)
        assert p.is_meet_semilattice() == expected
        verdicts.append(expected)
    assert verdicts[:2] == [True, False]
    assert 30 < sum(verdicts) < 270


def test_lower_and_meet_closed():
    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    assert p.is_lower_closed(range(6))
    idx = {v: i for i, v in enumerate(vals)}
    s246 = [idx[2], idx[4], idx[6]]
    assert not p.is_lower_closed(s246)
    assert p.is_meet_closed(s246)  # 4 meet 6 = 2

    q = divisor_poset([1, 2, 3, 6])
    s = [1, 2, 3]  # values {2, 3, 6}
    assert not q.is_lower_closed(s)
    assert not q.is_meet_closed(s)  # 2 meet 3 = 1 is missing


def test_meet_closed_on_a_poset_without_meets_is_a_bool():
    # the two tops of the bowtie have two maximal lower bounds and no meet
    p = bowtie()
    assert p.is_meet_closed([2, 3]) is False
    assert p.is_meet_closed([0, 1, 2, 3]) is False
    assert p.is_meet_closed([0, 2, 3]) is False
    assert p.is_meet_closed([0, 2]) is True


def test_lower_closed_implies_meet_closed():
    rng = random.Random("lcmc")
    for _ in range(40):
        p = random_meet_semilattice(rng, rng.randint(1, 7))
        members = [a for a in range(p.n) if rng.random() < 0.5]
        closure = set(members)
        for a in members:
            closure |= p.below(a)
        if closure:
            assert p.is_lower_closed(closure)
            assert p.is_meet_closed(closure)


def test_induced_subposet():
    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    idx = {v: i for i, v in enumerate(vals)}
    sub = p.induced([idx[6], idx[1], idx[2], idx[3]])
    assert sub.n == 4
    assert sub.host_map is not None
    sub_vals = [vals[h] for h in sub.host_map]
    assert sorted(sub_vals) == [1, 2, 3, 6]
    for i in range(4):
        for j in range(4):
            assert sub.leq(i, j) == (sub_vals[j] % sub_vals[i] == 0)
    # the inherited index order is itself a linear extension
    for i in range(4):
        for j in range(4):
            if i != j and sub.leq(i, j):
                assert sub.position(i) < sub.position(j)
    with pytest.raises(ValueError):
        p.induced([])


@pytest.mark.parametrize("subset, member", [([0, 99], "99"), ([-1], "-1")])
@pytest.mark.parametrize("method", ["induced", "is_lower_closed", "is_meet_closed"])
def test_subset_members_must_be_elements(method, subset, member):
    p = Poset.from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match=f"subset member {member} is not an element"):
        getattr(p, method)(subset)


def test_poset_json_round_trip():
    rng = random.Random("json")
    for p in [vee(), chain(4)] + [random_poset(rng, rng.randint(1, 7)) for _ in range(20)]:
        assert poset_from_dict(poset_to_dict(p)) == p
    with pytest.raises(ValueError):
        poset_from_dict({"labels": ["a"]})
    with pytest.raises(ValueError):
        poset_from_dict({"labels": ["a", "b"], "covers": [[0]]})
    for doc in (
        {"labels": ["a", "b"], "covers": [["0", 1]]},
        {"labels": ["a", "b"], "covers": [[0, 1.0]]},
        {"labels": ["a", "b"], "covers": [[False, True]]},
        {"labels": ["a", "b"], "covers": [0, 1]},
        {"labels": ["a", "b"], "covers": "01"},
        {"labels": "ab", "covers": []},
        {"labels": ["a", 2], "covers": []},
    ):
        with pytest.raises(ValueError):
            poset_from_dict(doc)


def cover_pairs_oracle(p):
    """Hasse arcs by scanning every element for one strictly between."""
    out = []
    for a in range(p.n):
        for b in p.above(a):
            if b != a and not any(
                c not in (a, b) and p.leq(a, c) and p.leq(c, b) for c in range(p.n)
            ):
                out.append((a, b))
    return sorted(out)


def test_cover_pairs_match_the_scan_on_random_posets():
    rng = random.Random("covers-oracle")
    for _ in range(100):
        p = random_poset(rng, rng.randint(1, 10))
        assert p.cover_pairs() == cover_pairs_oracle(p)
    p = grown_meet_semilattice(rng, MAX_ELEMENTS)
    assert p.cover_pairs() == cover_pairs_oracle(p)


def test_incidence_function_contract():
    p = vee()
    f = IncidenceFunction(p, {(0, 1): 5})
    assert f(0, 1) == 5
    assert f(0, 2) == 0  # absent entry on a related pair
    assert f(1, 2) == 0  # unrelated pair
    with pytest.raises(ValueError):
        IncidenceFunction(p, {(1, 2): 1})  # b and c incomparable
    with pytest.raises(ValueError):
        IncidenceFunction(p, {(0, 9): 1})
    with pytest.raises(ValueError):
        IncidenceFunction(p, {(0, 0): 1, (0, 1): Poly((1,))})


def test_incidence_function_reports_the_first_failed_check_of_an_entry():
    # each entry is checked for range, then order, then ring tag
    p = vee()
    with pytest.raises(ValueError, match=r"entry \(0, 9\) out of range"):
        IncidenceFunction(p, {(0, 0): 1, (0, 9): Poly((1,))})
    with pytest.raises(ValueError, match="without"):
        IncidenceFunction(p, {(0, 0): 1, (1, 2): Poly((1,))})


def test_incidence_restrict_reads_through_host_map():
    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    f = IncidenceFunction(
        p, {(a, b): vals[b] // vals[a] for a in range(p.n) for b in p.above(a)}
    )
    sub = p.induced([4, 0, 2])  # 6, 1, 3
    r = f.restrict(sub)
    assert r.host == sub and r.zero == f.zero
    for i in range(sub.n):
        for j in range(sub.n):
            assert r(i, j) == f(sub.host_map[i], sub.host_map[j])
    with pytest.raises(ValueError):
        f.restrict(p)  # not an induced subposet


def test_incidence_zero_inference():
    p = vee()
    f = IncidenceFunction(p, {(0, 1): Poly((0, 1))})
    assert f.zero == Poly()
    g = IncidenceFunction(p, {})
    assert g.zero == 0


def test_incidence_ring_is_read_from_the_values():
    p = divisor_poset([1, 2, 3, 6])
    f = IncidenceFunction(
        p, {(a, b): Poly((a, 1)) for a in range(p.n) for b in p.above(a)}
    )
    for h in (f, f.restrict(p.induced([3, 0, 1])), scale_by_source(f, [1, -2, 3, 4])):
        assert type(h.zero) is Poly and h.zero == Poly()
    empty = IncidenceFunction(p, {})
    assert type(empty.zero) is int and empty.zero == 0
    with pytest.raises(TypeError):
        IncidenceFunction(p, {(0, 0): 1}, zero=0)


def test_incidence_from_dict():
    p = vee()
    f = incidence_from_dict(p, {"entries": [[0, 1, 3], [0, 0, 2]]})
    assert f(0, 1) == 3 and f(0, 0) == 2
    g = incidence_from_dict(p, {"entries": [[0, 2, [0, 1]]]})
    assert g(0, 2) == Poly((0, 1))
    with pytest.raises(ValueError):
        incidence_from_dict(p, {"entries": [[0, 1]]})
    with pytest.raises(ValueError):
        incidence_from_dict(p, {})


@pytest.mark.parametrize(
    "doc",
    [
        {"entries": 5},
        {"entries": {"0": [0, 1, 3]}},
        {"entries": [5]},
        {"entries": ["abc"]},
        {"entries": [[True, 1, 3]]},
        {"entries": [[0, False, 3]]},
        {"entries": [["0", 1, 3]]},
        {"entries": [[0, 1.0, 3]]},
    ],
    ids=repr,
)
def test_incidence_from_dict_rejects_mistyped_documents(doc):
    with pytest.raises(ValueError):
        incidence_from_dict(vee(), doc)
