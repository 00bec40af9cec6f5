import math
import random
import re

import pytest

from posetdet import cli, identities
from posetdet.arith import divisors, euler_phi, kth_root, mobius, ramanujan_sum
from posetdet.identities import (
    FAIL,
    _kth_root_config,
    _ramanujan_config,
    fail_unless,
    gcd_matrix,
    incidence_matrix,
    incidence_product_det,
    incidence_product_matrix,
    is_factor_closed,
    kth_root_matrix,
    kth_root_matrix_det,
    make_report,
    meet_closed_det,
    meet_closed_matrix,
    meet_matrix,
    meet_matrix_det,
    product_matrix_invertible,
    product_matrix_positive_definite,
    ramanujan_matrix,
    ramanujan_matrix_det,
    scale_by_source,
    totient_product,
    weighted_product_det,
    weighted_product_matrix,
)
from posetdet.matrix import (
    SquareMatrix,
    det_bareiss,
    det_cofactor,
    leading_principal_minors,
)
from posetdet.poset import (
    IncidenceFunction,
    Poset,
    divisor_poset,
    mobius_function,
    zeta_function,
)
from posetdet.randgen import (
    grown_meet_semilattice,
    random_factor_closed_set,
    random_incidence,
    random_meet_closed_instance,
    random_meet_semilattice,
    random_poset,
    random_symmetric_pair,
    random_weights,
)
from posetdet.ring import Poly


def vee():
    return Poset.from_covers(3, [(0, 1), (0, 2)], labels=["a", "b", "c"])


def lower_value_function(p, values):
    """f(a, b) = value of the lower element a, the GCD-matrix shape."""
    table = {
        (a, b): values[a] for a in range(p.n) for b in p.above(a)
    }
    return IncidenceFunction(p, table)


def test_product_matrix_on_vee_matches_hand_expansion():
    p = vee()
    faa, fab, fac, fbb, fcc = 2, 3, 5, 7, 11
    gaa, gab, gac, gbb, gcc = 13, 17, 19, 23, 29
    f = IncidenceFunction(
        p,
        {
            (0, 0): faa,
            (0, 1): fab,
            (0, 2): fac,
            (1, 1): fbb,
            (2, 2): fcc,
        },
    )
    g = IncidenceFunction(
        p,
        {
            (0, 0): gaa,
            (0, 1): gab,
            (0, 2): gac,
            (1, 1): gbb,
            (2, 2): gcc,
        },
    )
    m = incidence_product_matrix(p, f, g)
    expected = SquareMatrix(
        [
            [faa * gaa, faa * gab, faa * gac],
            [fab * gaa, fab * gab + fbb * gbb, fab * gac],
            [fac * gaa, fac * gab, fac * gac + fcc * gcc],
        ]
    )
    assert m == expected
    predicted = faa * gaa * fbb * gbb * fcc * gcc
    assert incidence_product_det(p, f, g) == predicted
    assert det_bareiss(m) == predicted
    assert det_cofactor(m) == predicted


def test_product_matrix_on_vee_random_weights():
    p = vee()
    rng = random.Random("vee")
    for _ in range(20):
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        m = incidence_product_matrix(p, f, g)
        assert det_bareiss(m) == incidence_product_det(p, f, g)


def test_product_matrix_singleton():
    p = Poset.from_covers(1, [])
    f = IncidenceFunction(p, {(0, 0): 6})
    g = IncidenceFunction(p, {(0, 0): 7})
    assert incidence_product_matrix(p, f, g) == SquareMatrix([[42]])


def test_product_matrix_on_antichain_is_diagonal():
    p = Poset.from_covers(4, [])
    rng = random.Random("antichain")
    f = random_incidence(rng, p)
    g = random_incidence(rng, p)
    m = incidence_product_matrix(p, f, g)
    for i in range(4):
        for j in range(4):
            if i == j:
                a = p.lin_ext[i]
                assert m[i, j] == f(a, a) * g(a, a)
            else:
                assert m[i, j] == 0


def test_product_entries_match_full_sum():
    rng = random.Random("fullsum")
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        m = incidence_product_matrix(p, f, g)
        for i, a in enumerate(p.lin_ext):
            for j, b in enumerate(p.lin_ext):
                total = 0
                for c in range(p.n):
                    total = total + f(c, a) * g(c, b)
                assert m[i, j] == total


def product_matrix_oracle(p, f, g):
    """Entry (a, b) summed over the common lower bounds of a and b."""
    zero = f.zero
    rows = []
    for a in p.lin_ext:
        row = []
        for b in p.lin_ext:
            acc = zero
            for c in p.below(a) & p.below(b):
                acc = acc + f(c, a) * g(c, b)
            row.append(acc)
        rows.append(row)
    return SquareMatrix(rows)


def int_value(r):
    return 0 if r is None else r.randint(-3, 3)


def poly_value(r):
    if r is None:
        return Poly()
    return Poly([r.randint(-2, 2) for _ in range(r.randint(0, 3))])


def sparse_incidence(rng, p, value):
    """Incidence function with about a third of its related pairs zero."""
    return IncidenceFunction(
        p,
        {
            (a, b): value(rng) if rng.random() < 0.7 else value(None)
            for a in range(p.n)
            for b in p.above(a)
        },
    )


def test_product_matrix_matches_the_common_lower_bound_sum():
    rng = random.Random("product-oracle")

    for value in (int_value, poly_value):
        zero_entries = 0
        for _ in range(60):
            p = random_poset(rng, rng.randint(1, 8))
            f = sparse_incidence(rng, p, value)
            g = sparse_incidence(rng, p, value)
            zero_entries += sum(not f(a, b) for a in range(p.n) for b in p.above(a))
            assert incidence_product_matrix(p, f, g) == product_matrix_oracle(p, f, g)
        assert zero_entries > 100


def test_main_identity_random_campaign():
    rng = random.Random(7)
    for _ in range(80):
        p = random_poset(rng, rng.randint(1, 7))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        m = incidence_product_matrix(p, f, g)
        assert det_bareiss(m) == incidence_product_det(p, f, g)


def test_zero_diagonal_forces_zero_determinant():
    p = vee()
    f = IncidenceFunction(p, {(0, 0): 0, (1, 1): 3, (2, 2): 4})
    g = zeta_function(p)
    assert incidence_product_det(p, f, g) == 0
    assert det_bareiss(incidence_product_matrix(p, f, g)) == 0
    assert not product_matrix_invertible(p, f, g)


def test_transpose_factorization():
    rng = random.Random("factorization")
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        left = incidence_matrix(p, f).transpose() @ incidence_matrix(p, g)
        assert left == incidence_product_matrix(p, f, g)


def test_host_mismatch_is_rejected():
    p = vee()
    other = Poset.from_covers(2, [(0, 1)])
    f = zeta_function(p)
    g = zeta_function(other)
    with pytest.raises(ValueError):
        incidence_product_matrix(p, f, g)


def test_weighted_reduces_to_unweighted_with_unit_weights():
    rng = random.Random("weightone")
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        ones = [1] * p.n
        assert weighted_product_matrix(p, f, ones, g, ones) == incidence_product_matrix(p, f, g)
        assert weighted_product_det(p, f, ones, g, ones) == incidence_product_det(p, f, g)


def test_weighted_entries_match_direct_sum():
    rng = random.Random("weightsum")
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        fw = random_weights(rng, p.n)
        gw = random_weights(rng, p.n)
        m = weighted_product_matrix(p, f, fw, g, gw)
        for i, a in enumerate(p.lin_ext):
            for j, b in enumerate(p.lin_ext):
                total = 0
                for c in range(p.n):
                    total = total + f(c, a) * fw[c] * g(c, b) * gw[c]
                assert m[i, j] == total
        assert det_bareiss(m) == weighted_product_det(p, f, fw, g, gw)


def test_scale_by_source_needs_one_weight_per_element():
    p = vee()
    with pytest.raises(ValueError):
        scale_by_source(zeta_function(p), [1])


def test_ramanujan_matrix_small():
    assert ramanujan_matrix(1) == SquareMatrix([[1]])
    assert ramanujan_matrix_det(1) == 1
    m = ramanujan_matrix(3)
    assert det_bareiss(m) == 6
    assert ramanujan_matrix_det(3) == 6
    assert m[1, 1] == ramanujan_sum(2, 2) == 1


def test_ramanujan_matrix_entries_match_divisor_sum():
    for n in (1, 2, 5, 8, 64):
        m = ramanujan_matrix(n)
        for i in range(n):
            for j in range(n):
                assert m[i, j] == ramanujan_sum(i + 1, j + 1)


def test_holder_closed_form_matches_the_divisor_sum():
    # c(a, b) = mu(b / g) phi(b) / phi(b / g), g = gcd(a, b): the form
    # ramanujan_matrix checks against, here against the divisor-sum oracle
    n = 64
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            d = b // math.gcd(a, b)
            assert euler_phi(b) % euler_phi(d) == 0
            assert mobius(d) * (euler_phi(b) // euler_phi(d)) == ramanujan_sum(a, b)


@pytest.mark.parametrize("i, j", [(3, 7), (0, 0), (11, 11), (11, 0), (5, 9)])
@pytest.mark.parametrize("via_cli", [False, True], ids=["ramanujan_matrix", "verify-apostol"])
def test_ramanujan_cross_check_catches_a_bumped_entry(capsys, monkeypatch, i, j, via_cli):
    build = identities.incidence_product_matrix

    def bumped(p, f, g):
        rows = [list(build(p, f, g).row(r)) for r in range(p.n)]
        rows[i][j] += 1
        return SquareMatrix(rows)

    monkeypatch.setattr(identities, "incidence_product_matrix", bumped)
    monkeypatch.setattr(cli, "incidence_product_matrix", bumped)
    vals = [a + 1 for a in divisor_poset(range(1, 13)).lin_ext]
    message = f"ramanujan sum cross-check failed at ({vals[i]}, {vals[j]})"
    if not via_cli:
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            ramanujan_matrix(12)
        return
    # the CLI reports the mismatch as a violation, not a traceback, and
    # prints the det wherever the bump made it disagree with 12!
    det = det_bareiss(bumped(*identities._ramanujan_config(12)))
    shown = "-" if det == 479001600 else det
    assert cli.main(["verify", "apostol", "--n", "12"]) == cli.EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out == f"FAIL apostol det={shown} predicted=479001600 ({message})\n"
    assert err == "reproduce: apostol seed=42 case=0\n"


def test_fail_unless_returns_the_report_when_the_check_holds():
    report = make_report("x", 2, 6, 6)
    assert fail_unless(report, True, "(never shown)") is report


def test_fail_unless_clears_the_det_of_a_passed_report():
    failed = fail_unless(make_report("x", 2, 6, 6), False, "(side check)")
    assert (failed.verdict, failed.computed, failed.predicted) == (FAIL, None, 6)
    assert failed.line() == "FAIL x det=- predicted=6 (side check)"


def test_fail_unless_keeps_the_det_of_a_failed_report():
    failed = fail_unless(make_report("x", 2, 5, 6), False, "(side check)")
    assert (failed.verdict, failed.computed, failed.predicted) == (FAIL, 5, 6)
    assert failed.line() == "FAIL x det=5 predicted=6 (side check)"


def test_fail_unless_keeps_the_det_cleared_after_a_second_failing_check():
    once = fail_unless(make_report("x", 2, 6, 6), False, "(first)")
    twice = fail_unless(once, False, "(second)")
    assert (twice.verdict, twice.computed, twice.predicted) == (FAIL, None, 6)
    assert twice.detail == "(first) (second)"
    assert twice.line() == "FAIL x det=- predicted=6 (first) (second)"


def test_a_report_is_read_only():
    report = make_report("x", 2, 5, 6)
    for field in ("name", "computed", "predicted", "verdict", "size", "detail"):
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    assert report == make_report("x", 2, 5, 6)


def test_fail_unless_keeps_name_size_and_predicted():
    failed = fail_unless(make_report("x", 7, 5, 6, "(note)"), False, "(side check)")
    assert (failed.name, failed.size, failed.predicted) == ("x", 7, 6)
    assert failed.machine_line() == "x\t7\t5\t6\tfail"


def test_divisor_configs_match_their_per_pair_definitions():
    # the per-quotient tables against mobius and kth_root called per pair
    for n in range(1, 65):
        p, f, g = identities._ramanujan_config(n)
        pairs = {(a, b) for a in range(n) for b in range(n) if (b + 1) % (a + 1) == 0}
        assert set(dict(f.items())) == set(dict(g.items())) == pairs
        for a, b in pairs:
            assert f(a, b) == a + 1
            assert g(a, b) == mobius((b + 1) // (a + 1))
        weights = [3 * a - 7 for a in range(n)]
        for k in range(1, 5):
            p, f, omega = identities._kth_root_config(n, k, weights)
            assert set(dict(omega.items())) == pairs
            for a, b in pairs:
                root = kth_root((b + 1) // (a + 1), k)
                assert omega(a, b) == (0 if root is None else root)
                assert f(a, b) == omega(a, b) * weights[a]


def test_ramanujan_determinant_is_factorial():
    for n in range(1, 8):
        assert det_bareiss(ramanujan_matrix(n)) == math.factorial(n)
        assert ramanujan_matrix_det(n) == math.factorial(n)


def test_kth_root_values():
    assert kth_root(9, 2) == 3
    assert kth_root(8, 2) is None
    # first-power roots are the numbers themselves
    weights = list(range(1, 5))
    m = kth_root_matrix(4, 1, weights)
    p = divisor_poset(range(1, 5))
    for i, a in enumerate(p.lin_ext):
        for j, b in enumerate(p.lin_ext):
            total = 0
            for c in range(4):
                if p.leq(c, a) and p.leq(c, b):
                    total += ((a + 1) // (c + 1)) * (c + 1) * ((b + 1) // (c + 1))
            assert m[i, j] == total


def test_kth_root_matrix_needs_one_weight_per_element():
    with pytest.raises(ValueError, match="^need one weight per element$"):
        kth_root_matrix(4, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="^need one weight per element$"):
        kth_root_matrix_det(4, 2, [1, 2, 3, 4, 5])


def test_kth_root_matrix_determinants():
    weights4 = list(range(1, 5))
    assert det_bareiss(kth_root_matrix(4, 2, weights4)) == 24
    for n in range(1, 9):
        weights = list(range(1, n + 1))
        expected = math.factorial(n)
        for k in (1, 2, 3):
            assert det_bareiss(kth_root_matrix(n, k, weights)) == expected
            assert kth_root_matrix_det(n, k, weights) == expected


def test_meet_matrix_singleton():
    p = Poset.from_covers(1, [])
    f = IncidenceFunction(p, {(0, 0): 9})
    assert meet_matrix(p, f) == SquareMatrix([[9]])
    assert meet_matrix_det(p, f) == 9


def test_meet_matrix_on_divisor_chain_is_gcd_matrix():
    vals = [1, 2, 4]
    p = divisor_poset(vals)
    f = lower_value_function(p, vals)
    assert meet_matrix(p, f) == gcd_matrix(vals)


def test_meet_matrix_entries_on_vee():
    p = vee()
    rng = random.Random("meetvee")
    f = random_incidence(rng, p)
    m = meet_matrix(p, f)
    for i, a in enumerate(p.lin_ext):
        for j, b in enumerate(p.lin_ext):
            assert m[i, j] == f(p.meet(a, b), a)


def test_meet_matrix_requires_semilattice():
    two = Poset.from_covers(2, [])
    f = zeta_function(two)
    with pytest.raises(ValueError):
        meet_matrix(two, f)
    with pytest.raises(ValueError):
        meet_matrix_det(two, f)


def test_meet_matrix_det_with_zeta_weights():
    # With the all-ones incidence function every entry is 1, so the
    # determinant vanishes except for the singleton.
    rng = random.Random("zetameet")
    for _ in range(15):
        p = random_meet_semilattice(rng, rng.randint(1, 6))
        z = zeta_function(p)
        expected = 1 if p.n == 1 else 0
        assert det_bareiss(meet_matrix(p, z)) == expected
        assert meet_matrix_det(p, z) == expected


def test_meet_matrix_det_oracle_campaign():
    rng = random.Random("lindstrom")
    for _ in range(60):
        p = random_meet_semilattice(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        assert det_bareiss(meet_matrix(p, f)) == meet_matrix_det(p, f)


def test_meet_matrix_from_mobius_inversion_construction():
    # Building the left factor by Möbius inversion of f turns the meet
    # matrix into an incidence product against zeta.
    rng = random.Random("inversionbuild")
    for _ in range(25):
        p = random_meet_semilattice(rng, rng.randint(1, 6))
        f = random_incidence(rng, p)
        mu = mobius_function(p)
        table = {}
        for a in range(p.n):
            for b in p.above(a):
                total = 0
                for c in p.below(a):
                    total = total + f(c, b) * mu(c, a)
                table[(a, b)] = total
        built = IncidenceFunction(p, table)
        assert incidence_product_matrix(p, built, zeta_function(p)) == meet_matrix(p, f)


def test_meet_matrix_on_factor_closed_sets_gives_totients():
    for seed_vals in ([1, 2, 3, 4, 6, 12], [1, 2, 3, 5, 6, 10, 15, 30]):
        p = divisor_poset(seed_vals)
        f = lower_value_function(p, seed_vals)
        assert meet_matrix(p, f) == gcd_matrix(seed_vals)
        assert meet_matrix_det(p, f) == totient_product(seed_vals)
        assert det_bareiss(gcd_matrix(seed_vals)) == totient_product(seed_vals)


def test_gcd_matrix_small_sets():
    assert gcd_matrix([1]) == SquareMatrix([[1]])
    assert det_bareiss(gcd_matrix([1])) == 1
    assert det_bareiss(gcd_matrix([1, 2, 3, 4])) == 4
    assert det_cofactor(gcd_matrix([1, 2, 3, 4])) == 4
    assert totient_product([1, 2, 3, 4]) == 4
    assert det_bareiss(gcd_matrix(list(range(1, 7)))) == 32
    assert det_cofactor(gcd_matrix(list(range(1, 7)))) == 32
    assert totient_product(range(1, 7)) == 32


def test_gcd_matrix_validation():
    with pytest.raises(ValueError):
        gcd_matrix([])
    with pytest.raises(ValueError):
        gcd_matrix([2, 2])
    with pytest.raises(ValueError):
        gcd_matrix([0, 1])


def test_is_factor_closed():
    assert is_factor_closed([1, 2, 3, 4, 6, 12])
    assert not is_factor_closed([2, 4])
    assert is_factor_closed([1])


def test_is_factor_closed_matches_the_all_divisors_definition():
    rng = random.Random("factor-closed")
    verdicts = []
    for _ in range(500):
        s = set()
        for _ in range(rng.randint(1, 3)):
            s |= set(divisors(rng.randint(1, 5000)))
        if rng.random() < 0.5:
            s.discard(rng.choice(sorted(s)))
            s.add(rng.randint(1, 5000))
        s = sorted(s)
        rng.shuffle(s)
        expected = all(d in s for a in s for d in divisors(a))
        assert is_factor_closed(s) == expected, s
        verdicts.append(expected)
    assert 150 <= verdicts.count(False) <= 350


def test_gcd_matrix_matches_the_nested_gcd_matrix():
    rng = random.Random("gcd-matrix")
    for size in (1, 2, 7, 30, 120):
        vals = rng.sample(range(1, 10**6), size)
        assert gcd_matrix(vals) == SquareMatrix(
            [[math.gcd(a, b) for b in vals] for a in vals]
        )
    vals = divisors(55440)
    rng.shuffle(vals)
    assert gcd_matrix(vals) == SquareMatrix([[math.gcd(a, b) for b in vals] for a in vals])


def test_smith_identity_on_random_closures():
    rng = random.Random("smith")
    for _ in range(15):
        s = random_factor_closed_set(rng)
        assert is_factor_closed(s)
        assert det_bareiss(gcd_matrix(s)) == totient_product(s)


def test_meet_closed_spot_instance():
    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    idx = {v: i for i, v in enumerate(vals)}
    subset = [idx[2], idx[4], idx[6]]
    f = lower_value_function(p, vals)
    m = meet_closed_matrix(p, subset, f)
    # rows/columns in extension order (2, 4, 6); entries are gcds
    expected = SquareMatrix(
        [
            [2, 2, 2],
            [2, 4, 2],
            [2, 2, 6],
        ]
    )
    assert m == expected
    assert det_bareiss(m) == 16
    assert meet_closed_det(p, subset, f) == 16


def test_meet_closed_rejects_open_subsets():
    vals = [1, 2, 3, 4, 6, 12]
    p = divisor_poset(vals)
    idx = {v: i for i, v in enumerate(vals)}
    f = lower_value_function(p, vals)
    with pytest.raises(ValueError):
        meet_closed_matrix(p, [idx[4], idx[6]], f)  # missing the meet 2
    with pytest.raises(ValueError):
        meet_closed_det(p, [], f)


@pytest.mark.parametrize("subset, member", [([0, 99], "99"), ([-1], "-1")])
@pytest.mark.parametrize("build", [meet_closed_matrix, meet_closed_det])
def test_meet_closed_subset_members_must_be_elements(build, subset, member):
    p = Poset.from_covers(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match=f"subset member {member} is not an element"):
        build(p, subset, zeta_function(p))


def test_meet_closed_random_campaign():
    rng = random.Random("meetclosed")
    for _ in range(25):
        lattice, subset = random_meet_closed_instance(rng)
        f = random_incidence(rng, lattice)
        det = det_bareiss(meet_closed_matrix(lattice, subset, f))
        assert meet_closed_det(lattice, subset, f) == det


def meet_closed_det_oracle(semilattice, subset, f):
    """meet_closed_det with each ambient element's owning member kept in a
    dict that is scanned once per member."""
    s = sorted(set(subset), key=semilattice.position)
    mu = mobius_function(semilattice)
    owner = {}
    for i, a in enumerate(s):
        for d in sorted(semilattice.below(a)):
            owner.setdefault(d, i)
    acc = 1
    for i, a in enumerate(s):
        factor = 0
        for d, j in owner.items():
            if j != i:
                continue
            for c in semilattice.below(d):
                factor = factor + f(c, a) * mu(c, d)
        acc = acc * factor
    return acc


def test_meet_closed_det_matches_the_owner_scan():
    rng = random.Random("meetclosed-oracle")
    nonzero = 0
    for _ in range(300):
        lattice, subset = random_meet_closed_instance(rng)
        f = random_incidence(rng, lattice)
        expected = meet_closed_det_oracle(lattice, subset, f)
        assert meet_closed_det(lattice, subset, f) == expected
        nonzero += expected != 0
    assert nonzero > 150


def test_meet_closed_agrees_with_meet_matrix_on_lower_closed_subsets():
    rng = random.Random("meetlower")
    found = 0
    while found < 12:
        lattice, subset = random_meet_closed_instance(rng)
        closure = set(subset)
        for a in subset:
            closure |= lattice.below(a)
        subset = sorted(closure)  # lower closure is still meet closed
        f = random_incidence(rng, lattice)
        det = det_bareiss(meet_closed_matrix(lattice, subset, f))
        assert meet_closed_det(lattice, subset, f) == det
        sub = lattice.induced(subset)
        restricted = f.restrict(sub)
        assert meet_matrix_det(sub, restricted) == det
        assert det_bareiss(meet_matrix(sub, restricted)) == det
        found += 1


def test_meet_matrix_det_is_meet_closed_det_over_every_element():
    # Lindström's determinant is the meet-closed one with the whole
    # semilattice as the subset, each element charged to itself
    rng = random.Random("lindstrom-is-meet-closed")
    kinds, nonzero = set(), 0
    for draw in range(60):
        value = poly_value if draw % 3 == 0 else int_value
        for s in (
            random_meet_semilattice(rng, rng.randint(1, 6)),
            grown_meet_semilattice(rng, rng.randint(1, 64)),
        ):
            f = sparse_incidence(rng, s, value)
            det = meet_matrix_det(s, f)
            assert det == meet_closed_det(s, range(s.n), f)
            kinds.add(type(f.zero))
            nonzero += det != 0
    assert kinds == {int, Poly}
    assert nonzero > 20


def _small_incidence(rng, p):
    """random_incidence with values in [-3, 3], drawn in the same order."""
    values = {
        (a, b): rng.randint(-3, 3) for a in range(p.n) for b in sorted(p.above(a))
    }
    return IncidenceFunction(p, values)


def test_invertibility_predicate_matches_determinant():
    rng = random.Random("invertible")
    for _ in range(60):
        p = random_poset(rng, rng.randint(1, 6))
        f = _small_incidence(rng, p)
        g = _small_incidence(rng, p)
        det = det_bareiss(incidence_product_matrix(p, f, g))
        assert product_matrix_invertible(p, f, g) == (det != 0)


def test_positive_definite_zeta_case():
    rng = random.Random("pdzeta")
    for _ in range(15):
        p = random_poset(rng, rng.randint(1, 6))
        z = zeta_function(p)
        assert product_matrix_positive_definite(
            incidence_product_matrix(p, z, z), p, z, z
        )
        minors = leading_principal_minors(incidence_product_matrix(p, z, z))
        assert all(m == 1 for m in minors)


def test_single_negative_diagonal_is_invertible_but_not_definite():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    f = IncidenceFunction(p, {(a, a): 1 for a in range(3)})
    g = IncidenceFunction(
        p, {(0, 0): 1, (1, 1): -1, (2, 2): 1}
    )
    assert product_matrix_invertible(p, f, g)
    assert not product_matrix_positive_definite(incidence_product_matrix(p, f, g), p, f, g)
    minors = leading_principal_minors(incidence_product_matrix(p, f, g))
    assert [m > 0 for m in minors] == [True, False, False]


def test_positive_definite_predicate_matches_minors():
    rng = random.Random("pdcampaign")
    for _ in range(50):
        p = random_poset(rng, rng.randint(1, 6))
        f, g = random_symmetric_pair(rng, p)
        minors = leading_principal_minors(incidence_product_matrix(p, f, g))
        assert product_matrix_positive_definite(
            incidence_product_matrix(p, f, g), p, f, g
        ) == all(m > 0 for m in minors)


def order_ideal_dets(p, f, g):
    """The theorem's det on each order ideal {a_0, ..., a_k} of p.lin_ext:
    the prefix products of f(a, a) g(a, a), up to the first 0."""
    dets = []
    for a in p.lin_ext:
        d = f(a, a) * g(a, a)
        dets.append(dets[-1] * d if dets else d)
        if not dets[-1]:
            break
    return dets


def test_leading_minors_are_the_dets_on_order_ideals():
    # in linear-extension order the first k elements form an order ideal,
    # so the leading k x k block of Fᵀ G is the product matrix on it
    rng = random.Random("order-ideals")
    cut = 0
    for trial in range(200):
        p = random_poset(rng, rng.randint(1, 64))
        if trial % 2:
            f, g = random_symmetric_pair(rng, p)
        else:
            f, g = random_incidence(rng, p), random_incidence(rng, p)
        minors = leading_principal_minors(incidence_product_matrix(p, f, g))
        assert minors == order_ideal_dets(p, f, g)
        cut += len(minors) < p.n
    assert cut > 50

    def poly_incidence(p):
        # c + d q, with c nonzero on the diagonal: no order ideal's det is 0
        def value(a, b):
            c = rng.choice((-2, -1, 1, 2)) if a == b else rng.randint(-2, 2)
            return Poly((c, rng.randint(-2, 2)))

        return IncidenceFunction(p, {(a, b): value(a, b) for a in range(p.n) for b in p.above(a)})

    for _ in range(8):
        p = random_poset(rng, rng.randint(1, 10))
        f, g = poly_incidence(p), poly_incidence(p)
        minors = leading_principal_minors(incidence_product_matrix(p, f, g))
        assert len(minors) == p.n and minors == order_ideal_dets(p, f, g)


def test_zero_diagonal_symmetric_instances_are_singular():
    rng = random.Random("pdzero")
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 6))
        f, g = random_symmetric_pair(rng, p, force_zero_diag=True)
        assert det_bareiss(incidence_product_matrix(p, f, g)) == 0
        assert not product_matrix_invertible(p, f, g)


def test_positive_definite_rejects_asymmetric_and_polynomial_input():
    p = vee()
    f = IncidenceFunction(p, {(0, 0): 1, (0, 1): 2, (1, 1): 1, (2, 2): 1})
    g = zeta_function(p)
    with pytest.raises(ValueError):
        product_matrix_positive_definite(incidence_product_matrix(p, f, g), p, f, g)
    fq = IncidenceFunction(p, {(a, a): Poly((1,)) for a in range(3)})
    with pytest.raises(ValueError):
        product_matrix_positive_definite(incidence_product_matrix(p, fq, fq), p, fq, fq)


# -- The table-reading builders and predictors against their per-entry
# definitions, through f(a, b) and meet --


def ring_one(f):
    return Poly((1,)) if type(f.zero) is Poly else 1


def diagonal_product_oracle(p, f, g):
    acc = ring_one(f)
    for a in range(p.n):
        acc = acc * (f(a, a) * g(a, a))
    return acc


def meet_rows_oracle(p, f, s):
    return SquareMatrix([[f(p.meet(a, b), a) for b in s] for a in s])


def meet_det_oracle(p, f):
    mu = mobius_function(p)
    acc = ring_one(f)
    for a in range(p.n):
        term = f.zero
        for c in p.below(a):
            term = term + f(c, a) * mu(c, a)
        acc = acc * term
    return acc


def test_table_reading_builders_match_their_per_entry_definitions():
    rng = random.Random("per-entry-oracle")

    kinds = set()
    for draw in range(300):
        value = poly_value if draw % 3 == 0 else int_value
        p = random_poset(rng, rng.randint(1, 8))
        f = sparse_incidence(rng, p, value)
        g = sparse_incidence(rng, p, value)
        lin = p.lin_ext
        assert incidence_matrix(p, f) == SquareMatrix([[f(a, b) for b in lin] for a in lin])
        assert incidence_product_matrix(p, f, g) == product_matrix_oracle(p, f, g)
        assert incidence_product_det(p, f, g) == diagonal_product_oracle(p, f, g)
        assert product_matrix_invertible(p, f, g) == all(
            f(a, a) and g(a, a) for a in range(p.n)
        )
        n = rng.randint(1, 10)
        if n <= 6:
            s = random_meet_semilattice(rng, n)
        else:
            s = grown_meet_semilattice(rng, n)
        h = sparse_incidence(rng, s, value)
        assert meet_matrix(s, h) == meet_rows_oracle(s, h, s.lin_ext)
        assert meet_matrix_det(s, h) == meet_det_oracle(s, h)
        lattice, subset = random_meet_closed_instance(rng)
        k = sparse_incidence(rng, lattice, value)
        assert meet_closed_matrix(lattice, subset, k) == meet_rows_oracle(lattice, k, subset)
        kinds.add(type(f.zero))
    assert kinds == {int, Poly}


def meet_closed_instance_oracle(rng):
    """random_meet_closed_instance as first written: every pass re-sorts
    the chosen set for each a and for each b."""
    m = rng.randint(2, 60)
    vals = divisors(m)
    lattice = divisor_poset(vals)
    k = rng.randint(1, len(vals))
    chosen = set(rng.sample(range(len(vals)), k))
    changed = True
    while changed:
        changed = False
        for a in sorted(chosen):
            for b in sorted(chosen):
                c = lattice.meet(a, b)
                if c not in chosen:
                    chosen.add(c)
                    changed = True
    return lattice, sorted(chosen)


def test_meet_closed_instance_matches_the_resorting_loop():
    for seed in range(500):
        rng, old = random.Random(seed), random.Random(seed)
        lattice, subset = random_meet_closed_instance(rng)
        old_lattice, old_subset = meet_closed_instance_oracle(old)
        assert lattice == old_lattice and subset == old_subset
        assert rng.getstate() == old.getstate()


# The divisor-order builders as they were written before _by_quotient
# served both, kept as the reference for their tables.
def _loop_ramanujan_tables(n):
    p = divisor_poset(range(1, n + 1))
    mu = [0] + [mobius(q) for q in range(1, n + 1)]
    pairs = [(a, b) for a in range(n) for b in p.above(a)]
    return {(a, b): a + 1 for a, b in pairs}, {(a, b): mu[(b + 1) // (a + 1)] for a, b in pairs}


def _loop_kth_root_tables(n, k):
    p = divisor_poset(range(1, n + 1))
    roots = [0] + [kth_root(q, k) or 0 for q in range(1, n + 1)]
    omega = {(a, b): roots[(b + 1) // (a + 1)] for a in range(n) for b in p.above(a)}
    # scaled by the weights 1..n, that is, by a + 1 at the source a
    return {(a, b): v * (a + 1) for (a, b), v in omega.items()}, omega


def test_divisor_order_configurations_match_the_inline_builders():
    for n in range(1, 65):
        p, f, g = _ramanujan_config(n)
        assert p == divisor_poset(range(1, n + 1))
        assert (f._table, g._table) == _loop_ramanujan_tables(n)
        for k in range(1, 5):
            p, f, g = _kth_root_config(n, k, range(1, n + 1))
            assert p == divisor_poset(range(1, n + 1))
            assert (f._table, g._table) == _loop_kth_root_tables(n, k)
