"""Acceptance checks.

Every check here is exact (integer, rational, or polynomial equality);
the stated runtime budgets are asserted.  One PASS/FAIL line is printed
per criterion (visible with pytest -s).
"""

import math
import random
import time
from contextlib import contextmanager

from posetdet.arith import ramanujan_sum
from posetdet.chromatic import (
    _formula_exponents,
    chromatic_join_matrix,
    noncrossing_partitions,
    verify_chromatic_join_det,
)
from posetdet.identities import (
    gcd_matrix,
    incidence_matrix,
    incidence_product_det,
    incidence_product_matrix,
    is_factor_closed,
    kth_root_matrix,
    kth_root_matrix_det,
    meet_closed_det,
    meet_closed_matrix,
    meet_matrix,
    meet_matrix_det,
    product_matrix_positive_definite,
    ramanujan_matrix,
    ramanujan_matrix_det,
    totient_product,
)
from posetdet.lgv import (
    family_weight,
    nonintersecting_families,
    stembridge_matrix,
    three_layer_digraph,
    verify_stembridge,
)
from posetdet.matrix import det_bareiss, det_cofactor, leading_principal_minors
from posetdet.poset import IncidenceFunction, Poset, divisor_poset
from posetdet.randgen import (
    random_factor_closed_set,
    random_incidence,
    random_meet_closed_instance,
    random_meet_semilattice,
    random_poset,
    random_symmetric_pair,
)
from posetdet.ring import Poly

SEED = 42


@contextmanager
def criterion(label, budget=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.1f}s exceeded {budget}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def suite_cases(count=200, max_size=7):
    """The seeded random campaign shared by criteria 2, 3, and 4."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(count):
        p = random_poset(rng, rng.randint(1, max_size))
        f = random_incidence(rng, p)
        g = random_incidence(rng, p)
        cases.append((p, f, g))
    return cases


def test_criterion_1_smith_factor_closed_sets():
    with criterion("criterion-1 smith", budget=5.0):
        rng = random.Random(SEED)
        for _ in range(50):
            s = random_factor_closed_set(rng)
            assert is_factor_closed(s)
            assert det_bareiss(gcd_matrix(s)) == totient_product(s)
        spot = gcd_matrix([1, 2, 3, 4])
        assert det_bareiss(spot) == det_cofactor(spot) == 4
        spot6 = gcd_matrix(list(range(1, 7)))
        assert det_bareiss(spot6) == det_cofactor(spot6) == 32


def test_criterion_2_main_identity():
    with criterion("criterion-2 main-identity", budget=10.0):
        passes = 0
        for p, f, g in suite_cases():
            m = incidence_product_matrix(p, f, g)
            assert det_bareiss(m) == incidence_product_det(p, f, g)
            passes += 1
        assert passes == 200
        vee = Poset.from_covers(3, [(0, 1), (0, 2)], labels=["a", "b", "c"])
        rng = random.Random(SEED + 1)
        for _ in range(20):
            f = random_incidence(rng, vee)
            g = random_incidence(rng, vee)
            m = incidence_product_matrix(vee, f, g)
            assert det_bareiss(m) == incidence_product_det(vee, f, g)


def test_criterion_3_transpose_factorization():
    with criterion("criterion-3 factorization"):
        for p, f, g in suite_cases():
            product = incidence_matrix(p, f).transpose() @ incidence_matrix(p, g)
            assert product == incidence_product_matrix(p, f, g)


def test_criterion_4_three_layer_path_families():
    with criterion("criterion-4 lgv-three-layer", budget=60.0):
        small = [(p, f, g) for p, f, g in suite_cases() if p.n <= 5]
        assert len(small) >= 30
        for p, f, g in small:
            d = three_layer_digraph(p, f, g)
            families = nonintersecting_families(d)
            assert len(families) == 1
            family = families[0]
            assert family.perm == tuple(range(p.n))
            assert family_weight(d, family) == incidence_product_det(p, f, g)
            assert stembridge_matrix(d) == incidence_product_matrix(p, f, g)
            assert verify_stembridge(d).passed


def test_criterion_5_meet_matrix_products():
    with criterion("criterion-5 lindstrom"):
        rng = random.Random(SEED)
        for _ in range(100):
            p = random_meet_semilattice(rng, rng.randint(1, 6))
            f = random_incidence(rng, p)
            assert det_bareiss(meet_matrix(p, f)) == meet_matrix_det(p, f)
        # the GCD specialization reproduces criterion 1
        rng = random.Random(SEED + 2)
        for _ in range(10):
            s = random_factor_closed_set(rng)
            p = divisor_poset(s)
            f = IncidenceFunction(
                p,
                {(a, b): s[a] for a in range(p.n) for b in p.above(a)},
            )
            assert meet_matrix(p, f) == gcd_matrix(s)
            assert meet_matrix_det(p, f) == totient_product(s)
            assert det_bareiss(gcd_matrix(s)) == totient_product(s)


def test_criterion_6_meet_closed_subsets():
    with criterion("criterion-6 meet-closed"):
        rng = random.Random(SEED)
        lower_closed_seen = 0
        for _ in range(50):
            lattice, subset = random_meet_closed_instance(rng)
            f = random_incidence(rng, lattice)
            det = det_bareiss(meet_closed_matrix(lattice, subset, f))
            assert meet_closed_det(lattice, subset, f) == det
            if lattice.is_lower_closed(subset):
                lower_closed_seen += 1
                sub = lattice.induced(subset)
                assert meet_matrix_det(sub, f.restrict(sub)) == det
        assert lower_closed_seen >= 1


def test_criterion_7_ramanujan_sums():
    with criterion("criterion-7 apostol", budget=2.0):
        for n in range(1, 11):
            m = ramanujan_matrix(n)
            for i in range(n):
                for j in range(n):
                    assert m[i, j] == ramanujan_sum(i + 1, j + 1)
            assert det_bareiss(m) == math.factorial(n)
            assert ramanujan_matrix_det(n) == math.factorial(n)


def test_criterion_8_kth_root_matrices():
    with criterion("criterion-8 daniloff"):
        for n in range(1, 11):
            weights = list(range(1, n + 1))
            expected = math.factorial(n)
            for k in (1, 2, 3):
                assert det_bareiss(kth_root_matrix(n, k, weights)) == expected
                assert kth_root_matrix_det(n, k, weights) == expected


def test_criterion_9_chromatic_join_formula():
    with criterion("criterion-9 tutte", budget=300.0):
        for n in range(2, 6):
            report = verify_chromatic_join_det(n)
            assert report.passed, f"n={n}"
            assert all(e >= 0 for e in _formula_exponents(n))
        det3 = det_bareiss(chromatic_join_matrix(3))
        q = Poly.variable()
        assert det3 == q**5 * (q - Poly((1,))) ** 4 * (q - Poly((2,)))
        for n in range(1, 7):
            from posetdet.arith import binomial

            assert len(noncrossing_partitions(n)) == binomial(2 * n, n) // (n + 1)


def test_criterion_10_definiteness():
    with criterion("criterion-10 definiteness"):
        rng = random.Random(SEED)
        for _ in range(100):
            p = random_poset(rng, rng.randint(1, 6))
            f, g = random_symmetric_pair(rng, p)
            minors = leading_principal_minors(incidence_product_matrix(p, f, g))
            assert product_matrix_positive_definite(
                incidence_product_matrix(p, f, g), p, f, g
            ) == all(m > 0 for m in minors)
        for _ in range(50):
            p = random_poset(rng, rng.randint(1, 6))
            f, g = random_symmetric_pair(rng, p, force_zero_diag=True)
            assert det_bareiss(incidence_product_matrix(p, f, g)) == 0
