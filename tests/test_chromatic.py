import pytest

from posetdet.arith import binomial
from posetdet.chromatic import (
    SetPartition,
    _join_block_counts,
    _nodes,
    _schur_block_dets,
    all_partitions,
    beraha,
    chromatic_join_det,
    chromatic_join_matrix,
    is_noncrossing,
    join_partitions,
    noncrossing_partitions,
    refines,
    verify_chromatic_join_det,
)
from posetdet.matrix import SquareMatrix, det_bareiss
from posetdet.ring import InexactDivisionError, Poly


def bell(n):
    # Bell numbers via the triangle recurrence; the last entry of row n is B_n
    row = [1]
    for _ in range(n - 1):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[-1]


def catalan(n):
    return binomial(2 * n, n) // (n + 1)


def test_set_partition_canonical_form():
    p = SetPartition(4, [[3, 1], [4, 2]])
    assert p.blocks == ((1, 3), (2, 4))
    assert p.num_blocks == 2
    assert str(p) == "1,3|2,4"
    assert p.block_ids() == (0, 1, 0, 1)
    assert SetPartition(4, [[4, 2], [3, 1]]).block_ids() == (0, 1, 0, 1)


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])  # 3 missing
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2, 3], []])  # empty block
    with pytest.raises(ValueError, match="ground sets differ"):
        refines(SetPartition(2, [[1, 2]]), SetPartition(3, [[1, 2, 3]]))


@pytest.mark.parametrize("element", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_set_partition_rejects_elements_that_are_not_ints(element):
    # True == 1 and 1.0 == 1 would cover {1, 2}; "1" does not sort with 2
    with pytest.raises(ValueError, match="must be ints"):
        SetPartition(2, [[element, 2]])


@pytest.mark.parametrize(
    "n, blocks",
    [(2.0, [[1], [2]]), (True, [[1]]), (-1, [])],
    ids=["float", "bool", "negative"],
)
def test_set_partition_rejects_a_size_that_is_not_a_nonnegative_int(n, blocks):
    # 2.0 made range() raise a bare TypeError; True and -1 were accepted
    with pytest.raises(ValueError, match="ground set size"):
        SetPartition(n, blocks)


def test_all_partitions_counts():
    assert len(all_partitions(1)) == 1
    assert len(all_partitions(3)) == 5
    assert len(all_partitions(4)) == 15
    for n in range(1, 8):
        assert len(all_partitions(n)) == bell(n)


def test_all_partitions_order_and_uniqueness():
    for n in (2, 3, 4):
        parts = all_partitions(n)
        assert parts[0] == SetPartition(n, [[i] for i in range(1, n + 1)])
        assert parts[-1] == SetPartition(n, [list(range(1, n + 1))])
        assert len(set(parts)) == len(parts)
        assert parts == all_partitions(n)  # deterministic


def test_all_partitions_range():
    with pytest.raises(ValueError):
        all_partitions(0)
    with pytest.raises(ValueError):
        all_partitions(10)


def test_is_noncrossing():
    assert all(is_noncrossing(p) for p in all_partitions(3))
    assert not is_noncrossing(SetPartition(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(SetPartition(4, [[1, 4], [2, 3]]))


def test_noncrossing_counts_are_catalan():
    assert len(noncrossing_partitions(3)) == 5
    assert len(noncrossing_partitions(4)) == 14
    assert len(noncrossing_partitions(5)) == 42
    for n in range(1, 8):
        assert len(noncrossing_partitions(n)) == catalan(n)


def test_join_examples():
    a = SetPartition(3, [[1, 2], [3]])
    b = SetPartition(3, [[1], [2, 3]])
    assert join_partitions(a, b) == SetPartition(3, [[1, 2, 3]])
    bottom = SetPartition(3, [[1], [2], [3]])
    assert join_partitions(bottom, b) == b
    assert join_partitions(a, a) == a
    with pytest.raises(ValueError):
        join_partitions(a, SetPartition(2, [[1], [2]]))


def test_join_lattice_axioms_exhaustive():
    for n in (2, 3, 4, 5):
        parts = all_partitions(n)
        bottom = parts[0]
        top = parts[-1]
        for a in parts:
            assert join_partitions(a, a) == a
            assert join_partitions(a, bottom) == a
            assert join_partitions(a, top) == top
            for b in parts:
                assert join_partitions(a, b) == join_partitions(b, a)


def test_join_associative_exhaustive():
    for n in (2, 3, 4, 5):
        parts = all_partitions(n)
        joins = {
            (i, j): join_partitions(a, b)
            for i, a in enumerate(parts)
            for j, b in enumerate(parts)
        }
        index = {p: i for i, p in enumerate(parts)}
        for i in range(len(parts)):
            for j in range(len(parts)):
                ij = index[joins[(i, j)]]
                for k in range(len(parts)):
                    jk = index[joins[(j, k)]]
                    assert joins[(ij, k)] == joins[(i, jk)]


def test_join_is_least_upper_bound():
    for n in (2, 3, 4):
        parts = all_partitions(n)
        for a in parts:
            for b in parts:
                j = join_partitions(a, b)
                assert refines(a, j) and refines(b, j)
                for c in parts:
                    if refines(a, c) and refines(b, c):
                        assert refines(j, c)


def test_refines_agrees_with_the_join_oracle():
    # a refines b exactly when their join is b, on every ordered pair of Pi_n
    for n in range(1, 7):
        parts = all_partitions(n)
        for a in parts:
            for b in parts:
                assert refines(a, b) == (join_partitions(a, b) == b)
    with pytest.raises(ValueError, match="ground sets differ"):
        refines(SetPartition(3, [[1], [2, 3]]), SetPartition(2, [[1], [2]]))


def test_block_counts():
    assert SetPartition(4, [[1], [2], [3], [4]]).num_blocks == 4
    assert SetPartition(4, [[1, 2, 3, 4]]).num_blocks == 1
    assert SetPartition(3, [[1, 2], [3]]).num_blocks == 2


def test_chromatic_join_matrix_n2():
    m = chromatic_join_matrix(2)
    q = Poly((0, 1))
    q2 = Poly((0, 0, 1))
    assert m == SquareMatrix([[q2, q], [q, q]])


def test_chromatic_join_matrix_diagonal_and_symmetry():
    for n in (2, 3, 4, 5):
        ncs = noncrossing_partitions(n)
        m = chromatic_join_matrix(n)
        assert m.is_symmetric()
        for i, a in enumerate(ncs):
            assert m[i, i] == Poly.monomial(a.num_blocks)


def test_chromatic_join_matrix_range():
    with pytest.raises(ValueError):
        chromatic_join_matrix(1)
    with pytest.raises(ValueError):
        chromatic_join_matrix(7)


def test_chromatic_join_det_n3_factored_form():
    det = det_bareiss(chromatic_join_matrix(3))
    q = Poly.variable()
    one = Poly((1,))
    expected = (
        q**5 * (q - one) ** 4 * (q - Poly((2,)))
    )
    assert det == expected


def test_det_degree_matches_block_count_sum():
    for n in (2, 3, 4):
        det = det_bareiss(chromatic_join_matrix(n))
        assert det.degree == sum(a.num_blocks for a in noncrossing_partitions(n))


def test_chromatic_join_det_matches_poly_bareiss_oracle():
    for n in (2, 3, 4):
        assert chromatic_join_det(n) == det_bareiss(chromatic_join_matrix(n))


def join_table_det(n):
    """Oracle that never leaves the C_n x C_n join table: q^rows times the
    interpolant of its integer Bareiss dets, exponents lowered by one, at
    the D + 1 integers of smallest magnitude."""
    exponents = [[b - 1 for b in row] for row in _join_block_counts(n)]
    bound = sum(row[i] for i, row in enumerate(exponents))
    xs = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 1)]
    ys = []
    for x in xs:
        powers = [x**e for e in range(n)]
        ys.append(
            det_bareiss(SquareMatrix([[powers[e] for e in row] for row in exponents]))
        )
    return Poly.monomial(len(exponents)) * Poly.interpolate(xs, ys)


def test_join_table_oracle_matches_poly_bareiss():
    for n in (2, 3, 4):
        assert join_table_det(n) == det_bareiss(chromatic_join_matrix(n))


def test_chromatic_join_det_matches_join_table_oracle():
    for n in (2, 3, 4, 5):
        assert chromatic_join_det(n) == join_table_det(n)


def falling(x, k):
    out = 1
    for i in range(k):
        out *= x - i
    return out


def test_join_matrix_is_an_incidence_product_over_the_partition_lattice():
    # M(x) = Z D Z^T: Z[a, sigma] = [a refines sigma] over NC(n) x Pi_n and
    # D = diag((x)_blocks(sigma)), so the chromatic join matrix is the main
    # theorem's incidence-product matrix on the dual of Pi_n
    for n in (2, 3, 4, 5):
        ncs = noncrossing_partitions(n)
        parts = all_partitions(n)
        z = [[int(refines(a, s)) for s in parts] for a in ncs]
        m = chromatic_join_matrix(n)
        for x in (7, -3):
            d = [falling(x, s.num_blocks) for s in parts]
            for i in range(len(ncs)):
                for j in range(len(ncs)):
                    zdz = sum(z[i][k] * d[k] * z[j][k] for k in range(len(parts)))
                    assert m[i, j].evaluate(x) == zdz


def test_schur_blocks_are_interpolated_from_their_degree_bound():
    # every entry in row sigma of H has degree <= n - b(sigma), so block B
    # is interpolated from sum over B of (n - b(sigma)) + 1 nodes; built
    # here from Z's definition at the next two nodes, its det must agree,
    # and the bound must be exactly its degree
    for n in (2, 3, 4, 5, 6):
        parts = sorted(all_partitions(n), key=lambda p: -p.num_blocks)
        ncs = [p for p in parts if is_noncrossing(p)]
        crossing = [p for p in parts if not is_noncrossing(p)]
        z1 = [[int(refines(a, s)) for s in ncs] for a in ncs]
        z2 = [[int(refines(a, s)) for s in crossing] for a in ncs]
        w = [None] * len(ncs)
        for i in range(len(ncs) - 1, -1, -1):
            w[i] = [
                z2[i][k] - sum(z1[i][j] * w[j][k] for j in range(i + 1, len(ncs)) if z1[i][j])
                for k in range(len(crossing))
            ]
        for i in range(len(ncs)):
            for k in range(len(crossing)):
                assert sum(z1[i][j] * w[j][k] for j in range(len(ncs))) == z2[i][k]
        blocks = _schur_block_dets(n, ncs, crossing)
        assert sorted(i for members, _ in blocks for i in members) == list(range(len(crossing)))
        for members, det in blocks:
            degree = sum(n - crossing[i].num_blocks for i in members)
            assert det.degree == degree
            for x in _nodes(n, degree + 3)[-2:]:
                h = [
                    [
                        (s == t) * falling(x - crossing[s].num_blocks, n - crossing[s].num_blocks)
                        + sum(
                            row[s] * row[t] * falling(x - a.num_blocks, n - a.num_blocks)
                            for a, row in zip(ncs, w)
                        )
                        for t in members
                    ]
                    for s in members
                ]
                assert det.evaluate(x) == det_bareiss(SquareMatrix(h))
        # the largest block and its degree: 5 x 5 of degree 10 at n = 5,
        # 26 x 26 of degree 64 at n = 6
        if n >= 5:
            members, det = max(blocks, key=lambda block: len(block[0]))
            assert (len(members), det.degree) == {5: (5, 10), 6: (26, 64)}[n]


def test_chromatic_join_det_degree_and_lowest_power():
    # degree is the diagonal's block sum and the lowest nonzero power is
    # exactly q^rows: 126 and q^42 at n = 5, 462 and q^132 at n = 6
    for n in (2, 3, 4, 5, 6):
        ncs = noncrossing_partitions(n)
        det = chromatic_join_det(n)
        assert det.degree == sum(a.num_blocks for a in ncs)
        lowest = next(i for i, c in enumerate(det.coeffs) if c)
        assert lowest == len(ncs)


def test_broken_schur_block_leaves_an_inexact_division(monkeypatch):
    import posetdet.chromatic as chromatic

    # the divisor prod over X of (q)_n / (q)_blocks is monic, so a remainder
    # can only come from a wrong block determinant; at n = 4 the noncrossing
    # falling factorials cancel all of the divisor whatever the block is
    original = chromatic._schur_block_dets

    def off_by_one(n, ncs, crossing):
        blocks = original(n, ncs, crossing)
        members, det = blocks[0]
        return [(members, det + Poly.const(1))] + blocks[1:]

    monkeypatch.setattr(chromatic, "_schur_block_dets", off_by_one)
    for n in (5, 6):
        with pytest.raises(InexactDivisionError):
            chromatic_join_det(n)


def test_out_of_range_raises_before_any_evaluation(monkeypatch):
    import posetdet.chromatic as chromatic

    def forbidden(*args):
        raise AssertionError("evaluated an out-of-range chromatic join matrix")

    monkeypatch.setattr(chromatic, "all_partitions", forbidden)
    monkeypatch.setattr(chromatic, "noncrossing_partitions", forbidden)
    monkeypatch.setattr(chromatic, "det_bareiss", forbidden)
    for n in (1, 7):
        with pytest.raises(ValueError):
            verify_chromatic_join_det(n)
        with pytest.raises(ValueError):
            chromatic_join_det(n)


def test_beraha_polynomials():
    q = Poly.variable()
    assert beraha(0) == Poly()
    assert beraha(1) == Poly((1,))
    assert beraha(2) == q
    assert beraha(3) == q - Poly((1,))
    assert beraha(4) == q * q - Poly((0, 2))
    assert beraha(5) == Poly((1, -3, 1))
    assert beraha(6) == Poly((0, 3, -4, 1))
    with pytest.raises(ValueError):
        beraha(-1)


def test_beraha_roots():
    assert beraha(3).evaluate(1) == 0
    assert beraha(4).evaluate(2) == 0
    assert beraha(6).evaluate(3) == 0
    assert beraha(6).evaluate(1) == 0


def test_formula_exponents_are_integers_up_to_six():
    from posetdet.chromatic import _formula_exponents

    assert _formula_exponents(2) == [1]
    assert _formula_exponents(3) == [4, 1]
    assert _formula_exponents(5) == [48, 27, 8, 1]
    for n in range(2, 7):
        exps = _formula_exponents(n)
        assert all(e >= 0 for e in exps)


def test_verify_chromatic_join_det_n2_by_hand():
    # det T_2 = q^3 - q^2 and the identity reads det * q = q^3 (q - 1)
    report = verify_chromatic_join_det(2)
    assert report.passed
    assert report.computed == Poly((0, 0, -1, 1))
    lhs = report.computed * Poly.variable()
    rhs = Poly.monomial(3) * (Poly.variable() - Poly((1,)))
    assert lhs == rhs


def test_verify_chromatic_join_det_small():
    for n in (2, 3, 4):
        report = verify_chromatic_join_det(n)
        assert report.passed
        assert report.computed == report.predicted
        assert "factored:" in report.detail
    with pytest.raises(ValueError):
        verify_chromatic_join_det(1)
    with pytest.raises(ValueError):
        verify_chromatic_join_det(7)


def old_quotient(n, exponents):
    """The prediction as numerator / denominator, each multiplied out in
    full from the formula's factors before one exact division."""
    q = Poly.variable()
    numerator = Poly.monomial(binomial(2 * n - 1, n))
    denominator = Poly.const(1)
    for m, e in enumerate(exponents, start=1):
        numerator = numerator * beraha(m + 2) ** e
        denominator = denominator * (q * beraha(m)) ** e
    return numerator.exact_div(denominator)


def test_netted_prediction_equals_the_multiplied_out_quotient():
    from posetdet.chromatic import _formula_exponents

    for n in range(2, 7):
        report = verify_chromatic_join_det(n)
        assert report.predicted == old_quotient(n, _formula_exponents(n))
        assert report.passed


def test_a_leftover_denominator_that_divides_still_predicts(monkeypatch):
    import posetdet.chromatic as chromatic

    # with e = (1, 1, 2, 1) at n = 5, beraha(3) = q - 1 nets to exponent -1,
    # and beraha(6) = q (q - 1) (q - 3) in the numerator divides it out
    monkeypatch.setattr(chromatic, "_formula_exponents", lambda n: [1, 1, 2, 1])
    report = verify_chromatic_join_det(5)
    assert report.predicted is not None
    assert report.predicted == old_quotient(5, [1, 1, 2, 1])
    assert report.verdict == "fail"


def test_inexact_formula_quotient_fails_without_a_prediction(monkeypatch):
    import posetdet.chromatic as chromatic

    # with beraha(1) = 1 + q the denominator has the factor q + 1, which
    # does not divide the numerator: no prediction exists in Z[q]
    original = chromatic.beraha
    monkeypatch.setattr(chromatic, "beraha", lambda m: Poly((1, 1)) if m == 1 else original(m))
    for n in (2, 3, 4):
        report = verify_chromatic_join_det(n)
        assert report.verdict == "fail"
        assert report.predicted is None
        assert report.computed == chromatic_join_det(n)
        assert " predicted=- " in report.line()
        assert report.line().startswith("FAIL tutte det=")
