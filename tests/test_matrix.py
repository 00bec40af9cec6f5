import math
import random
import sys
from fractions import Fraction

import pytest

from posetdet import matrix, randgen
from posetdet.arith import divisors, euler_phi
from posetdet.identities import (
    _kth_root_config,
    _ramanujan_config,
    gcd_matrix,
    incidence_matrix,
    incidence_product_matrix,
    meet_matrix,
    totient_product,
)
from posetdet.matrix import (
    SquareMatrix,
    det_and_leading_minors,
    det_bareiss,
    det_cofactor,
    leading_principal_minors,
)
from posetdet.poset import IncidenceFunction
from posetdet.ring import InexactDivisionError, Poly


def random_int_matrix(rng, n, lo=-9, hi=9):
    return SquareMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_poly_matrix(rng, n, max_deg=3):
    return SquareMatrix(
        [
            [
                Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, max_deg + 1))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def symmetrized(rng, m):
    """m with its lower triangle replaced by the upper one and about a
    third of its diagonal set to zero, so that the symmetric elimination
    meets zero pivots at any step."""
    rows = [[m[min(i, j), max(i, j)] for j in range(m.n)] for i in range(m.n)]
    for i in range(m.n):
        if rng.random() < 0.35:
            rows[i][i] = m[i, i] - m[i, i]
    return SquareMatrix(rows)


def degenerate_lead(m):
    """m with its leading 2 x 2 block replaced by the rank-1 block
    (x, y)^T (u, v), symmetric when m is: its leading minor of order 2 is
    0, so step 0 or step 1 meets a zero pivot and must swap rows or find
    the column zero below it.  A zero x and y give the zero block."""
    x, y = m[0, 0], m[0, 1]
    u, v = (x, y) if m.is_symmetric() else (m[1, 0], m[1, 1])
    rows = [list(m.row(i)) for i in range(m.n)]
    rows[0][:2] = [x * u, x * v]
    rows[1][:2] = [y * u, y * v]
    return SquareMatrix(rows)


def test_identity_determinant():
    for n in range(1, 6):
        m = SquareMatrix.identity(n)
        assert det_bareiss(m) == 1 and type(det_bareiss(m)) is int
        assert det_cofactor(m) == 1


def test_small_poly_determinant():
    q2, q = Poly((0, 0, 1)), Poly((0, 1))
    m = SquareMatrix([[q2, q], [q, q]])
    expected = Poly((0, 0, -1, 1))  # q^3 - q^2 by cofactor expansion
    assert det_bareiss(m) == expected
    assert det_cofactor(m) == expected


def test_gcd_matrix_of_one_to_four():
    vals = [1, 2, 3, 4]
    m = SquareMatrix([[math.gcd(a, b) for b in vals] for a in vals])
    assert det_cofactor(m) == 4
    assert det_bareiss(m) == 4


def test_bareiss_equals_cofactor_on_random_integer_matrices():
    rng = random.Random("int-oracle")
    for _ in range(300):
        m = random_int_matrix(rng, rng.randint(1, 6))
        assert det_bareiss(m) == det_cofactor(m)
    zero_diagonals = 0
    for _ in range(300):
        m = symmetrized(rng, random_int_matrix(rng, rng.randint(1, 8), lo=-3, hi=3))
        assert m.is_symmetric()
        zero_diagonals += any(not m[i, i] for i in range(m.n))
        assert det_bareiss(m) == det_cofactor(m)
    assert zero_diagonals > 150
    nonsingular = 0
    for _ in range(200):
        m = random_int_matrix(rng, rng.randint(2, 8), lo=-3, hi=3)
        if rng.random() < 0.5:
            m = symmetrized(rng, m)
        m = degenerate_lead(m)
        det = det_cofactor(m)
        nonsingular += det != 0
        assert det_bareiss(m) == det
    assert nonsingular > 100


def test_bareiss_equals_cofactor_on_random_polynomial_matrices():
    rng = random.Random("poly-oracle")
    for _ in range(100):
        m = random_poly_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == det_cofactor(m)
    zero_diagonals = 0
    for _ in range(100):
        m = symmetrized(rng, random_poly_matrix(rng, rng.randint(1, 8), max_deg=2))
        assert m.is_symmetric()
        zero_diagonals += any(not m[i, i] for i in range(m.n))
        assert det_bareiss(m) == det_cofactor(m)
    assert zero_diagonals > 50
    nonsingular = 0
    for _ in range(60):
        m = random_poly_matrix(rng, rng.randint(2, 7), max_deg=2)
        if rng.random() < 0.5:
            m = symmetrized(rng, m)
        m = degenerate_lead(m)
        det = det_cofactor(m)
        nonsingular += bool(det)
        assert det_bareiss(m) == det
    assert nonsingular > 30


def as_poly(m):
    """m with each entry x replaced by x * (1 + q): the determinant is
    multiplied by (1 + q)^n and every zero stays where it was."""
    return SquareMatrix([[Poly((x, x)) for x in m.row(i)] for i in range(m.n)])


def check_both_tags(rows, expected):
    m = SquareMatrix(rows)
    assert det_bareiss(m) == expected
    assert det_cofactor(m) == expected
    pm = as_poly(m)
    expected_poly = Poly((expected,)) * Poly((1, 1)) ** m.n
    assert det_bareiss(pm) == det_cofactor(pm) == expected_poly
    for x in (m, pm):
        check_minors(x, through_first_zero(leading_minors_oracle(x)))


def congruent(rng, m):
    """U^T m U for a random upper unitriangular U: a dense matrix with the
    leading principal minors, determinant and symmetry of m."""
    n = m.n
    u = SquareMatrix(
        [[int(i == j) or rng.randint(-2, 2) * (i < j) for j in range(n)] for i in range(n)]
    )
    return u.transpose() @ m @ u


def test_zero_pivot_handling():
    # n = 1 needs no elimination step
    check_both_tags([[0]], 0)
    check_both_tags([[-7]], -7)
    # a zero a_00 swaps in the first row below that is nonzero in column 0
    check_both_tags([[0, 1], [1, 0]], -1)
    check_both_tags([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 12)
    check_both_tags([[0, 2, 1], [2, 1, 0], [1, 0, 5]], -21)
    check_both_tags([[0, 2, 1], [3, 1, 0], [1, 0, 5]], -31)
    check_both_tags([[0, 0], [0, 0]], 0)
    check_both_tags([[0, 1], [0, 2]], 0)
    check_both_tags([[0, 2, 1], [0, 0, 3], [5, 0, 0]], 30)
    # a zero leading minor of order 2: at k = 1, a_11 = 0 and row 2 is the
    # first row below that is nonzero in column 1, so it moves up and the
    # sign flips
    check_both_tags([[1, 2, 0], [2, 4, 1], [0, 1, 0]], -1)
    # rows 2 and 3 move up into rows 0 and 1, at k = 0 and k = 1: two
    # swaps, sign kept
    check_both_tags([[0, 0, 1, 2], [0, 0, 3, 1], [1, 2, 0, 0], [3, 4, 0, 0]], 10)
    # symmetric inputs: the zero pivot at k = 1 mirrors the matrix, and
    # the row that supplies the swap is read from the mirrored upper
    # triangle, not from stale entries
    check_both_tags([[1, 1, 2], [1, 1, 3], [2, 3, 0]], -1)
    check_both_tags([[1, 1, 2], [1, 1, 2], [2, 2, 5]], 0)
    # a column that is a multiple of the one before it is 0 from the
    # diagonal down once that one is eliminated, and returns 0, at k = 1
    # and at k = 3
    check_both_tags([[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 9], [4, 8, 1, 2]], 0)
    check_both_tags([[2, 1, 1, 2], [1, 3, 2, 4], [1, 1, 3, 6], [5, 2, 1, 2]], 0)
    # a dense symmetric 5 x 5 whose leading 4 x 4 minor is 0: the first
    # three steps run on the upper triangle, the zero pivot at k = 3
    # mirrors it, and row 4 supplies the swap
    rng = random.Random("pivot-congruent")
    block = SquareMatrix(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1],
        ]
    )
    for _ in range(5):
        m = congruent(rng, block)
        assert m.is_symmetric()
        assert leading_minors_oracle(m) == [1, 1, 1, 0, -1]
        check_both_tags([list(m.row(i)) for i in range(m.n)], -1)
        check_minors(m, [1, 1, 1, 0])


def test_transpose_preserves_determinant():
    rng = random.Random("transpose")
    for _ in range(60):
        m = random_int_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == det_bareiss(m.transpose())


def test_repeated_row_gives_zero():
    rng = random.Random("repeat")
    for _ in range(60):
        n = rng.randint(2, 5)
        m = random_int_matrix(rng, n)
        i, j = rng.sample(range(n), 2)
        rows = [list(m.row(r)) for r in range(n)]
        rows[i] = list(rows[j])
        assert det_bareiss(SquareMatrix(rows)) == 0


def test_multilinearity_in_a_row():
    rng = random.Random("multilinear")
    for _ in range(60):
        n = rng.randint(1, 5)
        base = random_int_matrix(rng, n)
        i = rng.randrange(n)
        r = [rng.randint(-9, 9) for _ in range(n)]
        s = [rng.randint(-9, 9) for _ in range(n)]
        rows_r = [list(base.row(k)) for k in range(n)]
        rows_s = [list(base.row(k)) for k in range(n)]
        rows_rs = [list(base.row(k)) for k in range(n)]
        rows_r[i] = r
        rows_s[i] = s
        rows_rs[i] = [a + b for a, b in zip(r, s)]
        assert det_bareiss(SquareMatrix(rows_rs)) == det_bareiss(
            SquareMatrix(rows_r)
        ) + det_bareiss(SquareMatrix(rows_s))


def leading_minors_oracle(m):
    """One cofactor expansion per leading block: the minors by definition."""
    rows = [m.row(i) for i in range(m.n)]
    return [det_cofactor(SquareMatrix([r[:k] for r in rows[:k]])) for k in range(1, m.n + 1)]


def through_first_zero(minors):
    """minors up to and including the first 0: what det_bareiss records."""
    return minors[: next((i + 1 for i, x in enumerate(minors) if not x), len(minors))]


def check_minors(m, expected):
    """leading_principal_minors(m) is expected, and recording the minors
    leaves det_bareiss's value unchanged."""
    minors = []
    assert det_bareiss(m, minors) == det_bareiss(m)
    assert minors == leading_principal_minors(m) == expected


def test_leading_principal_minors():
    check_minors(SquareMatrix.identity(3), [1, 1, 1])
    vals = [1, 2, 4]
    m = SquareMatrix([[math.gcd(a, b) for b in vals] for a in vals])
    # prefixes of a factor-closed chain are factor closed, so the minors
    # are prefix products of totients: 1, 1*1, 1*1*2
    check_minors(m, [1, 1, 2])
    rng = random.Random("minors")
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(1, 5))
        check_minors(m, through_first_zero(leading_minors_oracle(m)))


def test_leading_minors_after_a_zero_pivot():
    # minors 1, 0 (a zero pivot at k = 1): recording stops there, before
    # the row swap that reaches the nonzero determinant
    m = SquareMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert leading_minors_oracle(m) == [1, 0, -1]
    check_minors(m, [1, 0])
    assert det_bareiss(m, []) == -1
    # a zero first entry: recording stops at once, before the swap
    m = SquareMatrix([[0, 1], [1, 0]])
    check_minors(m, [0])
    assert det_bareiss(m, []) == -1


def test_leading_minors_match_the_oracle_on_random_integer_matrices():
    rng = random.Random("minors-oracle")
    zero_leads = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = random_int_matrix(rng, n, lo=-2, hi=2)
        rows = [list(m.row(i)) for i in range(n)]
        shape = rng.randrange(3)
        if shape == 1:
            rows[0][0] = 0  # zero leading entry
        elif shape == 2 and n > 1:
            k = rng.randint(2, n)  # singular k x k leading block
            rows[k - 1][:k] = rows[rng.randrange(k - 1)][:k]
        m = SquareMatrix(rows)
        expected = leading_minors_oracle(m)
        zero_leads += 0 in expected[:-1]
        check_minors(m, through_first_zero(expected))
    assert zero_leads > 50


def test_leading_minors_match_the_oracle_on_random_polynomial_matrices():
    rng = random.Random("minors-poly")
    for _ in range(40):
        m = random_poly_matrix(rng, rng.randint(1, 5), max_deg=2)
        check_minors(m, through_first_zero(leading_minors_oracle(m)))
    zero_lead = SquareMatrix(
        [[Poly(), Poly((1,))], [Poly((0, 1)), Poly((2, 3))]]
    )
    check_minors(zero_lead, [Poly()])


def test_matmul_and_transpose():
    ident = SquareMatrix.identity(3)
    rng = random.Random("matmul")
    m = random_int_matrix(rng, 3)
    assert ident @ m == m
    assert m.transpose().transpose() == m
    a = SquareMatrix([[1, 2], [3, 4]])
    b = SquareMatrix([[5, 6], [7, 8]])
    assert a @ b == SquareMatrix([[19, 22], [43, 50]])
    with pytest.raises(ValueError):
        a @ SquareMatrix.identity(3)


def matmul_oracle(a, b):
    """The triple loop: entry (i, j) is a[i, 0] b[0, j] + ... + a[i, n-1] b[n-1, j]."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for k in range(1, n):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return SquareMatrix(rows)


def transpose_oracle(m):
    return SquareMatrix([[m[j, i] for j in range(m.n)] for i in range(m.n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_matmul_and_transpose_match_the_triple_loop(n):
    rng = random.Random(f"matmul-oracle-{n}")
    for make in (random_int_matrix, random_poly_matrix):
        for _ in range(5):
            a, b = make(rng, n), make(rng, n)
            assert a @ b == matmul_oracle(a, b)
            assert a.transpose() == transpose_oracle(a)
    zero = SquareMatrix([[Poly()] * n for _ in range(n)])
    p = random_poly_matrix(rng, n)
    assert zero @ p == matmul_oracle(zero, p) == zero
    assert p @ zero == matmul_oracle(p, zero) == zero
    assert zero.transpose() == zero
    # Poly @ int scales each Poly by ints, and stays Poly even when the
    # scalars are all 0
    k = random_int_matrix(rng, n)
    assert p @ k == matmul_oracle(p, k)
    assert p @ SquareMatrix([[0] * n for _ in range(n)]) == zero


def test_constructor_validation():
    with pytest.raises(ValueError):
        SquareMatrix([])
    with pytest.raises(ValueError):
        SquareMatrix([[1, 2]])
    with pytest.raises(ValueError, match="must share one ring tag"):
        SquareMatrix([[1, Poly((1,))], [1, 1]])
    with pytest.raises(ValueError, match="must share one ring tag"):
        SquareMatrix([[1, True], [1, 1]])
    with pytest.raises(ValueError, match="must share one ring tag"):
        SquareMatrix([[Poly((1,)), Poly()], [Poly(), 0]])
    for not_a_ring_value in (True, 1.5):
        with pytest.raises(ValueError, match="must be int or Poly, not"):
            SquareMatrix([[not_a_ring_value]])


def test_cofactor_size_cap():
    with pytest.raises(ValueError):
        det_cofactor(SquareMatrix.identity(9))


def test_is_symmetric():
    assert SquareMatrix([[1, 2], [2, 3]]).is_symmetric()
    assert not SquareMatrix([[1, 2], [4, 3]]).is_symmetric()
    assert SquareMatrix([[7]]).is_symmetric()
    q = Poly((0, 1))
    assert SquareMatrix([[q, Poly((1,))], [Poly((1,)), q]]).is_symmetric()
    assert not SquareMatrix([[q, q], [Poly((1,)), q]]).is_symmetric()


@pytest.fixture
def divisions(monkeypatch):
    """Counts of det_bareiss's divisions: "divmod" for the multiplier tests,
    the entries and the catch-ups, "exact_div" for a nonzero remainder,
    which raises, so it stays 0 on any run that returns."""
    calls = {"exact_div": 0, "divmod": 0}

    def counting(name, div):
        def counted(a, b):
            calls[name] += 1
            return div(a, b)

        return counted

    monkeypatch.setattr(matrix, "exact_div", counting("exact_div", matrix.exact_div))
    monkeypatch.setattr(matrix, "divmod", counting("divmod", divmod), raising=False)
    return calls


def upper(rng, n, density, entry):
    """An upper triangular matrix with entry() on the diagonal and, with
    probability density, above it: the incidence matrix of a function on
    a poset, rows and columns in a linear extension."""
    zero = entry() * 0
    return SquareMatrix(
        [
            [entry() if i == j or (i < j and rng.random() < density) else zero for j in range(n)]
            for i in range(n)
        ]
    )


def shuffled(rng, m):
    """m with its rows shuffled, and its columns alike when m is symmetric."""
    perm = rng.sample(range(m.n), m.n)
    sym = m.is_symmetric()
    return SquareMatrix(
        [[m[perm[i], perm[j] if sym else j] for j in range(m.n)] for i in range(m.n)]
    )


def row_steps(n):
    """Rows a one-step elimination of an n x n matrix updates, summed over steps."""
    return n * (n - 1) // 2


def deferred_row_steps(f):
    """How many row-steps det_bareiss defers on Fᵀ G, for F and G upper
    triangular with nonzero diagonals.  Fᵀ G is then L U with L = Fᵀ, and
    after k columns the Schur complement is L[k:, k:] U[k:, k:], so a_ik
    at step k is F[k][i] G[k][k], 0 exactly when F[k][i] is: k is not
    below i in F's support."""
    n = f.n
    return sum(not f[k, i] for k in range(n) for i in range(k + 1, n))


def test_one_step_elimination_division_counts(divisions):
    # A step whose pivot row is at the input scale divides no pivot (its
    # pivot is prev a_kk) and no entry: each of its live rows at that
    # scale tries its multiplier with one builtin divmod, and a row that
    # is not at 1, or whose multiplier does not divide, takes the
    # division-free update.  Every other step is Bareiss's: it brings
    # each stale row it reads current, one divmod per nonzero entry in
    # _rescale, and divides each updated entry once, a symmetric input
    # only j >= i, any other input the whole block below row k; none of
    # these inputs meets a zero pivot.  exact_div is reached only on a
    # nonzero remainder, so it is never called here.
    #
    # The meet matrix of a chain, min(a, b) = Fᵀ F with F all ones on and
    # above the diagonal, is L Lᵀ with L = Fᵀ unit lower triangular and
    # integral, so every multiplier divides and no row leaves the input
    # scale: one divmod per row-step (no row is deferred) and nothing else
    n = 10
    ones = SquareMatrix([[int(i <= j) for j in range(n)] for i in range(n)])
    chain = SquareMatrix([[min(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert chain == ones.transpose() @ ones and deferred_row_steps(ones) == 0
    assert det_bareiss(chain) == 1
    assert divisions == {"exact_div": 0, "divmod": row_steps(n)}
    assert row_steps(n) == 45
    # Scaling row a by a, or row and column a by a, makes L's entry at row
    # a, column b < a equal to a / b.  Step 0 has the multipliers a, so
    # the 9 rows below stay at 1.  Step 1 has the multipliers a / 2: the 4
    # rows with a even stay at 1, and the 4 with a odd, at indices 2, 4,
    # 6 and 8, take the division-free update and end at the pivot.  Row 2
    # is step 2's pivot row, so steps 2 to 8 are Bareiss's: at step 2 the
    # rows still at 1, at indices 3, 5, 7 and 9, are brought current, from
    # column i when symmetric and from column 2 otherwise, and each step
    # divides every updated entry once
    tests, later = (n - 1) + (n - 2), range(2, n - 1)
    scaled = SquareMatrix([[a * x for x in chain.row(a - 1)] for a in range(1, n + 1)])
    both = SquareMatrix([[a * b * min(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert chain.is_symmetric() and both.is_symmetric() and not scaled.is_symmetric()
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(both) == math.factorial(n) ** 2
    # 17 tests, 7 + 5 + 3 + 1 entries caught up and 28 + 21 + 15 + 10 + 6
    # + 3 + 1 entries at the later steps
    caught_up = sum(n - i for i in range(3, n, 2))
    bareiss = sum(sum(n - i for i in range(k + 1, n)) for k in later)
    assert divisions == {"exact_div": 0, "divmod": tests + caught_up + bareiss}
    assert tests + caught_up + bareiss == 117
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(scaled) == math.factorial(n)
    # 17 tests, 4 rows of 8 caught up and 49 + 36 + ... + 1 entries at the
    # later steps
    bareiss = sum((n - k - 1) ** 2 for k in later)
    assert divisions == {"exact_div": 0, "divmod": tests + 4 * (n - 2) + bareiss}
    assert tests + 4 * (n - 2) + bareiss == 189
    # The gcd matrix on 1..10 is Eᵀ D E, E the divisibility zeta matrix and D
    # the totients, so L = Eᵀ is 0/1: every multiplier divides, and row b
    # is deferred at the step on column a unless a divides b, 28 of the 45
    # row-steps.  Scaling row a by a keeps L integral, as its entries b / a
    # sit where a divides b.  Both take one divmod for each of the 17 live
    # row-steps, no exact_div and no entry division
    g = gcd_matrix(range(1, n + 1))
    zeta = SquareMatrix([[int(b % a == 0) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert g == zeta.transpose() @ SquareMatrix(
        [[euler_phi(a) * x for x in zeta.row(a - 1)] for a in range(1, n + 1)]
    )
    assert deferred_row_steps(zeta) == 28
    scaled = SquareMatrix([[a * x for x in g.row(a - 1)] for a in range(1, n + 1)])
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(g) == totient_product(range(1, n + 1))
    assert divisions == {"exact_div": 0, "divmod": 45 - 28}
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(scaled) == math.factorial(n) * totient_product(range(1, n + 1))
    assert divisions == {"exact_div": 0, "divmod": 17}


def test_deferred_rows_match_the_oracle_on_sparse_products(divisions):
    # Fᵀ G for sparse upper triangular F and G, symmetric (G = F) or not, in
    # int and Poly.  With nonzero diagonals no pivot is 0.  When F's
    # diagonal is ±1, Fᵀ G = L U with L = Fᵀ D_F^-1 unit lower triangular
    # and integral, so every row stays at the input scale: the row-steps
    # that were not deferred each take the one divmod of the multiplier
    # test and nothing else divides.  A zero row in F makes the product
    # singular, and shuffled rows make elimination meet zero pivots, swap
    # rows and, while the product is symmetric, mirror it
    rng = random.Random("deferred")
    entries = {
        int: lambda: rng.choice((-3, -2, -1, 1, 2, 3)),
        Poly: lambda: Poly((rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1))),
    }
    units = {int: lambda: rng.choice((-1, 1)), Poly: lambda: Poly.const(rng.choice((-1, 1)))}
    deferred = total = singular = unit_cases = 0
    for tag, entry in entries.items():
        for _ in range(150 if tag is int else 50):
            n = rng.randint(1, 8)
            density = rng.choice((0.1, 0.2, 0.35))
            f = upper(rng, n, density, entry)
            unit = rng.random() < 0.5
            if unit:
                rows = [list(f.row(i)) for i in range(n)]
                for i in range(n):
                    rows[i][i] = units[tag]()
                f = SquareMatrix(rows)
            g = f if rng.random() < 0.4 else upper(rng, n, density, entry)
            m = f.transpose() @ g
            divisions.update(exact_div=0, divmod=0)
            assert det_bareiss(m) == det_cofactor(m)
            if unit:
                live = row_steps(n) - deferred_row_steps(f)
                assert divisions == {"exact_div": 0, "divmod": live}
                unit_cases += 1
            deferred += deferred_row_steps(f)
            total += row_steps(n)
            # F and G are upper triangular, so the leading k x k block of
            # Fᵀ G is the product of theirs: a prefix product of f_ii g_ii
            prefix = [f[0, 0] * g[0, 0]]
            for i in range(1, n):
                prefix.append(prefix[-1] * f[i, i] * g[i, i])
            check_minors(m, prefix)
            c = rng.randrange(n)
            f0 = SquareMatrix([[x if i != c else x * 0 for x in f.row(i)] for i in range(n)])
            m0 = f0.transpose() @ (f0 if g is f else g)
            assert m0.is_symmetric() or g is not f
            for hard in (m0, shuffled(rng, m), shuffled(rng, m0)):
                expected = det_cofactor(hard)
                singular += not expected
                assert det_bareiss(hard) == expected
                check_minors(hard, through_first_zero(leading_minors_oracle(hard)))
    assert deferred > total // 3
    assert singular > 200
    assert unit_cases > 80


@pytest.fixture
def catch_ups(monkeypatch):
    """Every catch-up det_bareiss makes, as (first column, prev, the pivot
    the row was last current at)."""
    seen = []
    rescale = matrix._rescale

    def spy(row, start, num, den):
        seen.append((start, num, den))
        rescale(row, start, num, den)

    monkeypatch.setattr(matrix, "_rescale", spy)
    return seen


def test_deferred_rows_are_caught_up_where_they_are_read(catch_ups):
    # a skipped catch-up leaves a row off by its factor prev / scale, 2 at
    # the first catch-up of each case.  Steps 0 and 1 have pivots 1 and 2
    f = SquareMatrix(
        [[1, 0, 1, 0, 1], [0, 2, 1, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 3]]
    )
    g = SquareMatrix(
        [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 2, 1], [0, 0, 0, 0, 1]]
    )
    cases = [
        # symmetric: at k = 0 rows 1, 2 and 3 have the multiplier 1 and
        # stay at scale 1, and row 4 is 0 in column 0, so it is deferred at
        # 1.  At k = 1 row 3's multiplier 2 / 2 divides, and rows 2 and 4
        # are deferred.  The leading 3 x 3 minor is 0: at k = 2, a_22 = 0,
        # and rows 2, 3 and 4 are caught up from their diagonals before the
        # mirror copy reads them.  Row 4 moves up, and the rows now in rows
        # 3 and 4, 0 in column 2, are deferred at the pivot 2, which no
        # later step changes, so they are current when they are next read
        (
            [[1, 1, 1, 1, 0], [1, 3, 1, 3, 0], [1, 1, 1, 1, 1], [1, 3, 1, 4, 1], [0, 0, 1, 1, 1]],
            -2,
            [(2, 2, 1), (3, 2, 1), (4, 2, 1)],
        ),
        # not symmetric, the same shape: the three rows are caught up from
        # column 2 and row 3 moves up; the row now in row 3 is deferred at
        # 2.  At k = 3 that row's a_33 is 0, so row 4 moves up, the pivot
        # becomes -2, and the row moved down, deferred at 2, is caught up
        # as the last pivot row
        (
            [[1, 1, 1, 0, 2], [1, 3, 0, 1, 1], [1, 1, 1, 0, 3], [1, 3, 1, 2, 1], [0, 0, 2, 1, 1]],
            -2,
            [(2, 2, 1)] * 3 + [(4, -2, 2)],
        ),
        # Fᵀ G = L U with L = Fᵀ D_F^-1, whose entries L[2][1] = F[1][2] / 2
        # and L[3][1] = F[1][3] / 2 are not integers.  At k = 0 rows 2 and
        # 4 have the multiplier 1 and stay at 1.  At k = 1 rows 2 and 3
        # take the division-free update and end at the pivot 2, and row 4,
        # with F[1][4] = 0, is deferred at 1.  Step 2's pivot row is at 2,
        # so the step is Bareiss's: row 3, with F[2][3] = 0, is deferred
        # and already current, and row 4 is caught up from column 2 before
        # its update.  Step 3 has the pivot 4, and row 4, with F[3][4] = 0,
        # is deferred at 2 and caught up as the last pivot row
        ([list((f.transpose() @ g).row(i)) for i in range(5)], 12, [(2, 2, 1), (4, 4, 2)]),
    ]
    for rows, det, expected in cases:
        catch_ups.clear()
        assert det_bareiss(SquareMatrix(rows)) == det
        assert catch_ups == expected
        check_both_tags(rows, det)


def test_a_zero_pivot_catches_up_every_deferred_row(catch_ups):
    # not symmetric: row 1's multiplier -1 divides at k = 0, and rows
    # 2..6, all 0 on columns 0 and 1, are deferred at 1 through k = 1,
    # whose pivot is 2.  At k = 2, a_22 = 0, so rows 2..6 are caught up
    # from column 2 and row 4 swaps in.  Row 6 is neither the pivot row
    # nor swapped, yet it is caught up there with the others.  Every
    # later pivot but the last is 2 again (a_33 = 0 swaps row 5 in, with
    # every row current), so rows 3..6, deferred at 2, are current when
    # they are next read, as pivot rows, and take no catch-up
    e = [[int(i == j) for j in range(7)] for i in range(7)]
    rows = [[1, 1, 0, 0, 0, 0, 0], [-1, 1, 0, 0, 0, 0, 0], e[4], e[5], e[2], e[3]]
    rows.append([3 * x for x in e[6]])
    assert det_bareiss(SquareMatrix(rows)) == 6
    assert catch_ups == [(2, 2, 1)] * 5
    check_both_tags(rows, 6)


def test_catch_ups_divide_exactly_on_the_papers_matrices(catch_ups):
    # On an order ideal in linear-extension order every leading minor of
    # these matrices is a product of diagonal factors, so while none is 0
    # each catch-up ratio prev / stale, a ratio of two leading minors, is
    # an integer
    rng = random.Random("exact catch-up")

    def small_diagonal(p):
        values = dict(randgen.random_incidence(rng, p).items())
        values.update({(a, a): rng.choice((-3, -2, -1, 1, 2, 3)) for a in range(p.n)})
        return IncidenceFunction(p, values)

    for _ in range(200):
        p = randgen.random_poset(rng, rng.randint(1, 64))
        det_bareiss(incidence_product_matrix(p, small_diagonal(p), small_diagonal(p)))
    assert len(catch_ups) > 2000
    assert all(num % den == 0 for _, num, den in catch_ups)
    # Meet matrices, kept only while every Lindström factor is nonzero; a
    # zero factor zeroes a leading minor, after which pivots need not divide
    kept, inexact_elsewhere = [], 0
    for _ in range(500):
        p = randgen.grown_meet_semilattice(rng, rng.randint(1, 40))
        catch_ups.clear()
        _, minors = det_and_leading_minors(meet_matrix(p, randgen.random_incidence(rng, p)))
        if len(minors) == p.n and all(minors):
            kept += catch_ups
        else:
            inexact_elsewhere += sum(1 for _, num, den in catch_ups if num % den)
    assert len(kept) > 1000
    assert all(num % den == 0 for _, num, den in kept)
    assert inexact_elsewhere > 0


def test_the_papers_matrices_stay_at_the_input_scale(divisions, catch_ups):
    # In linear-extension order these matrices are L U with L unit lower
    # triangular and integral: a factor-closed GCD matrix Eᵀ diag(φ) E, E
    # the divisibility matrix in ascending order, has L = Eᵀ, and Apostol's
    # and Daniloff's Fᵀ G has L = Fᵀ D_F^-1, as f(a, a) divides f(a, b).
    # So every multiplier divides and every row stays at the input scale:
    # each row-step that is not deferred takes the one divmod of its
    # multiplier test, and nothing else divides or catches up
    cases = []
    for m in (360, 5040, 55440, 720720):
        s = divisors(m)
        zeta = SquareMatrix([[int(b % a == 0) for b in s] for a in s])
        cases.append((gcd_matrix(s), zeta, totient_product(s)))
    configs = [_ramanujan_config(64)] + [_kth_root_config(64, k, range(1, 65)) for k in (1, 2, 3)]
    for p, f, g in configs:
        m = incidence_product_matrix(p, f, g)
        cases.append((m, incidence_matrix(p, f), math.factorial(64)))
    for m, f, det in cases:
        divisions.update(exact_div=0, divmod=0)
        assert det_bareiss(m) == det
        assert divisions == {"exact_div": 0, "divmod": row_steps(m.n) - deferred_row_steps(f)}
    assert [m.n for m, _, _ in cases] == [24, 60, 120, 240, 64, 64, 64, 64]
    assert catch_ups == []


def fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals, kept in
    integers by clearing each row's quotient: row_i becomes a_kk row_i -
    a_ik row_k, which scales the det by a_kk, and the product of the
    pivots over the product of those scales is one Fraction at the end.
    No exact division, no fraction-free step, nothing shared with
    det_bareiss."""
    a = [list(row) for row in rows]
    n, num, den = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            num = -num
        row_k = a[k]
        pivot = row_k[k]
        num *= pivot
        for row in a[k + 1 :]:
            t = row[k]
            if t:
                den *= pivot
                for j in range(k + 1, n):
                    row[j] = pivot * row[j] - t * row_k[j]
    det = Fraction(num, den)
    assert det.denominator == 1
    return det.numerator


def test_scale_transitions_match_a_fraction_oracle():
    # Rows leave the input scale where a multiplier stops dividing or a
    # pivot is 0, and deferred rows wait at older pivots, so one step can
    # hold rows at 1, at prev and at earlier pivots.  A later leading
    # minor can equal 1 while a row waits at another pivot: a row counts
    # as at the input scale by the value of its own scale, never because
    # prev is 1 (in symmetric mode a_ik is read from the pivot row, so a
    # pivot row taken for one at 1 breaks every row below it).
    # Sparse symmetric matrices meet all of that; L U and L D Lᵀ with L
    # unit lower triangular stay at 1 until a non-unit diagonal entry of L
    # or a shuffle; shuffled GCD matrices are positive definite.  Poly
    # versions: constant entries, whose pivots can equal the ring's one
    # without being that object, x (1 + q), whose pivots' leading coefficients need not
    # divide, and m + q B, checked at enough integer nodes
    rng = random.Random("scale transitions")

    def sparse_symmetric(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 0, 1, -1, 2, -2, 3))
        return SquareMatrix(rows)

    def triangular_product(n):
        lower = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.4:
                    lower[i][j] = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.3:
            i = rng.randrange(n)
            lower[i][i] = rng.choice((-2, 2, 3))
        nonzero = (-3, -2, -1, 1, 2, 3)
        if rng.random() < 0.5:
            d = [rng.choice(nonzero) for _ in range(n)]
            right = [[d[i] * lower[j][i] for j in range(n)] for i in range(n)]
        else:
            right = [[rng.choice((-2, 0, 0, 1, 2)) * (j > i) for j in range(n)] for i in range(n)]
            for i in range(n):
                right[i][i] = rng.choice(nonzero)
        m = SquareMatrix(lower) @ SquareMatrix(right)
        return shuffled(rng, m) if rng.random() < 0.3 else m

    def shuffled_gcd(n):
        s = rng.sample(range(1, 49), n)
        return SquareMatrix([[math.gcd(a, b) for b in s] for a in s])

    def plus_q(m):
        # m + q B for a sparse 0, ±1 matrix B, symmetric when m is
        sym = m.is_symmetric()
        b = [[rng.choice((-1, 1)) * (rng.random() < 0.2) for _ in range(m.n)] for _ in range(m.n)]
        return SquareMatrix(
            [
                [Poly((m[i, j], b[min(i, j)][max(i, j)] if sym else b[i][j])) for j in range(m.n)]
                for i in range(m.n)
            ]
        )

    def witness(n):
        # found by search: leading minors -2, -4, 2, 1, -13 and -38.  Row 5
        # is updated at step 2, whose pivot is 2, and deferred at step 3,
        # whose pivot is 1, so it still waits at 2 at step 4, where prev = 1
        # and the pivot row, updated at step 3, is at 1.  It reads a_54 at
        # 1 from row 4, scales it by 2, ends at -26 and is caught up, at
        # the ratio 1 / 2, as the last pivot row
        return SquareMatrix(WAITS_AT_TWO)

    counts = {}
    builds = [
        (sparse_symmetric, 20000),
        (triangular_product, 6000),
        (shuffled_gcd, 2000),
        (witness, 1),
    ]
    for build, cases in builds:
        for case in range(cases):
            m = build(rng.randint(4, 7))
            rows = [m.row(i) for i in range(m.n)]
            det = fraction_det(rows)
            assert det_bareiss(m) == det
            if case % 16 == 0:
                constant = SquareMatrix([[Poly((x,)) for x in row] for row in rows])
                assert det_bareiss(constant) == Poly((det,))
            elif case % 16 == 1:
                assert det_bareiss(as_poly(m)) == Poly((det,)) * Poly((1, 1)) ** m.n
            elif case % 32 == 2:
                pm = plus_q(m)
                pdet = det_bareiss(pm)
                bound = sum(max(0, *(x.degree for x in pm.row(i))) for i in range(m.n))
                assert pdet.degree <= bound
                for x in range(bound + 1):
                    at_x = [[y.evaluate(x) for y in pm.row(i)] for i in range(m.n)]
                    assert pdet.evaluate(x) == fraction_det(at_x)
            key = build.__name__, det != 0
            counts[key] = counts.get(key, 0) + 1
    # about 6% of the sparse symmetric matrices are singular; a product
    # of two triangular factors with nonzero diagonals never is
    assert counts["sparse_symmetric", False] > 1000
    assert counts["triangular_product", True] == 6000 and counts["shuffled_gcd", True] == 2000


WAITS_AT_TWO = [
    [-2, -2, 0, 1, 0, 2],
    [-2, 0, -1, 0, 3, -1],
    [0, -1, 0, 0, -2, 1],
    [1, 0, 0, 0, 0, 0],
    [0, 3, -2, 0, -1, 0],
    [2, -1, 1, 0, 0, 3],
]


# Symmetric, with leading principal minors 2, -2, -4, 6, 22 and -29.  At
# step 0 (a_00 = 2) row 2's multiplier 1 divides and it stays at 1; row
# 3's, -1 / 2, does not, so it ends at the pivot 2; rows 1, 4 and 5 are 0
# in column 0 and wait at 1.  At step 1 (a_11 = -1, pivot -2) rows 2 and 4
# stay at 1, and row 3, 0 in column 1, waits at 2.  At step 2 row 2 is at
# 1 while prev = -2, and a_22 = 2: row 4's multiplier 1 divides and it
# stays at 1; row 5's, 1 / 2, does not, so it takes -4 row_5 + 2 row_2
# and ends at the pivot -4; row 3, waiting at 2, reads a_32 = 2 at 1 from
# row 2, takes 2 row_3 - 4 row_2 and ends at 4.
STEP_AT_THE_INPUT_SCALE = [
    [2, 0, 2, -1, 0, 0],
    [0, -1, 2, 0, 1, 0],
    [2, 2, 0, 1, 0, 1],
    [-1, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 2, 1],
    [0, 0, 1, 0, 1, -1],
]


def test_a_step_at_the_input_scale_brings_no_row_current(catch_ups):
    # Step 2 divides no row and catches none up: the only catch-ups are
    # step 3's, at prev = -4, of row 3 from 4 as the pivot row and of row
    # 4 from 1 before its update.  Had row 3 read a_32 unscaled, it would
    # hold 2 row_3 - 2 row_2 at the scale 4, and the det would be wrong
    m = SquareMatrix(STEP_AT_THE_INPUT_SCALE)
    assert m.is_symmetric()
    rows = [m.row(i) for i in range(m.n)]
    det, minors = det_and_leading_minors(m)
    assert det == fraction_det(rows) == -29
    assert minors == [fraction_det([r[:k] for r in rows[:k]]) for k in range(1, m.n + 1)]
    assert minors[1] == -2 and minors[2] == -4
    assert catch_ups == [(3, -4, 4), (4, -4, 1)]
    assert det_bareiss(as_poly(m)) == Poly((det,)) * Poly((1, 1)) ** m.n


# The direct sum of [[2, 1], [1, 2]] on rows 0 and 3 and on rows 1 and 4,
# and [1] on row 2, with leading principal minors 2, 4, 4, 6 and 9.  Row
# 3's multiplier at step 0 and row 4's at step 1 are 1 / 2, so they end
# at the pivots 2 and 4.  Row 4 is 0 in columns 2 and 3, so it waits at 4
# and is caught up, as the last pivot row, at prev 6: a catch-up ratio of
# 3 / 2, and 3 / 2 (1 + q)^2 in Z[q] as as_poly.
INEXACT_CATCH_UP = [
    [2, 0, 0, 1, 0],
    [0, 2, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [1, 0, 0, 2, 0],
    [0, 1, 0, 0, 2],
]


def test_an_inexact_catch_up_falls_back_to_entry_division(catch_ups):
    # the catch-up of row 4 divides each live entry, in int and in Z[q],
    # where no quotient of the two scales exists
    check_both_tags(INEXACT_CATCH_UP, 9)
    square = Poly((1, 1)) ** 2
    assert (4, 6, 4) in catch_ups
    assert (4, square * square * 6, square * 4) in catch_ups


# Symmetric in Z[q] with a_00 = 2q + 1: row 1's multiplier q / (2q + 1)
# makes Poly's divmod raise, as 2 does not divide the leading coefficient
# 1, and row 2's, 1 / (2q + 1), leaves the remainder 1.  Both rows are at
# the input scale and take the division-free update.
POLY_LEAD_DOES_NOT_DIVIDE = [
    [Poly((1, 2)), Poly((0, 1)), Poly((1,))],
    [Poly((0, 1)), Poly((1, 1)), Poly((2,))],
    [Poly((1,)), Poly((2,)), Poly((0, 1))],
]


def test_a_poly_multiplier_whose_division_raises_is_not_integral():
    m = SquareMatrix(POLY_LEAD_DOES_NOT_DIVIDE)
    assert m.is_symmetric()
    with pytest.raises(InexactDivisionError):
        divmod(m[1, 0], m[0, 0])
    assert det_bareiss(m) == det_cofactor(m)
    check_minors(m, leading_minors_oracle(m))
    assert all(leading_minors_oracle(m))


def _gcd_plus(n, d):
    # the gcd matrix on 1..n plus d on the diagonal, d = 1 or q: at step
    # 0, a_00 = 1 + d, and each row's multiplier 1 / (1 + d) does not
    # divide, so the 5 rows below take one divmod each for the test and
    # the division-free update to the pivot 1 + d.  From step 1 on each
    # step is Bareiss's, its divisor prev is a non-unit, and every row's
    # entries divide by it
    one = d**0
    return SquareMatrix(
        [
            [one * math.gcd(a, b) + (d if a == b else d * 0) for b in range(1, n + 1)]
            for a in range(1, n + 1)
        ]
    )


@pytest.mark.parametrize(
    "m, site, skip",
    [
        (_gcd_plus(6, 1), "det_bareiss", 5),
        (_gcd_plus(6, Poly.variable()), "det_bareiss", 5),
        (SquareMatrix(INEXACT_CATCH_UP), "_rescale", 0),
        (as_poly(SquareMatrix(INEXACT_CATCH_UP)), "_rescale", 0),
    ],
    ids=["int", "poly", "int-deferred", "poly-deferred"],
)
def test_a_nonzero_entry_remainder_raises_inexact_division(monkeypatch, m, site, skip):
    # one entry numerator off by one, at the first entry division by a
    # non-unit that site makes: det_bareiss must raise on the remainder,
    # not drop it.  Divisions by a unit cannot leave a remainder, so they
    # are let through.  In det_bareiss the first skip = 5 divisions by a
    # non-unit are _gcd_plus's multiplier tests at step 0; the next is the
    # first entry of step 1, a Bareiss step.  In _rescale every division
    # is an entry's, and the first by a non-unit is row 3's catch-up, from
    # 2 to 4, in INEXACT_CATCH_UP
    one = 1 if type(m[0, 0]) is int else Poly.const(1)
    units = (1, -1, Poly.const(1), Poly.const(-1))
    seen = []

    def off_by_one(a, b):
        if b not in units and sys._getframe(1).f_code.co_name == site:
            seen.append((a, b))
            if len(seen) == skip + 1:
                return divmod(a + one, b)
        return divmod(a, b)

    expected = det_bareiss(m)
    monkeypatch.setattr(matrix, "divmod", off_by_one, raising=False)
    with pytest.raises(InexactDivisionError, match="^division is not exact$"):
        det_bareiss(m)
    assert len(seen) == skip + 1
    monkeypatch.undo()
    assert det_bareiss(m) == expected
