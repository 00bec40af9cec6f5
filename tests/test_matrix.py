import math
import random
from fractions import Fraction

import pytest

from posetdet import matrix, randgen
from posetdet.arith import divisors, euler_phi
from posetdet.identities import (
    _kth_root_config,
    _ramanujan_config,
    gcd_matrix,
    incidence_matrix,
    incidence_product_det,
    incidence_product_matrix,
    meet_matrix,
    meet_matrix_det,
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
    """Counts of det_bareiss's divisions: "divmod" for the multiplier tests
    and the entries, "exact_div" for the divisions by a scale outside the
    entry loop (a pivot row's pivot prev a_kk / t when t is neither 1 nor
    prev, a symmetric a_ik read at a row's scale s from a pivot row at t
    when s != t and t != 1, and the mirror at a zero pivot between rows
    at two scales) and for a nonzero entry remainder, which raises."""
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
    """How many row-steps det_bareiss defers, leaving the row untouched, on
    Fᵀ G, for F and G upper triangular with nonzero diagonals.  Fᵀ G is
    then L U with L = Fᵀ, and after k columns the Schur complement is L[k:, k:] U[k:, k:], so a_ik
    at step k is F[k][i] G[k][k], 0 exactly when F[k][i] is: k is not
    below i in F's support."""
    n = f.n
    return sum(not f[k, i] for k in range(n) for i in range(k + 1, n))


def test_one_step_elimination_division_counts(divisions):
    # A step whose pivot row is at the input scale (t = 1) divides no
    # pivot (its pivot is prev a_kk): each live row tries its multiplier
    # with one builtin divmod, and a row whose multiplier does not divide
    # takes the update (p row_i - a_ik row_k) prev / s, with no division
    # when s is 1.  In any other step a live row takes that update divided
    # by s when t = prev, by t when s = prev, and by s t otherwise, one
    # divmod per updated entry unless the divisor is 1: a symmetric input
    # updates only j >= i, any other input the whole row from k + 1.  A
    # symmetric a_ik read from a pivot row at t != 1 for a row at s != t
    # is one exact_div; none of these inputs meets a zero pivot.
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
    # a, column b < a equal to a / b.  Step 0 has the multipliers a and
    # the pivot 1, so the 9 rows below stay at 1.  Step 1 has the
    # multipliers a / 2: the 4 rows with a even stay at 1, and the 4 with
    # a odd, at indices 2, 4, 6 and 8, take the update with prev = s = 1,
    # which divides nothing, and end at the pivot.  Row 2 is step 2's
    # pivot row, at t = prev: its rows still at 1, at indices 3, 5, 7 and
    # 9, divide by s = 1, that is not at all, and the 3 rows at prev,
    # at indices 4, 6 and 8, divide each updated entry, from column i
    # when symmetric and from column 3 otherwise.  Every row is then at
    # prev, so steps 3 to 8 are Bareiss's and divide every updated entry
    tests, later = (n - 1) + (n - 2), range(3, n - 1)
    scaled = SquareMatrix([[a * x for x in chain.row(a - 1)] for a in range(1, n + 1)])
    both = SquareMatrix([[a * b * min(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert chain.is_symmetric() and both.is_symmetric() and not scaled.is_symmetric()
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(both) == math.factorial(n) ** 2
    # 17 tests, 6 + 4 + 2 entries at step 2 and 21 + 15 + 10 + 6 + 3 + 1
    # at the later steps; the 4 rows at 1 read a_i2 from row 2, at prev,
    # with one exact_div each
    step_2 = sum(n - i for i in range(4, n, 2))
    bareiss = sum(sum(n - i for i in range(k + 1, n)) for k in later)
    assert divisions == {"exact_div": 4, "divmod": tests + step_2 + bareiss}
    assert tests + step_2 + bareiss == 85
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(scaled) == math.factorial(n)
    # 17 tests, 3 rows of 7 at step 2 and 36 + 25 + ... + 1 entries at the
    # later steps
    bareiss = sum((n - k - 1) ** 2 for k in later)
    assert divisions == {"exact_div": 0, "divmod": tests + 3 * (n - 3) + bareiss}
    assert tests + 3 * (n - 3) + bareiss == 129
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


def test_untouched_rows_are_read_at_their_own_scale(divisions):
    # A row with a_ik = 0 is not touched and keeps its scale while prev
    # moves on; where it is next read, as a live row or as a pivot row,
    # its scale is divided out in that step's one division, so treating
    # it as current leaves it off by prev / scale and the det wrong.
    # Steps 0 and 1 have pivots 1 and 2
    f = SquareMatrix(
        [[1, 0, 1, 0, 1], [0, 2, 1, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 3]]
    )
    g = SquareMatrix(
        [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 2, 1], [0, 0, 0, 0, 1]]
    )
    cases = [
        # symmetric: at k = 0 rows 1, 2 and 3 have the multiplier 1 and
        # stay at scale 1, and row 4 is 0 in column 0 and not touched.  At
        # k = 1 row 3's multiplier 2 / 2 divides, and rows 2 and 4 are not
        # touched.  The leading 3 x 3 minor is 0: at k = 2, a_22 = 0, the
        # mirror copies between rows that are all at 1, and row 4 moves
        # up.  Every later pivot row is at 1 and every later row is 0 in
        # its column, so the 4 multiplier tests are the only divisions
        (
            [[1, 1, 1, 1, 0], [1, 3, 1, 3, 0], [1, 1, 1, 1, 1], [1, 3, 1, 4, 1], [0, 0, 1, 1, 1]],
            -2,
            {"exact_div": 0, "divmod": 4},
        ),
        # not symmetric, the same shape, and row 3 moves up at k = 2.  Row
        # 4's multiplier 2 / 1 divides there, and at k = 3, a_33 = 0 swaps
        # it up: 5 multiplier tests, with every row still at 1
        (
            [[1, 1, 1, 0, 2], [1, 3, 0, 1, 1], [1, 1, 1, 0, 3], [1, 3, 1, 2, 1], [0, 0, 2, 1, 1]],
            -2,
            {"exact_div": 0, "divmod": 5},
        ),
        # Fᵀ G = L U with L = Fᵀ D_F^-1, whose entries L[2][1] = F[1][2] / 2
        # and L[3][1] = F[1][3] / 2 are not integers.  At k = 0 rows 2 and
        # 4 have the multiplier 1 and stay at 1.  At k = 1 rows 2 and 3
        # fail their tests and end at the pivot 2, dividing nothing as
        # prev = 1, and row 4, with F[1][4] = 0, is not touched at 1.  At
        # k = 2 the pivot row is at t = prev = 2: row 3, with F[2][3] = 0,
        # is not touched, and row 4 divides by its own scale 1, so not at
        # all, and ends at 2.  At k = 3 and 4 the pivot rows are at 2 and
        # prev is 2 and 4: step 3's pivot is a_33, and step 4's is 4 a_44 /
        # 2, one exact_div.  So 4 tests and no entry division
        (
            [list((f.transpose() @ g).row(i)) for i in range(5)],
            12,
            {"exact_div": 1, "divmod": 4},
        ),
    ]
    for rows, det, expected in cases:
        divisions.update(exact_div=0, divmod=0)
        assert det_bareiss(SquareMatrix(rows)) == det
        assert divisions == expected
        check_both_tags(rows, det)


# Symmetric, with leading principal minors 3, -4 and 0.  At step 0 rows 1
# and 2 fail their tests (-2 / 3 and -1 / 3) and end at 3, and rows 3 and
# 4 are not touched.  At step 1 (pivot row at prev = 3, pivot -4) row 2
# divides its 3 entries by s = 3, and row 4, at 1, reads a_41 from row 1
# as exact_div(a_14, 3) and divides nothing; both end at -4.  At step 2,
# a_22 = 0: rows 2 and 4 are at -4 and row 3 at 1, so the mirror scales
# a_23 and a_34 by the ratio of their rows' scales (2 exact_divs), and row
# 3 swaps into row 2 with its scale 1.  Step 2 is at the input scale: row
# 4's multiplier divides, and the row moved down, still at -4, is not
# touched.  At step 3 it is the pivot row at t = -4 with prev = 8: its
# pivot is 8 a_33 / -4, and row 4, also at -4, divides its entry by s t =
# 16.
ZERO_PIVOT_AT_TWO_SCALES = [
    [3, -2, -1, 0, 0],
    [-2, 0, 0, 0, -1],
    [-1, 0, 0, -2, 0],
    [0, 0, -2, 3, 0],
    [0, -1, 0, 0, 0],
]


def test_a_zero_pivot_keeps_every_rows_scale(divisions):
    # not symmetric: row 1's multiplier -1 divides at k = 0, and rows
    # 2..6, all 0 on columns 0 and 1, are not touched at 1 through k = 1,
    # whose pivot is 2.  At k = 2, a_22 = 0 and row 4 swaps in, at 1 like
    # every row: every later pivot row is at 1 and every row below it 0
    # in its column, so the one multiplier test is the only division
    e = [[int(i == j) for j in range(7)] for i in range(7)]
    rows = [[1, 1, 0, 0, 0, 0, 0], [-1, 1, 0, 0, 0, 0, 0], e[4], e[5], e[2], e[3]]
    rows.append([3 * x for x in e[6]])
    assert det_bareiss(SquareMatrix(rows)) == 6
    assert divisions == {"exact_div": 0, "divmod": 1}
    check_both_tags(rows, 6)
    # the mirror reads each row at its own scale and the swap carries it:
    # 2 tests, 3 + 1 entries and 1 test; the exact_divs are a_41 at step
    # 1, the 2 mirrored entries and step 3's pivot
    m = SquareMatrix(ZERO_PIVOT_AT_TWO_SCALES)
    assert m.is_symmetric()
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(m) == 15
    assert divisions == {"exact_div": 4, "divmod": 7}
    check_both_tags(ZERO_PIVOT_AT_TWO_SCALES, 15)


def test_the_papers_products_and_meet_matrices_match_their_closed_forms(divisions):
    # Fᵀ G on random posets, with small diagonals so that pivot rows at
    # scales other than 1 and prev come up, and meet matrices, with and
    # without a zero Lindström factor: each det equals the paper's closed
    # form.  The divisions by a scale outside the entry loop are exact on
    # all of them, or exact_div would raise
    rng = random.Random("exact catch-up")

    def small_diagonal(p):
        values = dict(randgen.random_incidence(rng, p).items())
        values.update({(a, a): rng.choice((-3, -2, -1, 1, 2, 3)) for a in range(p.n)})
        return IncidenceFunction(p, values)

    for _ in range(200):
        p = randgen.random_poset(rng, rng.randint(1, 64))
        f, g = small_diagonal(p), small_diagonal(p)
        assert det_bareiss(incidence_product_matrix(p, f, g)) == incidence_product_det(p, f, g)
    assert divisions["exact_div"] > 1000
    divisions.update(exact_div=0, divmod=0)
    singular = 0
    for _ in range(500):
        p = randgen.grown_meet_semilattice(rng, rng.randint(1, 40))
        f = randgen.random_incidence(rng, p)
        det, minors = det_and_leading_minors(meet_matrix(p, f))
        assert det == meet_matrix_det(p, f)
        singular += not det
    assert divisions["exact_div"] > 1000
    assert singular > 50


def test_the_papers_matrices_stay_at_the_input_scale(divisions):
    # In linear-extension order these matrices are L U with L unit lower
    # triangular and integral: a factor-closed GCD matrix Eᵀ diag(φ) E, E
    # the divisibility matrix in ascending order, has L = Eᵀ, and Apostol's
    # and Daniloff's Fᵀ G has L = Fᵀ D_F^-1, as f(a, a) divides f(a, b).
    # So every multiplier divides and every row stays at the input scale:
    # each row-step whose a_ik is not 0 takes the one divmod of its
    # multiplier test, and nothing else divides
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
        # is updated at step 2, whose pivot is 2, and not touched at step
        # 3, whose pivot is 1, so it still waits at 2 at step 4, where prev
        # = 1 and the pivot row, updated at step 3, is at 1.  It reads a_54
        # at 1 from row 4, scales it by 2, fails its multiplier test and
        # divides its update by its own scale 2, ending at the pivot -13
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
# in column 0 and not touched.  At step 1 (a_11 = -1, pivot -2) rows 2 and
# 4 stay at 1, and row 3, 0 in column 1, waits at 2.  At step 2 row 2 is
# at 1 while prev = -2, and a_22 = 2: row 4's multiplier 1 divides and it
# stays at 1; row 5's, 1 / 2, does not, so it takes -4 row_5 + 2 row_2
# and ends at the pivot -4; row 3, waiting at 2, reads a_32 = 2 at 1 from
# row 2 as 4 at its scale, and its multiplier 4 / 2 divides, so it takes
# row_3 - 2 row_2 and stays at 2.
STEP_AT_THE_INPUT_SCALE = [
    [2, 0, 2, -1, 0, 0],
    [0, -1, 2, 0, 1, 0],
    [2, 2, 0, 1, 0, 1],
    [-1, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 2, 1],
    [0, 0, 1, 0, 1, -1],
]


def test_a_step_whose_pivot_row_is_at_one_divides_no_entry(divisions):
    # Steps 0 to 2 have their pivot rows at 1: they take 2 + 2 + 3
    # multiplier tests and divide no entry.  Step 3's pivot row is row 3,
    # at 2 with prev = -4: its pivot is -4 a_33 / 2, row 4 (at 1) reads
    # a_43 as a_34 / 2 and divides its 2 entries by s t = 2, and row 5 (at
    # prev) reads a_53 as -4 a_35 / 2 and divides its entry by t = 2.  At
    # step 4 rows 4 and 5 are at prev, one entry divided.  Had row 3 read
    # a_32 unscaled, it would hold row_3 - row_2 at the scale 2, and the
    # det would be wrong
    m = SquareMatrix(STEP_AT_THE_INPUT_SCALE)
    assert m.is_symmetric()
    rows = [m.row(i) for i in range(m.n)]
    det, minors = det_and_leading_minors(m)
    assert det == fraction_det(rows) == -29
    assert minors == [fraction_det([r[:k] for r in rows[:k]]) for k in range(1, m.n + 1)]
    assert minors[1] == -2 and minors[2] == -4
    assert divisions == {"exact_div": 3, "divmod": 7 + 3 + 1}
    assert det_bareiss(as_poly(m)) == Poly((det,)) * Poly((1, 1)) ** m.n


# The direct sum of [[2, 1], [1, 2]] on rows 0 and 3 and on rows 1 and 4,
# and [1] on row 2, with leading principal minors 2, 4, 4, 6 and 9.  Row
# 3's multiplier at step 0 and row 4's at step 1 are 1 / 2, so they end
# at the pivots 2 and 4.  Rows 3 and 4 are 0 in column 2, and row 4 in
# column 3, so they wait there and are the pivot rows of steps 3 and 4 at
# the scales 2 and 4, where prev is 4 and 6: pivots 4 * 3 / 2 and 6 * 6 /
# 4, where the ratio 6 / 4 of prev to the row's scale is not integral,
# and 3 / 2 (1 + q)^2 in Z[q] as as_poly.
STALE_PIVOT_ROWS = [
    [2, 0, 0, 1, 0],
    [0, 2, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [1, 0, 0, 2, 0],
    [0, 1, 0, 0, 2],
]


def test_a_stale_pivot_row_divides_only_its_pivot(divisions):
    # the two stale pivot rows take one exact_div each, for their pivots,
    # in int and in Z[q], where no quotient of the two scales exists; the
    # 2 multiplier tests are the only divmods, and no entry is divided
    m = SquareMatrix(STALE_PIVOT_ROWS)
    for x in (m, as_poly(m)):
        divisions.update(exact_div=0, divmod=0)
        assert det_bareiss(x) == det_cofactor(x)
        assert divisions == {"exact_div": 2, "divmod": 2}
    check_both_tags(STALE_PIVOT_ROWS, 9)


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
    "m, skip, divisor",
    [
        (_gcd_plus(6, 1), 5, 2),
        (_gcd_plus(6, Poly.variable()), 5, Poly((1, 1))),
        (SquareMatrix(WAITS_AT_TWO), 10, -2),
        (as_poly(SquareMatrix(WAITS_AT_TWO)), 10, Poly((-2, -2))),
    ],
    ids=["int", "poly", "int-stale", "poly-stale"],
)
def test_a_nonzero_entry_remainder_raises_inexact_division(monkeypatch, m, skip, divisor):
    # one entry numerator off by one, at the first entry division by a
    # non-unit: det_bareiss must raise on the remainder, not drop it.
    # Divisions by a unit cannot leave a remainder, so they are let
    # through.  In _gcd_plus the first skip = 5 divisions by a non-unit are
    # the multiplier tests at step 0; the next is the first entry of step
    # 1, a Bareiss step.  In WAITS_AT_TWO they are the 3 + 4 tests of
    # steps 0 and 1, whose pivot rows are at 1, and the 1 + 2 entries that
    # rows 5 and 4 divide by prev = -4 at step 2, which visits its rows
    # from the last up; the next is the first entry of row 3 at step 2,
    # which waits at the pivot -2 of step 0 while prev is -4, and divides
    # its update by that stale scale.  divisor is the one that raises:
    # prev, 1 + d, in _gcd_plus, and the stale scale in WAITS_AT_TWO
    one = 1 if type(m[0, 0]) is int else Poly.const(1)
    units = (1, -1, Poly.const(1), Poly.const(-1))
    seen = []

    def off_by_one(a, b):
        if b not in units:
            seen.append((a, b))
            if len(seen) == skip + 1:
                return divmod(a + one, b)
        return divmod(a, b)

    expected = det_bareiss(m)
    monkeypatch.setattr(matrix, "divmod", off_by_one, raising=False)
    with pytest.raises(InexactDivisionError, match="^division is not exact$"):
        det_bareiss(m)
    assert len(seen) == skip + 1 and seen[skip][1] == divisor
    monkeypatch.undo()
    assert det_bareiss(m) == expected


def unit_lower(rng, n, density, entry):
    """A unit lower triangular matrix with entry() below the diagonal at
    the given density."""
    zero, one = entry() * 0, entry() ** 0

    def below(i, j):
        return entry() if j < i and rng.random() < density else zero

    return SquareMatrix([[one if i == j else below(i, j) for j in range(n)] for i in range(n)])


def sparse_l_u(rng, n, density, entry, shape):
    """L U for L = unit_lower(rng, n, density, entry): shape "LU" takes U
    upper triangular at the same density with entry() on its diagonal,
    "LDL" takes U = D Lᵀ and "UDU" the symmetric Lᵀ D L, D diagonal with
    entry() on it, or 0 with probability 0.15, so that symmetric steps
    meet zero pivots."""
    l = unit_lower(rng, n, density, entry)
    if shape == "LU":
        return l @ upper(rng, n, density, entry)
    zero = l[0, 0] * 0
    d = SquareMatrix(
        [[entry() if i == j and rng.random() >= 0.15 else zero for j in range(n)] for i in range(n)]
    )
    return l @ d @ l.transpose() if shape == "LDL" else l.transpose() @ d @ l


def fraction_minors(m):
    """All n leading principal minors, the last the det, from fraction_det;
    for Poly entries each minor is interpolated from its values at enough
    integer points, as a product of n entries has degree at most the sum
    of the rows' degrees."""
    rows = [m.row(i) for i in range(m.n)]
    if type(rows[0][0]) is int:
        return [fraction_det([r[:k] for r in rows[:k]]) for k in range(1, m.n + 1)]
    nodes = range(sum(max(0, *(x.degree for x in row)) for row in rows) + 1)
    at = {x: [[y.evaluate(x) for y in row] for row in rows] for x in nodes}
    return [
        Poly.interpolate(nodes, [fraction_det([r[:k] for r in at[x][:k]]) for x in nodes])
        for k in range(1, m.n + 1)
    ]


def test_the_support_walk_matches_the_oracles_on_sparse_l_u_products():
    # In linear-extension order the paper's products are L U with L unit
    # lower triangular and integral, and row k of the Schur complement at
    # step k is U's row k, 0 outside U's support: the division-free update
    # walks only that support.  Random such products at densities 0.1 to
    # 0.5, in int and Z[q], general (L U) and symmetric (L D Lᵀ, and Lᵀ D
    # L, whose rows can leave the input scale), as built and with their
    # rows shuffled (rows and columns when symmetric), so that zero pivots
    # swap sparse rows in; det and minors must equal fraction_det's, and
    # the det det_cofactor's for n <= 8 (n <= 5 in Z[q])
    rng = random.Random("support walk")
    entries = {
        int: lambda: rng.choice((-3, -2, -1, 1, 1, 2, 3)),
        Poly: lambda: Poly((rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1))),
    }
    counts = {}
    for tag, entry in entries.items():
        for case in range(300 if tag is int else 150):
            n = rng.randint(2, 12 if tag is int else 7)
            shape = ("LU", "LDL", "UDU")[case % 3]
            m = sparse_l_u(rng, n, rng.uniform(0.1, 0.5), entry, shape)
            assert m.is_symmetric() or shape == "LU"
            for x in (m, shuffled(rng, m)):
                expected = fraction_minors(x)
                assert det_and_leading_minors(x) == (expected[-1], through_first_zero(expected))
                if n <= 8 and (tag is int or n <= 5):
                    assert expected[-1] == det_cofactor(x)
                key = tag.__name__, shape, all(expected)
                counts[key] = counts.get(key, 0) + 1
    # every shape in both rings, with and without a zero leading minor
    assert len(counts) == 12 and min(counts.values()) > 5


# Symmetric, with leading principal minors 1 and 0 and det 21.  Step 0 is
# symmetric: row 0's support past 0 is {2, 4}, the rows its walk visits,
# and both multipliers -1 divide.  At step 1, a_11 = 0 ends symmetric
# mode: the lower triangle is mirrored and row 2 swaps in.  The new row 1,
# (-1, -1, -1, 0, -3), has the support {2, 4} past 1, and row 3's
# multiplier -2 divides, so the general step walks {2, 4}.  A list taken
# from row 1 before the swap, {2, 3}, would write column 3 and miss
# column 4.  Step 2 walks row 2's support {3} for rows 3 and 4.
HANDOVER_TO_A_SPARSE_PIVOT_ROW = [
    [1, 0, -1, 0, -1],
    [0, 0, -1, 2, 0],
    [-1, -1, 0, 0, -2],
    [0, 2, 0, 0, 1],
    [-1, 0, -2, 1, 0],
]


def test_a_zero_pivot_hands_a_sparse_pivot_row_to_a_general_step(divisions):
    m = SquareMatrix(HANDOVER_TO_A_SPARSE_PIVOT_ROW)
    assert m.is_symmetric()
    rows = [m.row(i) for i in range(m.n)]
    assert det_and_leading_minors(m) == (fraction_det(rows), [1, 0]) == (21, [1, 0])
    # 2 + 1 + 2 multiplier tests at steps 0 to 2 and row 4's at step 3,
    # -5 / -4, which fails; its Bareiss update divides by s = 1
    assert divisions == {"exact_div": 0, "divmod": 6}
    check_both_tags(HANDOVER_TO_A_SPARSE_PIVOT_ROW, 21)


def test_the_division_free_update_multiplies_only_on_the_pivot_rows_support(monkeypatch):
    # Counted in Z[q], where each product is one call of Poly.__mul__: the
    # division-free update multiplies once for each column in S_k, row
    # k's support past k, from the row's start on (i when symmetric, k + 1
    # otherwise), and each step after the first multiplies its pivot by
    # prev.  as_poly(L U) = L (1 + q) U keeps L, so every row stays at the
    # input scale, its live rows at step k are those with L_ik != 0, and
    # S_k is U's row k past k
    calls = [0]
    poly_mul = Poly.__mul__

    def counted(a, b):
        calls[0] += 1
        return poly_mul(a, b)

    def support(u, k):
        return [j for j in range(k + 1, u.n) if u[k, j]]

    n = 12
    s = range(1, n + 1)
    zeta = SquareMatrix([[int(b % a == 0) for b in s] for a in s])
    phi_zeta = SquareMatrix([[euler_phi(a) * x for x in zeta.row(a - 1)] for a in s])
    rng = random.Random("walk products")
    lower = unit_lower(rng, n, 0.3, lambda: rng.choice((-2, -1, 1, 2)))
    right = upper(rng, n, 0.3, lambda: rng.choice((-2, -1, 1, 2)))
    cases = [(zeta.transpose(), phi_zeta), (lower, right)]
    assert gcd_matrix(s) == zeta.transpose() @ phi_zeta
    for l, u in cases:
        m = l @ u
        sym = m.is_symmetric()
        assert sym == (l is not lower)
        walk = sum(
            len([j for j in support(u, k) if j >= (i if sym else k + 1)])
            for k in range(n)
            for i in range(k + 1, n)
            if l[i, k]
        )
        dense = sum(n - (i if sym else k + 1) for k in range(n) for i in range(k + 1, n) if l[i, k])
        calls[0] = 0
        monkeypatch.setattr(Poly, "__mul__", counted)
        det = det_bareiss(as_poly(m))
        monkeypatch.undo()
        assert det == Poly((det_bareiss(m),)) * Poly((1, 1)) ** n
        assert calls[0] == walk + n - 1 < dense + n - 1
