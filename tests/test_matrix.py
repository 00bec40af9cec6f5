import math
import random
import sys

import pytest

from posetdet import matrix, randgen
from posetdet.arith import divisors
from posetdet.identities import (
    gcd_matrix,
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
    meets zero diagonal entries, and some zero 2 x 2 pivots, at any step."""
    rows = [[m[min(i, j), max(i, j)] for j in range(m.n)] for i in range(m.n)]
    for i in range(m.n):
        if rng.random() < 0.35:
            rows[i][i] = m[i, i] - m[i, i]
    return SquareMatrix(rows)


def degenerate_lead(m):
    """m with its leading 2 x 2 block replaced by the rank-1 block
    (x, y)^T (u, v), symmetric when m is: the first two-column step must
    swap rows or find those columns of rank at most 1.  A zero x and y
    give the zero block."""
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
    # a zero a_00 under a nonzero 2 x 2 leading minor needs no swap
    check_both_tags([[0, 1], [1, 0]], -1)
    check_both_tags([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 12)
    check_both_tags([[0, 2, 1], [2, 1, 0], [1, 0, 5]], -21)
    check_both_tags([[0, 2, 1], [3, 1, 0], [1, 0, 5]], -31)
    check_both_tags([[0, 0], [0, 0]], 0)
    check_both_tags([[0, 1], [0, 2]], 0)
    check_both_tags([[0, 2, 1], [0, 0, 3], [5, 0, 0]], 30)
    # a zero 2 x 2 leading minor: rows 0 and 2 have the first nonzero
    # minor on columns 0 and 1, so row 2 moves up and the sign flips
    check_both_tags([[1, 2, 0], [2, 4, 1], [0, 1, 0]], -1)
    # rows 2 and 3 move up into rows 0 and 1: two swaps, sign kept
    check_both_tags([[0, 0, 1, 2], [0, 0, 3, 1], [1, 2, 0, 0], [3, 4, 0, 0]], 10)
    # symmetric inputs: the zero minor at k = 0 mirrors the whole matrix,
    # and the row that supplies the swap is read from the mirrored
    # upper triangle, not from stale entries
    check_both_tags([[1, 1, 2], [1, 1, 3], [2, 3, 0]], -1)
    check_both_tags([[1, 1, 2], [1, 1, 2], [2, 2, 5]], 0)
    # columns k and k + 1 of rank 1 under a nonzero diagonal return 0,
    # at k = 0 and at k = 2
    check_both_tags([[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 9], [4, 8, 1, 2]], 0)
    check_both_tags([[2, 1, 1, 2], [1, 3, 2, 4], [1, 1, 3, 6], [5, 2, 1, 2]], 0)
    # a dense symmetric 5 x 5 whose leading 4 x 4 minor is 0: the first
    # step runs on the upper triangle, the zero minor at k = 2 mirrors
    # it, and rows 2 and 4 supply the swap
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
    # minors 1, 0 (singular 2 x 2 block): recording stops there, before
    # the row swap that reaches the nonzero determinant
    m = SquareMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert leading_minors_oracle(m) == [1, 0, -1]
    check_minors(m, [1, 0])
    assert det_bareiss(m, []) == -1
    # a zero first entry and a nonzero full determinant, with no swap
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
    """Counts of det_bareiss's divisions: "exact_div" for the pivots and the
    multipliers, "divmod" for the entries."""
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
    """Rows a two-step elimination of an n x n matrix updates, summed over steps."""
    return sum(n - k - 2 for k in range(0, n - 1, 2))


def deferred_row_steps(f):
    """How many row-steps det_bareiss defers on Fᵀ G, for F and G upper
    triangular with nonzero diagonals.  Fᵀ G is then L U with L = Fᵀ, and
    after k columns the Schur complement is L[k:, k:] U[k:, k:], so a_ik
    and a_il at step k are both 0 exactly when F[k][i] and F[k + 1][i] are:
    neither k nor k + 1 is below i in F's support."""
    n = f.n
    return sum(
        not (f[k, i] or f[k + 1, i]) for k in range(0, n - 1, 2) for i in range(k + 2, n)
    )


def test_two_step_elimination_division_counts(divisions):
    # each two-column step divides once for its pivot, twice per updated
    # row for that row's multipliers and once per updated entry: a symmetric
    # input updates only j >= i, any other input the whole block below row
    # k + 1; none of these inputs meets a zero pivot.  The pivot and the
    # multipliers go through exact_div, each entry through the builtin
    # divmod with no Python-level call around it.  The meet matrix of a
    # chain, min(a, b) = Fᵀ F with F all ones on and above the diagonal,
    # has no zero multiplier pair, so no row is deferred
    n = 10
    ones = SquareMatrix([[int(i <= j) for j in range(n)] for i in range(n)])
    chain = SquareMatrix([[min(a, b) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert chain == ones.transpose() @ ones and deferred_row_steps(ones) == 0
    scaled = SquareMatrix([[a * x for x in chain.row(a - 1)] for a in range(1, n + 1)])
    assert chain.is_symmetric() and not scaled.is_symmetric()
    assert det_bareiss(chain) == 1
    steps = range(0, n - 1, 2)
    assert divisions["exact_div"] == sum(1 + 2 * (n - k - 2) for k in steps) == 45
    assert divisions["divmod"] == sum(sum(n - i for i in range(k + 2, n)) for k in steps) == 70
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(scaled) == math.factorial(n)
    assert divisions["exact_div"] == 45
    assert divisions["divmod"] == sum((n - k - 2) ** 2 for k in steps) == 120
    # The gcd matrix on 1..10 is Eᵀ D E, E the divisibility zeta matrix and D
    # the totients, so row b is deferred at the step on columns a, a + 1
    # unless a or a + 1 divides b: at a = 3 rows 5, 7 and 10 are, at a = 5
    # rows 7, 8 and 9, and at a = 7 rows 9 and 10.  That leaves 12 of the
    # 20 row-steps: 5 pivots + 2 * 12 multipliers = 29 exact divisions.
    # The entries, symmetric (j >= i): 36 at a = 1 (rows 3..10), 5 + 3 + 2
    # at a = 3 (rows 6, 8, 9), then catch-ups of the nonzero live entries
    # and one full update: at a = 5 row 5 (columns 5, 10), row 10 (column
    # 10) and row 10's update (1); at a = 7 rows 7 and 8 (1 each); at a = 9
    # rows 9 and 10 (1 each).  Every catch-up is exact (its pivot divides
    # prev), so it takes one divmod of the pivots however many live entries
    # it has, and row 5 at a = 5 takes 1, not 2: 36 + 10 + 3 + 2 + 2 = 53.
    # Scaled (the whole block, catch-ups from column a): 64 at a = 1, 3 * 6
    # at a = 3, at a = 5 rows 5 and 10 (one divmod each for columns 5 and
    # 10) and row 10's update (4), at a = 7 and a = 9 one per pivot row:
    # 64 + 18 + 6 + 2 + 2 = 92
    g = gcd_matrix(range(1, n + 1))
    zeta = SquareMatrix([[int(b % a == 0) for b in range(1, n + 1)] for a in range(1, n + 1)])
    assert deferred_row_steps(zeta) == 8 and row_steps(n) == 20
    scaled = SquareMatrix([[a * x for x in g.row(a - 1)] for a in range(1, n + 1)])
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(g) == totient_product(range(1, n + 1))
    assert divisions == {"exact_div": 5 + 2 * (20 - 8), "divmod": 53}
    divisions.update(exact_div=0, divmod=0)
    assert det_bareiss(scaled) == math.factorial(n) * totient_product(range(1, n + 1))
    assert divisions == {"exact_div": 29, "divmod": 92}


def test_deferred_rows_match_the_oracle_on_sparse_products(divisions):
    # Fᵀ G for sparse upper triangular F and G, symmetric (G = F) or not, in
    # int and Poly.  With nonzero diagonals no pivot is 0, and the pivot and
    # multiplier divisions count the row-steps that were not deferred.  A
    # zero row in F makes the product singular, and shuffled rows make
    # elimination meet zero pivots, swap rows and, while the product is
    # symmetric, mirror it
    rng = random.Random("deferred")
    entries = {
        int: lambda: rng.choice((-3, -2, -1, 1, 2, 3)),
        Poly: lambda: Poly((rng.choice((-2, -1, 1, 2)), rng.randint(-1, 1))),
    }
    deferred = total = singular = 0
    for tag, entry in entries.items():
        for _ in range(150 if tag is int else 50):
            n = rng.randint(1, 8)
            density = rng.choice((0.1, 0.2, 0.35))
            f = upper(rng, n, density, entry)
            g = f if rng.random() < 0.4 else upper(rng, n, density, entry)
            m = f.transpose() @ g
            divisions.update(exact_div=0)
            assert det_bareiss(m) == det_cofactor(m)
            assert divisions["exact_div"] == n // 2 + 2 * (row_steps(n) - deferred_row_steps(f))
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
    # a skipped catch-up leaves a row off by its factor prev / stale, 2 at
    # the first catch-up of each case
    f = SquareMatrix(
        [[1, 0, 1, 0, 1], [0, 2, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 3]]
    )
    g = SquareMatrix(
        [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 2, 1], [0, 0, 0, 0, 1]]
    )
    cases = [
        # symmetric, pivot 2 at k = 0; row 4 is 0 on columns 0 and 1, so it
        # is deferred, and the leading 4 x 4 minor is 0: the mirror copy at
        # k = 2 must read row 4 current.  Rows 3 and 4 then move up, and
        # the row that lands in row 4 is deferred again and is the last
        # diagonal entry
        (
            [[1, 1, 1, 1, 0], [1, 3, 1, 3, 0], [1, 1, 1, 1, 1], [1, 3, 1, 4, 1], [0, 0, 1, 1, 1]],
            -2,
            [(4, 2, 1), (4, -2, 2)],
        ),
        # not symmetric, the same shape: at k = 2 rows 3 and 4 supply the
        # pivot pair, and deferred row 4 is caught up from column 2 before
        # it moves up
        (
            [[1, 1, 1, 0, 2], [1, 3, 0, 1, 1], [1, 1, 1, 0, 3], [1, 3, 1, 2, 1], [0, 0, 2, 1, 1]],
            -2,
            [(2, 2, 1), (4, -2, 2)],
        ),
        # Fᵀ G with F[2][4] = F[3][4] = 0: row 4 is updated at k = 0 and
        # deferred at k = 2, at pivot 2, and it is the last diagonal entry
        # when the final pivot is 4
        ([list((f.transpose() @ g).row(i)) for i in range(5)], 12, [(4, 4, 2)]),
    ]
    for rows, det, expected in cases:
        catch_ups.clear()
        assert det_bareiss(SquareMatrix(rows)) == det
        assert catch_ups == expected
        check_both_tags(rows, det)


def test_a_zero_pivot_catches_up_every_deferred_row(catch_ups):
    # not symmetric: step 0 has pivot 2, and rows 2..6, all 0 on columns 0
    # and 1, are deferred at 1.  At k = 2 rows 2 and 3 are caught up as
    # pivot rows and their minor is 0, so rows 4 and 5 swap in.  Row 6 is
    # neither a pivot row nor swapped, yet it is caught up there, from
    # column 2, with the others; deferred again at pivot 2, it is the last
    # diagonal entry at (6, 2, 2)
    e = [[int(i == j) for j in range(7)] for i in range(7)]
    rows = [[1, 1, 0, 0, 0, 0, 0], [-1, 1, 0, 0, 0, 0, 0], e[4], e[5], e[2], e[3]]
    rows.append([3 * x for x in e[6]])
    assert det_bareiss(SquareMatrix(rows)) == 6
    assert catch_ups == [(2, 2, 1)] * 5 + [(4, 2, 2)] * 2 + [(6, 2, 2)]
    check_both_tags(rows, 6)


def test_catch_ups_divide_exactly_on_the_papers_matrices(catch_ups):
    # On an order ideal in linear-extension order every leading minor of
    # these matrices is a product of diagonal factors, so while none is 0
    # each catch-up ratio prev / stale, a ratio of two leading minors, is
    # an integer and _rescale multiplies by it
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
    catch_ups.clear()
    for m in (360, 5040, 55440, 720720):
        det_bareiss(gcd_matrix(divisors(m)))
    assert len(catch_ups) == 3647
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


# The direct sum of [[2, 1], [1, 2]] on rows 0 and 3, [[1, 1], [1, 2]] on
# rows 1 and 4 and [1] on row 2, with leading principal minors 2, 2, 2, 3
# and 3.  Row 4 is 0 on columns 2 and 3 after the first step, so it is
# deferred at pivot 2 and caught up, as the last diagonal entry, at pivot
# 3: a catch-up ratio of 3 / 2, and 3 / 2 (1 + q)^2 in Z[q] as as_poly.
INEXACT_CATCH_UP = [
    [2, 0, 0, 1, 0],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [1, 0, 0, 2, 0],
    [0, 1, 0, 0, 2],
]


def test_an_inexact_catch_up_falls_back_to_entry_division(catch_ups):
    # the catch-up of row 4 divides each live entry, in int and in Z[q],
    # where Poly's divmod refuses the ratio on its leading coefficient
    check_both_tags(INEXACT_CATCH_UP, 3)
    square = Poly((1, 1)) ** 2
    assert (4, 3, 2) in catch_ups
    assert (4, square * square * 3, square * 2) in catch_ups


def _gcd_plus_q(n):
    # the gcd matrix plus q on the diagonal: each pivot is monic in q, of
    # positive degree from the second step on
    q = Poly.variable()
    return SquareMatrix(
        [
            [Poly.const(math.gcd(a, b)) + (q if a == b else Poly()) for b in range(1, n + 1)]
            for a in range(1, n + 1)
        ]
    )


@pytest.mark.parametrize(
    "m, message, site",
    [
        (gcd_matrix(range(1, 11)), "division is not exact", "det_bareiss"),
        (_gcd_plus_q(6), "division is not exact", "det_bareiss"),
        (SquareMatrix(INEXACT_CATCH_UP), "division is not exact", "_rescale"),
        (as_poly(SquareMatrix(INEXACT_CATCH_UP)), "division is not exact", "_rescale"),
    ],
    ids=["int", "poly", "int-deferred", "poly-deferred"],
)
def test_a_nonzero_entry_remainder_raises_inexact_division(monkeypatch, m, message, site):
    # one entry numerator off by one, at the first division by a non-unit
    # that site makes: det_bareiss must raise on the remainder, not drop
    # it.  In _rescale that is the catch-up of a deferred row, with one
    # entry bumped while the row waited; its first division is the ratio
    # of its two pivots, which is skipped.  A catch-up whose pivots divide
    # has no entry division, so the catch-up tested is INEXACT_CATCH_UP's.
    # The gcd matrix on 1..10 updates row 10 in full after a pivot of 4,
    # so the entry loop is tested there
    one = 1 if type(m[0, 0]) is int else Poly.const(1)
    units = (1, -1, Poly.const(1), Poly.const(-1))
    skip = int(site == "_rescale")
    seen = []

    def off_by_one(a, b):
        if b not in units and sys._getframe(1).f_code.co_name == site:
            seen.append((a, b))
            if len(seen) == skip + 1:
                return divmod(a + one, b)
        return divmod(a, b)

    expected = det_bareiss(m)
    monkeypatch.setattr(matrix, "divmod", off_by_one, raising=False)
    with pytest.raises(InexactDivisionError, match=f"^{message}$"):
        det_bareiss(m)
    assert len(seen) == skip + 1
    monkeypatch.undo()
    assert det_bareiss(m) == expected
