import math
import random

import pytest

from posetdet import matrix
from posetdet.identities import gcd_matrix, totient_product
from posetdet.matrix import (
    SquareMatrix,
    det_bareiss,
    det_cofactor,
    leading_principal_minors,
)
from posetdet.ring import Poly


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


def test_zero_pivot_handling():
    assert det_bareiss(SquareMatrix([[0, 1], [1, 0]])) == -1
    assert det_bareiss(SquareMatrix([[0, 0], [0, 0]])) == 0
    assert det_bareiss(SquareMatrix([[0, 1], [0, 2]])) == 0
    m = SquareMatrix([[0, 2, 1], [0, 0, 3], [5, 0, 0]])
    assert det_bareiss(m) == det_cofactor(m) == 30
    # symmetric inputs: a zero pivot at k = 0 mirrors the whole matrix
    m = SquareMatrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert det_bareiss(m) == det_cofactor(m) == 12
    # the first zero pivot at k = 1: the lower row that supplies the swap
    # is read from the mirrored upper triangle, not from stale entries
    m = SquareMatrix([[1, 1, 2], [1, 1, 3], [2, 3, 0]])
    assert det_bareiss(m) == det_cofactor(m) == -1
    m = SquareMatrix([[1, 1, 2], [1, 1, 2], [2, 2, 5]])
    assert det_bareiss(m) == det_cofactor(m) == 0


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
    return [det_cofactor(m.leading(k)) for k in range(1, m.n + 1)]


def test_leading_principal_minors():
    assert leading_principal_minors(SquareMatrix.identity(3)) == [1, 1, 1]
    vals = [1, 2, 4]
    m = SquareMatrix([[math.gcd(a, b) for b in vals] for a in vals])
    # prefixes of a factor-closed chain are factor closed, so the minors
    # are prefix products of totients: 1, 1*1, 1*1*2
    assert leading_principal_minors(m) == [1, 1, 2]
    rng = random.Random("minors")
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(1, 5))
        assert leading_principal_minors(m)[-1] == det_bareiss(m)
    with pytest.raises(ValueError):
        SquareMatrix.identity(2).leading(0)


def test_leading_minors_after_a_zero_pivot():
    # minors 1, 0 (singular 2 x 2 block), then a nonzero 3 x 3 minor that
    # the elimination cannot reach without a row swap
    m = SquareMatrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert leading_principal_minors(m) == [1, 0, -1]
    # a zero first entry and a nonzero full determinant
    m = SquareMatrix([[0, 1], [1, 0]])
    assert leading_principal_minors(m) == [0, -1]


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
        assert leading_principal_minors(m) == expected
    assert zero_leads > 50


def test_leading_minors_match_the_oracle_on_random_polynomial_matrices():
    rng = random.Random("minors-poly")
    for _ in range(40):
        m = random_poly_matrix(rng, rng.randint(1, 5), max_deg=2)
        assert leading_principal_minors(m) == leading_minors_oracle(m)
    zero_lead = SquareMatrix(
        [[Poly(), Poly((1,))], [Poly((0, 1)), Poly((2, 3))]]
    )
    assert leading_principal_minors(zero_lead) == [Poly(), Poly((0, -1))]


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


def test_symmetric_elimination_halves_the_divisions(monkeypatch):
    # a symmetric input updates only j >= i at each step, any other input
    # the whole (n - k - 1) x (n - k - 1) block; neither meets a zero pivot
    divisions = 0

    def counting_div(a, b):
        nonlocal divisions
        divisions += 1
        return divmod(a, b)[0]

    monkeypatch.setattr(matrix, "_exact_int_div", counting_div)
    n = 10
    g = gcd_matrix(range(1, n + 1))
    scaled = SquareMatrix([[a * x for x in g.row(a - 1)] for a in range(1, n + 1)])
    assert g.is_symmetric() and not scaled.is_symmetric()
    assert det_bareiss(g) == totient_product(range(1, n + 1))
    assert divisions == sum((n - k - 1) * (n - k) // 2 for k in range(n - 1))
    divisions = 0
    assert det_bareiss(scaled) == math.factorial(n) * totient_product(range(1, n + 1))
    assert divisions == sum((n - k - 1) ** 2 for k in range(n - 1))
