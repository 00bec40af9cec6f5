"""sympy as an independent determinant oracle, for Poly matrices and for
integer matrices too large for det_cofactor.

Optional: the module is skipped when sympy is not installed, and sympy is
not a dependency.  A Poly det comes from the characteristic polynomial of
a DomainMatrix over ZZ[q] (Berkowitz, division free), as (-1)^n times its
constant term; it shares no code with Bareiss elimination or with the
evaluation and interpolation behind chromatic_join_det.  An int det is
sympy's own DomainMatrix det over ZZ.
"""

import random

import pytest

from posetdet.arith import divisors
from posetdet.chromatic import chromatic_join_det, chromatic_join_matrix
from posetdet.identities import gcd_matrix, kth_root_matrix, ramanujan_matrix, totient_product
from posetdet.lgv import WeightedDigraph, stembridge_matrix
from posetdet.matrix import SquareMatrix, det_bareiss
from posetdet.randgen import random_hypothesis_digraph
from posetdet.ring import Poly
from test_matrix import deferred_row_steps, divisions, row_steps, shuffled, upper  # noqa: F401

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

Q = sympy.symbols("q")
RING = sympy.ZZ[Q]


def _to_sympy(p):
    return RING.from_sympy(sum(c * Q**i for i, c in enumerate(p.coeffs)))


def _berkowitz_det(m):
    dm = DomainMatrix(
        [[_to_sympy(m[i, j]) for j in range(m.n)] for i in range(m.n)],
        (m.n, m.n),
        RING,
    )
    constant = dm.charpoly()[-1]
    coeffs = {k[0]: int(v) for k, v in ((-1) ** m.n * constant).terms()}
    return Poly(tuple(coeffs.get(i, 0) for i in range(max(coeffs, default=-1) + 1)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chromatic_join_det_matches_sympy_berkowitz(n):
    assert chromatic_join_det(n) == _berkowitz_det(chromatic_join_matrix(n))


def test_poly_weighted_stembridge_det_matches_sympy_berkowitz():
    rng = random.Random("sympy")
    sizes = []
    while len(sizes) < 10:
        d = random_hypothesis_digraph(rng)
        arcs = [(u, v, Poly((w, 1))) for u, v, w in d.arcs()]
        if not arcs:
            continue
        g = WeightedDigraph(d.n, arcs, sources=d.sources, sinks=d.sinks)
        m = stembridge_matrix(g)
        sizes.append(m.n)
        assert det_bareiss(m) == _berkowitz_det(m)
    assert set(sizes) == {1, 2, 3}


def _dense(n):
    rng = random.Random(f"dense-{n}")
    return SquareMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def _pivot_heavy(n, symmetric):
    """A nonsingular integer matrix on which elimination meets many zero
    pivots.  A sparse unit lower triangular L times a sparse upper
    triangular U with a nonzero diagonal has its rows shuffled; for a
    symmetric matrix, L H L^T with H made of 2 x 2 blocks [[0, c], [c, 0]]
    (and a last 1 x 1 block when n is odd) has its rows and columns
    shuffled alike."""
    rng = random.Random(f"pivot-heavy-{n}-{symmetric}")

    def sparse():
        return rng.choice((-2, -1, 1, 2)) if rng.random() < 0.15 else 0

    def nonzero():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    lower = SquareMatrix(
        [[1 if i == j else sparse() if j < i else 0 for j in range(n)] for i in range(n)]
    )
    if symmetric:
        middle = [[0] * n for _ in range(n)]
        for i in range(0, n - 1, 2):
            middle[i][i + 1] = middle[i + 1][i] = nonzero()
        if n % 2:
            middle[n - 1][n - 1] = nonzero()
        b = lower @ SquareMatrix(middle) @ lower.transpose()
    else:
        upper = SquareMatrix(
            [
                [nonzero() if i == j else sparse() if j > i else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        b = lower @ upper
    perm = rng.sample(range(n), n)
    return SquareMatrix(
        [[b[perm[i], perm[j] if symmetric else j] for j in range(n)] for i in range(n)]
    )


def _unit_lu(n):
    """L U with L unit lower triangular and U upper triangular, both
    integral with small entries: every multiplier of the elimination
    divides, so det_bareiss keeps every row at the input scale."""
    rng = random.Random(f"unit-lu-{n}")
    lower = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        upper[i][i] = rng.choice((-3, -2, -1, 1, 2, 3))
    return SquareMatrix(lower) @ SquareMatrix(upper)


@pytest.mark.parametrize(
    "build, symmetric",
    [
        (lambda: gcd_matrix(divisors(720)), True),
        (lambda: kth_root_matrix(24, 2, range(1, 25)), True),
        (lambda: ramanujan_matrix(24), False),
        (lambda: _dense(9), False),
        (lambda: _dense(40), False),
        (lambda: _unit_lu(64), False),
        (lambda: _pivot_heavy(9, False), False),
        (lambda: _pivot_heavy(16, False), False),
        (lambda: _pivot_heavy(25, False), False),
        (lambda: _pivot_heavy(40, False), False),
        (lambda: _pivot_heavy(9, True), True),
        (lambda: _pivot_heavy(16, True), True),
        (lambda: _pivot_heavy(25, True), True),
        (lambda: _pivot_heavy(40, True), True),
    ],
    ids=[
        "gcd-divisors-720",
        "kth-root-24",
        "ramanujan-24",
        "dense-9",
        "dense-40",
        "unit-lu-64",
        "pivot-heavy-9",
        "pivot-heavy-16",
        "pivot-heavy-25",
        "pivot-heavy-40",
        "pivot-heavy-symmetric-9",
        "pivot-heavy-symmetric-16",
        "pivot-heavy-symmetric-25",
        "pivot-heavy-symmetric-40",
    ],
)
def test_large_integer_det_matches_sympy(build, symmetric):
    # above det_cofactor's size cap, on both elimination paths and through
    # the zero-pivot row search
    m = build()
    assert m.is_symmetric() is symmetric
    rows = [[sympy.ZZ(m[i, j]) for j in range(m.n)] for i in range(m.n)]
    expected = DomainMatrix(rows, (m.n, m.n), sympy.ZZ).det()
    det = det_bareiss(m)
    assert det != 0
    assert det == int(expected)


def test_gcd_matrix_on_the_divisors_of_720720_matches_sympy():
    # the largest set smith --set accepts, in ascending order, where every
    # row stays at the input scale, and with its rows and columns shuffled
    # alike, which leaves the det unchanged and makes the multipliers
    # fractions.  One sympy det, about 4 s, serves both
    s = divisors(720720)
    m = gcd_matrix(s)
    rows = [[sympy.ZZ(m[i, j]) for j in range(m.n)] for i in range(m.n)]
    expected = int(DomainMatrix(rows, (m.n, m.n), sympy.ZZ).det())
    assert m.n == 240 and expected == totient_product(s)
    assert det_bareiss(m) == expected
    assert det_bareiss(shuffled(random.Random("gcd-720720"), m)) == expected


@pytest.mark.parametrize(
    "n, symmetric, singular",
    [
        (17, True, False),
        (33, False, False),
        (64, True, False),
        (64, False, False),
        (40, True, True),
        (64, False, True),
    ],
)
def test_deferred_rows_match_sympy_on_sparse_products(divisions, n, symmetric, singular):
    # Fᵀ G for sparse upper triangular F and G (G = F when symmetric), as in
    # test_matrix.  A nonsingular product has F's diagonal ±1, so it is L U
    # with L = Fᵀ D_F^-1 integral: every row stays at the input scale, and
    # each row-step that is not deferred takes the one divmod of its
    # multiplier test and nothing else divides: 116 of the 2016 row-steps
    # of the 64 x 64 non-symmetric product.  A row-step is deferred where
    # F[k][i] is 0, and F is 6% dense above its diagonal.  A singular
    # product has a zero row in F, and it and a second copy of the product
    # are shuffled, so that elimination meets zero pivots with rows still
    # deferred
    rng = random.Random(f"sparse-product-{n}-{symmetric}-{singular}")

    def entry():
        return rng.choice((-3, -2, -1, 1, 2, 3))

    f = upper(rng, n, 0.06, entry)
    if singular:
        c = rng.randrange(n)
        f = SquareMatrix([[x if i != c else 0 for x in f.row(i)] for i in range(n)])
    else:
        rows = [list(f.row(i)) for i in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice((-1, 1))
        f = SquareMatrix(rows)
    g = f if symmetric else upper(rng, n, 0.06, entry)
    m = f.transpose() @ g
    assert m.is_symmetric() is symmetric
    products = [m] if not singular else [shuffled(rng, m), shuffled(rng, m)]
    for p in products:
        rows = [[sympy.ZZ(p[i, j]) for j in range(n)] for i in range(n)]
        expected = int(DomainMatrix(rows, (n, n), sympy.ZZ).det())
        assert (expected == 0) is singular
        assert det_bareiss(p) == expected
    if not singular:
        deferred = deferred_row_steps(f)
        assert divisions == {"exact_div": 0, "divmod": row_steps(n) - deferred}
        assert deferred > row_steps(n) // 2
