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
from posetdet.identities import gcd_matrix, kth_root_matrix, ramanujan_matrix
from posetdet.lgv import WeightedDigraph, stembridge_matrix
from posetdet.matrix import SquareMatrix, det_bareiss
from posetdet.randgen import random_hypothesis_digraph
from posetdet.ring import Poly

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
    2 x 2 pivots.  A sparse unit lower triangular L times a sparse upper
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


@pytest.mark.parametrize(
    "build, symmetric",
    [
        (lambda: gcd_matrix(divisors(720)), True),
        (lambda: kth_root_matrix(24, 2, range(1, 25)), True),
        (lambda: ramanujan_matrix(24), False),
        (lambda: _dense(9), False),
        (lambda: _dense(40), False),
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
    # the 2 x 2 pivot search
    m = build()
    assert m.is_symmetric() is symmetric
    rows = [[sympy.ZZ(m[i, j]) for j in range(m.n)] for i in range(m.n)]
    expected = DomainMatrix(rows, (m.n, m.n), sympy.ZZ).det()
    det = det_bareiss(m)
    assert det != 0
    assert det == int(expected)
