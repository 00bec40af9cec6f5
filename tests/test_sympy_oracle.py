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
from posetdet.matrix import det_bareiss
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


@pytest.mark.parametrize(
    "build, symmetric",
    [
        (lambda: gcd_matrix(divisors(720)), True),
        (lambda: kth_root_matrix(24, 2, range(1, 25)), True),
        (lambda: ramanujan_matrix(24), False),
    ],
    ids=["gcd-divisors-720", "kth-root-24", "ramanujan-24"],
)
def test_large_integer_det_matches_sympy(build, symmetric):
    # above det_cofactor's size cap, on both elimination paths
    m = build()
    assert m.is_symmetric() is symmetric
    rows = [[sympy.ZZ(m[i, j]) for j in range(m.n)] for i in range(m.n)]
    expected = DomainMatrix(rows, (m.n, m.n), sympy.ZZ).det()
    det = det_bareiss(m)
    assert det != 0
    assert det == int(expected)
