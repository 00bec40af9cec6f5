"""Exact square matrices and fraction-free determinants.

det_bareiss is the workhorse: Bareiss's one-step elimination, with one
exact division per entry per column eliminated and, on a symmetric
input, only the upper triangle updated.  A row that a step would only
rescale, as it is 0 in the eliminated column, is left alone until it is
next read, so the sparse incidence products Fᵀ G skip most of their
rows.  A step whose pivot row is still at the input scale divides no
row: a row whose multiplier divides takes its next Schur complement row
itself, and any other a multiple of it, with no division either.  In
linear-extension order the factor-closed GCD matrices and Apostol's and
Daniloff's are L U with L integral and unit triangular, so their rows
never leave the input scale.  det_cofactor is a deliberately independent
slow oracle used to cross-check it.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Sequence

from .ring import InexactDivisionError, Poly, RingValue, exact_div, one_like, zero_like

COFACTOR_MAX = 8  # Laplace expansion is factorial; keep the oracle small.


class SquareMatrix:
    """Immutable n x n matrix whose entries are all int or all Poly."""

    def __init__(self, rows: Sequence[Sequence[RingValue]]):
        n = len(rows)
        if n == 0:
            raise ValueError("matrix needs at least one row")
        self._rows = tuple(map(tuple, rows))
        if set(map(len, self._rows)) != {n}:
            raise ValueError("matrix must be square")
        tag = type(self._rows[0][0])
        if tag is not int and tag is not Poly:
            raise ValueError(f"matrix entries must be int or Poly, not {tag.__name__}")
        if set(map(type, chain.from_iterable(self._rows))) != {tag}:
            raise ValueError("matrix entries must share one ring tag")
        self.n = n

    @classmethod
    def identity(cls, n: int) -> SquareMatrix:
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> RingValue:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[RingValue, ...]:
        return self._rows[i]

    def transpose(self) -> SquareMatrix:
        return SquareMatrix(tuple(zip(*self._rows)))

    def __matmul__(self, other: SquareMatrix) -> SquareMatrix:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        # Each entry is one C-level sum over a row and a column tuple,
        # started at the ring zero so that Poly sums stay Poly.
        zero = zero_like(self._rows[0][0])
        cols = tuple(zip(*other._rows))
        return SquareMatrix(
            [[sum(map(operator.mul, r, c), zero) for c in cols] for r in self._rows]
        )

    def is_symmetric(self) -> bool:
        # Row i against column i; zip reuses its one column tuple, so the
        # check allocates nothing per row and stops at the first mismatch.
        return all(map(operator.eq, self._rows, zip(*self._rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, SquareMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self._rows
        )
        return f"SquareMatrix[{body}]"


def _rescale(row: list[RingValue], start: int, num: RingValue, den: RingValue) -> None:
    """row[j] = num * row[j] / den for every j >= start, in place.  Each
    nonzero entry is divided by the builtin divmod, as in det_bareiss's
    entry loop, and a nonzero remainder goes on to exact_div, which
    raises."""
    for j in range(start, len(row)):
        if row[j]:
            row[j], r = divmod(num * row[j], den)
            if r:
                exact_div(r, den)


def det_bareiss(m: SquareMatrix, minors: list[RingValue] | None = None) -> RingValue:
    """Exact determinant by one-step fraction-free elimination.

    Step k eliminates column k.  With prev the previous step's pivot (1
    at the start), Bareiss's step takes each entry of each row i > k to
    (a_kk a_ij - a_ik a_kj) / prev, and a_kk becomes the pivot (Bareiss,
    Math. Comp. 22, 1968).  By Sylvester's identity the pivot is the
    leading principal minor of order k + 1 and each new entry the minor
    of the input on rows 0..k and i and columns 0..k and j, so every
    division is exact in the entry domain; an inexact one raises
    InexactDivisionError, which means the invariant was broken, not that
    the input was bad.  The entry division is the builtin divmod, with no
    Python-level call, for int and Poly alike; only a nonzero remainder
    goes on to the ring's exact division, which raises.  The determinant
    is the last pivot, negated once per row swap.

    While the matrix is symmetric, so is every intermediate, and only
    entries with j >= i are updated; a_ik is read from row k.

    Each row's entries are scale[i] times its row of the current Schur
    complement, where Bareiss keeps them at prev times it; before step 0
    every row is at scale 1.  Scales are compared by value, never by
    identity.  A row with a_ik = 0 keeps its Schur complement row, so the
    step would only rescale it: it is left alone and keeps its scale.  A
    deferred entry is 0 exactly when its current value is, so the zero
    tests read deferred rows as they are.

    A step whose pivot row is at 1 is at the input scale: row k is the
    Schur complement's own, with p = a_kk, the pivot prev p is the leading
    principal minor of order k + 1, and no row is divided or brought
    current.  A row at 1 tries its multiplier a_ik / p with the builtin
    divmod; a Poly divmod that raises, as p's leading coefficient does not
    divide a coefficient of the long division, counts as not dividing.
    When it divides, the row takes row_i - (a_ik / p) row_k, its next
    Schur complement row, with no division, and stays at 1.  Any other
    live row takes the division-free update w row_i - c row_k.  A row at 1
    has w = prev p and c = prev a_ik, and ends at the pivot, Bareiss's
    scale, so it is never brought current for being updated here.  A row
    at another scale s has w = p and c = s times its Schur complement
    entry, which is a_ik itself except on symmetric input, where a_ik is
    read at 1 from row k; it ends at s p, and its entries never exceed
    Bareiss's when s divides prev.  A matrix L U with L unit lower
    triangular and integral has the multipliers L_ik, so every row stays
    at 1.  In linear-extension order that covers Fᵀ G with L = Fᵀ D_F^-1,
    when f(a, a) divides f(a, b) (Apostol's and Daniloff's matrices), and
    a factor-closed GCD matrix Eᵀ diag(φ) E, E the 0/1 divisibility
    matrix: their entries stay as small as their Schur complements, with
    no entry division and no catch-up.

    Any other step is Bareiss's, with divisor prev.  A row whose scale is
    not prev is brought current where it is read at prev: as the pivot
    row, as a live row before its update, or at a zero pivot.  Each
    nonzero entry x then takes divmod(prev x, scale[i]), exact as its old
    and current values are scale[i] and prev times the same Schur
    complement entry, and prev times it is a bordered minor.

    A zero a_kk brings every row from k on current and, on symmetric
    input, copies the upper triangle of those rows into the lower one;
    from there every entry is updated and rows may swap.  The first row
    below k with a nonzero entry in column k is swapped into row k, and
    when there is none the determinant is 0.  GCD matrices are positive
    definite, so they never get there.

    A list minors gets one leading principal minor per step, the pivot,
    up to and including the first 0, before which rows never swap.
    """
    n = m.n
    a = list(map(list, m._rows))
    zero = zero_like(a[0][0])
    one = prev = one_like(a[0][0])
    symmetric = m.is_symmetric()
    negate = False
    scale = [one] * n  # row i holds scale[i] times its Schur complement row
    for k in range(n):
        row_k = a[k]
        low = scale[k] == one
        if not low and scale[k] != prev:
            _rescale(row_k, k, prev, scale[k])
            scale[k] = prev
        p = row_k[k]
        pivot = prev * p if low else p
        if minors is not None:
            minors.append(pivot)
            minors = minors if pivot else None
        if not p:
            # from here every row from k on is read at prev
            for i in range(k, n):
                if scale[i] != prev:
                    _rescale(a[i], i if symmetric else k, prev, scale[i])
            scale[k:] = [prev] * (n - k)
            low = False
            if symmetric:
                for i in range(k + 1, n):
                    for j in range(k, i):
                        a[i][j] = a[j][i]
                symmetric = False
            r = next((i for i in range(k + 1, n) if a[i][k]), None)
            if r is None:
                return zero
            a[k], a[r] = a[r], row_k
            row_k = a[k]
            negate = not negate
            pivot = p = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if symmetric:
                a_ik, start = row_k[i], i
            else:
                a_ik, start = row_i[k], k + 1
            if not a_ik:
                continue  # deferred
            s = scale[i]
            if not low:
                if s != prev:
                    _rescale(row_i, i if symmetric else k, prev, s)
                    if not symmetric:
                        a_ik = row_i[k]
                for j in range(start, n):
                    row_i[j], r = divmod(p * row_i[j] - a_ik * row_k[j], prev)
                    if r:
                        # 0 < |r| < |prev| (deg r < deg prev for Poly), so
                        # prev does not divide r and this raises
                        exact_div(r, prev)
                scale[i] = p
                continue
            if s == one:
                try:
                    q, r = divmod(a_ik, p)
                except InexactDivisionError:
                    r = True
                if not r:
                    for j in range(start, n):
                        row_i[j] -= q * row_k[j]
                    continue
                w, a_ik = pivot, prev * a_ik
            else:
                w = p
                if symmetric:
                    a_ik *= s
            for j in range(start, n):
                row_i[j] = w * row_i[j] - a_ik * row_k[j]
            scale[i] = s * w
        prev = pivot
    return -prev if negate else prev


def det_cofactor(m: SquareMatrix) -> RingValue:
    """Determinant by Laplace expansion along the first row; n <= 8 only."""
    if m.n > COFACTOR_MAX:
        raise ValueError(f"cofactor oracle limited to n <= {COFACTOR_MAX}")

    def expand(rows: list[tuple[RingValue, ...]]) -> RingValue:
        if len(rows) == 1:
            return rows[0][0]
        total = None
        first = rows[0]
        rest = rows[1:]
        for j, coeff in enumerate(first):
            if not coeff:
                continue
            minor = [tuple(row[:j] + row[j + 1 :]) for row in rest]
            term = coeff * expand(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return zero_like(first[0]) if total is None else total

    return expand([m.row(i) for i in range(m.n)])


_untraced_det = det_bareiss  # perfbench's tracer calls det_bareiss with m alone


def det_and_leading_minors(m: SquareMatrix) -> tuple[RingValue, list[RingValue]]:
    """det_bareiss(m) and leading_principal_minors(m) from one elimination."""
    minors = []
    return _untraced_det(m, minors), minors


def leading_principal_minors(m: SquareMatrix) -> list[RingValue]:
    """Leading principal minors of orders 1, 2, ..., n, cut after the first 0."""
    return det_and_leading_minors(m)[1]
