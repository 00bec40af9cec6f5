"""Exact square matrices and fraction-free determinants.

det_bareiss is the workhorse: Bareiss's one-step elimination, with at
most one exact division per entry per column eliminated and, on a
symmetric input, only the upper triangle updated.  Each row keeps its
own scale, and one rule updates it: a row that is 0 in the eliminated
column is not touched, so the sparse incidence products Fᵀ G skip most
of their rows; a row whose multiplier divides, in a step whose pivot row
is still at the input scale, takes its next Schur complement row with no
division, subtracting a multiple of the pivot row only where that row
is nonzero; any other row takes Bareiss's entries, divided once by what
its own scale and the pivot row's leave of the previous pivot.  In
linear-extension order the factor-closed GCD matrices and Apostol's and
Daniloff's are L U with L integral and unit triangular, so their rows
never leave the input scale, and row k of each Schur complement is 0
outside the up-set of k: the division-free updates walk only the pivot
row's support S_k, Σ_k Σ_i |S_k ∩ [start_i, n)| entry updates in all,
start_i being i on a symmetric input and k + 1 otherwise.  det_cofactor
is a deliberately independent slow oracle used to cross-check it.
"""

from __future__ import annotations

import operator
from itertools import chain, compress
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

    Each row's entries are scale[i] times its row of the current Schur
    complement, where Bareiss keeps them at prev times it; before step 0
    every row is at scale 1.  Scales are compared by value, never by
    identity.  Let p = a_kk and t = scale[k]: the pivot is prev p / t.
    Row i, at scale s, reads a_ik at s, and one rule updates it:

    - a row with a_ik = 0 keeps its Schur complement row, so it is not
      touched and keeps its scale; its zero tests read it as it is;
    - when t = 1 and p divides a_ik (a Poly divmod that raises, as p's
      leading coefficient does not divide, counts as not dividing), the
      row takes row_i - (a_ik / p) row_k, its next Schur complement row
      times s, with no division, and keeps s;
    - any other row takes (p row_i - a_ik row_k) prev / (s t), which is
      the pivot times its next Schur complement row, Bareiss's bordered
      minors, and ends at the pivot.  prev cancels against t or against
      s when either equals it, so each entry takes at most one divmod,
      and none when the divisor is 1: a row at 1 in a step whose pivot
      row is at 1 takes prev p row_i - prev a_ik row_k.

    Every entry a row would hold, were all its entries updated, is
    integral, so the few divisions by a scale outside the entry loop,
    through exact_div, are exact: the pivot when t is neither 1 nor
    prev, and a_ik read at s and the mirror below.

    A matrix L U with L unit lower triangular and integral has the
    multipliers L_ik, so every row stays at 1.  In linear-extension order
    that covers Fᵀ G with L = Fᵀ D_F^-1, when f(a, a) divides f(a, b)
    (Apostol's and Daniloff's matrices), and a factor-closed GCD matrix
    Eᵀ diag(φ) E, E the 0/1 divisibility matrix: their entries stay as
    small as their Schur complements, with no entry division.

    The division-free update walks row k's support S_k, the columns j >
    k with a_kj != 0: a row that takes it subtracts q row_k only at the
    columns of S_k from its start on, i when symmetric and k + 1
    otherwise.  Every entry it skips would have had 0 subtracted, so each
    det, minor and scale is the dense update's.  That is Σ_k Σ_i |S_k ∩
    [start_i, n)| entry updates over the rows i that take it, against Σ_k
    Σ_i (n - start_i).  While symmetric, a_ik = a_ki makes S_k the rows
    the step touches: the row loop runs from the last row up and collects
    S_k as it goes, so that at row i the list holds S_k ∩ [i, n), with no
    pass of its own.  A general step lists S_k, after any row swap, at
    its first row that takes the update, in one C-level pass
    (itertools.compress over row k past k).  Rows in Bareiss's mode stay
    dense, as each of their entries is rescaled.  Rows are independent
    within a step, so their order changes no value.  For L U as above,
    S_k is the support of U's row k past k, which in linear-extension
    order lies in the up-set of k, and is all of it for a factor-closed
    GCD matrix, whose U is diag(φ) E.

    While the matrix is symmetric, so is every intermediate, and only
    entries with j >= i are updated; a_ik at s is row k's entry a_ki
    times s / t.  A zero a_kk ends that: the lower triangle of the rows
    below k is filled from the upper one at each row's scale, and from
    there every entry is updated and rows may swap.  The first row below
    k with a nonzero entry in column k is swapped into row k, with its
    scale, and when there is none the determinant is 0.  GCD matrices
    are positive definite, so they never get there.

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
        p = row_k[k]
        if not p:
            if minors is not None:
                minors.append(zero)
                minors = None
            if symmetric:
                for i in range(k + 1, n):
                    s = scale[i]
                    for j in range(k, i):
                        x, t = a[j][i], scale[j]
                        a[i][j] = x if s == t else exact_div(x * s, t)
                symmetric = False
            r = next((i for i in range(k + 1, n) if a[i][k]), None)
            if r is None:
                return zero
            a[k], a[r] = a[r], row_k
            scale[k], scale[r] = scale[r], scale[k]
            row_k = a[k]
            negate = not negate
            p = row_k[k]
        t = scale[k]
        pivot = p if t == prev else prev * p if t == one else exact_div(prev * p, t)
        if minors is not None:
            minors.append(pivot)
        # S_k: collected by a symmetric step's row loop, from the last row
        # up; listed by a general step at its first division-free row
        cols = [] if symmetric else None
        for i in range(n - 1, k, -1):
            row_i = a[i]
            if symmetric:
                a_ik, start = row_k[i], i
            else:
                a_ik, start = row_i[k], k + 1
            if not a_ik:
                continue
            s = scale[i]
            if symmetric:
                cols.append(i)
                if s != t:
                    a_ik = a_ik * s if t == one else exact_div(a_ik * s, t)
            if t == one:
                try:
                    q, r = divmod(a_ik, p)
                except InexactDivisionError:
                    r = True
                if not r:
                    if cols is None:
                        cols = list(compress(range(k + 1, n), row_k[k + 1 :]))
                    for j in cols:
                        row_i[j] -= q * row_k[j]
                    continue
            if t == prev:
                w, d = p, s
            elif s == prev:
                w, d = p, t
            else:
                w, a_ik, d = prev * p, prev * a_ik, s * t
            if d == one:
                for j in range(start, n):
                    row_i[j] = w * row_i[j] - a_ik * row_k[j]
            else:
                for j in range(start, n):
                    row_i[j], r = divmod(w * row_i[j] - a_ik * row_k[j], d)
                    if r:
                        # 0 < |r| < |d| (deg r < deg d for Poly), so d
                        # does not divide r and this raises
                        exact_div(r, d)
            scale[i] = pivot
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
