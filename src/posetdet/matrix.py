"""Exact square matrices and fraction-free determinants.

det_bareiss is the workhorse: Bareiss's two-step elimination, with one
exact division per entry per two columns and, on a symmetric input, only
the upper triangle updated.  A row that a step would only rescale, as it
has zeros in both eliminated columns, is left alone until it is next
read, so the sparse incidence products Fᵀ G skip most of their rows.  A
step whose two pivot rows are still at the input scale divides no row:
a row whose multipliers divide takes its next Schur complement row
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
    """Exact determinant by two-step fraction-free elimination.

    Each step eliminates two columns k and l = k + 1 at once.  With prev
    the previous step's pivot (1 at the start), the pivot is the 2 x 2
    minor (a_kk a_ll - a_kl a_lk) / prev.  Each row i > l has the
    numerators c1 = a_kl a_ik - a_kk a_il and c2 = a_lk a_il - a_ll a_ik
    of its multipliers c1 / prev and c2 / prev, and each of its entries
    becomes (pivot a_ij + c1 / prev a_lj + c2 / prev a_kj) / prev.  By
    Sylvester's identity the pivot, the multipliers and every new entry
    are bordered minors of the input, so every division is exact in the
    entry domain; an inexact one raises InexactDivisionError, which means
    the invariant was broken, not that the input was bad.  Per entry and
    per two columns that is 3 multiplications and 1 division, where
    one-step elimination takes 4 and 2 (Bareiss, Math. Comp. 22, 1968).
    The entry division is the builtin divmod, with no Python-level call,
    for int and Poly alike; only a nonzero remainder goes on to the ring's
    exact division, which raises.  The pivot and the multipliers, O(n) per
    step, divide through it directly.

    The pivot is the 2 x 2 minor, not a_kk.  When it is 0, the first row
    pair r < s of rows k..n-1 with a nonzero minor on columns k and l is
    swapped into rows k and l; when there is none, those two columns have
    rank at most 1 and the determinant is 0.

    While the matrix is symmetric, so is every intermediate, and only
    entries with j >= i are updated; a_ik and a_il are read from rows k
    and l.  The first zero pivot copies the upper triangle of rows k..n-1
    into the lower one, and from there every entry is updated and rows
    may swap.  GCD matrices are positive definite, so they never get there.

    Each row's entries are scale[i] times its row of the current Schur
    complement, where Bareiss keeps them at prev times it; before step 0
    every row is at scale 1.  Scales are compared by value, never by
    identity.  A row with a_ik = a_il = 0, and only such a row, has c1 =
    c2 = 0: (c1, c2) is (a_ik, a_il) times a 2 x 2 matrix of determinant
    -minor, which is nonzero.  The step would only rescale it, so it is
    left alone and keeps its scale.  A deferred entry is 0 exactly when
    its current value is, so the zero tests read deferred rows as they
    are.

    A step fixes its mode at its start.  When both pivot rows are at 1,
    they hold the Schur complement's own rows: minor = a_kk a_ll - a_kl
    a_lk is its 2 x 2 minor, the leading principal minors of orders k + 1
    and k + 2 are prev a_kk and pivot = prev minor, and no row is divided
    or brought current.  With M the 2 x 2 pivot block, M^-1 = adj(M) /
    minor, so q_k = c2 / minor and q_l = c1 / minor give (q_k, q_l) =
    -(a_ik, a_il) M^-1, and row_i + q_k row_k + q_l row_l is the row's
    next Schur complement row.  A row at 1 tries both with the builtin
    divmod (for a Poly minor whose leading coefficient does not divide,
    divmod raises); when they divide it takes that row, with no
    division, and stays at 1.  Any other live row, at scale s, takes
    minor row_i + c1 row_l + c2 row_k, which is s minor times its next
    Schur complement row, and its scale becomes s minor; on symmetric
    input c1 and c2 are read at 1 from the pivot rows and scaled by s
    first.  That runs in Bareiss's entry loop, with divisor 1 for prev.
    Its entries never exceed Bareiss's, which are the same values times
    pivot = prev minor: when s divides prev, s minor divides the pivot.
    A matrix L U with L unit lower triangular and integral has (q_k,
    q_l) = -(L_ik, L_il) times the inverse of L's unit 2 x 2 block,
    integral too, so every row stays at 1.  In linear-extension order
    that covers Fᵀ G with L = Fᵀ D_F^-1, when f(a, a) divides f(a, b)
    (Apostol's and Daniloff's matrices), and a factor-closed GCD matrix
    Eᵀ diag(φ) E, E the 0/1 divisibility matrix: their entries stay as
    small as their Schur complements, with no entry division and no
    catch-up.

    Any other step is Bareiss's, with divisor prev.  A row whose scale is
    not prev is brought current when it is read at prev: as a pivot row,
    before its update, at a zero pivot (every such row, before the mirror
    copy and the row pair search), or as the last diagonal entry.  Each
    nonzero entry x then takes divmod(prev x, scale[i]), exact as its old
    and current values are scale[i] and prev times the same Schur
    complement entry, and prev times it is a bordered minor.

    A list minors gets the leading principal minors up to the first 0,
    before which rows never swap: a_kk and the pivot at step k are those
    of orders k + 1 and k + 2, and for odd n the last a_kk that of order n.
    """
    n = m.n
    a = list(map(list, m._rows))
    zero = zero_like(a[0][0])
    one = prev = one_like(a[0][0])
    symmetric = m.is_symmetric()
    negate = False
    scale = [one] * n  # row i holds scale[i] times its Schur complement row
    for k in range(0, n - 1, 2):
        l = k + 1
        row_k, row_l = a[k], a[l]
        s_k, s_l = scale[k], scale[l]
        low = s_k == one and s_l == one
        if not low:
            if s_k != prev:
                _rescale(row_k, k, prev, s_k)
            if s_l != prev:
                _rescale(row_l, l if symmetric else k, prev, s_l)
        a_kk, a_kl, a_ll = row_k[k], row_k[l], row_l[l]
        a_lk = a_kl if symmetric else row_l[k]
        minor = a_kk * a_ll - a_kl * a_lk
        pivot = prev * minor if low else exact_div(minor, prev)
        if minors is not None:
            lead = prev * a_kk if low else a_kk
            minors += (lead, pivot) if lead else (lead,)
            minors = minors if minors[-1] else None
        if not minor:
            # from here every row from k on is read at prev
            if not low:
                scale[k] = scale[l] = prev  # caught up above
            if scale[k:].count(prev) < n - k:
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
            # Deterministic pivot: the first row pair r < s with a nonzero
            # minor.  Rows above the first row r nonzero on columns k and l
            # are zero there, so r is that row and s the first row after
            # it that is not a multiple of it.
            r = k
            while r < n and not (a[r][k] or a[r][l]):
                r += 1
            s = r + 1
            while s < n and not a[r][k] * a[s][l] - a[r][l] * a[s][k]:
                s += 1
            if s >= n:
                return zero
            for dst, src in zip((k, l), (r, s)):
                if src != dst:
                    a[dst], a[src] = a[src], a[dst]
                    negate = not negate
            row_k, row_l = a[k], a[l]
            a_kk, a_kl, a_lk, a_ll = row_k[k], row_k[l], row_l[k], row_l[l]
            pivot = exact_div(a_kk * a_ll - a_kl * a_lk, prev)
        # a live row not taken at 1 becomes (w row_i + c1 row_l + c2 row_k) / t
        w, t = (minor, one) if low else (pivot, prev)
        for i in range(l + 1, n):
            row_i = a[i]
            if symmetric:
                a_ik, a_il, start = row_k[i], row_l[i], i
            else:
                a_ik, a_il, start = row_i[k], row_i[l], l + 1
            if not (a_ik or a_il):
                # c1 = c2 = 0: the row's Schur complement row does not
                # change, so it keeps its scale until it is next read
                continue
            s = scale[i]
            if not low and s != prev:
                _rescale(row_i, i if symmetric else k, prev, s)
                if not symmetric:
                    a_ik, a_il = row_i[k], row_i[l]
            c1 = a_kl * a_ik - a_kk * a_il
            c2 = a_lk * a_il - a_ll * a_ik
            if not low:
                c1, c2 = exact_div(c1, prev), exact_div(c2, prev)
            elif s == one:
                try:
                    q_k, r = divmod(c2, minor)
                    if not r:
                        q_l, r = divmod(c1, minor)
                except InexactDivisionError:
                    r = True
                if not r:
                    # on the paper's matrices most rows have one
                    # multiplier 0, so that pivot row is not read
                    if q_k and q_l:
                        for j in range(start, n):
                            row_i[j] += q_k * row_k[j] + q_l * row_l[j]
                    else:
                        q, row = (q_k, row_k) if q_k else (q_l, row_l)
                        for j in range(start, n):
                            row_i[j] += q * row[j]
                    continue
            elif symmetric:
                c1, c2 = s * c1, s * c2
            for j in range(start, n):
                row_i[j], r = divmod(w * row_i[j] + c1 * row_l[j] + c2 * row_k[j], t)
                if r:
                    # 0 < |r| < |t| (deg r < deg t for Poly), so t does
                    # not divide r and this raises
                    exact_div(r, t)
            scale[i] = s * minor if low else pivot
        prev = pivot
    d = a[n - 1][n - 1] if n % 2 else prev
    if n % 2 and scale[n - 1] != prev:
        if scale[n - 1] == one:  # the Schur complement entry itself
            d *= prev
        else:
            _rescale(a[n - 1], n - 1, prev, scale[n - 1])
            d = a[n - 1][n - 1]
    if n % 2 and minors is not None:
        minors.append(d)
    return -d if negate else d


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
