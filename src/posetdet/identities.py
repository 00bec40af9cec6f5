"""Matrix families built from incidence functions on a poset, together
with the closed-form determinant predictions, always verified against
the exact determinant engine rather than trusted.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import NamedTuple, Sequence

from .arith import divisors, euler_phi, factorize, kth_root, mobius
from .matrix import SquareMatrix
from .poset import IncidenceFunction, Poset, _check_values, divisor_poset, mobius_function
from .ring import RingValue, TagMismatchError, exact_div, one_like, ring_text

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_FAILED = "hypothesis-failed"


class IdentityReport(NamedTuple):
    """Outcome of one determinant-identity check; a named tuple, so it is
    read-only and cheap to build."""

    name: str
    computed: RingValue | None
    predicted: RingValue | None
    verdict: str
    size: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def _sides(self) -> tuple[str, str]:
        return tuple("-" if v is None else ring_text(v) for v in (self.computed, self.predicted))

    def line(self) -> str:
        c, p = self._sides()
        out = f"{self.verdict.upper()} {self.name} det={c} predicted={p}"
        if self.detail:
            out = f"{out} {self.detail}"
        return out

    def machine_line(self) -> str:
        return "\t".join([self.name, str(self.size), *self._sides(), self.verdict])


def make_report(
    name: str, size: int, computed: RingValue, predicted: RingValue, detail: str = ""
) -> IdentityReport:
    """Report whose verdict is pass exactly when computed == predicted."""
    verdict = PASS if computed == predicted else FAIL
    return IdentityReport(name, computed, predicted, verdict, size, detail)


def fail_unless(report: IdentityReport, holds: bool, note: str) -> IdentityReport:
    """report when a side check holds, else a FAIL carrying note after
    report's own notes, so every failing check stays named in check order;
    computed is cleared only where it equals predicted, so a FAIL never
    shows equal sides and a det that disagreed stays printed."""
    if holds:
        return report
    computed = None if report.computed == report.predicted else report.computed
    detail = f"{report.detail} {note}" if report.detail else note
    return report._replace(verdict=FAIL, computed=computed, detail=detail)


def _check_host(p: Poset, *fns: IncidenceFunction) -> None:
    for f in fns:
        if f.host is not p and f.host != p:
            raise ValueError("incidence function lives on a different poset")
    tags = {type(f.zero) for f in fns}
    if len(tags) > 1:
        raise TagMismatchError("incidence functions carry different ring tags")


def _check_semilattice(p: Poset, f: IncidenceFunction) -> None:
    _check_host(p, f)
    if not p.is_meet_semilattice():
        raise ValueError("poset is not a meet semilattice")


def _meet_rows(p: Poset, f: IncidenceFunction, s: Sequence[int]) -> SquareMatrix:
    """f(meet(a, b), a) over a, b in s, for p a meet semilattice (checked
    by the caller), reading the meet from p's down-set table."""
    table, zero, below, by_below = f._table, f.zero, p._below, p._by_below
    return SquareMatrix(
        [[table.get((by_below[below[a] & below[b]], a), zero) for b in s] for a in s]
    )


def _charged_product(p: Poset, s: Sequence[int], f: IncidenceFunction) -> RingValue:
    """Lindström's product over s (see meet_closed_det), each element d
    charged to the first a in s above it; reads mu and f from their tables."""
    mu = mobius_function(p)._table
    table, zero, below = f._table, f.zero, p._below
    charged: set[int] = set()
    acc = one_like(zero)
    for a in s:
        mine = below[a] - charged
        charged |= mine
        factor = zero
        for d in mine:
            for c in below[d]:
                factor = factor + table.get((c, a), zero) * mu[(c, d)]
        acc = acc * factor
    return acc


def incidence_matrix(p: Poset, f: IncidenceFunction) -> SquareMatrix:
    """Matrix of an incidence function, rows and columns in linear-extension order."""
    _check_host(p, f)
    lin, table, zero = p.lin_ext, f._table, f.zero
    return SquareMatrix([[table.get((a, b), zero) for b in lin] for a in lin])


def incidence_product_matrix(
    p: Poset, f: IncidenceFunction, g: IncidenceFunction
) -> SquareMatrix:
    """Matrix with entry (a, b) = sum over c of f(c, a) * g(c, b).

    Only c below both a and b can contribute, so the matrix is F^T G with
    F[c, a] = f(c, a) and G[c, b] = g(c, b): each c adds the outer product
    of its nonzero entries over its up-set, read from the value tables.
    """
    _check_host(p, f, g)
    n, zero, ft, gt, pos = p.n, f.zero, f._table, g._table, p._position
    rows = [[zero] * n for _ in range(n)]
    for c in p.lin_ext:
        terms = [
            (pos[a], ft.get((c, a), zero), gt.get((c, a), zero)) for a in p._above[c]
        ]
        for i, fa, _ in terms:
            if not fa:
                continue
            row = rows[i]
            for j, _, gb in terms:
                row[j] = row[j] + fa * gb
    return SquareMatrix(rows)


def incidence_product_det(
    p: Poset, f: IncidenceFunction, g: IncidenceFunction
) -> RingValue:
    """Predicted determinant of the product matrix: the diagonal product."""
    _check_host(p, f, g)
    zero, ft, gt = f.zero, f._table, g._table
    acc = one_like(zero)
    for a in range(p.n):
        acc = acc * (ft.get((a, a), zero) * gt.get((a, a), zero))
    return acc


def scale_by_source(f: IncidenceFunction, weights: Sequence[RingValue]) -> IncidenceFunction:
    """New incidence function (a, b) -> f(a, b) * weights[a]."""
    if len(weights) != f.host.n:
        raise ValueError("need one weight per element")
    values = {(a, b): v * weights[a] for (a, b), v in f.items()}
    return IncidenceFunction(f.host, values)


def weighted_product_matrix(
    p: Poset,
    f: IncidenceFunction,
    f_weights: Sequence[RingValue],
    g: IncidenceFunction,
    g_weights: Sequence[RingValue],
) -> SquareMatrix:
    """Matrix with entry (a, b) = sum over c of f(c, a) w_f(c) g(c, b) w_g(c).

    Implemented by substituting the source-weighted functions into the
    unweighted construction, so there is a single determinant code path.
    """
    return incidence_product_matrix(
        p, scale_by_source(f, f_weights), scale_by_source(g, g_weights)
    )


def weighted_product_det(
    p: Poset,
    f: IncidenceFunction,
    f_weights: Sequence[RingValue],
    g: IncidenceFunction,
    g_weights: Sequence[RingValue],
) -> RingValue:
    return incidence_product_det(
        p, scale_by_source(f, f_weights), scale_by_source(g, g_weights)
    )


# -- Ramanujan-sum matrix (divided Möbius weights on the divisor order) --


def _by_quotient(p: Poset, table: Sequence[RingValue]) -> IncidenceFunction:
    """The function (a, b) -> table[(b + 1) / (a + 1)] on p = divisor_poset(1..n)."""
    return IncidenceFunction(
        p, {(a, b): table[(b + 1) // (a + 1)] for a in range(p.n) for b in p.above(a)}
    )


def _ramanujan_config(n: int):
    if n < 1:
        raise ValueError("need n >= 1")
    p = divisor_poset(range(1, n + 1))
    f = IncidenceFunction(p, {(a, b): a + 1 for a in range(n) for b in p.above(a)})
    return p, f, _by_quotient(p, [0] + [mobius(q) for q in range(1, n + 1)])


def _holder_mismatch(p: Poset, m: SquareMatrix) -> str:
    """The first entry, row by row, at which m, built on p =
    divisor_poset(1..n), breaks Hölder's closed form c(a, b) = mu(d) phi(b)
    / phi(d), d = b / gcd(a, b) (Prace Mat.-Fiz. 43, 1936), as a message;
    "" when every entry holds it.

    The value depends on b and d alone, so each column reads it from one
    table over the divisors d of b.
    """
    vals = [a + 1 for a in p.lin_ext]
    mu = [0] + [mobius(k) for k in range(1, p.n + 1)]
    phi = [0] + [euler_phi(k) for k in range(1, p.n + 1)]
    columns = [
        {d: mu[d] * exact_div(phi[b], phi[d]) for d in divisors(b)} for b in vals
    ]
    for i, a in enumerate(vals):
        quotients = map(operator.floordiv, vals, map(math.gcd, repeat(a), vals))
        row, want = m.row(i), tuple(map(dict.__getitem__, columns, quotients))
        if row != want:
            b = next(b for b, x, y in zip(vals, row, want) if x != y)
            return f"ramanujan sum cross-check failed at ({a}, {b})"
    return ""


def ramanujan_matrix(n: int) -> SquareMatrix:
    """Matrix of Ramanujan sums c(a, b) for a, b in 1..n.

    Built through the incidence construction on the divisor order, with
    f(c, a) = c and g(c, b) = mu(b / c), then cross-checked entry by entry
    against Hölder's independent closed form (_holder_mismatch) before
    being returned; RuntimeError on a mismatch.
    """
    p, f, g = _ramanujan_config(n)
    m = incidence_product_matrix(p, f, g)
    mismatch = _holder_mismatch(p, m)
    if mismatch:
        raise RuntimeError(mismatch)
    return m


def ramanujan_matrix_det(n: int) -> int:
    """Predicted determinant of the Ramanujan-sum matrix (n factorial)."""
    return incidence_product_det(*_ramanujan_config(n))


# -- Exact k-th-root matrices on the divisor order --


def _kth_root_config(n: int, k: int, f_weights: Sequence[RingValue]):
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    p = divisor_poset(range(1, n + 1))
    # kth_root gives None where q is no k-th power; the entry is then 0
    omega = _by_quotient(p, [0] + [kth_root(q, k) or 0 for q in range(1, n + 1)])
    return p, scale_by_source(omega, f_weights), omega


def kth_root_matrix(n: int, k: int, f_weights: Sequence[RingValue]) -> SquareMatrix:
    """Matrix whose (a, b) entry sums exact k-th roots of quotients b/c and
    a/c over common divisors c, each weighted by f(c)."""
    return incidence_product_matrix(*_kth_root_config(n, k, f_weights))


def kth_root_matrix_det(n: int, k: int, f_weights: Sequence[RingValue]) -> RingValue:
    """Predicted determinant: the product of the weights, since the root of
    the trivial quotient is 1 on the diagonal."""
    return incidence_product_det(*_kth_root_config(n, k, f_weights))


# -- Meet matrices on a meet semilattice --


def meet_matrix(semilattice: Poset, f: IncidenceFunction) -> SquareMatrix:
    """Matrix with entry (a, b) = f(meet(a, b), a)."""
    _check_semilattice(semilattice, f)
    return _meet_rows(semilattice, f, semilattice.lin_ext)


def meet_matrix_det(semilattice: Poset, f: IncidenceFunction) -> RingValue:
    """Predicted determinant: product over a of sum over c of mu(c, a) f(c, a),
    meet_closed_det over every element, each charged to itself."""
    _check_semilattice(semilattice, f)
    return _charged_product(semilattice, semilattice.lin_ext, f)


# -- GCD matrices on sets of positive integers --


def gcd_matrix(s: Sequence[int]) -> SquareMatrix:
    """Matrix of pairwise greatest common divisors, rows and columns in
    the caller's order.  Ascending order is a linear extension of
    divisibility, and there a factor-closed set's matrix is Eᵀ diag(φ) E,
    E the 0/1 divisibility matrix, which det_bareiss eliminates with no
    entry division.  The det does not depend on the order, but its cost
    does: on the 240 divisors of 720720 four shuffled orders took 4.9-5.5
    s against a median of 0.013 s ascending, on a 2-vCPU VM."""
    vals = list(s)
    _check_values(vals)
    return SquareMatrix([tuple(map(math.gcd, repeat(a), vals)) for a in vals])


def totient_product(s: Sequence[int]) -> int:
    """Predicted GCD-matrix determinant for factor-closed sets: the product
    of the totients of the members."""
    return math.prod(euler_phi(a) for a in s)


def is_factor_closed(s: Sequence[int]) -> bool:
    """True when every divisor of every member is itself a member.

    It suffices that a / p is a member for each member a and prime p
    dividing a: then, by induction on the number of prime factors of a / d,
    so is every divisor d of a.
    """
    members = set(s)
    return all(a // p in members for a in s for p, _ in factorize(a))


# -- Meet-closed subsets, with the ambient Möbius function --


def _ordered_subset(semilattice: Poset, subset: Sequence[int]) -> list[int]:
    s = semilattice._in_order(subset)
    if not s:
        raise ValueError("subset must be nonempty")
    if not semilattice.is_meet_closed(s):
        raise ValueError("subset is not meet closed")
    return s


def meet_closed_matrix(
    semilattice: Poset, subset: Sequence[int], f: IncidenceFunction
) -> SquareMatrix:
    """Matrix f(meet(a_i, a_j), a_i) over a meet-closed subset, the meet
    taken in the ambient semilattice."""
    _check_semilattice(semilattice, f)
    return _meet_rows(semilattice, f, _ordered_subset(semilattice, subset))


def meet_closed_det(
    semilattice: Poset, subset: Sequence[int], f: IncidenceFunction
) -> RingValue:
    """Predicted determinant over a meet-closed subset.

    Uses the Möbius function of the ambient semilattice: each ambient
    element d below some subset member is charged to the earliest member
    (in the fixed linear extension) that dominates it, and the i-th factor
    sums mu(c, d) f(c, a_i) over elements charged to a_i.
    """
    _check_semilattice(semilattice, f)
    return _charged_product(semilattice, _ordered_subset(semilattice, subset), f)


# -- Invertibility and positive definiteness from the diagonal --


def product_matrix_invertible(
    p: Poset, f: IncidenceFunction, g: IncidenceFunction
) -> bool:
    """True exactly when every diagonal value of f and of g is nonzero."""
    _check_host(p, f, g)
    zero, ft, gt = f.zero, f._table, g._table
    return all(ft.get((a, a), zero) and gt.get((a, a), zero) for a in range(p.n))


def product_matrix_positive_definite(
    m: SquareMatrix, p: Poset, f: IncidenceFunction, g: IncidenceFunction
) -> bool:
    """True exactly when every diagonal product f(a,a) g(a,a) is positive,
    for m the product matrix of p, f and g, built by the caller.

    Only meaningful for symmetric matrices over the integers; anything
    else is rejected rather than guessed at.
    """
    _check_host(p, f, g)
    if type(f.zero) is not int:
        raise ValueError("positive definiteness needs integer entries")
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    return all(f(a, a) * g(a, a) > 0 for a in range(p.n))
