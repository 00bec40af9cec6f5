"""Set partitions, noncrossing partitions, the chromatic-join matrix, and
the Beraha-polynomial product formula for its determinant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import binomial
from .identities import FAIL, PASS, IdentityReport
from .matrix import SquareMatrix, det_bareiss
from .ring import InexactDivisionError, Poly

# Bell numbers explode; B_9 = 21147 is the most we ever materialize.
MAX_GROUND = 9
JOIN_MATRIX_MIN, JOIN_MATRIX_MAX = 2, 6


class SetPartition:
    """Partition of {1..n} into blocks, stored canonically: elements sorted
    within blocks, blocks sorted by their minimum."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Sequence[Sequence[int]]):
        seen: set[int] = set()
        cleaned = []
        for block in blocks:
            b = sorted(block)
            if not b:
                raise ValueError("blocks must be nonempty")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen.update(b)
            cleaned.append(tuple(b))
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n} exactly")
        cleaned.sort(key=lambda b: b[0])
        self.n = n
        self.blocks = tuple(cleaned)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_ids(self) -> tuple[int, ...]:
        """For each element 1..n (0-indexed), the index of its block."""
        ids = [0] * self.n
        for i, block in enumerate(self.blocks):
            for e in block:
                ids[e - 1] = i
        return tuple(ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self) -> str:
        return "|".join(",".join(str(e) for e in block) for block in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.n}, {self.blocks})"


def all_partitions(n: int) -> list[SetPartition]:
    """Every partition of {1..n} in a fixed deterministic order.

    Restricted growth strings are walked in descending lexicographic
    order, so the all-singletons partition comes first and the one-block
    partition last.
    """
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in 1..{MAX_GROUND}")
    out: list[SetPartition] = []
    digits = [0] * n

    def walk(i: int, top: int) -> None:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for e, b in enumerate(digits):
                blocks[b].append(e + 1)
            out.append(SetPartition(n, blocks))
            return
        for b in range(top + 1, -1, -1):
            digits[i] = b
            walk(i + 1, max(top, b))
        digits[i] = 0

    walk(1, 0)
    return out


def is_noncrossing(part: SetPartition) -> bool:
    """False exactly when some a < b < c < d has a, c together and b, d
    together in two different blocks."""
    ids = part.block_ids()
    n = part.n
    for a in range(n):
        for b in range(a + 1, n):
            if ids[b] == ids[a]:
                continue
            for c in range(b + 1, n):
                if ids[c] != ids[a]:
                    continue
                for d in range(c + 1, n):
                    if ids[d] == ids[b]:
                        return False
    return True


def noncrossing_partitions(n: int) -> list[SetPartition]:
    """Noncrossing partitions in the order inherited from all_partitions."""
    return [p for p in all_partitions(n) if is_noncrossing(p)]


def refines(a: SetPartition, b: SetPartition) -> bool:
    """True when every block of a sits inside a block of b."""
    if a.n != b.n:
        raise ValueError("ground sets differ")
    ids = b.block_ids()
    return all(
        ids[e - 1] == ids[block[0] - 1] for block in a.blocks for e in block
    )


def join_partitions(a: SetPartition, b: SetPartition) -> SetPartition:
    """Finest common coarsening: merge blocks sharing elements until stable."""
    if a.n != b.n:
        raise ValueError("ground sets differ")
    parent = list(range(a.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (a, b):
        for block in part.blocks:
            root = find(block[0])
            for e in block[1:]:
                parent[find(e)] = root
    groups: dict[int, list[int]] = {}
    for e in range(1, a.n + 1):
        groups.setdefault(find(e), []).append(e)
    return SetPartition(a.n, list(groups.values()))


def _join_block_counts(n: int) -> list[list[int]]:
    """Table of blocks(a v b) over the noncrossing partitions a, b of {1..n}.

    Joins are taken in the full partition lattice even though the index
    set is noncrossing: the join of two noncrossing partitions may cross.
    """
    if not JOIN_MATRIX_MIN <= n <= JOIN_MATRIX_MAX:
        raise ValueError(
            f"chromatic join matrix supported for {JOIN_MATRIX_MIN} <= n <= {JOIN_MATRIX_MAX}"
        )
    ncs = noncrossing_partitions(n)
    return [[join_partitions(a, b).num_blocks for b in ncs] for a in ncs]


def chromatic_join_matrix(n: int) -> SquareMatrix:
    """Matrix over the noncrossing partitions of {1..n} whose (a, b) entry
    is q to the number of blocks of the join of a and b."""
    return SquareMatrix(
        [[Poly.monomial(b) for b in row] for row in _join_block_counts(n)]
    )


def chromatic_join_det(n: int) -> Poly:
    """Determinant of chromatic_join_matrix(n), by integer evaluation and
    interpolation instead of elimination over Z[q].

    Every entry is q^blocks(a v b) with blocks(a v b) >= 1, so one q comes
    out of each row: det = q^rows * det M', where M' has the exponents
    blocks(a v b) - 1.  A join only merges blocks, so in every Leibniz
    term blocks(a v sigma(a)) <= blocks(a), and deg det M' is at most
    D = sum over a of (blocks(a) - 1), the diagonal's exponent sum.  det M'
    is therefore fixed by its values at the D + 1 integers of smallest
    magnitude, each an integer Bareiss determinant.
    """
    exponents = [[b - 1 for b in row] for row in _join_block_counts(n)]
    bound = sum(row[i] for i, row in enumerate(exponents))
    xs = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 1)]
    ys = []
    for x in xs:
        powers = [x**e for e in range(n)]
        ys.append(
            det_bareiss(SquareMatrix([[powers[e] for e in row] for row in exponents]))
        )
    return Poly.monomial(len(exponents)) * Poly.interpolate(xs, ys)


def beraha(n: int) -> Poly:
    """n-th Beraha polynomial.

    Zero for n = 0; otherwise the alternating sum over i of
    binomial(n-i-1, i) q^(floor(n/2)-i).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return Poly()
    half = n // 2
    coeffs = [0] * (half + 1)
    for i in range(half + 1):
        c = binomial(n - i - 1, i)
        coeffs[half - i] = -c if i % 2 else c
    return Poly(coeffs)


def _formula_exponents(n: int) -> list[int]:
    """Exponents of the Beraha factors; each is (m+1)/n * binomial(2n, n-m-1)
    for m = 1..n-1 and must come out a nonnegative integer."""
    out = []
    for m in range(1, n):
        e = Fraction(m + 1, n) * binomial(2 * n, n - m - 1)
        if e.denominator != 1 or e < 0:
            raise ArithmeticError(
                f"formula exponent for m={m} is not a nonnegative integer: {e}"
            )
        out.append(int(e))
    return out


def verify_chromatic_join_det(n: int) -> IdentityReport:
    """Verify the Beraha-product formula for the chromatic-join determinant.

    The rational-function product is checked in cross-multiplied
    polynomial form: det times the product of (q * beraha(m))^e_m must
    equal q^binomial(2n-1, n) times the product of beraha(m+2)^e_m.
    """
    det = chromatic_join_det(n)
    exponents = _formula_exponents(n)
    q = Poly.variable()
    corner = binomial(2 * n - 1, n)
    lhs = det
    rhs = Poly.monomial(corner)
    denominator_parts = []
    numerator_parts = [f"q^{corner}"]
    for m, e in enumerate(exponents, start=1):
        low = q * beraha(m)
        high = beraha(m + 2)
        lhs = lhs * low**e
        rhs = rhs * high**e
        denominator_parts.append(f"({low})^{e}")
        numerator_parts.append(f"({high})^{e}")
    verdict = PASS if lhs == rhs else FAIL
    predicted = None
    try:
        acc = rhs
        for m, e in enumerate(exponents, start=1):
            acc = acc.exact_div((q * beraha(m)) ** e)
        predicted = acc
    except InexactDivisionError:
        pass
    detail = "factored: {} / {}".format(
        " ".join(numerator_parts), " ".join(denominator_parts)
    )
    return IdentityReport(
        name="tutte",
        computed=det,
        predicted=predicted,
        verdict=verdict,
        size=n,
        detail=detail,
    )
