"""Set partitions, noncrossing partitions, the chromatic-join matrix, and
the Beraha-polynomial product formula for its determinant.
"""

from __future__ import annotations

from typing import Sequence

from .arith import binomial
from .identities import IdentityReport, make_report
from .matrix import SquareMatrix, det_bareiss
from .ring import InexactDivisionError, Poly, exact_div

# Bell numbers explode; B_9 = 21147 is the most we ever materialize.
MAX_GROUND = 9
JOIN_MATRIX_MIN, JOIN_MATRIX_MAX = 2, 6


class SetPartition:
    """Partition of {1..n} into blocks, stored canonically: elements sorted
    within blocks, blocks sorted by their minimum.

    pairs has bit (x - 1) * n + (y - 1) set for each pair x < y that
    shares a block, so a refines b exactly when a.pairs & b.pairs ==
    a.pairs.
    """

    __slots__ = ("n", "blocks", "_ids", "pairs")

    def __init__(self, n: int, blocks: Sequence[Sequence[int]]):
        if type(n) is not int or n < 0:
            raise ValueError(f"ground set size must be an int >= 0, not {n!r}")
        seen: set[int] = set()
        cleaned = []
        for block in blocks:
            b = list(block)
            if not all(type(e) is int for e in b):
                raise ValueError("block elements must be ints")
            b.sort()
            if not b:
                raise ValueError("blocks must be nonempty")
            elements = set(b)
            if len(elements) < len(b):
                raise ValueError(f"block {b} repeats an element")
            if seen & elements:
                raise ValueError("blocks must be disjoint")
            seen |= elements
            cleaned.append(tuple(b))
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n} exactly")
        cleaned.sort(key=lambda b: b[0])
        ids = [0] * n
        pairs = 0
        for i, block in enumerate(cleaned):
            for k, e in enumerate(block):
                ids[e - 1] = i
                for f in block[k + 1 :]:
                    pairs |= 1 << ((e - 1) * n + f - 1)
        self.n = n
        self.blocks = tuple(cleaned)
        self._ids = tuple(ids)
        self.pairs = pairs

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_ids(self) -> tuple[int, ...]:
        """For each element 1..n (0-indexed), the index of its block."""
        return self._ids

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
    """True when every block of a sits inside a block of b, that is when
    every pair that shares a block of a shares one of b."""
    if a.n != b.n:
        raise ValueError("ground sets differ")
    return a.pairs & b.pairs == a.pairs


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


def _check_join_size(n: int) -> None:
    if not JOIN_MATRIX_MIN <= n <= JOIN_MATRIX_MAX:
        raise ValueError(
            f"chromatic join matrix supported for {JOIN_MATRIX_MIN} <= n <= {JOIN_MATRIX_MAX}"
        )


def _join_block_counts(n: int) -> list[list[int]]:
    """Table of blocks(a v b) over the noncrossing partitions a, b of {1..n}.

    Joins are taken in the full partition lattice even though the index
    set is noncrossing: the join of two noncrossing partitions may cross.
    """
    _check_join_size(n)
    ncs = noncrossing_partitions(n)
    return [[join_partitions(a, b).num_blocks for b in ncs] for a in ncs]


def chromatic_join_matrix(n: int) -> SquareMatrix:
    """Matrix over the noncrossing partitions of {1..n} whose (a, b) entry
    is q to the number of blocks of the join of a and b."""
    return SquareMatrix(
        [[Poly.monomial(b) for b in row] for row in _join_block_counts(n)]
    )


def _falling(x: int, k: int) -> int:
    """The falling factorial (x)_k = x (x - 1) ... (x - k + 1)."""
    out = 1
    for i in range(k):
        out *= x - i
    return out


def _nodes(n: int, count: int) -> list[int]:
    """The first count of the integers n, -1, n + 1, -2, ..., which skip
    0..n-1."""
    return [n + k // 2 if k % 2 == 0 else -(k + 1) // 2 for k in range(count)]


def _schur_block_dets(
    n: int, ncs: list[SetPartition], crossing: list[SetPartition]
) -> list[tuple[list[int], Poly]]:
    """The diagonal blocks of the Schur complement H of chromatic_join_det,
    each as its indices into crossing and its determinant in Z[x].  Both
    partition lists run finest first.

    H = diag((x - b(sigma))_(n - b(sigma))) + W^T diag((x - b(a))_(n - b(a))) W
    with W = Z1^-1 Z2 over ncs x crossing and b the block count.  W[a, sigma]
    is nonzero only when a refines sigma, so b(a) >= b(sigma) and every
    entry in row sigma has degree at most n - b(sigma).  A block B's
    determinant therefore has degree at most the sum over B of
    n - b(sigma), and it is interpolated from that many nodes plus one, at
    each of which only B's rows are built and eliminated.
    """
    # Finest first makes Z1 upper unitriangular: a noncrossing sigma
    # strictly above a has fewer blocks, so it sits later in ncs.
    # Back-substitution fills W from the coarsest row up.
    nc_pairs = [p.pairs for p in ncs]
    crossing_pairs = [s.pairs for s in crossing]
    w: list[list[int]] = [[]] * len(ncs)
    for i in range(len(ncs) - 1, -1, -1):
        a = nc_pairs[i]
        row = [int(a & s == a) for s in crossing_pairs]
        for j in range(i + 1, len(ncs)):
            if a & nc_pairs[j] == a:
                row = [r - v for r, v in zip(row, w[j])]
        w[i] = row
    supports = [[(i, v) for i, v in enumerate(row) if v] for row in w]
    # H is block diagonal: crossing partitions i and j interact only through
    # a row w_a with both in its support, and det H is the product of the
    # blocks' determinants (at n = 6 the largest block is 26 x 26 of 71).
    group = [{i} for i in range(len(crossing))]
    for support in supports:
        merged = set().union(*(group[i] for i, _ in support))
        for i in merged:
            group[i] = merged
    out = []
    for members in {min(g): sorted(g) for g in group}.values():
        local = {c: k for k, c in enumerate(members)}
        rows = [
            (a.num_blocks, [(local[i], u) for i, u in support])
            for a, support in zip(ncs, supports)
            if support and support[0][0] in local
        ]
        diagonal = [crossing[i].num_blocks for i in members]
        xs = _nodes(n, sum(n - b for b in diagonal) + 1)
        ys = []
        for x in xs:
            weight = [_falling(x - b, n - b) for b in range(n + 1)]
            h = [[0] * len(members) for _ in members]
            for b, support in rows:
                for i, u in support:
                    scaled, h_i = weight[b] * u, h[i]
                    for j, v in support:
                        h_i[j] += scaled * v
            for i, b in enumerate(diagonal):
                h[i][i] += weight[b]
            ys.append(det_bareiss(SquareMatrix(h)))
        out.append((members, Poly.interpolate(xs, ys)))
    return out


def chromatic_join_det(n: int) -> Poly:
    """Determinant of chromatic_join_matrix(n), through the partition
    lattice: a small Schur complement whose diagonal blocks are
    interpolated from integer evaluations, multiplied and divided by
    factors known in closed form.

    Counting q-colourings of the blocks of a by which blocks share a colour
    gives q^blocks(a) = sum over sigma >= a in Pi_n of (q)_blocks(sigma), so
    M = Z D Z^T with Z[a, sigma] = [a refines sigma] over NC(n) x Pi_n and
    D = diag((q)_blocks(sigma)): the incidence-product form of the main
    theorem.  Split the columns into NC(n) and the crossing partitions X.
    Z1 = Z[NC, NC] is unitriangular, so with the integer matrix
    W = Z1^-1 Z2, det M = det(D1 + W D2 W^T) = det D1 det D2
    det(D2^-1 + W^T D1^-1 W).  With L = (q)_n and
    L / (q)_k = (q - k)_(n - k), the symmetric |X| x |X| matrix
    H = diag(L / (q)_blocks(sigma)) + W^T diag(L / (q)_blocks(a)) W is over
    Z[q], and _schur_block_dets finds its diagonal blocks.  Then
    det M = prod over NC of (q)_blocks * det H / prod over X of
    L / (q)_blocks.  Both products are powers of the factors q - j for
    j < n, and what is left of the divisor once they cancel is monic, so
    the division is exact or raises InexactDivisionError.
    """
    _check_join_size(n)
    ncs: list[SetPartition] = []
    crossing: list[SetPartition] = []
    for p in sorted(all_partitions(n), key=lambda p: -p.num_blocks):
        (ncs if is_noncrossing(p) else crossing).append(p)
    # q - j divides (q)_blocks(a) when a has more than j blocks, and
    # L / (q)_blocks(sigma) when sigma has at most j
    net = {
        Poly((-j, 1)): sum(a.num_blocks > j for a in ncs)
        - sum(s.num_blocks <= j for s in crossing)
        for j in range(n)
    }
    for _, det in _schur_block_dets(n, ncs, crossing):
        net[det] = net.get(det, 0) + 1
    return _quotient(net)


def _quotient(net: dict[Poly, int]) -> Poly:
    """Product of factor^power over net, negative powers divided out exactly."""
    numerator = denominator = Poly.const(1)
    for factor, power in net.items():
        if power > 0:
            numerator = numerator * factor**power
        else:
            denominator = denominator * factor**-power
    return numerator.exact_div(denominator)


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
    for m = 1..n-1, nonnegative, and must divide out exactly."""
    return [exact_div((m + 1) * binomial(2 * n, n - m - 1), n) for m in range(1, n)]


def verify_chromatic_join_det(n: int) -> IdentityReport:
    """Verify the Beraha-product formula for the chromatic-join determinant.

    The formula is q^binomial(2n-1, n) times the product of
    (beraha(m+2) / (q * beraha(m)))^e_m.  Each distinct factor's exponents
    are summed first, so the factors shared by numerator and denominator
    cancel before anything is multiplied: beraha(2) is q, beraha(1) is 1,
    and e_m >= e_(m+2) leaves no denominator for n = 2..6.  Every
    beraha(m) is monic, so any denominator that is left is a nonzero monic
    polynomial, and the prediction is the numerator divided by it exactly
    in Z[q]; an inexact division leaves no prediction and the check fails.
    """
    det = chromatic_join_det(n)
    q = Poly.variable()
    corner = binomial(2 * n - 1, n)
    net = {q: corner}
    denominator_parts = []
    numerator_parts = [f"q^{corner}"]
    for m, e in enumerate(_formula_exponents(n), start=1):
        low, high = beraha(m), beraha(m + 2)
        for factor, power in ((high, e), (q, -e), (low, -e)):
            net[factor] = net.get(factor, 0) + power
        denominator_parts.append(f"({q * low})^{e}")
        numerator_parts.append(f"({high})^{e}")
    try:
        predicted = _quotient(net)
    except InexactDivisionError:
        predicted = None
    detail = "factored: {} / {}".format(
        " ".join(numerator_parts), " ".join(denominator_parts)
    )
    return make_report("tutte", n, det, predicted, detail)
