"""Finite posets, their incidence algebra, meets, and closure predicates."""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .ring import RingValue, ring_value_from_json, zero_like

# Exhaustive predicates below are O(n^3) or worse; keep instances small.
MAX_ELEMENTS = 64
# Default labels: element i is labelled str(i).
_INDEX_LABELS = tuple(map(str, range(MAX_ELEMENTS)))


class MeetError(ValueError):
    """A pair has no unique greatest lower bound."""


def _check_size(n: int) -> None:
    if n == 0:
        raise ValueError("poset needs at least one element")
    if n > MAX_ELEMENTS:
        raise ValueError(f"poset too large ({n} > {MAX_ELEMENTS})")


def _smallest_first_order(n: int, succ: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """Kahn's algorithm on 0..n-1 with arcs u -> succ[u], taking the
    smallest ready index first so the order is deterministic.  The result
    is shorter than n exactly when the arcs contain a directed cycle.

    When every arc goes from a smaller to a larger index, as on random
    posets, rejection-sampled semilattices and divisor posets of
    ascending values, the answer is 0..n-1 with no heap: once 0..u-1 are
    placed, u is ready (all its tails are smaller) and it is the
    smallest element left."""
    if all(not out or min(out) > u for u, out in enumerate(succ)):
        return tuple(range(n))
    indeg = [0] * n
    for out in succ:
        for v in out:
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return tuple(order)


class Poset:
    """Finite partially ordered set on indices 0..n-1.

    The relation is validated at construction (reflexive, antisymmetric,
    and transitive as up-set inclusion: b in above(a) implies
    above(b) <= above(a)) and a fixed linear extension is computed so
    that matrix rows and columns are reproducible.  The up-set and
    down-set tables built then answer every later query.
    """

    def __init__(self, leq: Sequence[Sequence[bool]], labels: Sequence[str] | None = None):
        n = len(leq)
        _check_size(n)
        if any(len(row) != n for row in leq):
            raise ValueError("relation must be square")
        above = tuple(frozenset(compress(range(n), row)) for row in leq)
        lin_ext = _smallest_first_order(n, [up - {a} for a, up in enumerate(above)])
        self._build(above, lin_ext, labels)

    def _build(
        self,
        above: tuple[frozenset[int], ...],
        lin_ext: tuple[int, ...],
        labels: Sequence[str] | None,
    ) -> None:
        """Validate the up-sets, above[a] = {b : a <= b}, then build every
        table from them and lin_ext, their smallest-first linear extension
        (meaningful only once the up-sets pass).  host_map, the indices in
        a host poset, is set only by induced."""
        n = len(above)
        self.n = n
        self._above = above
        self._check_partial_order()
        if labels is None:
            self.labels = _INDEX_LABELS[:n]
        elif len(labels) != n:
            raise ValueError("need one label per element")
        else:
            self.labels = tuple(map(str, labels))
        self.host_map: tuple[int, ...] | None = None
        below: list[list[int]] = [[] for _ in range(n)]
        for a, up in enumerate(above):
            for b in up:
                below[b].append(a)
        self._below = tuple(map(frozenset, below))
        self._by_below = {d: c for c, d in enumerate(self._below)}
        self.lin_ext = lin_ext
        self._position = {e: i for i, e in enumerate(lin_ext)}
        self._meet_semilattice: bool | None = None

    def _check_partial_order(self) -> None:
        """Check the up-sets, above[a] = {b : a <= b}, as a partial order."""
        above = self._above
        for a, up in enumerate(above):
            if a not in up:
                raise ValueError("relation is not reflexive")
        for a, up in enumerate(above):
            for b in up:
                if a != b and a in above[b]:
                    raise ValueError("relation is not antisymmetric")
        for up in above:
            for b in up:
                if not above[b] <= up:
                    raise ValueError("relation is not transitive")

    @classmethod
    def from_covers(
        cls,
        n: int,
        covers: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> Poset:
        """Poset whose order is the reflexive-transitive closure of covers,
        built in one pass over a topological order of the cover digraph.

        Raises ValueError when the covers contain a directed cycle.
        """
        _check_size(n)
        adj = [set() for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"cover ({a}, {b}) out of range")
            adj[a].add(b)
        order = _smallest_first_order(n, adj)
        if len(order) < n:
            raise ValueError("covers contain a directed cycle")
        # Reverse topological order: every cover target's up-set is done.
        above: list[frozenset[int]] = [frozenset()] * n
        for a in reversed(order):
            above[a] = frozenset({a}.union(*(above[b] for b in adj[a])))
        # order is also the smallest-first order of the closure, so there is
        # no second sort: with either arc set, x is ready exactly when all
        # below x is placed (each y < x lies at or below the tail of an arc
        # into x), that is, when x is minimal among the elements left.
        poset = cls.__new__(cls)
        poset._build(tuple(above), order, labels)
        return poset

    def leq(self, a: int, b: int) -> bool:
        return b in self._above[a]

    def below(self, a: int) -> frozenset[int]:
        """All b with b <= a."""
        return self._below[a]

    def above(self, a: int) -> frozenset[int]:
        """All b with a <= b."""
        return self._above[a]

    def position(self, a: int) -> int:
        """Index of element a in the fixed linear extension."""
        return self._position[a]

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse diagram arcs (a, b): a < b with nothing strictly between."""
        out = []
        for a, up in enumerate(self._above):
            for b in up:
                if b != a and up & self._below[b] == {a, b}:
                    out.append((a, b))
        return sorted(out)

    def _meet(self, a: int, b: int) -> int | None:
        """Greatest lower bound of a and b, or None when there is none.

        The common lower bounds have a greatest element c exactly when
        they are c's down-set.
        """
        return self._by_below.get(self._below[a] & self._below[b])

    def meet(self, a: int, b: int) -> int:
        """Greatest lower bound of a and b; MeetError when it is not unique."""
        c = self._meet(a, b)
        if c is not None:
            return c
        common = self._below[a] & self._below[b]
        if not common:
            raise MeetError(
                f"{self.labels[a]} and {self.labels[b]} have no common lower bound"
            )
        maximal = sorted(c for c in common if self._above[c] & common == {c})
        names = ", ".join(self.labels[c] for c in maximal)
        raise MeetError(
            f"{self.labels[a]} and {self.labels[b]} have maximal lower bounds {names}"
        )

    def is_meet_semilattice(self) -> bool:
        """True when every pair of elements has a meet."""
        if self._meet_semilattice is None:
            below, by_below = self._below, self._by_below
            self._meet_semilattice = all(
                below[a] & below[b] in by_below
                for a in range(self.n)
                for b in range(a + 1, self.n)
            )
        return self._meet_semilattice

    def _in_order(self, subset: Iterable[int]) -> list[int]:
        """The distinct members of subset in linear-extension order;
        ValueError naming a member that is not an element."""
        s = set(subset)
        for a in s:
            if a not in self._position:
                raise ValueError(f"subset member {a!r} is not an element")
        return sorted(s, key=self._position.__getitem__)

    def is_lower_closed(self, subset: Iterable[int]) -> bool:
        """True when the subset is a lower order ideal."""
        s = set(self._in_order(subset))
        return all(self._below[a] <= s for a in s)

    def is_meet_closed(self, subset: Iterable[int]) -> bool:
        """True when every pair in the subset has its meet in the subset."""
        s = self._in_order(subset)
        for i, a in enumerate(s):
            for b in s[i:]:
                if self._meet(a, b) not in s:
                    return False
        return True

    def induced(self, subset: Iterable[int]) -> Poset:
        """Subposet on the given elements, ordered by this poset's linear
        extension so the inherited order of indices is itself a linear
        extension.  host_map records the original indices.
        """
        s = self._in_order(subset)
        if not s:
            raise ValueError("subset must be nonempty")
        sub = Poset([[self.leq(a, b) for b in s] for a in s], [self.labels[a] for a in s])
        sub.host_map = tuple(s)
        return sub

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self._above == other._above
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={self.cover_pairs()})"


def divisor_poset(values: Sequence[int]) -> Poset:
    """Poset on the given distinct positive integers ordered by divisibility."""
    if not values:
        raise ValueError("need at least one value")
    _check_size(len(values))
    vals = list(values)
    if any(v < 1 for v in vals):
        raise ValueError("values must be positive")
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    leq = [[b % a == 0 for b in vals] for a in vals]
    return Poset(leq, labels=[str(v) for v in vals])


class IncidenceFunction:
    """Map (a, b) -> ring value that vanishes unless a <= b in the host poset.

    Each entry is checked for range, then order, then ring tag."""

    def __init__(self, host: Poset, values: Mapping[tuple[int, int], RingValue]):
        self.host = host
        zero = zero_like(next(iter(values.values()), 0))
        n, above, tag = host.n, host._above, type(zero)
        for (a, b), v in values.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"entry ({a}, {b}) out of range")
            if b not in above[a]:
                raise ValueError(
                    f"entry on pair ({host.labels[a]}, {host.labels[b]}) without {host.labels[a]} <= {host.labels[b]}"
                )
            if type(v) is not tag:
                raise ValueError("incidence function values must share one ring tag")
        self.zero = zero
        self._table = dict(values)

    def __call__(self, a: int, b: int) -> RingValue:
        return self._table.get((a, b), self.zero)

    def items(self):
        return self._table.items()

    def restrict(self, sub: Poset) -> IncidenceFunction:
        """This function on a subposet induced from its host, read through
        sub.host_map."""
        if sub.host_map is None:
            raise ValueError("poset is not an induced subposet")
        host_map = sub.host_map
        values = {
            (i, j): self(host_map[i], host_map[j])
            for i in range(sub.n)
            for j in sub.above(i)
        }
        return IncidenceFunction(sub, values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceFunction) or self.host != other.host:
            return False
        pairs = set(self._table) | set(other._table)
        return all(self(a, b) == other(a, b) for a, b in pairs)


def zeta_function(p: Poset) -> IncidenceFunction:
    """Indicator of the order relation: 1 exactly when a <= b."""
    return IncidenceFunction(
        p, {(a, b): 1 for a in range(p.n) for b in p.above(a)}
    )


def delta_function(p: Poset) -> IncidenceFunction:
    """Identity of the incidence algebra: 1 exactly on the diagonal."""
    return IncidenceFunction(p, {(a, a): 1 for a in range(p.n)})


def mobius_function(p: Poset) -> IncidenceFunction:
    """Inverse of the zeta function in the incidence algebra.

    Computed by the defining recursion mu(a, a) = 1 and
    mu(a, b) = -sum of mu(a, c) over a <= c < b, read off the up-set,
    down-set and position tables.
    """
    above, below, position = p._above, p._below, p._position
    values: dict[tuple[int, int], int] = {}
    for a in range(p.n):
        values[(a, a)] = 1
        up = above[a]
        # Walk the interval above a in linear-extension order so every
        # mu(a, c) needed is already present.
        for b in sorted(up, key=position.__getitem__):
            if b != a:
                values[(a, b)] = -sum([values[(a, c)] for c in up & below[b] if c != b])
    return IncidenceFunction(p, values)


def poset_to_dict(p: Poset) -> dict:
    """JSON-ready description with labels and Hasse covers."""
    return {
        "labels": list(p.labels),
        "covers": [list(c) for c in p.cover_pairs()],
    }


def poset_from_dict(doc: dict) -> Poset:
    """Inverse of poset_to_dict; the document schema used by the CLI."""
    if not isinstance(doc, dict) or "labels" not in doc or "covers" not in doc:
        raise ValueError('poset document needs "labels" and "covers"')
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("labels must be a list of strings")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    covers = doc["covers"]
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise ValueError("covers must be pairs")
    if not all(type(x) is int for c in covers for x in c):
        raise ValueError("cover indices must be integers")
    covers = [tuple(c) for c in covers]
    return Poset.from_covers(len(labels), covers, labels=labels)


def incidence_from_dict(p: Poset, doc: dict) -> IncidenceFunction:
    """Incidence function from {"entries": [[a, b, value], ...]}.

    A value is an integer or an ascending coefficient list.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError('incidence document needs an "entries" list')
    values = {}
    for entry in doc["entries"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("each entry must be [a, b, value]")
        a, b, v = entry
        if type(a) is not int or type(b) is not int:
            raise ValueError("entry indices must be integers")
        values[(a, b)] = ring_value_from_json(v)
    return IncidenceFunction(p, values)
