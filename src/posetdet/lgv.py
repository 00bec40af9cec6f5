"""Weighted acyclic digraphs, path-weight sums, nonintersecting path
families, and the determinant identity that ties them together.

Path-sum matrices come from dynamic programming over a topological order,
one pass per source row (``path_weight_sums``).  The weight of the
nonintersecting families, per sink permutation, comes from one sweep over
the same order that keeps the k path heads and the summed weight reaching
them (``nonintersecting_weights``), a frontier-based search for the
families of the Lindström-Gessel-Viennot lemma.  Both ``verify stembridge`` and
``verify three-layer`` use it.  Enumerating every path and family
(``iter_paths``, ``path_weight``, ``nonintersecting_families``,
``family_weight``) is the test oracle only; graphs here are
verification-sized.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .identities import HYPOTHESIS_FAILED, IdentityReport, _check_host, make_report
from .matrix import SquareMatrix, det_bareiss
from .poset import IncidenceFunction, Poset, _smallest_first_order
from .ring import RingValue, one_like, ring_value_from_json, zero_like

# Digraph files stop here: the sweep must list every realised permutation,
# so the complete 18-vertex file with sources 0..8 takes about 2.2 s on a
# 2-vCPU VM and yields 9! keys.
DIGRAPH_VERTEX_CAP = 18


def _check_vertex_cap(n: int) -> None:
    if n > DIGRAPH_VERTEX_CAP:
        raise ValueError(f"digraphs are capped at {DIGRAPH_VERTEX_CAP} vertices")


class WeightedDigraph:
    """Finite acyclic digraph with exact arc weights and designated,
    disjoint source and sink vertex lists.  ``succ[u]`` holds the pairs
    (v, weight of arc u -> v) sorted by v; ``topo`` is the smallest-first
    topological order; ``one`` and ``zero`` are the identities of the
    weights' ring, the integers when there are no arcs."""

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int, RingValue]],
        sources: Sequence[int] = (),
        sinks: Sequence[int] = (),
    ):
        if n < 1:
            raise ValueError("digraph needs at least one vertex")
        self.n = n
        arcs = list(arcs)
        self.one = one_like(arcs[0][2]) if arcs else 1
        self.zero = zero_like(self.one)
        succ: list[dict[int, RingValue]] = [{} for _ in range(n)]
        for u, v, w in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in succ[u]:
                raise ValueError(f"duplicate arc ({u}, {v})")
            if type(w) is not type(self.one):
                raise ValueError("arc weights must share one ring tag")
            succ[u][v] = w
        self.succ = tuple(tuple(sorted(s.items())) for s in succ)
        self.topo = _smallest_first_order(n, succ)
        if len(self.topo) != n:
            raise ValueError("digraph has a directed cycle")
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        for v in self.sources + self.sinks:
            if not 0 <= v < n:
                raise ValueError(f"designated vertex {v} out of range")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError("duplicate source")
        if len(set(self.sinks)) != len(self.sinks):
            raise ValueError("duplicate sink")
        if set(self.sources) & set(self.sinks):
            raise ValueError("sources and sinks must be disjoint")
        if len(self.sources) != len(self.sinks):
            raise ValueError("need as many sinks as sources")

    def arcs(self) -> list[tuple[int, int, RingValue]]:
        return [(u, v, w) for u, s in enumerate(self.succ) for v, w in s]


class PathFamily(NamedTuple):
    """Tuple of vertex-disjoint paths; path i runs from source i to sink perm[i]."""

    perm: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def path_weight(d: WeightedDigraph, path: Sequence[int]) -> RingValue:
    """Product of arc weights along a path; a single vertex has weight one."""
    acc = d.one
    for u, v in zip(path, path[1:]):
        weight = dict(d.succ[u]).get(v) if 0 <= u < d.n else None
        if weight is None:
            raise ValueError(f"no arc from {u} to {v}")
        acc = acc * weight
    return acc


def iter_paths(d: WeightedDigraph, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """All directed paths from u to v, in a deterministic order."""
    trail = [u]

    def walk(w: int):
        if w == v:
            yield tuple(trail)
            return
        for x, _ in d.succ[w]:
            trail.append(x)
            yield from walk(x)
            trail.pop()

    yield from walk(u)


def path_weight_sum(d: WeightedDigraph, u: int, v: int) -> RingValue:
    """Sum of path weights over every directed path from u to v, by
    exhaustive enumeration; the test oracle for path_weight_sums, which
    stembridge_matrix reads."""
    acc = d.zero
    for path in iter_paths(d, u, v):
        acc = acc + path_weight(d, path)
    return acc


def path_weight_sums(d: WeightedDigraph, u: int) -> dict[int, RingValue]:
    """Sum of path weights from u to every vertex that u reaches (u itself
    included, with weight one); unreached vertices are not keys.

    Finite because the digraph is finite and acyclic; computed by dynamic
    programming over a topological order, in O(V + E).  Paths may pass
    through any vertex, other sources and sinks included.
    """
    zero = d.zero
    ways = {u: d.one}
    for w in d.topo:
        amount = ways.get(w)
        if amount is None:
            continue
        for x, weight in d.succ[w]:
            ways[x] = ways.get(x, zero) + amount * weight
    return ways


def path_weight_sum_dp(d: WeightedDigraph, u: int, v: int) -> RingValue:
    """Sum of path weights over every directed path from u to v."""
    return path_weight_sums(d, u).get(v, d.zero)


def stembridge_matrix(d: WeightedDigraph) -> SquareMatrix:
    """Matrix of path-weight sums from source i to sink j, one
    path_weight_sums pass per source."""
    if not d.sources:
        raise ValueError("digraph has no designated sources")
    rows = [path_weight_sums(d, s) for s in d.sources]
    return SquareMatrix([[row.get(t, d.zero) for t in d.sinks] for row in rows])


def family_weight(d: WeightedDigraph, family: PathFamily) -> RingValue:
    acc = d.one
    for path in family.paths:
        acc = acc * path_weight(d, path)
    return acc


def nonintersecting_families(d: WeightedDigraph) -> list[PathFamily]:
    """All vertex-disjoint path families across every permutation of the
    sinks; the test oracle for nonintersecting_weights."""
    n = len(d.sources)
    if n == 0:
        raise ValueError("digraph has no designated sources")
    _check_vertex_cap(d.n)
    paths = [
        [list(iter_paths(d, s, t)) for t in d.sinks] for s in d.sources
    ]
    out: list[PathFamily] = []
    assignment = [-1] * n
    used: set[int] = set()
    chosen: list[tuple[int, ...]] = []

    def assign(i: int) -> None:
        if i == n:
            out.append(PathFamily(tuple(assignment), tuple(chosen)))
            return
        # a taken sink is a used vertex, so each sink serves one path
        for j in range(n):
            for path in paths[i][j]:
                if any(x in used for x in path):
                    continue
                assignment[i] = j
                used.update(path)
                chosen.append(path)
                assign(i + 1)
                chosen.pop()
                used.difference_update(path)

    assign(0)
    return out


def nonintersecting_weights(d: WeightedDigraph) -> dict[tuple[int, ...], RingValue]:
    """Sum of family weights per sink permutation, over every vertex-disjoint
    path family: the per-permutation sums of family_weight over
    nonintersecting_families(d), without building a path or a family.

    One sweep over the topological order.  A state is the tuple of the k
    path heads: a vertex, or ~j once that path has ended at sink j.  Its
    value is the summed weight of the partial families that reach it.  At
    each vertex v, one head with an arc into v may move there, multiplying
    by that arc's weight; no source is ever entered.  At a sink some head
    must move in, so a state that skips a sink is dropped, and after the
    position of a head's last successor a state still holding that head is
    dropped.  A head moves only into the vertex the sweep is at, so the
    paths stay disjoint, and when the sweep ends every head has ended.  A
    permutation is a key exactly when some family realises it, even when
    its weights sum to zero.
    """
    if not d.sources:
        raise ValueError("digraph has no designated sources")
    ends = {t: ~j for j, t in enumerate(d.sinks)}
    position = {v: p for p, v in enumerate(d.topo)}
    # into[v]: the arcs a head may take into v; dies[p]: no such arc out after p
    into: list[dict[int, RingValue]] = [{} for _ in d.topo]
    dies: list[set[int]] = [set() for _ in d.topo]
    for u, out in enumerate(d.succ):
        if u not in ends:
            last = position[u]
            for v, weight in out:
                if v not in d.sources:
                    into[v][u] = weight
                    if position[v] > last:
                        last = position[v]
            dies[last].add(u)
    zero = d.zero
    states = {d.sources: d.one}
    for p, v in enumerate(d.topo):
        arcs = into[v]
        head = ends.get(v, v)
        if arcs or head < 0:
            # a state that no head moves from is kept, except at a sink
            grown = {} if head < 0 else states
            for heads, acc in list(states.items()):
                for i, h in enumerate(heads):
                    weight = arcs.get(h)
                    if weight is not None:
                        key = heads[:i] + (head,) + heads[i + 1 :]
                        grown[key] = grown.get(key, zero) + acc * weight
            states = grown
        if dies[p]:
            states = {heads: acc for heads, acc in states.items() if dies[p].isdisjoint(heads)}
    return {tuple(~h for h in heads): acc for heads, acc in states.items()}


def verify_stembridge(d: WeightedDigraph) -> IdentityReport:
    """Check det of the path-sum matrix against the sum of nonintersecting
    family weights.

    The hypothesis that only the identity permutation admits a
    nonintersecting family is checked by nonintersecting_weights, not assumed;
    when it fails the report carries the hypothesis-failed verdict instead
    of a pass/fail on the identity.
    """
    weights = nonintersecting_weights(d)
    n = len(d.sources)
    identity = tuple(range(n))
    if any(perm != identity for perm in weights):
        return IdentityReport(
            name="stembridge",
            computed=None,
            predicted=None,
            verdict=HYPOTHESIS_FAILED,
            size=n,
            detail="(a nonidentity permutation admits a nonintersecting family)",
        )
    det = det_bareiss(stembridge_matrix(d))
    return make_report("stembridge", n, det, weights.get(identity, d.zero))


def three_layer_digraph(
    p: Poset, f: IncidenceFunction, g: IncidenceFunction
) -> WeightedDigraph:
    """Digraph on three copies of the poset elements.

    Source copy a feeds the middle copy of every c <= a with weight
    f(c, a); the middle copy of c feeds the sink copy of every b >= c with
    weight g(c, b).  Every source-to-sink path therefore has exactly one
    middle vertex, a common lower bound of its endpoints, and the matrix
    of path-weight sums reproduces the incidence product matrix.
    """
    _check_host(p, f, g)
    n = p.n
    arcs: list[tuple[int, int, RingValue]] = []
    for a in range(n):
        for c in p.below(a):
            arcs += (a, 2 * n + c, f(c, a)), (2 * n + c, n + a, g(c, a))
    return WeightedDigraph(
        3 * n,
        arcs,
        sources=tuple(p.lin_ext),
        sinks=tuple(n + e for e in p.lin_ext),
    )


def digraph_to_dict(d: WeightedDigraph) -> dict:
    """JSON-ready description used by the CLI digraph file format."""

    def weight_json(w: RingValue):
        return w if type(w) is int else list(w.coeffs)

    return {
        "vertices": d.n,
        "arcs": [[u, v, weight_json(w)] for u, v, w in d.arcs()],
        "sources": list(d.sources),
        "sinks": list(d.sinks),
    }


def digraph_from_dict(doc: dict) -> WeightedDigraph:
    """Inverse of digraph_to_dict; the vertex cap, an input policy, is
    checked before any per-vertex table is built."""
    required = {"vertices", "arcs", "sources", "sinks"}
    if not isinstance(doc, dict) or not required <= set(doc):
        raise ValueError(
            'digraph document needs "vertices", "arcs", "sources", "sinks"'
        )
    if type(doc["vertices"]) is not int:
        raise ValueError('"vertices" must be an integer')
    _check_vertex_cap(doc["vertices"])
    for key in ("arcs", "sources", "sinks"):
        if not isinstance(doc[key], list):
            raise ValueError(f'"{key}" must be a list')
    arcs = []
    for entry in doc["arcs"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("each arc must be [u, v, weight]")
        u, v, w = entry
        arcs.append((u, v, ring_value_from_json(w)))
    ends = [x for u, v, _ in arcs for x in (u, v)] + doc["sources"] + doc["sinks"]
    if not all(type(x) is int for x in ends):
        raise ValueError("vertex indices must be integers")
    return WeightedDigraph(
        doc["vertices"],
        arcs,
        sources=tuple(doc["sources"]),
        sinks=tuple(doc["sinks"]),
    )
