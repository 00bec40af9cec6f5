"""Deterministic random instances for the verification campaigns.

Posets are random DAGs where each forward pair becomes a cover with
probability 1/2, then transitively closed; incidence values are uniform
integers in [-5, 5], and those of symmetric pairs in [-4, 4].  Everything
is reproducible from the seed alone.  The incidence values and weights
come from _uniform, which reproduces rng.randint's stream exactly: the
same values and the same generator state after them.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from .arith import divisors
from .lgv import WeightedDigraph, nonintersecting_weights
from .poset import IncidenceFunction, Poset, divisor_poset

# Largest semilattice size drawn by rejection; see sample_meet_semilattice.
REJECTION_MAX_SIZE = 6
# Draws before a rejection sampler gives up.
SEMILATTICE_TRIES = 5000
HYPOTHESIS_TRIES = 2000


def _random_covers(rng: random.Random, low: int, n: int) -> list[tuple[int, int]]:
    """Each pair low <= i < j < n, i then j ascending, kept when rng.random() < 0.5."""
    return [(i, j) for i in range(low, n) for j in range(i + 1, n) if rng.random() < 0.5]


def random_poset(rng: random.Random, n: int) -> Poset:
    return Poset.from_covers(n, _random_covers(rng, 0, n))


def _uniform(rng: random.Random, bound: int) -> Iterator[int]:
    """Endless draws of rng.randint(-bound, bound), value for value and
    state for state: CPython's _randbelow takes k = span.bit_length()
    bits and draws again while they reach span = 2 * bound + 1, here
    with one getrandbits call per draw and no randint frames."""
    span = 2 * bound + 1
    k = span.bit_length()
    getrandbits = rng.getrandbits
    while True:
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        yield r - bound


def _random_values(rng: random.Random, p: Poset, bound: int) -> dict:
    """A uniform integer in [-bound, bound] at each pair a <= b, by a, then b ascending."""
    pairs = [(a, b) for a in range(p.n) for b in sorted(p.above(a))]
    # zip pulls a pair before a value, so no value is drawn past the last pair.
    return dict(zip(pairs, _uniform(rng, bound)))


def random_incidence(rng: random.Random, p: Poset) -> IncidenceFunction:
    return IncidenceFunction(p, _random_values(rng, p, 5))


def random_weights(rng: random.Random, n: int) -> list[int]:
    return list(islice(_uniform(rng, 5), n))


def random_meet_semilattice(rng: random.Random, n: int) -> Poset:
    """Random poset with a forced bottom element, resampled until every
    pair has a meet."""
    for _ in range(SEMILATTICE_TRIES):
        covers = [(0, j) for j in range(1, n)] + _random_covers(rng, 1, n)
        p = Poset.from_covers(n, covers)
        if p.is_meet_semilattice():
            return p
    raise ValueError(f"could not sample a meet semilattice on {n} elements")


def grown_meet_semilattice(rng: random.Random, n: int) -> Poset:
    """Random meet semilattice on exactly n elements, built one element at
    a time with no rejection.

    Element 0 is the bottom.  Element j goes on top of the down-set I of
    one or two random earlier elements; it then has a meet with every
    earlier y exactly when I & down(y) has a greatest element.  When that
    fails, j goes on top of the first pick alone, which always works:
    down(z) & down(y) = down(z ^ y).
    """
    below: list[set[int]] = [{0}]
    covers: list[tuple[int, int]] = []
    for j in range(1, n):
        picks = rng.sample(range(j), min(j, rng.randint(1, 2)))
        ideal = set().union(*(below[z] for z in picks))
        for y in range(j):
            common = ideal & below[y]
            if not any(len(below[m]) == len(common) for m in common):
                picks = picks[:1]
                ideal = set(below[picks[0]])
                break
        covers += [(z, j) for z in picks]
        below.append(ideal | {j})
    return Poset.from_covers(n, covers)


def sample_meet_semilattice(rng: random.Random, n: int) -> Poset:
    """Random meet semilattice on n elements: by rejection up to
    REJECTION_MAX_SIZE elements, where it accepts quickly and the golden
    output pins its seeded draws, and grown constructively above it, where
    almost every rejection draw fails."""
    if n <= REJECTION_MAX_SIZE:
        return random_meet_semilattice(rng, n)
    return grown_meet_semilattice(rng, n)


def random_factor_closed_set(rng: random.Random) -> list[int]:
    """Divisor closure of a few random seeds, sorted ascending."""
    k = rng.randint(1, 3)
    seeds = [rng.randint(1, 60) for _ in range(k)]
    return sorted({d for a in seeds for d in divisors(a)})


def random_meet_closed_instance(rng: random.Random) -> tuple[Poset, list[int]]:
    """Divisor lattice of a random integer plus a random gcd-closed subset
    of it: the meet closure of a random sample, built in one pass that
    adds each sampled a with its meets against the members so far (meets
    are associative and idempotent, so the set stays meet closed after
    each step); the closure draws nothing from rng."""
    m = rng.randint(2, 60)
    vals = divisors(m)
    lattice = divisor_poset(vals)
    k = rng.randint(1, len(vals))
    closed: set[int] = set()
    for a in rng.sample(range(len(vals)), k):
        closed |= {lattice.meet(a, c) for c in closed} | {a}
    return lattice, sorted(closed)


def random_symmetric_pair(
    rng: random.Random, p: Poset, force_zero_diag: bool = False
) -> tuple[IncidenceFunction, IncidenceFunction]:
    """Pair (f, g) with g equal to f rescaled by a random sign at each
    source element, which keeps the product matrix symmetric while letting
    the diagonal products take either sign."""
    values = _random_values(rng, p, 4)
    if force_zero_diag:
        dead = rng.randrange(p.n)
        values[(dead, dead)] = 0
    f = IncidenceFunction(p, values)
    signs = [rng.choice((-1, 1)) for _ in range(p.n)]
    g = IncidenceFunction(p, {(a, b): v * signs[a] for (a, b), v in values.items()})
    return f, g


def random_hypothesis_digraph(rng: random.Random) -> WeightedDigraph:
    """Small random DAG whose designated terminals satisfy the
    only-the-identity-permutation hypothesis, checked by nonintersecting_weights."""
    for _ in range(HYPOTHESIS_TRIES):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(3, n // 2))
        arcs = [
            (u, v, rng.randint(-3, 3))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        d = WeightedDigraph(
            n,
            arcs,
            sources=tuple(range(k)),
            sinks=tuple(range(n - k, n)),
        )
        identity = tuple(range(k))
        if all(perm == identity for perm in nonintersecting_weights(d)):
            return d
    raise RuntimeError("could not sample a digraph satisfying the hypothesis")
