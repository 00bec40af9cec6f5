"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of ``posetdet`` invocations (argv lists plus
any files they read), built from the benchmark seed alone.  Only the
resulting argv and files reach the program.  The amount of work in a
workload is chosen not to depend on the seed, so that runs with different
seeds measure the same thing: the seed changes values, labels and orders,
not sizes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# The seeded families of ``posetdet verify`` at their default arguments.
CAMPAIGN_FAMILIES = (
    "main",
    "weighted",
    "lindstrom",
    "meet-closed",
    "smith",
    "definiteness",
    "stembridge",
    "three-layer",
)
CAMPAIGN_SEEDS = 3

INT_LARGE_N = 64
DANILOFF_KS = (1, 2, 3)
# Seeded smith sets: one per divisor count, from numbers shaped like highly
# composite ones.  Fixing the counts fixes the matrix sizes, so the seed
# cannot change the amount of elimination work.
SMITH_DIVISOR_COUNTS = (64, 96)
SMITH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Candidates stay within this factor of the smallest number with the same
# divisor count, which keeps the entry sizes, and so the cost, close.
SMITH_MAGNITUDE_SPREAD = 2
# The largest set, the 120 divisors of the highly composite 55440, is the
# slowest invocation; it is the same for every seed so that op_max_s is.
SMITH_FIXED = 55440

TUTTE_SIZES = (2, 3, 4, 5)

# Complete DAGs: every forward arc is present, so a DAG on n vertices has
# exactly 2**(n - 2) source-to-sink paths whatever the seed.
DAG_SIZES = (15, 16, 17, 18)
DAG_WEIGHTS = (-3, -2, -1, 1, 2, 3)
THREE_LAYER_SEEDS = 3
THREE_LAYER_MAX_SIZE = 6

WORKLOADS = ("campaign", "int-large", "poly-chromatic", "paths")


@dataclass(frozen=True)
class Invocation:
    """One run of ``posetdet.cli.main``.

    ``key`` names the invocation independently of where its files live;
    the expected-digest table is keyed by it.  ``expected_det``, when set,
    is the determinant the benchmark computed on its own for a
    single-check invocation, and the printed ``det=`` must equal it.
    """

    argv: tuple[str, ...]
    key: str
    expected_det: str | None = None


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is stable across runs.
    return random.Random(f"{workload}/{seed}")


def _draw_seeds(rng: random.Random, k: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(k)]


def campaign(seed: int) -> list[Invocation]:
    out = []
    for s in _draw_seeds(_rng("campaign", seed), CAMPAIGN_SEEDS):
        for family in CAMPAIGN_FAMILIES:
            argv = ("verify", family, "--seed", str(s))
            out.append(Invocation(argv, " ".join(argv)))
        argv = ("random-suite", "--seed", str(s))
        out.append(Invocation(argv, " ".join(argv)))
    return out


def _shapes(count: int, primes: tuple[int, ...], cap: int):
    """Exponent vectors e_1 >= e_2 >= ... >= 1 with prod(e_i + 1) == count.

    Numbers with nonincreasing exponents over consecutive primes have the
    shape of every highly composite number.
    """
    if count == 1:
        yield ()
        return
    if not primes:
        return
    for e in range(min(cap, count - 1), 0, -1):
        if count % (e + 1) == 0:
            for rest in _shapes(count // (e + 1), primes[1:], e):
                yield (e,) + rest


def composite_candidates(count: int) -> list[int]:
    """Highly-composite-shaped numbers with ``count`` divisors, each within
    SMITH_MAGNITUDE_SPREAD of the smallest."""
    values = sorted(
        math.prod(p**e for p, e in zip(SMITH_PRIMES, shape))
        for shape in _shapes(count, SMITH_PRIMES, count)
    )
    return [v for v in values if v <= SMITH_MAGNITUDE_SPREAD * values[0]]


# The helpers below do not import posetdet: the inputs, and the values they
# are checked against, must not change when the program does.


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def smith_sets(seed: int) -> list[list[int]]:
    rng = _rng("smith", seed)
    return [divisors(rng.choice(composite_candidates(c))) for c in SMITH_DIVISOR_COUNTS]


def int_large(seed: int) -> list[Invocation]:
    n = str(INT_LARGE_N)
    argvs = [("verify", "apostol", "--n", n)]
    argvs += [("verify", "daniloff", "--n", n, "--k", str(k)) for k in DANILOFF_KS]
    out = [Invocation(argv, " ".join(argv)) for argv in argvs]
    for s in smith_sets(seed) + [divisors(SMITH_FIXED)]:
        argv = ("verify", "smith", "--set", ",".join(map(str, s)))
        out.append(
            Invocation(argv, " ".join(argv), str(math.prod(totient(a) for a in s)))
        )
    return out


def poly_chromatic(seed: int) -> list[Invocation]:
    return [
        Invocation(("verify", "tutte", "--n", str(n)), f"verify tutte --n {n}")
        for n in TUTTE_SIZES
    ]


def complete_dag(rng: random.Random, n: int) -> tuple[dict, int]:
    """Digraph document of a complete DAG on a seeded vertex labelling,
    with one source and one sink, and its source-to-sink path-weight sum
    computed by dynamic programming."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = [
        [order[i], order[j], rng.choice(DAG_WEIGHTS)]
        for i in range(n)
        for j in range(i + 1, n)
    ]
    rng.shuffle(arcs)
    weight = {(u, v): w for u, v, w in arcs}
    ways = [0] * n
    ways[0] = 1
    for j in range(1, n):
        ways[j] = sum(ways[i] * weight[(order[i], order[j])] for i in range(j))
    doc = {"vertices": n, "arcs": arcs, "sources": [order[0]], "sinks": [order[-1]]}
    return doc, ways[-1]


def paths(seed: int, workdir: str) -> list[Invocation]:
    rng = _rng("paths", seed)
    out = []
    for i, n in enumerate(DAG_SIZES):
        doc, total = complete_dag(rng, n)
        name = f"dag-{seed}-{i}.json"
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out.append(
            Invocation(
                ("verify", "stembridge", "--digraph", path),
                f"verify stembridge --digraph {name}",
                str(total),
            )
        )
    for s in _draw_seeds(rng, THREE_LAYER_SEEDS):
        argv = (
            "verify", "three-layer", "--max-size", str(THREE_LAYER_MAX_SIZE), "--seed", str(s)
        )
        out.append(Invocation(argv, " ".join(argv)))
    return out


def build(workload: str, seed: int, workdir: str) -> list[Invocation]:
    """The invocation list of one workload; writes its files under workdir."""
    if workload == "campaign":
        return campaign(seed)
    if workload == "int-large":
        return int_large(seed)
    if workload == "poly-chromatic":
        return poly_chromatic(seed)
    if workload == "paths":
        os.makedirs(workdir, exist_ok=True)
        return paths(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
