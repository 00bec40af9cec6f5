"""Number-theoretic helpers: totient, Möbius, Ramanujan sums, binomials.

All functions are exact and use trial-division factorization, which is
plenty for the intended input range (up to about 10**6).
"""

from __future__ import annotations

import math


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    """Count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def mobius(n: int) -> int:
    """Number-theoretic Möbius function.

    Zero when a squared prime divides n, otherwise (-1)**(number of
    prime factors).
    """
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    fs = factorize(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def ramanujan_sum(a: int, b: int) -> int:
    """Divisor sum over d | gcd(a, b) of d * mobius(b // d)."""
    if a < 1 or b < 1:
        raise ValueError("ramanujan_sum needs positive arguments")
    return sum(d * mobius(b // d) for d in divisors(math.gcd(a, b)))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero when k < 0 or k > n."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


def kth_root(m: int, k: int) -> int | None:
    """Exact integer k-th root of m >= 1, or None when m is not a k-th power."""
    if m < 1 or k < 1:
        raise ValueError("kth_root needs positive arguments")
    if m == 1 or k == 1:
        return m if k == 1 else 1
    if k >= m.bit_length():
        # a root r >= 2 has r**k >= 2**k, so m would need k + 1 bits
        return None
    # Integer Newton from above: 2**ceil(bits / k) exceeds the real root,
    # and the iterates fall strictly to its floor, then stop falling.
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == m else None
        r = s
