import math

import pytest

from posetdet.arith import (
    binomial,
    divisors,
    euler_phi,
    factorize,
    kth_root,
    mobius,
    ramanujan_sum,
)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2  # {1, 5}
    assert euler_phi(12) == 4  # {1, 5, 7, 11}


def test_euler_phi_against_brute_force():
    for n in range(1, 201):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == count


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0


def test_mobius_divisor_sum_is_unit_indicator():
    for n in range(1, 201):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_totient_from_mobius_inversion():
    for n in range(1, 201):
        assert euler_phi(n) == sum(d * mobius(n // d) for d in divisors(n))


def test_ramanujan_sum_examples():
    assert ramanujan_sum(1, 1) == 1
    assert ramanujan_sum(2, 2) == 1  # 1*mu(2) + 2*mu(1)
    assert ramanujan_sum(4, 2) == 1  # gcd 2, same terms


def test_ramanujan_sum_at_prime_modulus():
    # classical: c(a, p) is p - 1 when p | a and -1 otherwise
    for p in (2, 3, 5, 7):
        for a in range(1, 30):
            expected = p - 1 if a % p == 0 else -1
            assert ramanujan_sum(a, p) == expected


def test_positive_argument_requirements():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)
    with pytest.raises(ValueError):
        ramanujan_sum(1, 0)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(1, 2) == 0
    assert binomial(6, 1) == 6
    assert binomial(5, -1) == 0
    assert binomial(-2, 0) == 0
    for n in range(9):
        for k in range(n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_kth_root():
    assert kth_root(9, 2) == 3
    assert kth_root(8, 2) is None
    assert kth_root(8, 3) == 2
    assert kth_root(1, 5) == 1
    for m in range(1, 200):
        assert kth_root(m, 1) == m
    for r in range(1, 20):
        for k in (2, 3, 4):
            assert kth_root(r**k, k) == r
    with pytest.raises(ValueError):
        kth_root(0, 2)


def test_kth_root_is_exact_past_float_range():
    # a float root overflows past 2**1024 and loses the last digits of a
    # root above 2**53
    assert kth_root(2**2000, 2) == 2**1000
    r = 10**17 + 3
    assert kth_root(r**2, 2) == r
    assert kth_root(r**3, 3) == r
    for k in (2, 3, 5):
        assert kth_root(r**k + 1, k) is None
        assert kth_root(r**k - 1, k) is None


def test_kth_root_of_a_huge_exponent_computes_no_power():
    class NoPower(int):
        def __rpow__(self, base):
            raise AssertionError(f"computed {base} ** {int(self)}")

    # m < 2**k, so no root r >= 2 exists and no power is needed
    assert kth_root(2**20, NoPower(10**12)) is None
    assert kth_root(3, NoPower(2)) is None
    assert kth_root(2**20, 20) == 2
    assert kth_root(2**20, 21) is None
    assert kth_root(2**20 + 1, 20) is None


def test_factorize_and_divisors():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 120):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
