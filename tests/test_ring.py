import decimal
import random

import pytest

from posetdet.ring import (
    InexactDivisionError,
    Poly,
    TagMismatchError,
    exact_div,
    one_like,
    ring_value_from_json,
    zero_like,
)


def _random_value(rng, tag):
    if tag == "int":
        return rng.randint(-50, 50)
    return Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))])


def test_poly_monomial_product():
    q = Poly.variable()
    assert q * q == Poly((0, 0, 1))


def test_poly_product_expanded_by_hand():
    # (q - 1)(q - 2) = q^2 - 3q + 2
    assert Poly((-1, 1)) * Poly((-2, 1)) == Poly((2, -3, 1))


def test_exact_div_int():
    # the division det_bareiss uses: a remainder is a broken invariant
    assert exact_div(12, 4) == 3
    assert exact_div(-12, 4) == -3
    with pytest.raises(InexactDivisionError):
        exact_div(7, 2)
    with pytest.raises(InexactDivisionError):
        exact_div(-7, 2)
    with pytest.raises(ZeroDivisionError):
        exact_div(7, 0)


def test_exact_div_of_big_ints_raises_inexact_division():
    # str of an int past 4300 digits raises ValueError, which the CLI
    # reports as bad input; a broken division invariant on a big det must
    # still raise InexactDivisionError
    with pytest.raises(InexactDivisionError, match="^division is not exact$"):
        exact_div(10**5000 + 1, 10)


def test_exact_div_poly():
    # (q^3 - q^2) / q^2 = q - 1, by long division
    assert Poly((0, 0, -1, 1)).exact_div(Poly((0, 0, 1))) == Poly((-1, 1))
    assert Poly().exact_div(Poly((2, 1))) == Poly()
    with pytest.raises(InexactDivisionError):
        Poly((1, 1)).exact_div(Poly((0, 2)))
    with pytest.raises(InexactDivisionError):
        Poly((1,)).exact_div(Poly((0, 1)))
    with pytest.raises(ZeroDivisionError):
        Poly((1,)).exact_div(Poly())


def test_divmod_poly():
    # exact: (q^3 - q^2) = q^2 (q - 1), remainder zero
    assert divmod(Poly((0, 0, -1, 1)), Poly((0, 0, 1))) == (Poly((-1, 1)), Poly())
    # q^3 + 2q + 5 = (q - 1)(q^2 + q + 3) + 8
    assert divmod(Poly((5, 2, 0, 1)), Poly((-1, 1))) == (Poly((3, 1, 1)), Poly((8,)))
    # a dividend of lower degree is all remainder
    assert divmod(Poly((1,)), Poly((0, 1))) == (Poly(), Poly((1,)))
    assert divmod(Poly(), Poly((2, 1))) == (Poly(), Poly())
    with pytest.raises(InexactDivisionError, match="^division is not exact$"):
        divmod(Poly((1, 1)), Poly((0, 2)))
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1,)), Poly())
    with pytest.raises(TagMismatchError):
        divmod(Poly((4,)), 2)


def test_divmod_poly_is_long_division():
    # by a monic divisor every division succeeds: a = q b + r with
    # deg r < deg b, and the quotient is the one exact_div gives for a - r
    rng = random.Random("divmod-poly")
    for _ in range(300):
        a = _random_value(rng, "poly")
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [1])
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree
        assert (a - rem).exact_div(b) == quot


def test_tag_mixing_is_an_error():
    with pytest.raises(TagMismatchError):
        Poly((1,)) + 1
    with pytest.raises(TagMismatchError):
        Poly((1,)) - 1
    with pytest.raises(TagMismatchError):
        Poly((4,)).exact_div(2)
    with pytest.raises(TagMismatchError):
        Poly((1,)) * 1.5
    # multiplying by an int is scaling, not mixing
    assert Poly((1, 2)) * 3 == Poly((3, 6))


def test_poly_canonical_form():
    assert Poly((1, 0)) == Poly((1,))
    assert Poly((0, 0)) == Poly()
    assert not Poly() and Poly((0, 1))
    assert Poly((0, 1)).degree == 1
    assert Poly().degree == -1
    with pytest.raises(TypeError):
        Poly((1.5,))


def test_ring_axioms_on_random_triples():
    rng = random.Random("axioms-poly")
    for _ in range(500):
        x, y, z = (_random_value(rng, "poly") for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("tag", ["int", "poly"])
def test_exact_div_inverts_multiplication(tag):
    rng = random.Random(f"divs-{tag}")
    checked = 0
    while checked < 500:
        x = _random_value(rng, tag)
        y = _random_value(rng, tag)
        if not y:
            continue
        assert exact_div(x * y, y) == x
        checked += 1


def test_no_operation_leaves_trailing_zeros():
    rng = random.Random("trailing")
    for _ in range(300):
        x = _random_value(rng, "poly")
        y = _random_value(rng, "poly")
        for r in (x + y, x - y, x * y, -x, x * rng.randint(-3, 3)):
            assert not r.coeffs or r.coeffs[-1] != 0


def test_pow():
    q = Poly.variable()
    assert q**0 == Poly((1,))
    assert q**3 == Poly((0, 0, 0, 1))
    assert Poly((1, 1)) ** 2 == Poly((1, 2, 1))
    with pytest.raises(ValueError):
        q**-1


def test_scale_matches_repeated_addition():
    rng = random.Random("scale")
    for _ in range(150):
        x = _random_value(rng, "poly")
        k = rng.randint(0, 6)
        total = zero_like(x)
        for _ in range(k):
            total = total + x
        assert x * k == total
        assert x * -k == -total


def test_rendering():
    assert str(Poly((1, 0, -1, 1))) == "q^3 - q^2 + 1"
    assert str(Poly()) == "0"
    assert str(Poly((0, -2, 3))) == "3q^2 - 2q"
    assert str(Poly((-1,))) == "-1"
    assert str(Poly((0, 1))) == "q"
    # coefficients past the int-to-str digit limit still render
    big = 10**5000
    assert str(Poly((-big, 0, big))) == f"{decimal.Decimal(big)}q^2 - {decimal.Decimal(big)}"


def test_evaluate():
    # q^2 - 3q + 2 at q = 5
    assert Poly((2, -3, 1)).evaluate(5) == 12
    assert Poly().evaluate(3) == 0


def test_like_helpers():
    assert zero_like(7) == 0 and one_like(7) == 1
    assert zero_like(Poly((0, 5))) == Poly()
    assert one_like(Poly((0, 5))) == Poly((1,))
    for not_a_ring_value in (1.5, True):
        with pytest.raises(TypeError):
            zero_like(not_a_ring_value)


def test_ring_value_from_json():
    assert type(ring_value_from_json(5)) is int and ring_value_from_json(5) == 5
    assert ring_value_from_json([1, 2]) == Poly((1, 2))
    with pytest.raises(ValueError):
        ring_value_from_json(True)
    for bad in ("q", [True, 1], [1, "a"], [1.0]):
        with pytest.raises(ValueError):
            ring_value_from_json(bad)


def test_interpolate_round_trips_random_polynomials():
    rng = random.Random("interpolate")
    for _ in range(40):
        p = Poly([rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 21))])
        count = rng.randint(p.degree + 1, p.degree + 4)
        xs = rng.sample(range(-30, 31), count)
        assert Poly.interpolate(xs, [p.evaluate(x) for x in xs]) == p


def test_interpolate_small_cases():
    assert Poly.interpolate([], []) == Poly()
    assert Poly.interpolate([5], [7]) == Poly.const(7)
    # q^2 through 0, 1, -1
    assert Poly.interpolate([0, 1, -1], [0, 1, 1]) == Poly.monomial(2)


def test_interpolate_rejects_bad_nodes():
    with pytest.raises(ValueError):
        Poly.interpolate([0, 1, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        Poly.interpolate([0, 1, 2], [0, 1])
    with pytest.raises(TypeError):
        Poly.interpolate([0, 1], [0, 0.5])


def test_interpolate_inexact_divided_difference():
    # the unique quadratic through these points is q(q - 1)/2, not in Z[q]
    with pytest.raises(InexactDivisionError):
        Poly.interpolate([0, 1, 2], [0, 0, 1])
