"""Exact ring values: Python integers and integer polynomials in q.

Integers are plain ``int``; ``Poly`` is the only ring class.  A Poly
combines only with another Poly, apart from scaling by an int: adding an
int to a Poly raises TagMismatchError instead of silently coercing, so
determinant identities stay exact.
"""

from __future__ import annotations


class TagMismatchError(TypeError):
    """An integer and a polynomial were combined."""


class InexactDivisionError(ArithmeticError):
    """An exact division left a remainder.

    Inside fraction-free elimination this signals a broken invariant, not
    bad user input.
    """


def exact_div(a: RingValue, b: RingValue) -> RingValue:
    """a / b when b divides a, for two ints or two Polys (divmod is
    Poly.__divmod__ on the latter); InexactDivisionError otherwise.  The
    message names no operand: str of an int past 4300 digits raises."""
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError("division is not exact")
    return q


def ring_text(v: RingValue) -> str:
    """str(v) for an int or Poly of any size.  str of an int raises
    ValueError past sys.get_int_max_str_digits() (4300 digits by default);
    Decimal gives the same text with no limit and no global state, at
    twice the cost, and Poly.__str__ renders its coefficients here."""
    try:
        return str(v)
    except ValueError:
        # Imported here: only values past the digit limit need decimal,
        # and importing it costs about as much as building the CLI parser.
        from decimal import Decimal

        return str(Decimal(v))


def _require_poly(other) -> None:
    if type(other) is not Poly:
        raise TagMismatchError(f"cannot combine Poly with {type(other).__name__}")


class Poly:
    """Univariate polynomial in q over the integers.

    Coefficients are stored ascending by degree with no trailing zeros;
    the empty tuple is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("Poly coefficients must be Python ints")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> Poly:
        return cls((c,))

    @classmethod
    def variable(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int) -> Poly:
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls((0,) * power + (1,))

    @classmethod
    def interpolate(cls, xs, ys) -> Poly:
        """The polynomial of degree below len(xs) taking the value ys[i] at
        xs[i], by Newton divided differences.

        The nodes and values must be ints.  Every divided difference of an
        integer polynomial at integer nodes is an integer, so each division
        must be exact.  Each divides with the builtin divmod, as in
        det_bareiss's entry loop; a nonzero remainder goes on to
        exact_div, which raises InexactDivisionError: the data do not
        come from a polynomial in Z[q] of that degree.
        """
        xs, diffs = list(xs), list(ys)
        if len(xs) != len(diffs):
            raise ValueError("need as many values as nodes")
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation nodes must be distinct")
        if not all(type(v) is int for v in xs + diffs):
            raise TypeError("interpolation nodes and values must be ints")
        for j in range(1, len(xs)):
            for i in range(len(xs) - 1, j - 1, -1):
                step = xs[i] - xs[i - j]
                diffs[i], r = divmod(diffs[i] - diffs[i - 1], step)
                if r:
                    exact_div(r, step)
        # Horner on the Newton form d0 + (q - x0)(d1 + (q - x1)(d2 + ...)).
        out: list[int] = []
        for x, d in zip(reversed(xs), reversed(diffs)):
            out.insert(0, 0)
            for i in range(len(out) - 1):
                out[i] -= x * out[i + 1]
            out[0] += d
        return cls(out)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: Poly) -> Poly:
        _require_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        _require_poly(other)
        return self + -other

    def __mul__(self, other: Poly | int) -> Poly:
        """Product with another Poly, or scaling by an int."""
        if type(other) is int:
            return Poly(tuple(c * other for c in self.coeffs))
        _require_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return Poly(out)

    def __pow__(self, exponent: int) -> Poly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly((1,))
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder of long division in Z[q]; the remainder
        has degree below other's.  Each quotient coefficient divides by
        other's leading coefficient through exact_div, so one that does
        not divide raises InexactDivisionError."""
        _require_poly(other)
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        lead = b[-1]
        width = len(b)
        # empty when self has the lower degree: then all of it is remainder
        quot = [0] * (len(rem) - width + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + width - 1]
            if c == 0:
                continue
            quot[k] = t = exact_div(c, lead)
            for j, bj in enumerate(b):
                rem[k + j] -= t * bj
        # the loop cancelled every coefficient from other's degree up
        return Poly(quot), Poly(rem[: width - 1])

    def exact_div(self, other: Poly) -> Poly:
        """exact_div(self, other): the quotient when it is exact in Z[q]."""
        return exact_div(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __str__(self) -> str:
        """Render with descending powers, e.g. "q^3 - q^2 + 1"."""
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            digits = "" if mag == 1 and power else ring_text(mag)
            if power == 0:
                body = digits
            elif power == 1:
                body = f"{digits}q"
            else:
                body = f"{digits}q^{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


RingValue = int | Poly


def ring_value_from_json(v) -> RingValue:
    """Ring value from its file-format form: an integer, or an ascending
    coefficient list of integers for a polynomial (a bool is no integer)."""
    if type(v) is int:
        return v
    if isinstance(v, list) and all(type(c) is int for c in v):
        return Poly(v)
    raise ValueError(f"cannot read a ring value from {v!r}")


def zero_like(x: RingValue) -> RingValue:
    """Additive identity of x's ring."""
    if type(x) is int:
        return 0
    if type(x) is Poly:
        return Poly()
    raise TypeError(f"not a ring value: {type(x).__name__}")


def one_like(x: RingValue) -> RingValue:
    """Multiplicative identity of x's ring."""
    if type(x) is int:
        return 1
    if type(x) is Poly:
        return Poly((1,))
    raise TypeError(f"not a ring value: {type(x).__name__}")
