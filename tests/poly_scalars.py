"""Reference scalar arithmetic on polynomial parts only.

This is how fpalg canonicalised a quotient before constants were held as
ints: both parts are sympy integer polynomials in every field, the gcd is
taken with PolyElement.gcd and divided out with two exquo calls, and the
denominator's graded-lex leading coefficient is made positive.  The
differential tests hold Scalar to exactly these values, strings and hashes.
numerator() and denominator() give a Scalar's parts in the same form.
"""

import math
from functools import lru_cache

from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring

from fpalg.scalars import _grlex_key, _poly_text


@lru_cache(maxsize=None)
def int_ring(k):
    """ZZ[t1..tk], the ring of the reference parts."""
    return ring(" ".join(f"t{i + 1}" for i in range(k)), ZZ)[0]


@lru_cache(maxsize=None)
def _rat_ring(k):
    return ring(" ".join(f"t{i + 1}" for i in range(k)), QQ)[0]


def ring_element(part, k):
    """A Scalar part, an int or a ZPoly, as an element of int_ring(k)."""
    R = int_ring(k)
    return R(part) if type(part) is int else R.from_dict(part)


def numerator(scalar):
    """The canonical numerator of a Scalar as an int_ring element."""
    return ring_element(scalar._num, scalar.field.num_generators)


def denominator(scalar):
    """The canonical denominator of a Scalar as an int_ring element."""
    return ring_element(scalar._den, scalar.field.num_generators)


def _leading_coeff(poly):
    return poly[max(poly.keys(), key=_grlex_key)]


class PolyScalar:
    """A canonical (numerator, denominator) pair of ring elements."""

    def __init__(self, field, num, den):
        R = int_ring(field.num_generators)
        num, den = R(num), R(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = R.zero, R.one
        else:
            g = num.gcd(den)
            num, den = num.exquo(g), den.exquo(g)
            if _leading_coeff(den) < 0:
                num, den = -num, -den
        self.field, self.num, self.den = field, num, den

    @classmethod
    def of(cls, scalar):
        return cls(scalar.field, numerator(scalar), denominator(scalar))

    def __add__(self, other):
        return PolyScalar(
            self.field, self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return PolyScalar(
            self.field, self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        return PolyScalar(self.field, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero scalar")
        return PolyScalar(self.field, self.num * other.den, self.den * other.num)

    def __pow__(self, exponent):
        if exponent == 0:
            return PolyScalar(self.field, 1, 1)  # 0^0 = 1, as over Q
        if exponent < 0:
            return PolyScalar(self.field, self.den ** -exponent, self.num ** -exponent)
        return PolyScalar(self.field, self.num ** exponent, self.den ** exponent)

    def apply(self, sigma):
        """sigma applied by substituting affine images into both parts."""
        Rq = _rat_ring(self.field.num_generators)
        images = [
            Rq.gens[j] * QQ(a.numerator, a.denominator) + QQ(b.numerator, b.denominator)
            for (j, a, b) in sigma.forward
        ]

        def substitute(poly):
            acc = Rq.zero
            for monomial, coeff in poly.items():
                term = Rq(int(coeff))
                for i, e in enumerate(monomial):
                    term = term * images[i] ** e
                acc += term
            return acc

        num_q, den_q = substitute(self.num), substitute(self.den)
        common = 1
        for poly in (num_q, den_q):
            for coeff in poly.values():
                common = math.lcm(common, int(coeff.denominator))
        R = int_ring(self.field.num_generators)
        return PolyScalar(
            self.field,
            R.from_dict({m: int(c * common) for m, c in num_q.items()}),
            R.from_dict({m: int(c * common) for m, c in den_q.items()}),
        )

    def text(self):
        if self.den == 1:
            return _poly_text(self.num)
        return f"({_poly_text(self.num)})/({_poly_text(self.den)})"

    def hash_value(self):
        return hash(
            (
                self.field,
                tuple(sorted((m, int(c)) for m, c in self.num.items())),
                tuple(sorted((m, int(c)) for m, c in self.den.items())),
            )
        )
