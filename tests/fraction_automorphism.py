"""The Fraction substitution that scalars.apply_automorphism replaced.

Each generator image t_i -> a*t_j + b is substituted with Fraction
coefficients, and the two parts are cleared of denominators with the lcm of
all of them.  The test reference for the integer substitution in scalars.py.
"""

import math
from fractions import Fraction

from fpalg.scalars import MismatchError, Scalar
from fpalg.zpoly import ZPoly


def fraction_apply_automorphism(sigma, a):
    """apply_automorphism by Fraction substitution and lcm clearing."""
    if not isinstance(a, Scalar):
        raise TypeError("apply_automorphism expects a Scalar")
    if sigma.field != a.field:
        raise MismatchError(f"field mismatch: {sigma.field} vs {a.field}")
    k = sigma.field.num_generators
    if (type(a._num) is int and type(a._den) is int) or sigma.is_identity():
        return a  # constants are fixed by every automorphism
    num = _substitute(a._num, sigma.forward, k)
    den = _substitute(a._den, sigma.forward, k)
    common = math.lcm(*(c.denominator for part in (num, den) for c in part.values()))
    return Scalar._make(
        a.field,
        ZPoly(k, {m: int(c * common) for m, c in num.items()}),
        ZPoly(k, {m: int(c * common) for m, c in den.items()}),
    )


def _substitute(part, forward, k):
    """part with t_i -> a*t_j + b for each forward image (i, (j, a, b)), as a
    dict from exponent tuple to nonzero Fraction."""
    if type(part) is int:
        return {(0,) * k: Fraction(part)}
    out = {}
    for monomial, coeff in part.items():
        # the j are distinct, so the image of the monomial is a product of
        # binomial expansions in separate generators
        terms = [([0] * k, Fraction(coeff))]
        for i, e in enumerate(monomial):
            if not e:
                continue
            j, a, b = forward[i]
            expansion = [
                (m, math.comb(e, m) * a ** m * b ** (e - m))
                for m in range(e + 1)
                if b or m == e
            ]
            grown = []
            for exponents, c in terms:
                for m, cm in expansion:
                    image = exponents.copy()
                    image[j] = m
                    grown.append((image, c * cm))
            terms = grown
        for exponents, c in terms:
            key = tuple(exponents)
            out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}
