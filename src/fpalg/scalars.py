"""Exact arithmetic in Q(t1,...,tk) and a supported class of its automorphisms.

A scalar is a quotient of two integer-coefficient multivariate polynomials in
the transcendental generators t1,...,tk, kept in a canonical reduced form:
gcd(numerator, denominator) = 1 over Z[t1,...,tk] and the denominator has
positive leading coefficient under graded-lex order with t1 < t2 < ... < tk.
Equal field elements therefore always have identical representations.
A part (numerator or denominator) is held as a plain Python int exactly when
it is a constant, in every field, and as a ZPoly (zpoly.py: a sparse dict
from exponent tuple to int) otherwise.  Over Q (k = 0) both parts are always
ints reduced with math.gcd; over Q(t1..tk) the matrix-unit and commutation
coefficients +-1 stay ints too, a polynomial part meets an int one through
math.gcd on its content, and two polynomial parts meet through
ZPoly.cofactors (the heuristic gcd GCDHEU with an exact pseudo-remainder
fallback).  Everything here uses the standard library only.

Automorphisms are restricted to the invertible coefficient-field maps
generated by generator permutations and per-generator affine maps
t_i -> a*t_i + b with a != 0.  This class is closed under composition; every
element has the shape t_i -> a_i * t_{pi(i)} + b_i for a permutation pi, and
its inverse is stored explicitly.  apply_automorphism substitutes the images
over the integers: it multiplies numerator and denominator by one integer
that clears every denominator of the a_i and b_i, and Scalar._make reduces
the pair to its canonical form.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from .zpoly import ZPoly


class MismatchError(ValueError):
    """Raised when operands live over different coefficient fields."""


class DegreeBudgetError(ValueError):
    """A verification could not be completed within the degree bound."""


_set = object.__setattr__


class _Record:
    """Base of fpalg's immutable records.

    A subclass names the fields its repr shows in _fields and, when fewer,
    the ones equality and hashing read in _compared; its __init__ stores
    each field with _set, because assignment raises AttributeError.
    """

    __slots__ = ()
    _compared = None

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*(cls._compared or cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FieldSpec(_Record):
    """The coefficient field Q(t1,...,tk); k = 0 means plain Q."""

    __slots__ = _fields = ("num_generators",)

    def __init__(self, num_generators=0):
        if num_generators < 0:
            raise ValueError("number of transcendental generators must be >= 0")
        _set(self, "num_generators", num_generators)

    def generator_names(self):
        return tuple(f"t{i + 1}" for i in range(self.num_generators))

    def __str__(self):
        if self.num_generators == 0:
            return "Q"
        return "Q(" + ",".join(self.generator_names()) + ")"


def _grlex_key(monomial):
    # graded-lex with t1 < t2 < ... < tk: higher-index generators dominate ties
    return (sum(monomial), tuple(reversed(monomial)))


def _leading_coeff(poly):
    if poly.ngens == 1:  # grlex on one generator is exponent order
        return poly[max(poly)]
    return poly[max(poly.keys(), key=_grlex_key)]


def _monomial_text(monomial, coeff):
    parts = []
    for i, e in enumerate(monomial):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    if not parts:
        return str(coeff)
    return term_text(coeff, "*".join(parts))


def term_text(coeff, body):
    """Text of coeff * body: an integer coefficient is written bare, with +-1
    as a sign only; any other coefficient goes in parentheses."""
    n = coeff if type(coeff) is int else coeff.as_integer()
    if n == 1:
        return body
    if n == -1:
        return "-" + body
    if n is not None:
        return f"{n}*{body}"
    return f"({coeff})*{body}"


def signed_sum_text(pieces):
    """Join term texts into a sum; a leading minus becomes the operator.
    The empty sum is "0"."""
    if not pieces:
        return "0"
    text = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            text += " - " + piece[1:]
        else:
            text += " + " + piece
    return text


def _poly_text(poly):
    if type(poly) is int:
        return str(poly)
    return signed_sum_text([
        _monomial_text(monomial, poly[monomial])
        for monomial in sorted(poly.keys(), key=_grlex_key, reverse=True)
    ])


def _hash_terms(part, k):
    # the (monomial, int coefficient) pairs of a numerator or denominator;
    # an int part is the constant polynomial on the zero monomial
    if type(part) is int:
        return (((0,) * k, part),) if part else ()
    return tuple(sorted(part.items()))


def _demote(part):
    """A constant polynomial as its int value; others unchanged."""
    if len(part) > 1:
        return part
    if not part:
        return 0
    ((monomial, coeff),) = part.items()
    return part if any(monomial) else coeff


class Scalar:
    """An element of Q(t1,...,tk) in canonical reduced form.

    Numerator and denominator are Python ints exactly when constant and
    ZPolys otherwise, for every k; every method below relies on that form,
    which _make builds.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field, num, den):
        # internal constructor; use the classmethods or arithmetic instead
        self.field = field
        self._num = num
        self._den = den

    # -- construction -----------------------------------------------------

    @classmethod
    def _make(cls, field, num, den):
        if den == 1:
            # already canonical: gcd(num, 1) = 1 and the sign is positive
            return cls(field, num if type(num) is int else _demote(num), 1)
        if type(num) is not int:
            num = _demote(num)
        if type(den) is not int:
            den = _demote(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls(field, 0, 1)
        # a constant part shares only the content of the other part
        if type(den) is int:
            if type(num) is int:
                g = math.gcd(num, den)
                if den < 0:
                    g = -g
                return cls(field, num // g, den // g)
            g = math.gcd(den, *num.values())
            if den < 0:
                g = -g
            return cls(field, num.quo_ground(g), den // g)
        if type(num) is int:
            g = math.gcd(num, *den.values())
            if _leading_coeff(den) < 0:
                g = -g
            return cls(field, num // g, den.quo_ground(g))
        _, num, den = num.cofactors(den)
        if _leading_coeff(den) < 0:
            num, den = -num, -den
        return cls(field, _demote(num), _demote(den))

    @classmethod
    def from_int(cls, field, value):
        return cls(field, operator.index(value), 1)

    @classmethod
    def from_fraction(cls, field, value):
        value = Fraction(value)
        return cls(field, value.numerator, value.denominator)

    @classmethod
    def generator(cls, field, index):
        if not 0 <= index < field.num_generators:
            raise ValueError(f"generator index {index} outside {field}")
        k = field.num_generators
        exponents = tuple(int(i == index) for i in range(k))
        return cls(field, ZPoly(k, {exponents: 1}), 1)

    @classmethod
    def zero(cls, field):
        return cls.from_int(field, 0)

    @classmethod
    def one(cls, field):
        return cls.from_int(field, 1)

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self._num)

    def is_zero(self):
        return not self._num

    def is_one(self):
        return self._den == 1 and self._num == 1

    def as_integer(self):
        """The value as a Python int when it is an integer constant, else None."""
        if self._den != 1 or type(self._num) is not int:
            return None
        return self._num

    def as_fraction(self):
        """The value as a Fraction when constant, else None."""
        if type(self._num) is not int or type(self._den) is not int:
            return None
        return Fraction(self._num, self._den)

    def _polys(self):
        return [p for p in (self._num, self._den) if type(p) is not int]

    def support_traversal(self):
        """Generator indices in canonical visit order: numerator before
        denominator, monomials in descending graded-lex order, variables
        within a monomial by descending exponent then ascending index."""
        for poly in self._polys():
            for monomial in sorted(poly.keys(), key=_grlex_key, reverse=True):
                idxs = [i for i, e in enumerate(monomial) if e]
                idxs.sort(key=lambda i: (-monomial[i], i))
                yield from idxs

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        # operands mostly share one FieldSpec object; `is` spares __eq__
        if other.field is not self.field and other.field != self.field:
            raise MismatchError(f"field mismatch: {self.field} vs {other.field}")

    def _reciprocal(self):
        """1 / self without a gcd: a canonical pair is coprime, so swapping
        it only needs the sign moved onto the new numerator."""
        num, den = self._num, self._den
        if not num:
            raise ZeroDivisionError("division by zero scalar")
        if (num if type(num) is int else _leading_coeff(num)) < 0:
            num, den = -num, -den
        return Scalar(self.field, den, num)

    def __add__(self, other):
        self._check(other)
        return Scalar._make(
            self.field,
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    def __sub__(self, other):
        self._check(other)
        return Scalar._make(
            self.field,
            self._num * other._den - other._num * self._den,
            self._den * other._den,
        )

    def __mul__(self, other):
        self._check(other)
        return Scalar._make(self.field, self._num * other._num, self._den * other._den)

    def __truediv__(self, other):
        self._check(other)
        if not other._num:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar._make(self.field, self._num * other._den, self._den * other._num)

    def __neg__(self):
        return Scalar(self.field, -self._num, self._den)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return Scalar.one(self.field) / self ** (-exponent)
        return Scalar._make(self.field, self._num ** exponent, self._den ** exponent)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.field == other.field
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        k = self.field.num_generators
        return hash((self.field, _hash_terms(self._num, k), _hash_terms(self._den, k)))

    # -- text ----------------------------------------------------------------

    def __str__(self):
        if self._den == 1:
            return _poly_text(self._num)
        return f"({_poly_text(self._num)})/({_poly_text(self._den)})"

    def __repr__(self):
        return f"Scalar({self}, {self.field})"


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


class FieldAutomorphism(_Record):
    """An invertible map of Q(t1,...,tk) from the supported class.

    ``forward[i] = (j, a, b)`` records the image t_i -> a*t_j + b with a != 0
    and i -> j a permutation; ``backward`` is the explicit inverse in the same
    shape.  Compositions of generator permutations and per-generator affine
    maps all normalize to this form.
    """

    # no __slots__: cached_property keeps its values in the instance __dict__
    _fields = ("field", "forward", "backward")

    def __init__(self, field, forward, backward):
        _set(self, "field", field)
        _set(self, "forward", forward)
        _set(self, "backward", backward)

    # Read once per automorphism, at its first application: most that are
    # built are steps of a composition and never applied.
    @cached_property
    def fixes_all(self):
        """Whether every generator is its own image."""
        return all(j == i and a == 1 and b == 0 for i, (j, a, b) in enumerate(self.forward))

    @cached_property
    def int_images(self):
        """The forward images as integer parts (j, an, ad, bn, bd), with
        a = an/ad and b = bn/bd."""
        return tuple(
            (j, a.numerator, a.denominator, b.numerator, b.denominator)
            for (j, a, b) in self.forward
        )

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, field):
        images = tuple((i, Fraction(1), Fraction(0)) for i in range(field.num_generators))
        return cls(field, images, images)

    @classmethod
    def from_images(cls, field, images):
        """Build from forward images [(target, a, b), ...], one per generator."""
        k = field.num_generators
        images = tuple((j, Fraction(a), Fraction(b)) for (j, a, b) in images)
        if len(images) != k:
            raise ValueError(f"need {k} images, got {len(images)}")
        targets = [j for (j, _, _) in images]
        if sorted(targets) != list(range(k)):
            raise ValueError("generator targets do not form a permutation")
        for (_, a, _) in images:
            if a == 0:
                raise ValueError("scale a = 0 is not invertible")
        backward = [None] * k
        for i, (j, a, b) in enumerate(images):
            backward[j] = (i, 1 / a, -b / a)
        return cls(field, images, tuple(backward))

    @classmethod
    def permutation(cls, field, targets):
        """The automorphism t_i -> t_{targets[i]}."""
        return cls.from_images(
            field, [(j, Fraction(1), Fraction(0)) for j in targets]
        )

    @classmethod
    def affine(cls, field, index, a, b):
        """The automorphism fixing all generators except t_index -> a*t_index + b."""
        images = [(i, Fraction(1), Fraction(0)) for i in range(field.num_generators)]
        images[index] = (index, Fraction(a), Fraction(b))
        return cls.from_images(field, images)

    # -- queries -----------------------------------------------------------

    def is_identity(self):
        return self.fixes_all

    # -- action ------------------------------------------------------------

    def __call__(self, scalar):
        return apply_automorphism(self, scalar)

    def __str__(self):
        clauses = []
        for i, (j, a, b) in enumerate(self.forward):
            if j == i and a == 1 and b == 0:
                continue
            clauses.append(f"t{i + 1} -> {_affine_text(j, a, b)}")
        if not clauses:
            return "identity"
        return ", ".join(clauses)


def _fraction_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

def _affine_text(j, a, b):
    if a == 1:
        head = f"t{j + 1}"
    elif a == -1:
        head = f"-t{j + 1}"
    else:
        head = f"{_fraction_text(a)}*t{j + 1}"
    if b == 0:
        return head
    if b > 0:
        return f"{head} + {_fraction_text(b)}"
    return f"{head} - {_fraction_text(-b)}"


def apply_automorphism(sigma, a):
    """Apply sigma to a scalar by substituting its generator images.

    The substitution runs over the integers.  With t_i -> a*t_j + b, a =
    an/ad and b = bn/bd, let top_i be the largest exponent of t_i over the
    numerator and the denominator.  A monomial's factor t_i^e becomes
    (a*t_j + b)^e * (ad*bd)^top_i, whose coefficients are ints; so both
    parts are multiplied by the same integer prod_i (ad*bd)^top_i, the
    quotient is unchanged, and Scalar._make gives its one canonical pair.
    """
    if not isinstance(a, Scalar):
        raise TypeError("apply_automorphism expects a Scalar")
    if sigma.field != a.field:
        raise MismatchError(f"field mismatch: {sigma.field} vs {a.field}")
    k = sigma.field.num_generators
    if (type(a._num) is int and type(a._den) is int) or sigma.fixes_all:
        return a  # constants are fixed by every automorphism
    top = [0] * k
    for part in a._polys():
        for monomial in part:
            for i, e in enumerate(monomial):
                if e > top[i]:
                    top[i] = e
    images = sigma.int_images
    pads = [(ad * bd) ** e for (_, _, ad, _, bd), e in zip(images, top)]

    def expansion(i, e):
        # (a*t_j + b)^e * (ad*bd)^top_i as [(m, int coefficient of t_j^m)]
        _, an, ad, bn, bd = images[i]
        pad = (ad * bd) ** (top[i] - e)
        return [
            (m, math.comb(e, m) * an ** m * bn ** (e - m) * ad ** (e - m) * bd ** m * pad)
            for m in range(e + 1)
            if bn or m == e
        ]

    def substitute(part):
        if type(part) is int:
            return part * math.prod(pads)
        out = {}
        for monomial, coeff in part.items():
            # the j are distinct, so the image of the monomial is a product
            # of binomial expansions in separate generators
            factors = []
            for i, e in enumerate(monomial):
                if e:
                    factors.append((images[i][0], expansion(i, e)))
                else:
                    coeff *= pads[i]
            terms = [([0] * k, coeff)]
            for j, factor in factors:
                grown = []
                for exponents, c in terms:
                    for m, cm in factor:
                        image = exponents.copy()
                        image[j] = m
                        grown.append((image, c * cm))
                terms = grown
            for exponents, c in terms:
                key = tuple(exponents)
                out[key] = out.get(key, 0) + c
        return ZPoly(k, {m: c for m, c in out.items() if c})

    return Scalar._make(a.field, substitute(a._num), substitute(a._den))


def compose(sigma, tau):
    """The automorphism a -> sigma(tau(a))."""
    if sigma.field != tau.field:
        raise MismatchError(f"field mismatch: {sigma.field} vs {tau.field}")
    forward = []
    for (j, a, b) in tau.forward:
        (j2, c, d) = sigma.forward[j]
        forward.append((j2, a * c, a * d + b))
    return FieldAutomorphism.from_images(sigma.field, forward)


def invert(sigma):
    """The inverse automorphism; forward and backward swap roles."""
    return FieldAutomorphism(sigma.field, sigma.backward, sigma.forward)
