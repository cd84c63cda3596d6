"""Words and noncommutative polynomials of the free associative algebra.

Words are tuples of 0-based generator indices; the empty tuple is the unit
word.  The term order everywhere is deglex with x1 > x2 > ... > xm: longer
words are greater, ties are broken left-to-right with lower index greater.
Polynomials are finitely supported maps word -> Scalar with no stored zero
coefficients; all values are immutable.
"""

from __future__ import annotations

from .scalars import MismatchError, Scalar, signed_sum_text, term_text


def deglex_key(word):
    """Sort key that is ascending in deglex order (smallest word first)."""
    return (len(word), tuple(-g for g in word))


def descending_key(word):
    """Sort key whose ascending order is descending deglex (largest first)."""
    return (-len(word), word)


def find_factor(word, factor):
    """Index of the leftmost occurrence of factor inside word, or -1.

    The unit word occurs at position 0 of every word.
    """
    n, f = len(word), len(factor)
    for i in range(n - f + 1):
        if word[i : i + f] == factor:
            return i
    return -1


class NCPoly:
    """A noncommutative polynomial over F<x1,...,xm> with Scalar coefficients."""

    __slots__ = ("field", "num_gens", "_terms")

    def __init__(self, field, num_gens, terms):
        self.field = field
        self.num_gens = num_gens
        self._terms = terms

    # -- construction -----------------------------------------------------

    @classmethod
    def _make(cls, field, num_gens, terms):
        return cls(field, num_gens, {w: c for w, c in terms.items() if c})

    @classmethod
    def zero(cls, field, num_gens):
        return cls(field, num_gens, {})

    @classmethod
    def one(cls, field, num_gens):
        return cls(field, num_gens, {(): Scalar.one(field)})

    @classmethod
    def gen(cls, field, num_gens, index):
        if not 0 <= index < num_gens:
            raise ValueError(f"generator index {index} out of range")
        return cls(field, num_gens, {(index,): Scalar.one(field)})

    @classmethod
    def monomial(cls, field, num_gens, word, coeff=None):
        if any(not 0 <= g < num_gens for g in word):
            raise ValueError(f"word {word} has indices outside 0..{num_gens - 1}")
        if coeff is None:
            coeff = Scalar.one(field)
        return cls._make(field, num_gens, {tuple(word): coeff})

    @classmethod
    def from_terms(cls, field, num_gens, pairs):
        acc = {}
        for word, coeff in pairs:
            word = tuple(word)
            if any(not 0 <= g < num_gens for g in word):
                raise ValueError(f"word {word} has indices outside 0..{num_gens - 1}")
            acc[word] = acc[word] + coeff if word in acc else coeff
        return cls._make(field, num_gens, acc)

    # -- queries -----------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Term list in strictly descending deglex order."""
        return tuple(sorted(self._terms.items(), key=lambda kv: descending_key(kv[0])))

    def support(self):
        return tuple(w for w, _ in self.terms())

    def coefficient(self, word):
        return self._terms.get(tuple(word), Scalar.zero(self.field))

    def degree(self):
        """Max word length; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(len(w) for w in self._terms)

    def is_homogeneous(self):
        degrees = {len(w) for w in self._terms}
        return len(degrees) <= 1

    def leading_word(self):
        if not self._terms:
            raise ValueError("zero polynomial has no leading word")
        return min(self._terms, key=descending_key)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.num_gens == other.num_gens
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.field, self.num_gens, self.terms()))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, NCPoly):
            raise TypeError(f"expected NCPoly, got {type(other).__name__}")
        if other.field != self.field or other.num_gens != self.num_gens:
            raise MismatchError("polynomials over different contexts")

    def __add__(self, other):
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc[w] + c if w in acc else c
        return NCPoly._make(self.field, self.num_gens, acc)

    def __sub__(self, other):
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc[w] - c if w in acc else -c
        return NCPoly._make(self.field, self.num_gens, acc)

    def __neg__(self):
        return NCPoly(self.field, self.num_gens, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        self._check(other)
        acc = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                acc[w] = acc[w] + c if w in acc else c
        return NCPoly._make(self.field, self.num_gens, acc)

    def scale(self, scalar):
        if not isinstance(scalar, Scalar):
            raise TypeError("scale expects a Scalar")
        if scalar.field != self.field:
            raise MismatchError("scalar over a different field")
        if not scalar:
            return NCPoly.zero(self.field, self.num_gens)
        return NCPoly._make(
            self.field, self.num_gens, {w: c * scalar for w, c in self._terms.items()}
        )

    def monic(self):
        """Divide by the leading coefficient.

        The lead is written as one, and only the tail terms are multiplied
        by its inverse: the lead's canonical pair swapped, with no gcd.
        Each tail product is still reduced by Scalar, and the terms keep
        their order.
        """
        lw = self.leading_word()
        lead = self._terms[lw]
        if lead.is_one():
            return self
        inv = lead._reciprocal()
        one = Scalar.one(self.field)
        return NCPoly(
            self.field,
            self.num_gens,
            {w: one if w == lw else c * inv for w, c in self._terms.items()},
        )

    def mul_word(self, left, right):
        """a * f * b for words a, b."""
        left, right = tuple(left), tuple(right)
        return NCPoly(
            self.field,
            self.num_gens,
            {left + w + right: c for w, c in self._terms.items()},
        )

    # -- structural operations ----------------------------------------------

    def substitute(self, images):
        """Evaluate the ring homomorphism x_i -> images[i]."""
        if len(images) != self.num_gens:
            raise ValueError(
                f"need {self.num_gens} images, got {len(images)}"
            )
        if not images:
            target_field, target_gens = self.field, self.num_gens
        else:
            target_field, target_gens = images[0].field, images[0].num_gens
        for img in images:
            if img.field != target_field or img.num_gens != target_gens:
                raise MismatchError("images over different contexts")
        if target_field != self.field:
            raise MismatchError("images over a different coefficient field")
        result = NCPoly.zero(target_field, target_gens)
        for word, coeff in self._terms.items():
            term = NCPoly.one(target_field, target_gens)
            for g in word:
                term = term * images[g]
            result = result + term.scale(coeff)
        return result

    def map_coefficients(self, sigma):
        """Replace every coefficient by its image under sigma."""
        if sigma.field != self.field:
            raise MismatchError(f"field mismatch: {sigma.field} vs {self.field}")
        return NCPoly._make(
            self.field, self.num_gens, {w: sigma(c) for w, c in self._terms.items()}
        )

    # -- text ----------------------------------------------------------------

    def to_text(self, names=None):
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(self.num_gens))
        pieces = []
        for word, coeff in self.terms():
            if word:
                pieces.append(term_text(coeff, "*".join(names[g] for g in word)))
            else:
                n = coeff.as_integer()
                pieces.append(str(n) if n is not None else f"({coeff})")
        return signed_sum_text(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"NCPoly({self})"
