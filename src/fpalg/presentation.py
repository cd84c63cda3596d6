"""Finitely presented algebra descriptions and coefficient-field descent.

A presentation is a generator list plus an ordered list of nonzero relations
over one coefficient field.  Identity of presentations is syntactic: the
relation order and the exact written form of every relation are part of the
value.  Twisting by a field automorphism rewrites each relation coefficient
through the inverse map and leaves the words untouched; canonical descent
renames the transcendentals that actually occur onto t1,...,tr.
"""

from __future__ import annotations

import re

from .freealg import NCPoly
from .scalars import FieldAutomorphism, MismatchError, _Record, _set
from .scalars import invert as invert_automorphism

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
RESERVED_WORDS = frozenset({"algebra", "over", "generators", "relations", "Q", "identity"})
_TVAR_RE = re.compile(r"^t[0-9]*$")


def _check_generator_name(name):
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid generator name {name!r}")
    if name in RESERVED_WORDS:
        raise ValueError(f"generator name {name!r} is a reserved word")
    if _TVAR_RE.match(name):
        raise ValueError(
            f"generator name {name!r} collides with transcendental names"
        )


class Presentation(_Record):
    """Generators, relations and a coefficient field; equality is syntactic.

    The display name is metadata and does not take part in equality.
    """

    __slots__ = _fields = ("field", "generators", "relations", "name")
    _compared = _fields[:3]

    def __init__(self, field, generators, relations, name="A"):
        generators = tuple(generators)
        relations = tuple(relations)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        for g in generators:
            _check_generator_name(g)
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid algebra name {name!r}")
        m = len(generators)
        for rel in relations:
            if not isinstance(rel, NCPoly):
                raise TypeError("relations must be NCPoly values")
            if rel.is_zero():
                raise ValueError("zero relation is not storable")
            if rel.field != field or rel.num_gens != m:
                raise MismatchError("relation over a different context")
        _set(self, "field", field)
        _set(self, "generators", generators)
        _set(self, "relations", relations)
        _set(self, "name", name)

    @property
    def num_gens(self):
        return len(self.generators)

    def max_relation_degree(self):
        return max((r.degree() for r in self.relations), default=0)

    def is_homogeneous(self):
        return all(r.is_homogeneous() for r in self.relations)

    def __str__(self):
        from .syntax import presentation_to_text

        return presentation_to_text(self)


def twist(P, sigma):
    """The same generators and words with every coefficient sent through
    the inverse of sigma."""
    if sigma.field != P.field:
        raise MismatchError(f"field mismatch: {sigma.field} vs {P.field}")
    inv = invert_automorphism(sigma)
    rels = tuple(r.map_coefficients(inv) for r in P.relations)
    return Presentation(P.field, P.generators, rels, name=P.name)


def transcendental_support(P):
    """Ordered tuple of 0-based field-generator indices occurring in P.

    First-occurrence order under the canonical traversal: relations in list
    order, terms in descending deglex order, numerator before denominator,
    coefficient monomials in descending graded-lex order, variables within a
    monomial by descending exponent then ascending index.
    """
    seen = []
    present = set()
    for rel in P.relations:
        for _, coeff in rel.terms():
            for idx in coeff.support_traversal():
                if idx not in present:
                    present.add(idx)
                    seen.append(idx)
    return tuple(seen)


def canonicalize(P):
    """Rename the occurring transcendentals onto t1,...,tr.

    Returns (P0, sigma) with sigma the permutation automorphism sending t_i
    to the i-th occurring transcendental; remaining generators fill the
    remaining slots in increasing order.  P0 = twist(P, sigma) and
    P = twist(P0, invert(sigma)).
    """
    support = transcendental_support(P)
    k = P.field.num_generators
    used = set(support)
    remaining = [i for i in range(k) if i not in used]
    targets = list(support) + remaining
    sigma = FieldAutomorphism.permutation(P.field, targets)
    return twist(P, sigma), sigma


def is_over_subfield(P, r):
    """True iff every coefficient lies in Q(t1,...,tr)."""
    if r < 0:
        raise ValueError("subfield size must be >= 0")
    return all(i < r for i in transcendental_support(P))
