"""normal_form against the span oracle on random presentations.

A zero normal form must be a membership that tests/span_oracle.py confirms
by exact linear algebra over the products u * r * v of the relations,
without the rewriting code.  For homogeneous relations the truncated basis
decides every degree up to its own, so a nonzero normal form must be a
non-membership as well.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpalg import FieldSpec, NCPoly, groebner, normal_form
from randgen import (
    random_homogeneous_quadratic,
    random_poly,
    random_presentation,
    random_word,
    simple_scalar,
)
from span_oracle import filtered_membership_oracle, ideal_membership_oracle

Q = FieldSpec(0)
QT = FieldSpec(1)
MAXDEG = 3
# Reducing by an inhomogeneous basis element can stand for products u * r * v
# above the truncation degree, so the oracle may look this much higher.  Of
# the seeds 0..2999 over both fields, the deepest zero normal form needed
# degree MAXDEG + 3.
EXTRA_DEGREE = 3


def target(rng, P, member):
    """A combination of products u * r * v of degree <= MAXDEG, plus a
    random polynomial unless member."""
    m = P.num_gens
    f = NCPoly.zero(P.field, m)
    for _ in range(rng.randint(1, 2)):
        r = rng.choice(P.relations)
        room = MAXDEG - r.degree()
        u = random_word(rng, m, room)
        v = random_word(rng, m, room - len(u))
        f = f + r.mul_word(u, v).scale(simple_scalar(rng, P.field, nonzero=True))
    if not member:
        f = f + random_poly(rng, P.field, m, MAXDEG)
    return f


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from((Q, QT)),
    quadratic=st.booleans(),
    member=st.booleans(),
)
def test_normal_form_agrees_with_the_span_oracle(seed, field, quadratic, member):
    rng = random.Random(seed)
    if quadratic:
        P = random_homogeneous_quadratic(rng, field, rng.choice((2, 3)))
    else:
        P = random_presentation(rng, field, max_gens=3, max_deg=MAXDEG, max_rels=2)
    f = target(rng, P, member)
    nf = normal_form(f, groebner(P, MAXDEG))
    assert nf.verified
    if P.is_homogeneous():
        assert nf.poly.is_zero() == ideal_membership_oracle(P, f)
    elif nf.poly.is_zero():
        assert any(
            filtered_membership_oracle(P, f, D)
            for D in range(MAXDEG, MAXDEG + EXTRA_DEGREE + 1)
        )
