"""Scalar arithmetic against the polynomial-only reference.

Over Q(t1) through Q(t1..t4), where the quadratic family lives, every
result must have the reference's value, numerator and denominator ring
elements, string and hash, and must hold a part as an int exactly when that
part is constant.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fpalg import FieldSpec, Scalar, apply_automorphism
from poly_scalars import PolyScalar, denominator, numerator
from randgen import random_automorphism, rich_scalar, simple_scalar

FIELDS = tuple(FieldSpec(k) for k in range(1, 5))
OPS = ("+", "-", "*", "/", "**", "apply")


def assert_parts_invariant(a):
    for part in (a._num, a._den):
        constant = type(part) is int or not any(any(m) for m in part.keys())
        assert (type(part) is int) == constant, part


def assert_matches(a, ref):
    assert_parts_invariant(a)
    assert numerator(a) == ref.num and denominator(a) == ref.den
    assert dict(numerator(a)) == dict(ref.num)
    assert dict(denominator(a)) == dict(ref.den)
    assert numerator(a).ring == ref.num.ring
    assert str(a) == ref.text()
    assert hash(a) == ref.hash_value()


def operand(rng, field):
    if rng.random() < 0.5:
        return rich_scalar(rng, field, depth=rng.randint(0, 3))
    return simple_scalar(rng, field)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(FIELDS),
    op=st.sampled_from(OPS),
    exponent=st.integers(-3, 3),
)
def test_arithmetic_matches_polynomial_reference(seed, field, op, exponent):
    rng = random.Random(seed)
    a, b = operand(rng, field), operand(rng, field)
    ra, rb = PolyScalar.of(a), PolyScalar.of(b)
    for x, rx in ((a, ra), (b, rb)):
        assert_matches(x, rx)
    if op == "+":
        assert_matches(a + b, ra + rb)
    elif op == "-":
        assert_matches(a - b, ra - rb)
    elif op == "*":
        assert_matches(a * b, ra * rb)
    elif op == "/":
        if b:
            assert_matches(a / b, ra / rb)
    elif op == "**":
        if a or exponent >= 0:
            assert_matches(a ** exponent, ra ** exponent)
    else:
        sigma = random_automorphism(rng, field)
        image = apply_automorphism(sigma, a)
        assert_matches(image, ra.apply(sigma))
        if type(a._num) is int and type(a._den) is int:
            assert image is a  # constants come back unchanged


def test_constants_are_ints_in_every_field():
    for field in (FieldSpec(0),) + FIELDS:
        t = Scalar.generator(field, 0) if field.num_generators else Scalar.from_int(field, 2)
        one = Scalar.one(field)
        for value in (
            Scalar.from_int(field, -4),
            Scalar.from_fraction(field, Fraction(6, -4)),
            (t * t - one) / (t - one) - t,
            t - t,
            (t + one) ** 0,
        ):
            assert type(value._num) is int and type(value._den) is int
            assert_matches(value, PolyScalar.of(value))


def test_polynomial_part_meets_int_part():
    field = FieldSpec(1)
    t = Scalar.generator(field, 0)
    six = Scalar.from_int(field, 6)
    a = (Scalar.from_int(field, 4) * t + six) / Scalar.from_int(field, -8)
    assert str(a) == "(-2*t1 - 3)/(4)"
    assert type(a._den) is int and type(a._num) is not int
    b = Scalar.from_int(field, -9) / (Scalar.from_int(field, -6) * t + six)
    assert str(b) == "(3)/(2*t1 - 2)"
    assert type(b._num) is int and type(b._den) is not int
    assert_matches(a * b, PolyScalar.of(a) * PolyScalar.of(b))


def test_zero_to_the_zero_is_one_in_every_field():
    for field in (FieldSpec(0),) + FIELDS:
        assert Scalar.zero(field) ** 0 == Scalar.one(field)
