"""apply_automorphism's integer substitution against the Fraction reference.

Every image must have the reference's value, parts, string and hash, for
random scalars and maps over Q(t1)..Q(t1..t4), for hand-picked maps with
fractional scales and shifts, and for permutations, the identity and
constants.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fpalg import FieldAutomorphism, FieldSpec, Scalar, apply_automorphism, invert
from fraction_automorphism import fraction_apply_automorphism
from randgen import random_automorphism, random_permutation_auto, rich_scalar

FIELDS = tuple(FieldSpec(k) for k in range(1, 5))
QT2 = FieldSpec(2)


def assert_same_image(sigma, a):
    image = apply_automorphism(sigma, a)
    ref = fraction_apply_automorphism(sigma, a)
    assert image == ref
    assert (image._num, image._den) == (ref._num, ref._den)
    assert str(image) == str(ref)
    assert hash(image) == hash(ref)
    return image


def fractional_map():
    # t1 -> 1/2*t2 + 3/2, t2 -> -2/3*t1 - 1
    return FieldAutomorphism.from_images(
        QT2,
        [(1, Fraction(1, 2), Fraction(3, 2)), (0, Fraction(-2, 3), Fraction(-1))],
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(FIELDS),
    depth=st.integers(1, 3),
)
def test_random_scalars_and_maps(seed, field, depth):
    rng = random.Random(seed)
    sigma = random_automorphism(rng, field)
    a = rich_scalar(rng, field, depth)
    image = assert_same_image(sigma, a)
    assert assert_same_image(invert(sigma), image) == a


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 3))
def test_fractional_scales_and_shifts(seed, depth):
    rng = random.Random(seed)
    sigma = fractional_map()
    a = rich_scalar(rng, QT2, depth)
    image = assert_same_image(sigma, a)
    assert assert_same_image(invert(sigma), image) == a


def test_hand_picked_fractional_maps():
    t1, t2 = (Scalar.generator(QT2, i) for i in range(2))
    one = Scalar.one(QT2)
    sigma = fractional_map()
    for a in (
        t1,
        t2,
        t1 * t2,
        t1 ** 3 - t2 ** 2,
        one / t1,
        (t1 ** 2 + t2) / (t1 - t2 - t2),
        (t2 ** 2 + one) / (t1 + one),
        Scalar.from_fraction(QT2, Fraction(7, 3)) * t1 ** 2 / (t2 ** 3 + t1),
    ):
        image = assert_same_image(sigma, a)
        assert assert_same_image(invert(sigma), image) == a
    assert str(apply_automorphism(sigma, t1)) == "(t2 + 3)/(2)"
    assert str(apply_automorphism(sigma, one / t2)) == "(-3)/(2*t1 + 3)"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS))
def test_permutations_and_identity(seed, field):
    rng = random.Random(seed)
    a = rich_scalar(rng, field, 3)
    assert_same_image(random_permutation_auto(rng, field), a)
    assert apply_automorphism(FieldAutomorphism.identity(field), a) is a


def test_constants_are_fixed():
    for field in FIELDS:
        sigma = random_automorphism(random.Random(field.num_generators), field)
        for a in (
            Scalar.zero(field),
            Scalar.from_int(field, -5),
            Scalar.from_fraction(field, Fraction(3, -4)),
        ):
            assert apply_automorphism(sigma, a) is a
            assert fraction_apply_automorphism(sigma, a) is a
