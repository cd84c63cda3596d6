import random

import pytest

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    MismatchError,
    NCPoly,
    Presentation,
    Scalar,
    canonicalize,
    compose,
    graded_dimension,
    invert,
    is_over_subfield,
    make_aalpha,
    transcendental_support,
    twist,
)
from randgen import (
    random_automorphism,
    random_homogeneous_quadratic,
    random_permutation_auto,
    random_presentation,
)

QT = FieldSpec(1)


class TestTwist:
    def test_shift_twists_to_inverse_image(self):
        # coefficient t with sigma: t -> t+1 becomes sigma^{-1}(t) = t - 1
        t = Scalar.generator(QT, 0)
        P = make_aalpha(t)
        sigma = FieldAutomorphism.affine(QT, 0, 1, 1)
        twisted = twist(P, sigma)
        assert twisted.relations[0].coefficient((0, 1)) == t - Scalar.one(QT)

    def test_identity_twist(self):
        t = Scalar.generator(QT, 0)
        P = make_aalpha(t)
        assert twist(P, FieldAutomorphism.identity(QT)) == P

    def test_transposition_swaps_coefficients(self):
        field = FieldSpec(2)
        t1 = Scalar.generator(field, 0)
        t2 = Scalar.generator(field, 1)
        one = Scalar.one(field)
        rel = NCPoly.from_terms(field, 2, [((0, 0), one), ((0, 1), t1), ((1, 1), t2)])
        P = Presentation(field, ("x1", "x2"), (rel,))
        swapped = twist(P, FieldAutomorphism.permutation(field, [1, 0]))
        expected = NCPoly.from_terms(
            field, 2, [((0, 0), one), ((0, 1), t2), ((1, 1), t1)]
        )
        assert swapped.relations[0] == expected

    def test_field_mismatch(self):
        t = Scalar.generator(QT, 0)
        with pytest.raises(MismatchError):
            twist(make_aalpha(t), FieldAutomorphism.identity(FieldSpec(2)))

    def test_roundtrip_random(self):
        rng = random.Random(31)
        field = FieldSpec(3)
        for _ in range(100):
            P = random_presentation(rng, field)
            sigma = random_automorphism(rng, field)
            assert twist(twist(P, sigma), invert(sigma)) == P

    def test_right_action_composition(self):
        rng = random.Random(37)
        field = FieldSpec(3)
        for _ in range(100):
            P = random_presentation(rng, field)
            sigma = random_automorphism(rng, field)
            tau = random_automorphism(rng, field)
            assert twist(twist(P, sigma), tau) == twist(P, compose(sigma, tau))

    def test_graded_dimension_twist_invariant(self):
        rng = random.Random(41)
        field = FieldSpec(2)
        for _ in range(10):
            P = random_homogeneous_quadratic(rng, field, 2)
            sigma = random_automorphism(rng, field)
            for n in range(5):
                assert graded_dimension(P, n, 4) == graded_dimension(
                    twist(P, sigma), n, 4
                )


def presentation_with_coeffs(field, *coeffs):
    """One relation x1^2 + c1*x1*x2 + c2*x2^2 + ... over two generators."""
    one = Scalar.one(field)
    words = [(0, 0), (0, 1), (1, 1), (0,), (1,), ()]
    pairs = [(words[0], one)]
    for w, c in zip(words[1:], coeffs):
        pairs.append((w, c))
    rel = NCPoly.from_terms(field, 2, pairs)
    return Presentation(field, ("x1", "x2"), (rel,))


class TestSupport:
    def test_traversal_order(self):
        field = FieldSpec(7)
        t7 = Scalar.generator(field, 6)
        t3 = Scalar.generator(field, 2)
        P = presentation_with_coeffs(field, t7, t3)
        assert transcendental_support(P) == (6, 2)

    def test_rational_coefficients(self):
        field = FieldSpec(4)
        P = presentation_with_coeffs(field, Scalar.from_int(field, 5))
        assert transcendental_support(P) == ()

    def test_denominator_occurrence_counts(self):
        field = FieldSpec(3)
        c = Scalar.one(field) / (Scalar.generator(field, 1) - Scalar.one(field))
        P = presentation_with_coeffs(field, c)
        assert transcendental_support(P) == (1,)


class TestCanonicalize:
    def test_renames_onto_prefix(self):
        field = FieldSpec(7)
        t7 = Scalar.generator(field, 6)
        t3 = Scalar.generator(field, 2)
        P = presentation_with_coeffs(field, t7, t3)
        P0, sigma = canonicalize(P)
        t1 = Scalar.generator(field, 0)
        t2 = Scalar.generator(field, 1)
        assert P0.relations[0].coefficient((0, 1)) == t1
        assert P0.relations[0].coefficient((1, 1)) == t2
        assert transcendental_support(P0) == (0, 1)
        assert twist(P0, invert(sigma)) == P

    def test_already_canonical(self):
        field = FieldSpec(3)
        P = presentation_with_coeffs(field, Scalar.generator(field, 0))
        P0, sigma = canonicalize(P)
        assert P0 == P
        assert sigma.is_identity()

    def test_idempotent(self):
        rng = random.Random(43)
        field = FieldSpec(6)
        for _ in range(50):
            P = random_presentation(rng, field)
            P0, _ = canonicalize(P)
            again, sigma = canonicalize(P0)
            assert again == P0
            assert sigma.is_identity()

    def test_invariant_under_permutation_twists(self):
        rng = random.Random(47)
        field = FieldSpec(6)
        for _ in range(100):
            P = random_presentation(rng, field)
            pi = random_permutation_auto(rng, field)
            assert canonicalize(twist(P, pi))[0] == canonicalize(P)[0]

    def test_descends_to_support_subfield(self):
        rng = random.Random(53)
        field = FieldSpec(6)
        for _ in range(50):
            P = random_presentation(rng, field)
            r = len(transcendental_support(P))
            P0, _ = canonicalize(P)
            assert is_over_subfield(P0, r)
            if r:
                assert not is_over_subfield(P0, r - 1)


class TestSubfield:
    def test_rational_presentation_over_q(self):
        field = FieldSpec(2)
        P = presentation_with_coeffs(field, Scalar.from_int(field, 2))
        assert is_over_subfield(P, 0)

    def test_high_generator_fails_low_bound(self):
        field = FieldSpec(5)
        P = presentation_with_coeffs(field, Scalar.generator(field, 4))
        assert not is_over_subfield(P, 4)
        assert is_over_subfield(P, 5)


class TestEquality:
    def test_reflexive_and_identity_twist(self):
        t = Scalar.generator(QT, 0)
        P = make_aalpha(t)
        assert P == P
        assert P == twist(P, FieldAutomorphism.identity(QT))

    def test_relation_order_matters(self):
        field = FieldSpec(0)
        one = Scalar.one(field)
        r1 = NCPoly.from_terms(field, 2, [((0, 0), one)])
        r2 = NCPoly.from_terms(field, 2, [((1, 1), one)])
        P = Presentation(field, ("x1", "x2"), (r1, r2))
        Q = Presentation(field, ("x1", "x2"), (r2, r1))
        assert P != Q

    def test_name_is_metadata(self):
        t = Scalar.generator(QT, 0)
        P = make_aalpha(t)
        renamed = Presentation(P.field, P.generators, P.relations, name="Other")
        assert P == renamed


class TestValidation:
    def test_zero_relation_rejected(self):
        with pytest.raises(ValueError):
            Presentation(QT, ("x1",), (NCPoly.zero(QT, 1),))

    def test_reserved_generator_name(self):
        with pytest.raises(ValueError):
            Presentation(QT, ("relations",), ())

    def test_transcendental_lookalike_rejected(self):
        with pytest.raises(ValueError):
            Presentation(QT, ("t1",), ())

    def test_invalid_generator_name(self):
        with pytest.raises(ValueError, match="invalid generator name '1x'"):
            Presentation(QT, ("1x",), ())

    def test_invalid_algebra_name(self):
        with pytest.raises(ValueError, match="invalid algebra name '9A'"):
            Presentation(QT, ("x1",), (), name="9A")

    def test_duplicate_generators(self):
        with pytest.raises(ValueError, match="duplicate generator names"):
            Presentation(QT, ("x1", "x2", "x1"), ())

    def test_relation_must_be_ncpoly(self):
        with pytest.raises(TypeError, match="relations must be NCPoly values"):
            Presentation(QT, ("x1",), (Scalar.one(QT),))

    def test_relation_over_another_field(self):
        rel = NCPoly.monomial(FieldSpec(2), 1, (0,), Scalar.one(FieldSpec(2)))
        with pytest.raises(MismatchError, match="relation over a different context"):
            Presentation(QT, ("x1",), (rel,))
