import random
from fractions import Fraction

import pytest

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    MismatchError,
    ModScalar,
    Scalar,
    apply_automorphism,
    compose,
    invert,
)
from poly_scalars import denominator, int_ring, numerator
from randgen import rich_scalar

Q = FieldSpec(0)
QT = FieldSpec(1)
QT2 = FieldSpec(2)


def s(field, v):
    return Scalar.from_int(field, v)


class TestArithmetic:
    def test_polynomial_cancellation(self):
        t = Scalar.generator(QT, 0)
        assert (t * t - s(QT, 1)) / (t - s(QT, 1)) == t + s(QT, 1)

    def test_additive_identity(self):
        t = Scalar.generator(QT, 0)
        a = (t + s(QT, 3)) / (t * t + s(QT, 1))
        assert a + Scalar.zero(QT) == a

    def test_multiplicative_inverse(self):
        t = Scalar.generator(QT, 0)
        assert (s(QT, 1) / t) * t == Scalar.one(QT)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            s(Q, 1) / Scalar.zero(Q)

    def test_field_mismatch(self):
        with pytest.raises(MismatchError):
            s(Q, 1) + s(QT, 1)

    def test_canonical_uniqueness_bitwise(self):
        t = Scalar.generator(QT, 0)
        one = Scalar.one(QT)
        a = (t ** 2 - one) / (t - one)
        b = t + one
        assert a == b
        assert str(a) == str(b)
        assert numerator(a) == numerator(b) and denominator(a) == denominator(b)

    def test_canonical_routes_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rich_scalar(rng, QT2)
            b = rich_scalar(rng, QT2, depth=2)
            if b.is_zero():
                continue
            left = (a / b) * b
            assert left == a
            assert str(left) == str(a)

    def test_denominator_sign_convention(self):
        t = Scalar.generator(QT, 0)
        a = Scalar.one(QT) / (Scalar.from_int(QT, -1) * t + Scalar.one(QT))
        # denominator t1 - 1 has positive leading coefficient
        assert str(a) == "(-1)/(t1 - 1)"

    def test_fraction_constants(self):
        a = Scalar.from_fraction(Q, Fraction(6, -4))
        assert a.as_fraction() == Fraction(-3, 2)
        assert str(a) == "(-3)/(2)"


class TestAutomorphisms:
    def test_shift_on_reciprocal(self):
        sigma = FieldAutomorphism.affine(QT, 0, 1, 1)
        t = Scalar.generator(QT, 0)
        image = apply_automorphism(sigma, Scalar.one(QT) / t)
        assert image == Scalar.one(QT) / (t + Scalar.one(QT))

    def test_identity_fixes(self):
        rng = random.Random(11)
        ident = FieldAutomorphism.identity(QT2)
        for _ in range(50):
            a = rich_scalar(rng, QT2)
            assert apply_automorphism(ident, a) == a

    def test_swap_on_ratio(self):
        sigma = FieldAutomorphism.permutation(QT2, [1, 0])
        t1 = Scalar.generator(QT2, 0)
        t2 = Scalar.generator(QT2, 1)
        assert apply_automorphism(sigma, t1 / t2) == t2 / t1

    def test_mismatched_field(self):
        sigma = FieldAutomorphism.identity(QT)
        with pytest.raises(MismatchError):
            apply_automorphism(sigma, s(QT2, 1))

    def test_compose_scale_with_inverse_scale(self):
        double = FieldAutomorphism.affine(QT, 0, 2, 0)
        halve = FieldAutomorphism.affine(QT, 0, Fraction(1, 2), 0)
        assert compose(double, halve).is_identity()

    def test_compose_transposition_involution(self):
        swap = FieldAutomorphism.permutation(QT2, [1, 0])
        assert compose(swap, swap).is_identity()

    def test_compose_shifts(self):
        shift = FieldAutomorphism.affine(QT, 0, 1, 1)
        twice = compose(shift, shift)
        t = Scalar.generator(QT, 0)
        assert twice(t) == t + s(QT, 2)

    def test_invert_shift(self):
        shift = FieldAutomorphism.affine(QT, 0, 1, 1)
        t = Scalar.generator(QT, 0)
        assert invert(shift)(t) == t - Scalar.one(QT)

    def test_invert_identity(self):
        assert invert(FieldAutomorphism.identity(QT)).is_identity()

    def test_invert_transposition_is_itself(self):
        swap = FieldAutomorphism.permutation(QT2, [1, 0])
        assert invert(swap) == swap

    def test_double_inversion(self):
        rng = random.Random(13)
        from randgen import random_automorphism

        for _ in range(50):
            sigma = random_automorphism(rng, QT2)
            assert invert(invert(sigma)) == sigma

    def test_forward_backward_fix_generators(self):
        rng = random.Random(17)
        from randgen import random_automorphism

        field = FieldSpec(3)
        for _ in range(30):
            sigma = random_automorphism(rng, field)
            for i in range(3):
                ti = Scalar.generator(field, i)
                assert invert(sigma)(sigma(ti)) == ti
                assert sigma(invert(sigma)(ti)) == ti


class TestHomomorphismLaws:
    def test_ring_homomorphism_on_random_scalars(self):
        rng = random.Random(23)
        from randgen import random_automorphism

        field = FieldSpec(2)
        for _ in range(1000):
            sigma = random_automorphism(rng, field)
            a = rich_scalar(rng, field, depth=2)
            b = rich_scalar(rng, field, depth=2)
            assert sigma(a + b) == sigma(a) + sigma(b)
            assert sigma(a * b) == sigma(a) * sigma(b)
        assert sigma(Scalar.one(field)) == Scalar.one(field)

    def test_roundtrip_on_random_scalars(self):
        rng = random.Random(29)
        from randgen import random_automorphism

        field = FieldSpec(2)
        for _ in range(1000):
            sigma = random_automorphism(rng, field)
            a = rich_scalar(rng, field, depth=2)
            assert apply_automorphism(invert(sigma), apply_automorphism(sigma, a)) == a


class TestModScalar:
    def test_arithmetic(self):
        a = ModScalar(3, 5)
        assert a + a == ModScalar(1, 5)
        assert a * a == ModScalar(4, 5)
        assert -a == ModScalar(2, 5)
        assert a / ModScalar(2, 5) == ModScalar(4, 5)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            ModScalar(1, 4)
        with pytest.raises(ValueError):
            ModScalar(1, 9)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ModScalar(1, 5) / ModScalar(0, 5)


def _reference_hash(field, num_poly, den_poly):
    # the hash value of a scalar, spelled out on its polynomial form
    return hash(
        (
            field,
            tuple(sorted((m, int(c)) for m, c in num_poly.items())),
            tuple(sorted((m, int(c)) for m, c in den_poly.items())),
        )
    )


class TestRationalRepresentation:
    """Q scalars are int-backed; every view must match the Fraction of the
    same value, read through the polynomial form where it has one, and
    arithmetic must match Fraction arithmetic."""

    PAIRS = [(0, 1), (0, -7), (1, 1), (-1, 1), (5, 1), (-12, 1), (6, -4),
             (-3, 9), (10**30 + 7, 3 * 10**12), (7, 7), (2, -1)]

    def assert_parity(self, a, q):
        R = int_ring(0)
        n, d = q.numerator, q.denominator
        assert type(a._num) is int and type(a._den) is int
        text = str(n) if d == 1 else f"({n})/({d})"
        assert str(a) == text
        assert repr(a) == f"Scalar({text}, Q)"
        assert a.as_integer() == (n if d == 1 else None)
        assert a.as_fraction() == q
        assert numerator(a) == R(n) and denominator(a) == R(d)
        assert dict(numerator(a)) == ({(): n} if n else {})
        assert dict(denominator(a)) == {(): d}
        assert hash(a) == _reference_hash(Q, R(n), R(d))
        assert list(a.support_traversal()) == []
        assert bool(a) == bool(q) and a.is_zero() == (q == 0)
        assert a.is_one() == (q == 1)

    def test_constructors_match_polynomial_path(self):
        for n, d in self.PAIRS:
            if d == 0:
                continue
            a = Scalar.from_fraction(Q, Fraction(n, d))
            self.assert_parity(a, Fraction(n, d))
            if d == 1:
                self.assert_parity(Scalar.from_int(Q, n), Fraction(n))

    def test_arithmetic_matches_polynomial_path(self):
        rng = random.Random(31)
        for _ in range(300):
            n1, n2 = rng.randint(-40, 40), rng.randint(-40, 40)
            d1, d2 = rng.choice((1, 1, 2, -3, 6, 35)), rng.choice((1, 4, -9, 10))
            a, b = Scalar.from_fraction(Q, Fraction(n1, d1)), Scalar.from_fraction(Q, Fraction(n2, d2))
            p, q = Fraction(n1, d1), Fraction(n2, d2)
            self.assert_parity(a + b, p + q)
            self.assert_parity(a - b, p - q)
            self.assert_parity(a * b, p * q)
            self.assert_parity(-a, -p)
            self.assert_parity(a ** 3, p ** 3)
            if b:
                self.assert_parity(a / b, p / q)
                self.assert_parity(b ** -2, q ** -2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar._make(Q, 1, 0)
        with pytest.raises(ZeroDivisionError):
            Scalar.one(Q) / Scalar.zero(Q)


class TestCachedHash:
    def test_hash_value_unchanged_and_stable(self):
        rng = random.Random(37)
        for field in (QT, QT2):
            for _ in range(100):
                a = rich_scalar(rng, field)
                expected = _reference_hash(field, numerator(a), denominator(a))
                assert hash(a) == expected
                assert hash(a) == expected  # served from the cache

    def test_equal_values_share_hash(self):
        t = Scalar.generator(QT, 0)
        one = Scalar.one(QT)
        a = (t ** 2 - one) / (t - one)
        hash(a)
        assert hash(a) == hash(t + one)
        assert len({a, t + one}) == 1

    def test_denominator_one_skips_gcd_but_stays_canonical(self):
        t = Scalar.generator(QT2, 0)
        u = Scalar.generator(QT2, 1)
        a = (t * u - u) * (t + u)  # every step has denominator 1
        assert denominator(a) == 1
        assert a == (t * u - u) / (t - Scalar.one(QT2)) * (t - Scalar.one(QT2)) * (t + u)
        assert str(a) == str((t + u) * (t * u - u))


class TestReciprocal:
    """Scalar._reciprocal (the gcd-free inverse NCPoly.monic uses) against
    Scalar.one(F) / x, representation included."""

    def assert_same_inverse(self, x):
        got = x._reciprocal()
        expected = Scalar.one(x.field) / x
        assert got == expected
        assert str(got) == str(expected)
        for part, ref in ((got._num, expected._num), (got._den, expected._den)):
            assert type(part) is type(ref)  # int exactly when constant
        assert got * x == Scalar.one(x.field)

    def test_random_values(self):
        rng = random.Random(2903)
        for field in (Q, QT, QT2):
            for _ in range(150):
                x = rich_scalar(rng, field)
                if x:
                    self.assert_same_inverse(x)

    def test_signs_and_part_kinds(self):
        t = Scalar.generator(QT, 0)
        u = Scalar.generator(QT2, 1)
        cases = [
            s(Q, -3),
            Scalar.from_fraction(Q, Fraction(-6, 4)),
            Scalar.from_fraction(Q, Fraction(5, 7)),
            s(QT, -1) * t + s(QT, 3),  # negative leading coefficient
            s(QT, 2) / (t * t + s(QT, 1)),  # int numerator, polynomial denominator
            s(QT, -2) / t,
            (t - s(QT, 1)) / s(QT, 3),  # polynomial numerator, int denominator
            (s(QT, 1) - t * t) / (t + s(QT, 2)),
            s(QT, 7),
            (Scalar.generator(QT2, 0) - u * u) / (u + s(QT2, 1)),
            s(QT2, -1) * u,
        ]
        for x in cases:
            self.assert_same_inverse(x)

    def test_zero_raises(self):
        for field in (Q, QT, QT2):
            with pytest.raises(ZeroDivisionError):
                Scalar.zero(field)._reciprocal()
