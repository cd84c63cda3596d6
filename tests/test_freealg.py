import random

import pytest

from fpalg import (
    FieldAutomorphism,
    FieldSpec,
    MismatchError,
    NCPoly,
    Scalar,
    deglex_key,
)
from fpalg import zpoly
from randgen import random_automorphism, random_poly, rich_scalar

Q = FieldSpec(0)
QT = FieldSpec(1)


def gens(field, m=2):
    return [NCPoly.gen(field, m, i) for i in range(m)]


class TestWordOrder:
    def test_lex_on_equal_length(self):
        assert deglex_key((0, 0)) > deglex_key((0, 1))  # x1*x1 > x1*x2

    def test_degree_dominates(self):
        assert deglex_key((1, 1, 1)) > deglex_key((0, 0))  # x2^3 > x1^2

    def test_reflexive(self):
        assert deglex_key((0, 1, 0)) == deglex_key((0, 1, 0))

    def test_multiplicative_compatibility(self):
        rng = random.Random(3)
        from randgen import random_word

        for _ in range(300):
            u = random_word(rng, 3, 4)
            v = random_word(rng, 3, 4)
            w = random_word(rng, 3, 3)
            if not deglex_key(u) > deglex_key(v):
                continue
            assert deglex_key(w + u) > deglex_key(w + v)
            assert deglex_key(u + w) > deglex_key(v + w)


class TestArithmetic:
    def test_left_distribution_example(self):
        x1, x2 = gens(QT)
        product = (x1 + x2) * x1
        expected = NCPoly.from_terms(
            QT, 2, [((0, 0), Scalar.one(QT)), ((1, 0), Scalar.one(QT))]
        )
        assert product == expected

    def test_self_subtraction(self):
        rng = random.Random(5)
        f = random_poly(rng, QT, 2, 3)
        assert (f - f).is_zero()

    def test_scale_by_zero(self):
        rng = random.Random(6)
        f = random_poly(rng, QT, 2, 3)
        assert f.scale(Scalar.zero(QT)).is_zero()

    def test_context_mismatch(self):
        with pytest.raises(MismatchError):
            NCPoly.one(Q, 2) + NCPoly.one(Q, 3)
        with pytest.raises(MismatchError):
            NCPoly.one(Q, 2) + NCPoly.one(QT, 2)

    def test_associativity_and_distributivity_random(self):
        rng = random.Random(8)
        for _ in range(500):
            f = random_poly(rng, QT, 2, 2, n_terms=2)
            g = random_poly(rng, QT, 2, 2, n_terms=2)
            h = random_poly(rng, QT, 2, 2, n_terms=2)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h


class TestMonic:
    def test_lead_costs_no_polynomial_gcd(self, monkeypatch):
        calls = []
        cofactors = zpoly.ZPoly.cofactors

        def counted(f, g):
            calls.append((f, g))
            return cofactors(f, g)

        monkeypatch.setattr(zpoly.ZPoly, "cofactors", counted)
        x1, x2 = gens(QT)
        t1 = Scalar.generator(QT, 0)
        f = (x1 * x2).scale(t1 + Scalar.one(QT))
        assert f.monic() == x1 * x2
        assert calls == []

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_scaling_by_the_inverse(self, k):
        field = FieldSpec(k)
        rng = random.Random(f"monic:{k}")
        checked = 0
        for _ in range(60):
            f = random_poly(rng, field, 2, 3, n_terms=4, scalar=rich_scalar)
            if f.is_zero():
                continue
            lw = f.leading_word()
            got = f.monic()
            expected = f.scale(f._terms[lw]._reciprocal())
            assert got == expected
            assert list(got._terms.items()) == list(expected._terms.items())
            lead = got._terms[lw]
            assert (type(lead._num), lead._num, lead._den) == (int, 1, 1)
            assert got.monic() is got
            checked += 1
        assert checked >= 40


class TestSubstitute:
    def test_swap(self):
        x1, x2 = gens(QT)
        f = x1 * x2
        assert f.substitute([x2, x1]) == x2 * x1

    def test_sign_flip_on_quadratic_relation(self):
        # x1 -> x1, x2 -> -x2 negates the mixed term only
        t = Scalar.generator(QT, 0)
        one = Scalar.one(QT)
        x1, x2 = gens(QT)
        f = NCPoly.from_terms(QT, 2, [((0, 0), one), ((1, 1), one), ((0, 1), t)])
        expected = NCPoly.from_terms(QT, 2, [((0, 0), one), ((1, 1), one), ((0, 1), -t)])
        assert f.substitute([x1, -x2]) == expected

    def test_identity_images(self):
        rng = random.Random(10)
        images = gens(QT, 3)
        for _ in range(30):
            f = random_poly(rng, QT, 3, 3)
            assert f.substitute(images) == f

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            NCPoly.one(QT, 2).substitute([NCPoly.one(QT, 2)])

    def test_respects_products(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_poly(rng, QT, 2, 2, n_terms=2)
            g = random_poly(rng, QT, 2, 2, n_terms=2)
            images = [random_poly(rng, QT, 2, 2, n_terms=2) for _ in range(2)]
            assert (f * g).substitute(images) == f.substitute(images) * g.substitute(
                images
            )


class TestMapCoefficients:
    def test_shift_coefficient(self):
        t = Scalar.generator(QT, 0)
        sigma = FieldAutomorphism.affine(QT, 0, 1, 1)
        f = NCPoly.from_terms(QT, 2, [((0, 1), t)])
        assert f.map_coefficients(sigma) == NCPoly.from_terms(
            QT, 2, [((0, 1), t + Scalar.one(QT))]
        )

    def test_identity_map(self):
        rng = random.Random(14)
        ident = FieldAutomorphism.identity(QT)
        for _ in range(30):
            f = random_poly(rng, QT, 2, 3)
            assert f.map_coefficients(ident) == f

    def test_rational_coefficients_fixed(self):
        sigma = FieldAutomorphism.affine(QT, 0, 2, 1)
        f = NCPoly.gen(QT, 2, 0)
        assert f.map_coefficients(sigma) == f

    def test_commutes_with_arithmetic(self):
        rng = random.Random(15)
        field = FieldSpec(2)
        for _ in range(100):
            sigma = random_automorphism(rng, field)
            f = random_poly(rng, field, 2, 2, n_terms=2)
            g = random_poly(rng, field, 2, 2, n_terms=2)
            assert (f + g).map_coefficients(sigma) == f.map_coefficients(
                sigma
            ) + g.map_coefficients(sigma)
            assert (f - g).map_coefficients(sigma) == f.map_coefficients(
                sigma
            ) - g.map_coefficients(sigma)
            assert (f * g).map_coefficients(sigma) == f.map_coefficients(
                sigma
            ) * g.map_coefficients(sigma)
            c = rich_scalar(rng, field, depth=2)
            assert f.scale(c).map_coefficients(sigma) == f.map_coefficients(
                sigma
            ).scale(sigma(c))


class TestStructure:
    def test_zero_degree_sentinel(self):
        assert NCPoly.zero(Q, 2).degree() == -1

    def test_terms_strictly_descending(self):
        rng = random.Random(16)
        from fpalg.freealg import descending_key

        for _ in range(50):
            f = random_poly(rng, QT, 3, 4, n_terms=5)
            keys = [descending_key(w) for w, _ in f.terms()]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

    def test_no_zero_coefficients_stored(self):
        one = Scalar.one(Q)
        f = NCPoly.from_terms(Q, 2, [((0,), one), ((0,), -one)])
        assert f.is_zero()
        assert f.support() == ()
