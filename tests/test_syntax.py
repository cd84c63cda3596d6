import random

import pytest

from fpalg import (
    FieldSpec,
    ParseError,
    Scalar,
    parse_automorphism,
    parse_poly,
    parse_presentation,
    parse_scalar,
    presentation_to_text,
)
from randgen import (
    random_automorphism,
    random_poly,
    random_presentation,
    rich_scalar,
)

Q = FieldSpec(0)
QT = FieldSpec(1)


class TestScalarParsing:
    def test_cancelling_quotient(self):
        t = Scalar.generator(QT, 0)
        assert parse_scalar("(t1^2 - 1)/(t1 - 1)", QT) == t + Scalar.one(QT)

    def test_bare_t_alias(self):
        assert parse_scalar("t", QT) == Scalar.generator(QT, 0)

    def test_bare_t_needs_single_generator(self):
        with pytest.raises(ParseError):
            parse_scalar("t", FieldSpec(2))

    def test_nesting_limit(self):
        from fpalg.syntax import MAX_SCALAR_NESTING

        depth = MAX_SCALAR_NESTING - 1
        assert parse_scalar("(" * depth + "3" + ")" * depth, Q) == Scalar.from_int(Q, 3)
        for text in ("(" * 1000 + "1" + ")" * 1000, "-" * 1000 + "1", "(-" * 600 + "1"):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_scalar(text, Q)
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly("(" * 1000 + "2" + ")" * 1000 + "*x1", Q, ("x1",))

    def test_unary_minus_and_powers(self):
        assert parse_scalar("-2^3", Q) == Scalar.from_int(Q, -8)

    def test_out_of_range_generator(self):
        with pytest.raises(ParseError):
            parse_scalar("t2", QT)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("1/(2 - 2)", Q)

    def test_roundtrip_random(self):
        rng = random.Random(103)
        field = FieldSpec(2)
        for _ in range(200):
            a = rich_scalar(rng, field)
            assert parse_scalar(str(a), field) == a


class TestPolyParsing:
    def test_spec_example(self):
        t = Scalar.generator(QT, 0)
        f = parse_poly("x1*x1 + x2*x2 + (t)*x1*x2", QT, ("x1", "x2"))
        assert f.coefficient((0, 1)) == t
        assert f.degree() == 2

    def test_unit_word(self):
        f = parse_poly("1", Q, ("x1",))
        assert f.coefficient(()) == Scalar.one(Q)

    def test_integer_coefficients(self):
        f = parse_poly("3*x1 - 2", Q, ("x1",))
        assert f.coefficient((0,)) == Scalar.from_int(Q, 3)
        assert f.coefficient(()) == Scalar.from_int(Q, -2)

    def test_power_on_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x1^2", Q, ("x1",))

    def test_roundtrip_random(self):
        rng = random.Random(107)
        names = ("x1", "x2", "x3")
        for _ in range(200):
            f = random_poly(rng, QT, 3, 3, n_terms=4)
            assert parse_poly(f.to_text(names), QT, names) == f


class TestAutomorphismParsing:
    def test_affine_clause(self):
        sigma = parse_automorphism("t1 -> t1 + 1", QT)
        t = Scalar.generator(QT, 0)
        assert sigma(t) == t + Scalar.one(QT)

    def test_transposition(self):
        field = FieldSpec(2)
        sigma = parse_automorphism("t1 -> t2, t2 -> t1", field)
        assert sigma(Scalar.generator(field, 0)) == Scalar.generator(field, 1)

    def test_unlisted_generators_fixed(self):
        field = FieldSpec(3)
        sigma = parse_automorphism("t2 -> 2*t2", field)
        assert sigma(Scalar.generator(field, 0)) == Scalar.generator(field, 0)

    def test_identity_keyword(self):
        assert parse_automorphism("identity", QT).is_identity()

    def test_zero_scale_rejected(self):
        with pytest.raises(ParseError):
            parse_automorphism("t1 -> 0*t1", QT)

    def test_non_affine_rejected(self):
        with pytest.raises(ParseError):
            parse_automorphism("t1 -> t1^2", QT)
        with pytest.raises(ParseError):
            parse_automorphism("t1 -> 1/t1", QT)

    def test_non_permutation_rejected(self):
        field = FieldSpec(2)
        with pytest.raises(ParseError):
            parse_automorphism("t1 -> t2", field)

    @pytest.mark.parametrize("text, k, message", [
        ("t1 -> t1 + t2", 2, "line 1, column 7: automorphism image involves two generators"),
        ("t1 -> t1^2", 1, "line 1, column 7: automorphism image must have degree 1"),
        ("t1 -> 1/t1", 1,
         "line 1, column 7: automorphism image must be affine, not a proper fraction"),
        ("identity x", 1, "line 1, column 10: trailing input after 'identity'"),
        ("t1 -> t1 + 1, t1 -> 2*t1", 1, "line 1, column 15: duplicate clause for t1"),
        # a target an earlier clause took, and one an unlisted generator keeps
        ("t1 -> t1,\n t2 -> t1", 2,
         "line 2, column 8: generator targets do not form a permutation"),
        ("t1 -> t2", 2, "line 1, column 7: generator targets do not form a permutation"),
    ])
    def test_error_message_and_position(self, text, k, message):
        with pytest.raises(ParseError) as info:
            parse_automorphism(text, FieldSpec(k))
        assert str(info.value) == message

    def test_roundtrip_random(self):
        rng = random.Random(109)
        field = FieldSpec(3)
        for _ in range(200):
            sigma = random_automorphism(rng, field)
            assert parse_automorphism(str(sigma), field) == sigma


class TestPresentationParsing:
    def test_quadratic_family_file(self):
        text = (
            "algebra A over Q(t1) generators x1 x2 relations "
            "{ x1*x1 + x2*x2 + (t1)*x1*x2 = 0; }"
        )
        from fpalg import make_aalpha

        P = parse_presentation(text)
        assert P == make_aalpha(Scalar.generator(QT, 0))

    def test_empty_relations_is_free(self):
        P = parse_presentation("algebra F over Q generators x1 x2 relations { }")
        assert P.relations == ()

    def test_coefficient_outside_fieldspec(self):
        with pytest.raises(ParseError):
            parse_presentation(
                "algebra A over Q(t1) generators x1 relations { (t2)*x1 = 0; }"
            )

    def test_error_carries_position(self):
        try:
            parse_presentation("algebra A over Q generators x1 relations {\n  x1*y = 0;\n}")
        except ParseError as exc:
            assert exc.line == 2
            assert exc.column > 0
        else:
            pytest.fail("expected a ParseError")

    def test_zero_relation_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation(
                "algebra A over Q generators x1 relations { x1 - x1 = 0; }"
            )

    @pytest.mark.parametrize("text, message", [
        ("algebra A over Q generators x relations { x*x = 1; }",
         "line 1, column 49: relations must end in '= 0'"),
        ("algebra A over Q generators x relations { x*x = 0; } x",
         "line 1, column 54: trailing input 'x'"),
        ("algebra A over Q generators x\n  y x relations { }",
         "line 2, column 5: duplicate generator name 'x'"),
        ("algebra A over Q generators x over relations { }",
         "line 1, column 31: generator name 'over' is a reserved word"),
        ("algebra A over Q(t1,t2) generators x t2 relations { }",
         "line 1, column 38: generator name 't2' collides with transcendental names"),
    ])
    def test_error_message_and_position(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert str(info.value) == message

    def test_fieldspec_order_enforced(self):
        with pytest.raises(ParseError):
            parse_presentation("algebra A over Q(t2) generators x1 relations { }")

    def test_roundtrip_random(self):
        rng = random.Random(113)
        field = FieldSpec(4)
        for _ in range(100):
            P = random_presentation(rng, field)
            assert parse_presentation(presentation_to_text(P)) == P
