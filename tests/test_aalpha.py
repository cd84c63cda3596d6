import random
from fractions import Fraction

import pytest

from fpalg import (
    CongruenceWitness,
    FieldAutomorphism,
    FieldSpec,
    ModScalar,
    NCPoly,
    Scalar,
    congruence_check,
    decide_form_congruence,
    form_of,
    graded_dimension,
    groebner,
    is_generating,
    iso_aalpha,
    iso_witness,
    make_aalpha,
    normal_form,
    orbit_sample,
    search_iso_degree2,
    verify_iso_witness,
)
from fpalg import aalpha
from fpalg.aalpha import mat2, mat2_det, mat2_mul, mat2_transpose, one_like, zero_like
from allq_congruence import allq_search_iso_degree2, solved_q22_search_iso_degree2

Q = FieldSpec(0)
QT = FieldSpec(1)


def q(v):
    return Scalar.from_int(Q, v)


def qfrac(v):
    return Scalar.from_fraction(Q, v)


def identity(field):
    one, zero = Scalar.one(field), Scalar.zero(field)
    return mat2(one, zero, zero, one)


def quadratic(form, field):
    """The polynomial sum of form[i][j] * x_(i+1) * x_(j+1)."""
    pairs = [((i, j), form[i][j]) for i in range(2) for j in range(2)]
    return NCPoly.from_terms(field, 2, pairs)


def linear_constraint_matrix(beta, q):
    """The product (2 beta; beta 2) * Q.

    Its transpose rows are the coefficients of the two linear equations that
    the constant parts of a candidate generator pair must satisfy; the left
    factor is singular exactly when beta = +-2.
    """
    two = one_like(beta) + one_like(beta)
    return mat2_mul(mat2(two, beta, beta, two), q)


def assert_witness_invariants(alpha, beta, witness):
    """The derived identity chain that every accepted witness must satisfy."""
    det = mat2_det(witness.q)
    gamma = witness.gamma
    one = one_like(gamma)
    four = one + one + one + one
    assert beta * det == gamma * alpha
    assert (four - beta * beta) * det * det == gamma * gamma * (four - alpha * alpha)
    assert beta * beta == alpha * alpha


class TestMakeAalpha:
    def test_alpha_zero(self):
        P = make_aalpha(Scalar.zero(Q))
        rel = P.relations[0]
        assert rel.support() == ((0, 0), (1, 1))

    def test_generic_parameter(self):
        t = Scalar.generator(QT, 0)
        P = make_aalpha(t)
        assert P.field == QT
        assert P.relations[0].coefficient((0, 1)) == t

    def test_degree_two_dimension(self):
        t = Scalar.generator(QT, 0)
        assert graded_dimension(make_aalpha(t), 2, 2) == 3


class TestFormOf:
    def test_alpha_zero_is_identity(self):
        assert form_of(q(0)) == identity(Q)

    def test_entries(self):
        assert form_of(q(2)) == mat2(q(1), q(2), q(0), q(1))

    def test_quadratic_roundtrip(self):
        t = Scalar.generator(QT, 0)
        expanded = quadratic(form_of(t), QT)
        assert expanded == make_aalpha(t).relations[0]


class TestLinearConstraintMatrix:
    def test_beta_zero_identity_q(self):
        m = linear_constraint_matrix(q(0), identity(Q))
        assert m == mat2(q(2), q(0), q(0), q(2))
        assert mat2_det(m) == q(4)  # nonsingular: forces zero constant parts

    def test_beta_two_always_singular(self):
        rng = random.Random(83)
        for _ in range(20):
            entries = [q(rng.randint(-5, 5)) for _ in range(4)]
            m = linear_constraint_matrix(q(2), mat2(*entries))
            assert mat2_det(m).is_zero()

    def test_generic_beta_nonsingular(self):
        t = Scalar.generator(QT, 0)
        m = linear_constraint_matrix(t, identity(QT))
        four = Scalar.from_int(QT, 4)
        assert mat2_det(m) == four - t * t
        assert not mat2_det(m).is_zero()

    def test_matches_displayed_linear_system(self):
        # the transpose rows carry the coefficients of the two equations in
        # the constant parts, coming from the degree-1 component of
        # y1^2 + y2^2 + beta*y1*y2 with y_i = a_i0 + a_i1*x1 + a_i2*x2
        rng = random.Random(89)
        for _ in range(20):
            beta = q(rng.randint(-4, 4))
            a10, a20 = q(rng.randint(-3, 3)), q(rng.randint(-3, 3))
            entries = [q(rng.randint(-3, 3)) for _ in range(4)]
            qmat = mat2(*entries)
            x1, x2 = NCPoly.gen(Q, 2, 0), NCPoly.gen(Q, 2, 1)
            one = NCPoly.one(Q, 2)
            y1 = one.scale(a10) + x1.scale(qmat[0][0]) + x2.scale(qmat[0][1])
            y2 = one.scale(a20) + x1.scale(qmat[1][0]) + x2.scale(qmat[1][1])
            probe = y1 * y1 + y2 * y2 + (y1 * y2).scale(beta)
            m = linear_constraint_matrix(beta, qmat)
            mt = mat2_transpose(m)
            expect_x1 = a10 * mt[0][0] + a20 * mt[0][1]
            expect_x2 = a10 * mt[1][0] + a20 * mt[1][1]
            assert probe.coefficient((0,)) == expect_x1
            assert probe.coefficient((1,)) == expect_x2


class TestCongruenceCheck:
    def test_same_parameter_identity_witness(self):
        w = CongruenceWitness(identity(Q), q(1))
        assert congruence_check(q(1), q(1), w)

    def test_sign_flip_witness(self):
        w = CongruenceWitness(mat2(q(1), q(0), q(0), q(-1)), q(1))
        assert congruence_check(q(3), q(-3), w)

    def test_mismatched_parameters_fail(self):
        w = CongruenceWitness(identity(Q), q(1))
        assert not congruence_check(q(1), q(2), w)

    def test_witness_invariants_rejected(self):
        with pytest.raises(ValueError):
            CongruenceWitness(mat2(q(1), q(1), q(1), q(1)), q(1))
        with pytest.raises(ValueError):
            CongruenceWitness(identity(Q), q(0))


class TestDecideFormCongruence:
    def test_equal_parameters(self):
        d = decide_form_congruence(q(5), q(5))
        assert d.congruent
        assert d.witness.q == identity(Q)
        assert congruence_check(q(5), q(5), d.witness)

    def test_opposite_parameters_generic(self):
        t = Scalar.generator(QT, 0)
        d = decide_form_congruence(t, -t)
        assert d.congruent
        assert congruence_check(t, -t, d.witness)
        assert_witness_invariants(t, -t, d.witness)

    def test_distinct_parameters_certificate(self):
        d = decide_form_congruence(q(2), q(3))
        assert not d.congruent
        assert d.certificate == (q(9), q(4))

    def test_finite_field_input_rejected(self):
        with pytest.raises(TypeError):
            decide_form_congruence(ModScalar(1, 5), ModScalar(2, 5))

    def test_agreement_with_oracle_small_primes(self):
        for p in (3, 5, 7):
            for a in range(p):
                if (a * a - 4) % p == 0:
                    continue
                for b in range(p):
                    if (b * b - 4) % p == 0:
                        continue
                    criterion = iso_aalpha(ModScalar(a, p), ModScalar(b, p))
                    witness = search_iso_degree2(a, b, p)
                    assert criterion == (witness is not None)
                    if witness is not None:
                        assert_witness_invariants(
                            ModScalar(a, p), ModScalar(b, p), witness
                        )

    def test_not_congruent_confirmed_by_larger_prime_scans(self):
        # 2 and 3 stay non-congruent over F_p whenever 3 != +-2 (mod p)
        for p in (7, 11, 13):
            assert search_iso_degree2(2, 3, p) is None


class TestAntisymmetricTransform:
    def test_det_law(self):
        rng = random.Random(97)
        j = mat2(q(0), q(1), q(-1), q(0))
        for _ in range(1000):
            entries = [qfrac(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                       for _ in range(4)]
            m = mat2(*entries)
            lhs = mat2_mul(mat2_mul(mat2_transpose(m), j), m)
            det = mat2_det(m)
            rhs = mat2(q(0), det, -det, q(0))
            assert lhs == rhs


class TestIso:
    def test_same(self):
        t = Scalar.generator(QT, 0)
        assert iso_aalpha(t, t)

    def test_negated(self):
        t = Scalar.generator(QT, 0)
        assert iso_aalpha(t, -t)

    def test_distinct_integers(self):
        assert not iso_aalpha(q(1), q(2))

    def test_witness_sign_flip(self):
        t = Scalar.generator(QT, 0)
        images = iso_witness(t, -t)
        x2 = images[1]
        assert x2.coefficient((1,)) == Scalar.from_int(QT, -1)
        assert verify_iso_witness(t, -t, images)

    def test_witness_identity(self):
        t = Scalar.generator(QT, 0)
        images = iso_witness(t, t)
        assert verify_iso_witness(t, t, images)

    def test_witness_absent(self):
        assert iso_witness(q(1), q(3)) is None

    def test_recheck_agrees_with_a_fresh_completion(self):
        # the re-check completes to the relation degree 2 and goes to
        # degree 3 only when the images of degree <= 1 do not span; the
        # reference is the degree-3 verdict, with is_generating completing
        # its own basis to 3
        t = Scalar.generator(QT, 0)
        x1, x2 = (NCPoly.gen(QT, 2, i) for i in range(2))
        zero = NCPoly.zero(QT, 2)
        one = NCPoly.one(QT, 2)
        c = t + Scalar.from_int(QT, 1)
        candidates = [
            (x1, x2), (x1, -x2), (x2, x1), (x1 + x2, x2), (x1, x1),
            (zero, zero), (x1 * x2, x2 * x1), (x1 * x1, x2), (x1 * x2 * x1, zero),
            (x1 + one, x2), (x1.scale(c), x2.scale(c)),
            (x1.scale(c), x2.scale(-c)), (x1.scale(c), x1.scale(c)),
        ]
        minus_two = Scalar.from_int(QT, -2)
        cases = [(t, beta, images) for beta in (t, -t, t + t) for images in candidates]
        cases.append((minus_two, minus_two, (x1 * x2, x1 * x2)))
        verdicts = []
        for alpha, beta, images in cases:
            P = make_aalpha(alpha)
            substituted = make_aalpha(beta).relations[0].substitute(list(images))
            gb = groebner(P, max(3, substituted.degree()))
            expected = normal_form(substituted, gb).poly.is_zero() and (
                is_generating(list(images), P, 3).generating
            )
            assert verify_iso_witness(alpha, beta, images) == expected, (beta, images)
            verdicts.append(expected)
        assert True in verdicts and False in verdicts
        # (x1*x2, x1*x2) substitutes to 0 under alpha = beta = -2 but does
        # not generate
        assert verdicts[-1] is False

    def test_dimensions_cannot_separate_the_family(self):
        # every parameter gives the same graded dimensions; the separating
        # invariant is the form congruence, not the Hilbert data
        params = [q(0), q(1), q(2), q(5)]
        reference = [graded_dimension(make_aalpha(q(3)), n, 5) for n in range(6)]
        for alpha in params:
            dims = [graded_dimension(make_aalpha(alpha), n, 5) for n in range(6)]
            assert dims == reference


class TestFiniteFieldSearch:
    def test_finds_witness_for_equal(self):
        w = search_iso_degree2(1, 1, 5)
        assert w is not None
        assert_witness_invariants(ModScalar(1, 5), ModScalar(1, 5), w)

    def test_finds_witness_for_negated(self):
        assert search_iso_degree2(1, 4, 5) is not None

    def test_absent_for_non_isomorphic(self):
        assert search_iso_degree2(1, 2, 5) is None

    def test_scan_is_deterministic(self):
        assert search_iso_degree2(1, 1, 5) == search_iso_degree2(1, 1, 5)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            search_iso_degree2(1, 1, 4)

    def test_arithmetic_results_skip_the_modulus_check(self, monkeypatch):
        # only the two constructed operands test their modulus for primality;
        # results of arithmetic carry the modulus their operands passed
        tested = []
        is_odd_prime = aalpha._is_odd_prime

        def counted(p):
            tested.append(p)
            return is_odd_prime(p)

        monkeypatch.setattr(aalpha, "_is_odd_prime", counted)
        a, b = ModScalar(3, 7), ModScalar(5, 7)
        x = a
        for _ in range(20):
            x = (x * b + a - b) / a
        x = -x
        assert tested == [7, 7]
        assert x == ModScalar(x.value, 7) and 0 <= x.value < 7
        assert one_like(x) == ModScalar(1, 7) and zero_like(x) == ModScalar(0, 7)
        with pytest.raises(ValueError):
            ModScalar(1, 9)


def assert_same_first_witness(reference, p):
    degenerate = 0
    for a in range(p):
        degenerate += (a * a - 4) % p == 0
        for b in range(p):
            expected = reference(a, b, p)
            assert search_iso_degree2(a, b, p) == expected, (p, a, b)
            assert search_iso_degree2(
                ModScalar(a, p), ModScalar(b, p), p
            ) == expected, (p, a, b)
            assert search_iso_degree2(a - p, b + 2 * p, p) == expected, (p, a, b)
    assert degenerate == 2  # a = +-2, where the symmetric part degenerates


class TestSearchAgainstAllQ:
    """The column search returns the full scan's first witness."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_every_parameter_pair(self, p):
        assert_same_first_witness(allq_search_iso_degree2, p)

    @pytest.mark.parametrize("p", [17, 19])
    def test_every_parameter_pair_against_solved_q22(self, p):
        # the p^4 loop is too slow here; the p^3 loop keeps the same order
        assert_same_first_witness(solved_q22_search_iso_degree2, p)


class TestSearchAtALargePrime:
    @pytest.mark.parametrize("alpha", [2, 5])
    def test_witness_exactly_when_isomorphic(self, alpha):
        # alpha = 2 is degenerate mod 101, so it meets no non-degenerate beta;
        # alpha = 5 meets beta = +-5
        p = 101
        found = []
        for b in range(p):
            if (b * b - 4) % p == 0:
                continue
            criterion = iso_aalpha(ModScalar(alpha, p), ModScalar(b, p))
            witness = search_iso_degree2(alpha, b, p)
            assert criterion == (witness is not None), b
            if witness is not None:
                assert congruence_check(ModScalar(alpha, p), ModScalar(b, p), witness)
                found.append(b)
        assert found == ([] if alpha == 2 else [5, 96])


class TestOrbit:
    def test_two_automorphisms(self):
        t = Scalar.generator(QT, 0)
        autos = [
            FieldAutomorphism.affine(QT, 0, 1, 1),
            FieldAutomorphism.affine(QT, 0, 2, 0),
        ]
        sample = orbit_sample(t, autos)
        assert sample == [t + Scalar.one(QT), Scalar.from_int(QT, 2) * t]

    def test_identity_only(self):
        t = Scalar.generator(QT, 0)
        assert orbit_sample(t, [FieldAutomorphism.identity(QT)]) == [t]

    def test_orbit_members_not_isomorphic_to_seed(self):
        t = Scalar.generator(QT, 0)
        shifted = orbit_sample(t, [FieldAutomorphism.affine(QT, 0, 1, 1)])[0]
        assert not iso_aalpha(t, shifted)

    def test_deduplication(self):
        t = Scalar.generator(QT, 0)
        autos = [FieldAutomorphism.identity(QT), FieldAutomorphism.identity(QT)]
        assert orbit_sample(t, autos) == [t]
