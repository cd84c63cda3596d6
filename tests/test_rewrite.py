import itertools
import random

import pytest

from fpalg import (
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    graded_dimension,
    groebner,
    ideal_membership,
    is_generating,
    make_aalpha,
    normal_form,
    twist,
)
from fpalg.rewrite import FactorAvoider, ReductionIndex, reduce_by_entries
from linear_reduction import linear_reduce
from randgen import (
    random_automorphism,
    random_homogeneous_quadratic,
    random_poly,
    random_word,
)
from span_oracle import graded_dimension_oracle

Q = FieldSpec(0)
QT = FieldSpec(1)


def gens(field, m=2):
    return [NCPoly.gen(field, m, i) for i in range(m)]


def generic_family():
    return make_aalpha(Scalar.generator(QT, 0))


class TestGroebner:
    def test_single_relation_already_reduced(self):
        P = generic_family()
        gb = groebner(P, 2)
        assert len(gb.basis) == 1
        assert gb.basis[0] == P.relations[0]
        assert gb.basis[0].leading_word() == (0, 0)
        assert gb.complete_to == 2

    def test_free_algebra_empty_basis(self):
        P = Presentation(Q, ("x1", "x2"), ())
        gb = groebner(P, 4)
        assert gb.basis == ()

    def test_degree_three_element_from_self_overlap(self):
        # the x1*x1*x1 overlap contributes a new element; the span oracle
        # confirms the degree-3 dimension drops below the quadratic count
        P = generic_family()
        gb = groebner(P, 4)
        degree3 = [g for g in gb.basis if g.leading_word() == (0, 1, 0)]
        assert len(degree3) == 1
        assert graded_dimension_oracle(P, 3) == 4

    def test_maxdeg_below_relations_rejected(self):
        with pytest.raises(ValueError):
            groebner(generic_family(), 1)

    def test_deterministic_value(self):
        P = generic_family()
        assert groebner(P, 5) == groebner(P, 5)

    def test_unit_relation_collapses_everything(self):
        one = Scalar.one(Q)
        rel = NCPoly.from_terms(Q, 1, [((), one)])
        P = Presentation(Q, ("x1",), (rel,))
        gb = groebner(P, 3)
        assert [g.leading_word() for g in gb.basis] == [()]
        assert graded_dimension(P, 0, 3) == 0


class TestNormalForm:
    def test_one_step_rewrite(self):
        P = generic_family()
        gb = groebner(P, 3)
        x1, x2 = gens(QT)
        t = Scalar.generator(QT, 0)
        nf = normal_form(x1 * x1, gb)
        assert nf.verified
        assert nf.poly == -(x1 * x2).scale(t) - x2 * x2

    def test_normal_word_untouched(self):
        P = generic_family()
        gb = groebner(P, 3)
        x1, x2 = gens(QT)
        assert normal_form(x2 * x1, gb).poly == x2 * x1

    def test_commutator_with_relation_reduces_to_zero(self):
        P = generic_family()
        gb = groebner(P, 4)
        g = P.relations[0]
        x1 = gens(QT)[0]
        assert normal_form(x1 * g - g * x1, gb).poly.is_zero()

    def test_unverified_flag_above_truncation(self):
        P = generic_family()
        gb = groebner(P, 2)
        x1 = gens(QT)[0]
        tall = x1 * x1 * x1 * x1
        assert not normal_form(tall, gb).verified

    def test_strategy_confluence_within_verified_range(self):
        rng = random.Random(61)
        P = generic_family()
        gb = groebner(P, 6)
        for _ in range(200):
            f = random_poly(rng, QT, 2, 6, n_terms=4)
            left = normal_form(f, gb)
            right = linear_reduce(f, list(gb.entries()), strategy="rightmost")
            assert left.verified
            assert left.poly == right

    def test_ideal_soundness_random_translates(self):
        rng = random.Random(67)
        P = generic_family()
        gb = groebner(P, 6)
        for _ in range(100):
            g = gb.basis[rng.randrange(len(gb.basis))]
            budget = 6 - g.degree()
            u = random_word(rng, 2, budget)
            v = random_word(rng, 2, budget - len(u))
            assert reduce_by_entries(g.mul_word(u, v), gb.entries()).is_zero()


class TestMembership:
    def test_defining_relation_is_member(self):
        P = generic_family()
        assert ideal_membership(P.relations[0], P, 3).member

    def test_ideal_closure(self):
        P = generic_family()
        g = P.relations[0]
        x1, x2 = gens(QT)
        assert ideal_membership(x1 * g * x2 + g, P, 5).member

    def test_generator_is_not_member_exactly(self):
        P = generic_family()
        verdict = ideal_membership(gens(QT)[0], P, 3)
        assert not verdict.member
        assert verdict.exact


class TestGradedDimension:
    def test_free_algebra(self):
        P = Presentation(Q, ("x1", "x2"), ())
        assert graded_dimension(P, 3, 4) == 8

    def test_one_quadratic_relation(self):
        assert graded_dimension(generic_family(), 2, 3) == 3

    def test_degree_three_against_span_oracle(self):
        P = generic_family()
        assert graded_dimension(P, 3, 4) == graded_dimension_oracle(P, 3)

    def test_inhomogeneous_rejected(self):
        one = Scalar.one(Q)
        rel = NCPoly.from_terms(Q, 1, [((0, 0), one), ((0,), one)])
        P = Presentation(Q, ("x1",), (rel,))
        with pytest.raises(ValueError):
            graded_dimension(P, 2, 3)

    def test_oracle_agreement_on_random_corpus(self):
        rng = random.Random(71)
        for _ in range(8):
            num_gens = rng.choice((2, 3))
            field = Q if num_gens == 3 else rng.choice((Q, QT))
            P = random_homogeneous_quadratic(rng, field, num_gens)
            for n in range(5):
                assert graded_dimension(P, n, 5) == graded_dimension_oracle(P, n)


# forbidden words over letters 0..4, each letter taken mod the alphabet size
AVOIDER_CASES = {
    "no-words": [],
    "empty-word": [(), (0, 1)],
    "duplicates": [(0, 1), (1, 1), (0, 1)],
    "word-contains-another": [(0, 1, 2, 0), (1, 2), (2, 0, 1, 2, 1)],
    "single-letters": [(0,), (2,)],
    "overlapping": [(0, 0), (0, 1, 0), (3, 1, 3)],
    "last-letters": [(4, 3), (4, 4, 4), (3, 4, 1, 0)],
}


def brute_force_levels(m, forbidden, n):
    """The avoiding words of each length 0..n, each list in lex order."""
    return [
        [
            w for w in itertools.product(range(m), repeat=k)
            if not any(w[i : i + len(f)] == f for f in forbidden for i in range(k - len(f) + 1))
        ]
        for k in range(n + 1)
    ]


def avoider_of(m, forbidden):
    """A FactorAvoider over the index of the forbidden words; duplicates are
    indexed once, and no poly is needed to avoid a word."""
    return FactorAvoider(m, ReductionIndex((w, None) for w in forbidden))


class TestFactorAvoider:
    def test_against_brute_force(self):
        rng = random.Random(73)
        for _ in range(30):
            m = rng.choice((2, 3))
            forbidden = [random_word(rng, m, 3, min_len=1) for _ in range(rng.randint(1, 3))]
            avoider = avoider_of(m, forbidden)
            for n, level in enumerate(brute_force_levels(m, forbidden, 4)):
                assert avoider.count(n) == len(level)

    @pytest.mark.parametrize("name", sorted(AVOIDER_CASES))
    @pytest.mark.parametrize("m, n", [(1, 6), (2, 6), (3, 6), (4, 6), (11, 3)])
    def test_lists_and_counts_like_brute_force(self, m, n, name):
        # m = 11 is the alphabet of M_3 over a 2-generator base
        forbidden = [tuple(letter % m for letter in w) for w in AVOIDER_CASES[name]]
        levels = brute_force_levels(m, forbidden, n)
        avoider = avoider_of(m, forbidden)
        assert avoider.trivial_dead == (() in forbidden)
        assert avoider.words_up_to(n) == levels
        assert avoider.counts(n) == [len(level) for level in levels]
        assert avoider.count_up_to(n) == sum(len(level) for level in levels)


class TestGeneration:
    def test_generators_generate(self):
        P = generic_family()
        assert is_generating(gens(QT), P, 2).generating

    def test_single_generator_fails(self):
        P = generic_family()
        verdict = is_generating([gens(QT)[0]], P, 3)
        assert not verdict.generating
        assert verdict.bound == 3

    def test_triangular_change_of_generators(self):
        x1, x2 = gens(QT)
        assert is_generating([x1 + x2, x2], generic_family(), 2).generating

    def test_monotone_in_bound(self):
        P = generic_family()
        x1, x2 = gens(QT)
        cases = [[x1, x2], [x1 + x2, x2], [x1 * x1, x2]]
        for elems in cases:
            previous = False
            for d in range(2, 6):
                verdict = is_generating(elems, P, d).generating
                if previous:
                    assert verdict
                previous = verdict

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            is_generating(gens(QT), generic_family(), 1)


class TestTwistInvariance:
    def test_dimension_stable_under_twist(self):
        rng = random.Random(79)
        P = generic_family()
        for _ in range(5):
            sigma = random_automorphism(rng, QT)
            for n in range(6):
                assert graded_dimension(P, n, 6) == graded_dimension(
                    twist(P, sigma), n, 6
                )
