"""The matrix walk of corners and fullness against the all-words references.

corner_filtered_dims and is_full_idempotent carry e*w and u*e*v as n x n
matrices over B and reduce entry by entry; tests/allwords_corner.py and
tests/allwords_fullness.py complete the whole matrix presentation and
reduce every word.  Both must give the same dims, verdicts, bounds and
certificates.  Corners of a homogeneous B complete only B's relations of
degree <= d + 2*zdeg(e), to that degree (rewrite.graded_basis), zdeg(e)
the most lifts in a word of e; an inhomogeneous B keeps the M_n(B) degree
d + 2*deg e.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from fpalg import (
    DegreeBudgetError,
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    corner_filtered_dims,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
    verify_idempotent,
)
from fpalg import morita, rewrite
from allwords_corner import allwords_corner_dims
from allwords_fullness import allwords_full_idempotent
from completion_spy import degrees_of, spy_completions
from randgen import random_poly

Q = FieldSpec(0)
QT = FieldSpec(1)
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def bases():
    return {
        "Q": Presentation(Q, (), (), name="B"),
        "A_t": make_aalpha(Scalar.generator(QT, 0)),
        "A_alpha": make_aalpha(Scalar.from_fraction(Q, Fraction(3, 2))),
        "projector": parse_presentation((INPUTS / "projector.alg").read_text()),
        "weyl": parse_presentation(
            "algebra W over Q generators x y relations { x*y - y*x - 1 = 0; }"
        ),
    }


def idempotents(MP):
    """e11, e11 + c*e12 and, over a base with generators, e11 + e12*z1."""
    e11 = MP.unit(1, 1)
    yield "e11", e11
    if MP.n >= 2:
        c = Scalar.from_fraction(MP.field, Fraction(-2, 3))
        yield "e11+c*e12", e11 + MP.unit(1, 2).scale(c)
        if MP.base.num_gens:
            yield "e11+e12*z1", e11 + MP.unit(1, 2) * MP.lift(0)


# (n, deepest corner, deepest fullness search): the references complete
# all of M_n(B), so the larger n stay shallow
SIZES = [(1, 4, 4), (2, 3, 3), (3, 2, 2)]
BASES = ["Q", "A_t", "A_alpha", "projector", "weyl"]


@pytest.mark.parametrize("n,corner_depth,full_depth", SIZES)
@pytest.mark.parametrize("base", BASES)
def test_corners_match_all_words(base, n, corner_depth, full_depth):
    MP = matrix_presentation(bases()[base], n)
    for name, e in idempotents(MP):
        expected = allwords_corner_dims(e, MP, corner_depth)
        for d in range(corner_depth + 1):
            assert corner_filtered_dims(e, MP, d) == expected[: d + 1], (name, d)


@pytest.mark.parametrize("n,corner_depth,full_depth", SIZES)
@pytest.mark.parametrize("base", BASES)
def test_fullness_matches_all_words(base, n, corner_depth, full_depth):
    MP = matrix_presentation(bases()[base], n)
    for name, e in idempotents(MP):
        for d in range(full_depth + 1):
            expected = allwords_full_idempotent(e, MP, d)
            got = is_full_idempotent(e, MP, d)
            assert got == expected, (name, d)
            assert got.certificate == expected.certificate


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("base", BASES)
def test_each_step_is_the_matrix_of_the_product(base, n):
    # a letter on either side, a product, and the span vector, against
    # _matrix of the product polynomial; _matrix is held to the completed
    # matrix presentation in test_matrix_basis
    MP = matrix_presentation(bases()[base], n)
    base_gb = rewrite.groebner(MP.base, 4)
    rng = random.Random(f"{base}:{n}")
    field, m = MP.field, MP.num_gens

    def matrix(f):
        return morita._matrix(f, MP, base_gb)

    for _ in range(6):
        f = random_poly(rng, field, m, 2, n_terms=4)
        h = random_poly(rng, field, m, 2, n_terms=4)
        X = matrix(f)
        for g in range(m):
            x = NCPoly.gen(field, m, g)
            assert morita._times_letter(X, g, MP, base_gb, True) == matrix(x * f), g
            assert morita._times_letter(X, g, MP, base_gb, False) == matrix(f * x), g
        assert morita._product(X, matrix(h), MP, base_gb) == matrix(f * h)
        assert matrix(morita._span_vector(X, MP)) == X


def test_the_walk_guards_the_base_degree():
    # _matrix reduces only the entries, so only the lifts count against the
    # basis's degree
    MP = matrix_presentation(bases()["weyl"], 2)
    base_gb = rewrite.groebner(MP.base, 2)
    field, m = MP.field, MP.num_gens
    units = NCPoly.monomial(field, m, (0,) * 5 + (1,))  # e11^5 * e12 = e12
    assert morita._matrix(units, MP, base_gb) == morita._matrix(MP.unit(1, 2), MP, base_gb)
    lifts = NCPoly.monomial(field, m, (0, MP.lift_index(0), MP.lift_index(1), MP.lift_index(0)))
    with pytest.raises(DegreeBudgetError, match="base degree 3 exceeds verified degree 2"):
        morita._matrix(lifts, MP, base_gb)


class TestCornerDegree:
    @pytest.mark.parametrize("base", ["Q", "A_t", "A_alpha"])
    def test_homogeneous_base_completes_to_d_plus_2_zdeg(self, monkeypatch, base):
        # graded_basis: the relations of degree <= d + 2*zdeg, to that degree
        B = bases()[base]
        assert B.is_homogeneous()
        MP = matrix_presentation(B, 2)
        calls = spy_completions(monkeypatch)
        for name, e in idempotents(MP):
            zdeg = 1 if name == "e11+e12*z1" else 0
            for d in range(4):
                calls.clear()
                corner_filtered_dims(e, MP, d)
                assert degrees_of(calls) == [d + 2 * zdeg], (name, d)
                assert all(r.degree() <= d + 2 * zdeg for r in calls[0][0].relations)

    @pytest.mark.parametrize("base", ["projector", "weyl"])
    def test_inhomogeneous_base_keeps_the_matrix_degree(self, monkeypatch, base):
        B = bases()[base]
        assert not B.is_homogeneous()
        MP = matrix_presentation(B, 2)
        calls = spy_completions(monkeypatch)
        for name, e in idempotents(MP):
            edeg = e.degree()
            for d in range(4):
                calls.clear()
                corner_filtered_dims(e, MP, d)
                expected = max(d + 2 * edeg, 2, B.max_relation_degree())
                assert degrees_of(calls) == [expected], (name, d)


class TestIdempotentDegree:
    @pytest.mark.parametrize("base", ["Q", "A_t", "A_alpha"])
    def test_homogeneous_base_completes_to_the_budget(self, monkeypatch, base):
        # e11 has no lifts, so e*e's entries are constants: graded_basis at
        # d, with no relation above d
        MP = matrix_presentation(bases()[base], 2)
        calls = spy_completions(monkeypatch)
        for d in range(4):
            calls.clear()
            assert verify_idempotent(MP.unit(1, 1), MP, d)
            assert degrees_of(calls) == [d]
            assert all(r.degree() <= d for r in calls[0][0].relations)

    def test_a_lift_completes_to_twice_its_degree(self, monkeypatch):
        # z1's square has an entry of base degree 2, deeper than d = 0, 1
        MP = matrix_presentation(bases()["A_t"], 2)
        calls = spy_completions(monkeypatch)
        for d in range(4):
            calls.clear()
            assert not verify_idempotent(MP.lift(0), MP, d)
            assert degrees_of(calls) == [max(d, 2)]

    @pytest.mark.parametrize("base", ["projector", "weyl"])
    def test_inhomogeneous_base_keeps_the_matrix_degree(self, monkeypatch, base):
        B = bases()[base]
        MP = matrix_presentation(B, 2)
        calls = spy_completions(monkeypatch)
        for name, e in idempotents(MP):
            for d in range(2 * e.degree(), 5):
                calls.clear()
                verify_idempotent(e, MP, d)
                assert degrees_of(calls) == [max(d, 2, B.max_relation_degree())], (name, d)

    @pytest.mark.parametrize("base", ["A_t", "projector"])
    def test_a_budget_refusal_completes_nothing(self, monkeypatch, base):
        MP = matrix_presentation(bases()[base], 2)
        e = MP.unit(1, 1) * MP.lift(0)  # e*e - e has degree 4
        calls = spy_completions(monkeypatch)
        for d in range(4):
            with pytest.raises(DegreeBudgetError, match=f"^degree 4 exceeds verified degree {max(d, 2)}$"):
                verify_idempotent(e, MP, d)
        assert calls == []
