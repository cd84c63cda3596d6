"""The matrix reading of M_n(B) against the completed matrix presentation.

morita._matrix completes the base B alone and reads an element as an
n x n matrix over B.  groebner(MP.pres, need), the completion of the whole
matrix presentation, stays the reference: random polynomials and products
u*e*v of idempotents must have the matrix of their reference normal form,
verify_idempotent must agree with the reference normal form of e*e - e,
and filtered dimensions and the normal words behind corner fingerprints
must agree with it, for n = 1..3 at three degrees each, over the golden
inputs, random presentations over Q and Q(t1) (inhomogeneous ones
included), random homogeneous quadratics and the edge bases.  A guard pins
that a fullness search completes one basis, on B's generators."""

import pathlib
import random
from fractions import Fraction

import pytest

from fpalg import (
    DegreeBudgetError,
    FieldSpec,
    NCPoly,
    Scalar,
    filtered_dimension,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
    verify_idempotent,
)
from fpalg import morita, rewrite
from fpalg.rewrite import FactorAvoider, normal_form
from completion_spy import spy_completions
from randgen import random_homogeneous_quadratic, random_poly, random_presentation, random_word

Q = FieldSpec(0)
QT = FieldSpec(1)
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"

EDGE_BASES = {
    "zero-quotient": "algebra B over Q generators x relations { x - 1 = 0; x = 0; }",
    "constant-relation": "algebra B over Q generators relations { 1 = 0; }",
    "no-generators": "algebra B over Q generators relations { }",
    "eliminated-generator": "algebra B over Q generators x y relations { y - 2 = 0; }",
    "eliminated-by-t1": "algebra B over Q(t1) generators x y relations { x - (t1) = 0; }",
    "weyl": "algebra B over Q generators x y relations { x*y - y*x - 1 = 0; }",
    "one-sided-inverse": "algebra B over Q generators x y relations { x*y - 1 = 0; }",
    "free": "algebra B over Q generators x y relations { }",
}


def corpus():
    bases = {p.stem: parse_presentation(p.read_text()) for p in sorted(INPUTS.glob("*.alg"))}
    bases.update((name, parse_presentation(text)) for name, text in EDGE_BASES.items())
    rng = random.Random(2111)
    for i in range(24):
        field = (Q, QT)[i % 2]
        bases[f"random-{i}"] = random_presentation(rng, field, max_gens=2 + i // 2 % 2, max_deg=3)
    for i in range(10):
        field = (Q, QT)[i % 2]
        bases[f"quadratic-{i}"] = random_homogeneous_quadratic(rng, field, 2 + i % 2)
    return bases


CORPUS = corpus()


def cases(B):
    """(MP, maxdeg, need) for n = 1..3 at the three degrees of each."""
    for n in (1, 2, 3):
        MP = matrix_presentation(B, n)
        low = MP.pres.max_relation_degree()
        for maxdeg in (low - 1, low + 1, low + 2):
            yield MP, maxdeg, max(maxdeg, low)


def idempotents(MP):
    """The elements of the morita workload and their relatives: e11,
    e11 + c*e12, e11 + e22, the non-idempotent e11 + 3*e22, and
    e11 + c*e12*z1 over a base with generators."""
    field = MP.pres.field
    c = Scalar.from_fraction(field, Fraction(1, 3))
    if field.num_generators:
        t = Scalar.generator(field, 0)
        c = (t + Scalar.one(field)) / (t - Scalar.from_int(field, 2))
    e11 = MP.unit(1, 1)
    yield e11
    if MP.n >= 2:
        yield e11 + MP.unit(1, 2).scale(c)
        yield e11 + MP.unit(2, 2)
        yield e11 + MP.unit(2, 2).scale(Scalar.from_int(field, 3))
        if MP.base.num_gens:
            yield e11 + (MP.unit(1, 2) * MP.lift(0)).scale(c)


def test_corpus_covers_the_cases():
    assert len(CORPUS) == 46
    inhomogeneous = [B for B in CORPUS.values() if not B.is_homogeneous()]
    assert {B.field for B in inhomogeneous} == {Q, QT}
    assert any(B.max_relation_degree() == 3 for B in CORPUS.values())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_normal_form_equals_the_completion(name):
    # the write-back of a matrix with B-normal entries in normal words is
    # one-to-one, so equal matrices are equal normal forms
    B = CORPUS[name]
    rng = random.Random(name)
    for MP, maxdeg, need in cases(B):
        base_gb = rewrite.groebner(MP.base, need)
        ref = rewrite.groebner(MP.pres, need)
        field, m = MP.pres.field, MP.pres.num_gens

        def matrix(f):
            return morita._matrix(f, MP, base_gb)

        polys = [random_poly(rng, field, m, need, n_terms=5) for _ in range(16)]
        for e in idempotents(MP):
            for _ in range(4):
                room = need - e.degree()
                u = random_word(rng, m, room)
                polys.append(e.mul_word(u, random_word(rng, m, room - len(u))))
        for f in polys:
            expected = normal_form(f, ref)
            assert expected.verified
            X = matrix(f)
            assert X == matrix(expected.poly), (MP.n, maxdeg, f)
            assert matrix(morita._span_vector(X, MP)) == X
        for e in idempotents(MP):
            square = e * e - e
            if square.degree() > need:
                with pytest.raises(DegreeBudgetError, match="exceeds verified degree"):
                    verify_idempotent(e, MP, maxdeg)
            else:
                expected = normal_form(square, ref).poly.is_zero()
                assert verify_idempotent(e, MP, maxdeg) == expected, (MP.n, maxdeg, e)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_basis_equals_the_completion(name):
    # the normal words of each length are a linear basis of M_n(B) there;
    # the filtered dimension counts them
    B = CORPUS[name]
    for MP, maxdeg, need in cases(B):
        m = MP.pres.num_gens
        base_gb = rewrite.groebner(MP.base, need)
        ref = FactorAvoider(m, rewrite.groebner(MP.pres, need).entries())
        # the B-normal z-words of length c, then those of length c - 1
        # followed by a unit other than e11 (unit index 0)
        nn = MP.n * MP.n
        lifted = [
            [tuple(nn + g for g in b) for b in words]
            for words in FactorAvoider(MP.base.num_gens, base_gb.entries()).words_up_to(need)
        ]
        levels = [lifted[0]] + [
            lifted[c] + [b + (u,) for b in lifted[c - 1] for u in range(1, nn)]
            for c in range(1, need + 1)
        ]
        expected = ref.words_up_to(need)
        assert [set(words) for words in levels] == [set(words) for words in expected]
        assert [len(words) for words in levels] == [len(words) for words in expected]
        d = need - 2
        if d >= 2:
            assert filtered_dimension(MP, d) == ref.count_up_to(d), (MP.n, d)


def test_full_completes_only_the_base(monkeypatch):
    calls = spy_completions(monkeypatch)
    indexes = []

    class RecordedIndex(rewrite.ReductionIndex):
        def __init__(self, *args):
            super().__init__(*args)
            indexes.append(self)

    monkeypatch.setattr(rewrite, "ReductionIndex", RecordedIndex)
    B = make_aalpha(Scalar.generator(QT, 0))
    MP = matrix_presentation(B, 3)
    assert is_full_idempotent(MP.unit(1, 1), MP, 2).full
    assert [P for P, _ in calls] == [B]
    # the one index is B's completion's, over B's generators only
    assert len(indexes) == 1
    assert all(g < B.num_gens for lw, _ in indexes[0] for g in lw)
