"""Corner fingerprints over normal words only, and the fullness re-check.

corner_filtered_dims inserts e*w*e only for normal words w, enumerated by
FactorAvoider.words_up_to; the all-words loop it replaced lives on as the
reference tests/allwords_corner.py.
"""

import random
from fractions import Fraction
from itertools import product

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
    verify_fullness_certificate,
    verify_idempotent,
)
from fpalg import morita
from fpalg.rewrite import FactorAvoider, groebner, reduce_by_entries
from allwords_corner import allwords_corner_dims
from completion_spy import degrees_of, spy_completions
from randgen import random_homogeneous_quadratic, random_presentation, simple_scalar

Q = FieldSpec(0)
QT = FieldSpec(1)


def bases():
    return {
        "Q": Presentation(Q, (), (), name="B"),
        "A_t": make_aalpha(Scalar.generator(QT, 0)),
        "A_alpha": make_aalpha(Scalar.from_fraction(Q, Fraction(3, 2))),
    }


def idempotents(MP, seed):
    """e11 and e11 + c*e12 at three seeded nonzero c."""
    rng = random.Random(seed)
    field = MP.field
    yield MP.unit(1, 1)
    for _ in range(3):
        c = simple_scalar(rng, field, nonzero=True)
        yield MP.unit(1, 1) + MP.unit(1, 2).scale(c)


class TestCornerAgainstAllWords:
    @pytest.mark.parametrize("n,depth", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("base", ["Q", "A_t", "A_alpha"])
    def test_same_dims(self, n, depth, base):
        MP = matrix_presentation(bases()[base], n)
        for e in idempotents(MP, f"{base}:{n}"):
            expected = allwords_corner_dims(e, MP, depth)
            for d in range(depth + 1):
                assert corner_filtered_dims(e, MP, d) == expected[: d + 1]

    def test_zero_algebra(self):
        # a constant relation kills everything: no word is normal
        P = Presentation(Q, ("x1",), (NCPoly.one(Q, 1),), name="Z")
        MP = matrix_presentation(P, 2)
        e = MP.unit(1, 1)
        assert corner_filtered_dims(e, MP, 3) == allwords_corner_dims(e, MP, 3) == [0] * 4

    def test_deep_corner_is_criterion_7(self):
        MP = matrix_presentation(bases()["A_t"], 2)
        assert corner_filtered_dims(MP.unit(1, 1), MP, 6) == [1, 3, 6, 10, 15, 21, 28]


def _normal_by_reduction(gb, m, n):
    """Words of length <= n that reduction leaves unchanged, (length, lex)."""
    out = []
    for length in range(n + 1):
        for w in product(range(m), repeat=length):
            mono = NCPoly.monomial(gb.field, m, w)
            if reduce_by_entries(mono, gb.entries()) == mono:
                out.append(w)
    return out


class TestWordsUpTo:
    def presentations(self):
        rng = random.Random(91)
        for _ in range(12):
            yield random_presentation(rng, Q, max_gens=3, max_deg=3)
        for _ in range(6):
            yield random_homogeneous_quadratic(rng, QT, rng.choice((2, 3)))
        P = random_presentation(rng, Q, max_gens=2, max_deg=2)
        yield Presentation(Q, P.generators, P.relations + (NCPoly.one(Q, P.num_gens),))

    def test_normal_words_in_order_and_counted(self):
        dead = 0
        for P in self.presentations():
            gb = groebner(P, 4)
            m = P.num_gens
            avoider = FactorAvoider(m, gb.entries())
            dead += avoider.trivial_dead
            levels = avoider.words_up_to(4)
            assert len(levels) == 5
            assert [w for words in levels for w in words] == _normal_by_reduction(gb, m, 4)
            for n, words in enumerate(levels):
                assert all(len(w) == n for w in words)
                assert len(words) == avoider.count(n)
        assert dead >= 1


class TestCornerWork:
    @pytest.mark.parametrize("base,d", [("Q", 4), ("A_t", 4), ("A_alpha", 3)])
    def test_reductions_bounded_by_normal_words(self, monkeypatch, base, d):
        MP = matrix_presentation(bases()[base], 2)
        e = MP.unit(1, 1)
        gb = groebner(MP.pres, max(d + 2, MP.pres.max_relation_degree()))
        normal = FactorAvoider(MP.pres.num_gens, gb.entries()).count_up_to(d)
        calls = []
        real = morita._reduced

        def counting(matrix, MP, base_gb):
            calls.append(1)
            return real(matrix, MP, base_gb)

        # every reduction of the matrix walk goes through _reduced: e and
        # e*e, then per normal word w one step to e*w and one product e*w*e
        monkeypatch.setattr(morita, "_reduced", counting)
        corner_filtered_dims(e, MP, d)
        assert calls
        assert len(calls) <= 2 * normal + 2
        # the all-words loop would make one reduction per word at least
        assert 2 * normal + 2 < sum(MP.pres.num_gens ** c for c in range(d + 1))


class TestFullnessRecheck:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_recheck_uses_the_search_degree(self, monkeypatch, d):
        MP = matrix_presentation(bases()["A_t"], 2)
        e = MP.unit(1, 1)
        calls = spy_completions(monkeypatch)
        verdict = is_full_idempotent(e, MP, d)
        assert verdict.full
        assert verify_fullness_certificate(e, MP, verdict.certificate, d)
        assert degrees_of(calls) == [d, d]

    def test_longer_certificate_widens_the_basis(self, monkeypatch):
        MP = matrix_presentation(bases()["Q"], 2)
        e = MP.unit(1, 1)
        # 1 = e11 + e21*e11*e12: the certificate's longest |u| + |v| is 2
        certificate = tuple(is_full_idempotent(e, MP, 3).certificate)
        calls = spy_completions(monkeypatch)
        assert verify_fullness_certificate(e, MP, certificate, 0)
        assert degrees_of(calls) == [2]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("base", ["Q", "A_t", "A_alpha"])
    def test_conjugate_certificates_reverify(self, n, base):
        MP = matrix_presentation(bases()[base], n)
        for e in idempotents(MP, f"full:{base}:{n}"):
            verdict = is_full_idempotent(e, MP, 2)
            assert verdict.full
            assert verify_fullness_certificate(e, MP, verdict.certificate, 2)


class TestNegativeDegree:
    def test_full_rejects_negative_degree(self):
        MP = matrix_presentation(bases()["Q"], 2)
        with pytest.raises(ValueError, match="must be >= 0") as info:
            is_full_idempotent(MP.unit(1, 1), MP, -1)
        assert not isinstance(info.value, DegreeBudgetError)

    def test_idem_rejects_negative_degree(self):
        MP = matrix_presentation(bases()["Q"], 2)
        with pytest.raises(ValueError, match="must be >= 0") as info:
            verify_idempotent(MP.unit(1, 1), MP, -1)
        assert not isinstance(info.value, DegreeBudgetError)
