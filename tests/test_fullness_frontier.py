"""The fullness search over the rank-growing frontier against all words.

is_full_idempotent inserts only the tags that extend a rank-growing tag;
the all-words loop it replaced lives on as the reference
tests/allwords_fullness.py.  Both must give the same verdict, bound and
certificate, certificates being the part that is sensitive to the order
of the inserts.
"""

import pathlib
from fractions import Fraction

import pytest

from fpalg import (
    FieldSpec,
    Presentation,
    Scalar,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
)
from fpalg import morita
from allwords_fullness import allwords_full_idempotent

Q = FieldSpec(0)
QT = FieldSpec(1)
INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def projector():
    return parse_presentation((INPUTS / "projector.alg").read_text())


def bases():
    return {
        "Q": Presentation(Q, (), (), name="B"),
        "projector": projector(),
        "A_t": make_aalpha(Scalar.generator(QT, 0)),
    }


def conjugate_scalars(field):
    cs = [Scalar.from_int(field, 1), Scalar.from_int(field, -2),
          Scalar.from_fraction(field, Fraction(1, 3))]
    if field.num_generators:
        t = Scalar.generator(field, 0)
        cs += [t, (t + Scalar.one(field)) / (t - Scalar.from_int(field, 2))]
    return cs


def idempotents(MP, base):
    """Named idempotents of M_n(B): e11, its conjugates e11 + c*e12,
    e11 + c*e21 and, over a base with generators, e11 + c*e12*z1; e11 +
    e22 and its conjugates e11 + e22 + c*e13; and over projector z1 and
    e11*z1, which are not full since x1 can be evaluated at 0.  Inserting
    by (len v, v, u) instead of (len u, u, v) changes the certificates of
    e11 + e22 + c*e13."""
    e11 = MP.unit(1, 1)
    yield "e11", e11
    if MP.n >= 2:
        for i, c in enumerate(conjugate_scalars(MP.field)):
            yield f"e11+c{i}*e12", e11 + MP.unit(1, 2).scale(c)
            yield f"e11+c{i}*e21", e11 + MP.unit(2, 1).scale(c)
            if MP.base.num_gens:
                yield f"e11+c{i}*e12*z1", e11 + (MP.unit(1, 2) * MP.lift(0)).scale(c)
            if MP.n >= 3:
                yield f"e11+e22+c{i}*e13", e11 + MP.unit(2, 2) + MP.unit(1, 3).scale(c)
        yield "e11+e22", e11 + MP.unit(2, 2)
    if base == "projector":
        yield "z1", MP.lift(0)
        if MP.n >= 2:
            yield "e11*z1", e11 * MP.lift(0)


class TestFrontierAgainstAllWords:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("base", ["Q", "projector", "A_t"])
    def test_same_verdict_bound_and_certificate(self, base, n):
        MP = matrix_presentation(bases()[base], n)
        for name, e in idempotents(MP, base):
            for d in range(4):
                expected = allwords_full_idempotent(e, MP, d)
                got = is_full_idempotent(e, MP, d)
                assert got == expected, (base, n, name, d)
                assert got.certificate == expected.certificate

    def test_cases_cover_both_verdicts(self):
        MP = matrix_presentation(bases()["projector"], 2)
        verdicts = {
            name: is_full_idempotent(e, MP, 3) for name, e in idempotents(MP, "projector")
        }
        assert not verdicts["z1"].full and not verdicts["e11*z1"].full
        assert all(v.full for name, v in verdicts.items() if "z1" not in name)
        # the conjugates find longer certificates than e11's
        assert any(len(v.certificate) > len(verdicts["e11"].certificate)
                   for v in verdicts.values() if v.full)

    @pytest.mark.parametrize("k", [2, -1, 3])
    def test_non_idempotent_rejected_alike(self, k):
        MP = matrix_presentation(bases()["A_t"], 2)
        e = MP.unit(1, 1) + MP.unit(2, 2).scale(Scalar.from_int(MP.field, k))
        for search in (is_full_idempotent, allwords_full_idempotent):
            with pytest.raises(ValueError, match="not an idempotent"):
                search(e, MP, 2)


class TestFrontierWork:
    BOUND = 100

    def test_deep_non_full_search_stays_small(self, monkeypatch):
        # the all-words loop makes over 26,000 reductions here at d = 5
        # alone; the frontier dies out after a few lengths
        MP = matrix_presentation(projector(), 2)
        e = MP.unit(1, 1) * MP.lift(0)
        calls = []
        real = morita._reduced

        def counting(matrix, MP, base_gb):
            calls.append(1)
            assert len(calls) <= self.BOUND, "fullness search reduces too much"
            return real(matrix, MP, base_gb)

        # every reduction of the matrix walk goes through _reduced
        monkeypatch.setattr(morita, "_reduced", counting)
        verdict = is_full_idempotent(e, MP, 6)
        assert str(verdict) == "unknown-at-6"
        assert verdict.bound == 6
        assert calls
