"""The basis of M_n(B) written down from B's basis, against its completion.

morita._groebner_for completes the base B alone and builds the basis of the
matrix presentation from B's basis.  groebner(MP.pres, need) stays the
reference: the whole basis tuple and complete_to must be equal, for
n = 1..3 at three degrees each, over the golden inputs, random presentations
over Q and Q(t1) (inhomogeneous ones included), random homogeneous
quadratics and the edge bases.  A guard pins that a fullness search
completes one basis, on B's generators.
"""

import pathlib
import random

import pytest

from fpalg import (
    FieldSpec,
    Scalar,
    is_full_idempotent,
    make_aalpha,
    matrix_presentation,
    parse_presentation,
)
from fpalg import morita, rewrite
from randgen import random_homogeneous_quadratic, random_presentation

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


def test_corpus_covers_the_cases():
    inhomogeneous = [B for B in CORPUS.values() if not B.is_homogeneous()]
    assert {B.field for B in inhomogeneous} == {Q, QT}
    assert any(B.max_relation_degree() == 3 for B in CORPUS.values())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_basis_equals_the_completion(name):
    B = CORPUS[name]
    for n in (1, 2, 3):
        MP = matrix_presentation(B, n)
        low = MP.pres.max_relation_degree()
        for maxdeg in (low - 1, low + 1, low + 2):
            gb = morita._groebner_for(MP, maxdeg)
            need = max(maxdeg, low)
            ref = rewrite.groebner(MP.pres, need)
            assert gb.basis == ref.basis, (n, maxdeg)
            assert gb.complete_to == ref.complete_to == need
            assert list(gb.entries()) == list(ref.entries())


def test_full_completes_only_the_base(monkeypatch):
    calls = []

    def counting(P, maxdeg):
        calls.append(P.num_gens)
        return rewrite.groebner(P, maxdeg)

    monkeypatch.setattr(morita, "groebner", counting)
    B = make_aalpha(Scalar.generator(QT, 0))
    MP = matrix_presentation(B, 3)
    assert is_full_idempotent(MP.unit(1, 1), MP, 2).full
    assert calls == [B.num_gens]
