"""groebner against the all-pairs reference, and truncation consistency."""

import heapq
import random
import types
from collections import Counter

import pytest

from fpalg import (
    FieldSpec,
    NCPoly,
    Presentation,
    Scalar,
    groebner,
    make_aalpha,
    matrix_presentation,
)
from fpalg import rewrite
from allpairs_completion import allpairs_groebner
from randgen import random_homogeneous_quadratic, random_presentation

Q = FieldSpec(0)
QT = FieldSpec(1)


def a_t():
    return make_aalpha(Scalar.generator(QT, 0))


def a_alpha():
    return make_aalpha(Scalar.from_fraction(Q, "3/5"))


def traced_groebner(P, maxdeg, monkeypatch):
    """groebner(P, maxdeg) with its overlap heap traffic recorded.

    reduce_by_entries shares the heapq module; its entries are pairs, the
    overlap entries (key, lseq, rseq, a, b) five-tuples.
    """
    pushed, popped = [], []

    def heappush(heap, entry):
        if len(entry) == 5:
            pushed.append(entry)
        heapq.heappush(heap, entry)

    def heappop(heap):
        entry = heapq.heappop(heap)
        if len(entry) == 5:
            popped.append(entry)
        return entry

    recorder = types.SimpleNamespace(
        heappush=heappush, heappop=heappop, heapify=heapq.heapify
    )
    with monkeypatch.context() as patch:
        patch.setattr(rewrite, "heapq", recorder)
        gb = rewrite.groebner(P, maxdeg)
    return gb, pushed, popped


def assert_same_completion(P, maxdeg, monkeypatch):
    pushed, popped = [], []
    expected = allpairs_groebner(P, maxdeg, pushed, popped)
    gb, got_pushed, got_popped = traced_groebner(P, maxdeg, monkeypatch)
    assert gb == expected
    assert [list(g._terms.items()) for g in gb.basis] == [
        list(g._terms.items()) for g in expected.basis
    ]
    assert Counter(got_pushed) == Counter(pushed)
    assert got_popped == popped


@pytest.mark.parametrize("seed", range(40))
def test_random_presentations_match_allpairs(seed, monkeypatch):
    rng = random.Random(seed)
    field = (Q, QT)[seed % 2]
    P = random_presentation(rng, field, max_gens=3, max_deg=3, max_rels=3)
    assert_same_completion(P, max(P.max_relation_degree(), 4), monkeypatch)


@pytest.mark.parametrize("seed", range(20))
def test_random_quadratics_match_allpairs(seed, monkeypatch):
    rng = random.Random(100 + seed)
    P = random_homogeneous_quadratic(rng, (Q, QT)[seed % 2], rng.randint(2, 3), 3)
    assert_same_completion(P, 4, monkeypatch)


@pytest.mark.parametrize("seed", range(24))
def test_graded_shapes_match_allpairs(seed, monkeypatch):
    # the benchmark's quadratic shape over Q(t1): 2 generators, 1-2
    # relations of 2-4 words, coefficients a small integer or c*t1^e + d
    rng = random.Random(2900 + seed)
    P = random_homogeneous_quadratic(rng, QT, 2)
    assert_same_completion(P, 4, monkeypatch)


@pytest.mark.parametrize(
    "base, n, maxdeg",
    [(a_alpha, 2, 6), (a_alpha, 3, 5), (a_t, 2, 6), (a_t, 3, 5)],
)
def test_matrix_algebras_match_allpairs(base, n, maxdeg, monkeypatch):
    assert_same_completion(matrix_presentation(base(), n).pres, maxdeg, monkeypatch)


def test_overlaps_are_pushed_once_per_pair_and_cut(monkeypatch):
    # x1*x1 overlaps itself once; x1^3 and longer words are beyond maxdeg 2
    P = make_aalpha(Scalar.generator(QT, 0))
    _, pushed, _ = traced_groebner(P, 3, monkeypatch)
    assert [(a, b) for _, _, _, a, b in pushed] == [((0,), (0,))]
    _, pushed, _ = traced_groebner(P, 2, monkeypatch)
    assert pushed == []


# ---------------------------------------------------------------------------
# the final pass reduces only elements with a reducible tail
# ---------------------------------------------------------------------------


def reduced_inputs(P, maxdeg, monkeypatch):
    """The basis of groebner(P, maxdeg) and every poly it handed to
    reduce_by_entries, in call order."""
    seen = []
    real = rewrite.reduce_by_entries

    def spy(f, entries):
        seen.append(f)
        return real(f, entries)

    with monkeypatch.context() as patch:
        patch.setattr(rewrite, "reduce_by_entries", spy)
        gb = rewrite.groebner(P, maxdeg)
    return gb, seen


def quadratic(*pairs):
    """Relations over Q in x1, x2 from (word, int) pairs."""
    return NCPoly.from_terms(Q, 2, [(w, Scalar.from_int(Q, c)) for w, c in pairs])


# At maxdeg 2 quadratic relations have no overlaps (an overlap word has
# length >= 3) and displace nothing, so the completion loop reduces each
# relation once and every later call is the final pass's.


def test_final_pass_skips_tails_without_leading_words(monkeypatch):
    # tails x2*x2 and x2*x1 hold no leading word
    rels = (quadratic(((0, 0), 1), ((1, 1), -1)), quadratic(((0, 1), 1), ((1, 0), 2)))
    P = Presentation(Q, ("x1", "x2"), rels)
    gb, seen = reduced_inputs(P, 2, monkeypatch)
    assert seen == list(rels)
    assert gb.basis == (rels[1], rels[0])


def test_final_pass_reduces_a_tail_rewritten_by_a_later_element(monkeypatch):
    # x1*x1 - x1*x2 comes first; the later x1*x2 - x2*x2 has the smaller
    # leading word, which the earlier tail holds
    first = quadratic(((0, 0), 1), ((0, 1), -1))
    later = quadratic(((0, 1), 1), ((1, 1), -1))
    P = Presentation(Q, ("x1", "x2"), (first, later))
    gb, seen = reduced_inputs(P, 2, monkeypatch)
    assert seen == [first, later, first]
    assert gb.basis == (later, quadratic(((0, 0), 1), ((1, 1), -1)))
    assert gb == allpairs_groebner(P, 2)


# ---------------------------------------------------------------------------
# truncation consistency
# ---------------------------------------------------------------------------


def assert_truncation_consistent(P, d):
    low = groebner(P, d).basis
    high = [g for g in groebner(P, d + 1).basis if len(g.leading_word()) <= d]
    assert list(low) == high


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_truncation_consistent_on_a_t(d):
    assert_truncation_consistent(a_t(), d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_truncation_consistent_on_a_alpha(d):
    assert_truncation_consistent(a_alpha(), d)


@pytest.mark.parametrize("seed", range(30))
def test_truncation_consistent_on_random_quadratics(seed):
    rng = random.Random(200 + seed)
    field = (Q, QT)[seed % 2]
    P = random_homogeneous_quadratic(rng, field, rng.randint(2, 3), 3)
    for d in (2, 3):
        assert_truncation_consistent(P, d)
