"""The indexed reduce_by_entries against the linear-scan reference, the
index's prefix and suffix tables, and the index a basis hands over."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fpalg import (
    FieldSpec,
    NCPoly,
    Scalar,
    corner_filtered_dims,
    filtered_dimension,
    groebner,
    hilbert_series,
    make_aalpha,
    matrix_presentation,
)
from fpalg.freealg import deglex_key
from fpalg.rewrite import ReductionIndex, reduce_by_entries
from linear_reduction import linear_reduce
from randgen import random_homogeneous_quadratic, random_presentation, random_word

Q = FieldSpec(0)
QT = FieldSpec(1)


def scalar(field, c):
    if field.num_generators and c % 3 == 0:
        return Scalar.generator(field, 0) + Scalar.from_int(field, c)
    return Scalar.from_int(field, c)


def poly(field, m, pairs):
    return NCPoly.from_terms(field, m, [(w, scalar(field, c)) for w, c in pairs])


def entry(field, m, lw, tail):
    """A monic reducer lw + tail whose tail words lie below lw in deglex."""
    below = [(w, c) for w, c in tail if deglex_key(w) < deglex_key(lw)]
    return lw, poly(field, m, [(lw, 1)] + below)


def assert_same_reduction(f, entries):
    expected = linear_reduce(f, entries)
    got = reduce_by_entries(f, ReductionIndex(entries))
    assert got == expected
    # same terms in the same insertion order, so every later
    # iteration over the result visits them alike
    assert list(got._terms.items()) == list(expected._terms.items())


def words(m, min_len=0, max_len=3):
    return st.lists(
        st.integers(0, m - 1), min_size=min_len, max_size=max_len
    ).map(tuple)


coeffs = st.integers(-3, 3).filter(bool)


@st.composite
def reduction_cases(draw):
    m = draw(st.sampled_from((2, 3)))
    field = draw(st.sampled_from((Q, QT)))
    lws = draw(st.lists(words(m, 1, 3), min_size=1, max_size=6, unique=True))
    if draw(st.integers(0, 19)) == 0:
        lws.append(())  # the unit word occurs in every word
    entries = []
    for lw in sorted(lws, key=deglex_key):
        tail = draw(st.lists(st.tuples(words(m, 0, len(lw)), coeffs), max_size=3))
        entries.append(entry(field, m, lw, tail))
    terms = draw(st.lists(st.tuples(words(m, 0, 5), coeffs), min_size=1, max_size=5))
    return poly(field, m, terms), entries


@st.composite
def later_smaller_cases(draw):
    """Two same-length leading words in one word, the deglex-smaller one
    occurring later: the smaller one must win, not the earlier one."""
    m = draw(st.sampled_from((2, 3)))
    length = draw(st.integers(1, 3))
    u, v = draw(
        st.lists(words(m, length, length), min_size=2, max_size=2, unique=True)
    )
    small, big = sorted((u, v), key=deglex_key)
    left, mid, right = draw(words(m, 0, 2)), draw(words(m, 0, 2)), draw(words(m, 0, 2))
    w = left + big + mid + small + right
    entries = [
        entry(Q, m, lw, draw(st.lists(st.tuples(words(m, 0, length), coeffs), max_size=2)))
        for lw in (small, big)
    ]
    return poly(Q, m, [(w, draw(coeffs))]), entries


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reduction_cases())
def test_indexed_matches_linear_scan(case):
    assert_same_reduction(*case)


@settings(max_examples=200, deadline=None)
@given(later_smaller_cases())
def test_rank_beats_position_between_same_length_words(case):
    assert_same_reduction(*case)


def test_find_prefers_rank_over_position():
    # x2*x1 is below x1*x2 in deglex (x1 > x2), yet occurs later in the word
    m = 2
    entries = [entry(Q, m, (1, 0), []), entry(Q, m, (0, 1), [])]
    index = ReductionIndex(sorted(entries, key=lambda e: deglex_key(e[0])))
    w = (0, 0, 1, 0, 1, 0)
    assert index.find(w)[::2] == ((1, 0), 2)
    assert_same_reduction(poly(Q, m, [(w, 1)]), list(index))


@example(f_terms=[((0, 1, 0), 2), ((0,), 1)])
@settings(max_examples=50, deadline=None)
@given(f_terms=st.lists(st.tuples(words(2, 0, 4), coeffs), min_size=1, max_size=4))
def test_unit_reducer_kills_everything(f_terms):
    # the unit word occurs at position 0 of every word
    entries = [entry(Q, 2, (), [])]
    assert_same_reduction(poly(Q, 2, f_terms), entries)
    assert reduce_by_entries(poly(Q, 2, f_terms), ReductionIndex(entries)).is_zero()


def test_index_tracks_removal():
    m = 2
    index = ReductionIndex([entry(Q, m, (1,), []), entry(Q, m, (0, 0), [])])
    assert len(index) == 2
    index.remove((1,))
    assert index.find((1, 1)) is None
    assert index.find((1, 0, 0))[2] == 1
    index.add(*entry(Q, m, (1,), []))
    assert index.find((1, 0, 0))[0] == (1,)
    assert [lw for lw, _ in index] == [(1,), (0, 0)]


def assert_tables_match(index, live, m):
    """starting_with, ending_with and `in` against a scan of the live words,
    asked of every word up to length 3 and every factor of a live word."""
    parts = {w for n in range(4) for w in itertools.product(range(m), repeat=n)}
    parts |= {w[i:j] for w in live for i in range(len(w) + 1) for j in range(i, len(w) + 1)}
    for part in parts:
        assert (part in index) == (part in live)
        starting = {w for w in live if 0 < len(part) < len(w) and w[: len(part)] == part}
        ending = {w for w in live if 0 < len(part) < len(w) and w[len(w) - len(part):] == part}
        assert set(index.starting_with(part)) == starting
        assert set(index.ending_with(part)) == ending
    assert all(index._by_prefix.values()) and all(index._by_suffix.values())
    assert len(index._by_prefix) == len({w[:cut] for w in live for cut in range(1, len(w))})
    assert len(index._by_suffix) == len({w[cut:] for w in live for cut in range(1, len(w))})


@pytest.mark.parametrize("seed", range(20))
def test_tables_follow_adds_and_removes(seed):
    rng = random.Random(seed)
    m = rng.choice((1, 2, 3))
    index = ReductionIndex()
    live = set()
    for _ in range(40):
        w = random_word(rng, m, 5)
        if w in live:
            index.remove(w)
            live.discard(w)
        else:
            index.add(w, None)
            live.add(w)
        assert_tables_match(index, live, m)
    for w in sorted(live):  # remove every word
        index.remove(w)
        live.discard(w)
        assert_tables_match(index, live, m)
    assert len(index) == 0 and not index._by_prefix and not index._by_suffix


def completion_cases():
    """The presentations and degrees of test_completion's differential tests."""
    for seed in range(40):
        rng = random.Random(seed)
        P = random_presentation(rng, (Q, QT)[seed % 2], max_gens=3, max_deg=3, max_rels=3)
        yield P, max(P.max_relation_degree(), 4)
    for seed in range(20):
        rng = random.Random(100 + seed)
        yield random_homogeneous_quadratic(rng, (Q, QT)[seed % 2], rng.randint(2, 3), 3), 4


def test_basis_hands_over_its_tail_reduced_index():
    for P, maxdeg in completion_cases():
        gb = groebner(P, maxdeg)
        handed = list(gb.entries())
        assert [lw for lw, _ in handed] == [g.leading_word() for g in gb.basis]
        assert all(h is g for (_, h), g in zip(handed, gb.basis))


def a_t():
    return make_aalpha(Scalar.generator(QT, 0))


@pytest.mark.parametrize(
    "query",
    [
        lambda: groebner(a_t(), 4),
        lambda: hilbert_series(a_t(), 4),
        lambda: filtered_dimension(matrix_presentation(a_t(), 2), 2),
        lambda: corner_filtered_dims(
            matrix_presentation(a_t(), 2).unit(1, 1), matrix_presentation(a_t(), 2), 2
        ),
    ],
    ids=["groebner", "hilbert_series", "filtered_dimension", "corner_filtered_dims"],
)
def test_one_index_per_query(query, monkeypatch):
    builds = []
    init = ReductionIndex.__init__

    def counting(self, entries=()):
        builds.append(1)
        init(self, entries)

    monkeypatch.setattr(ReductionIndex, "__init__", counting)
    query()
    assert len(builds) == 1
