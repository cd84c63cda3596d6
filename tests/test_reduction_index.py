"""The indexed reduce_by_entries against the linear-scan reference."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fpalg import FieldSpec, NCPoly, Scalar
from fpalg.freealg import deglex_key
from fpalg.rewrite import ReductionIndex, reduce_by_entries
from linear_reduction import linear_reduce

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
