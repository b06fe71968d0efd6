import pytest
from hypothesis import given, strategies as st

from streamcores.intervals import EMPTY, IntervalSet, coverage_at_least


def ticks(ivs, lo=0, hi=32):
    return {t for a, b in ivs.spans for t in range(max(a, lo), min(b, hi))}


spans = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).map(lambda p: (min(p), max(p))),
    max_size=8,
)
interval_sets = spans.map(IntervalSet)


class TestConstruction:
    def test_merges_overlap_and_adjacency(self):
        assert IntervalSet([(0, 2), (2, 3)]).spans == ((0, 3),)
        assert IntervalSet([(0, 2), (1, 5)]).spans == ((0, 5),)

    def test_drops_empty_pieces(self):
        assert IntervalSet([(3, 3)]).spans == ()

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            IntervalSet([(5, 3)])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntervalSet([(0.5, 2)])

    @given(spans)
    def test_normalizing_twice_is_normalizing_once(self, raw):
        once = IntervalSet(raw)
        assert IntervalSet(once.spans) == once


class TestUnion:
    def test_identity(self):
        a = IntervalSet.span(0, 2)
        assert a.union(EMPTY) == a

    def test_adjacency_merges(self):
        assert IntervalSet.span(0, 2) | IntervalSet.span(2, 3) == IntervalSet.span(0, 3)

    def test_bridging(self):
        # frozen from the tick-membership oracle over 0..6
        got = IntervalSet([(0, 2), (5, 6)]) | IntervalSet.span(1, 3)
        assert ticks(got, 0, 7) == {0, 1, 2, 5}
        assert got == IntervalSet([(0, 3), (5, 6)])


class TestIntersect:
    def test_idempotent(self):
        a = IntervalSet([(0, 2), (4, 9)])
        assert a & a == a

    def test_half_open_boundary(self):
        assert IntervalSet.span(0, 1) & IntervalSet.span(1, 2) == EMPTY

    def test_overlap(self):
        got = IntervalSet.span(0, 2) & IntervalSet.span(1, 3)
        assert ticks(got) == {1}
        assert got == IntervalSet.span(1, 2)


class TestMeasure:
    def test_empty(self):
        assert EMPTY.measure() == 0

    def test_single(self):
        assert IntervalSet.span(0, 2).measure() == 2

    def test_additive(self):
        assert IntervalSet([(0, 2), (5, 6)]).measure() == 3


@st.composite
def lopsided_pairs(draw):
    """A set of 0-3 spans and one of up to 64, their endpoints touching or nested."""
    long_spans, t = [], draw(st.integers(0, 2))
    count = draw(st.integers(0, 64))  # a plain list strategy rarely draws long lists
    for gap, length in draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)),
                                     min_size=count, max_size=count)):
        long_spans.append((t, t + length))
        t += length + gap
    ends = sorted({0, t} | {e for span in long_spans for e in span})
    point = st.sampled_from(ends).flatmap(lambda e: st.integers(max(0, e - 1), e + 1))
    short = draw(st.lists(st.tuples(point, point).map(lambda p: (min(p), max(p))),
                          max_size=3))
    return IntervalSet(short), IntervalSet(long_spans), t + 2


@given(lopsided_pairs())
def test_lopsided_intersection_matches_pointwise_and_merge(pair):
    short, long, hi = pair
    for a, b in ((short, long), (long, short)):
        got = a & b
        assert ticks(got, 0, hi) == ticks(a, 0, hi) & ticks(b, 0, hi)
        assert got.spans == IntervalSet(got.spans).spans


@given(interval_sets, interval_sets, lopsided_pairs())
def test_union_matches_pointwise(a, b, pair):
    assert ticks(a | b) == ticks(a) | ticks(b)
    short, long, hi = pair
    for x, y in ((short, long), (long, short)):
        got = x | y
        assert ticks(got, 0, hi) == ticks(x, 0, hi) | ticks(y, 0, hi)
        assert got.spans == IntervalSet(got.spans).spans


@given(interval_sets, interval_sets)
def test_intersection_matches_pointwise(a, b):
    assert ticks(a & b) == ticks(a) & ticks(b)


@given(interval_sets, interval_sets)
def test_commutativity(a, b):
    assert a | b == b | a
    assert a & b == b & a


@given(interval_sets, interval_sets, interval_sets)
def test_associativity(a, b, c):
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)


@given(interval_sets, interval_sets)
def test_inclusion_exclusion(a, b):
    assert (a | b).measure() + (a & b).measure() == a.measure() + b.measure()


@given(interval_sets, interval_sets)
def test_issubset(a, b):
    assert a.issubset(b) == (ticks(a) <= ticks(b))


@given(st.lists(interval_sets, max_size=5), st.integers(1, 4))
def test_coverage_matches_counting(sets, k):
    got = coverage_at_least(sets, k)
    covered, each = ticks(got), [ticks(ivs) for ivs in sets]
    for t in range(0, 32):
        assert (t in covered) == (sum(t in ts for ts in each) >= k)


def test_coverage_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        coverage_at_least([], 0)


def test_bounds_and_repr():
    a = IntervalSet([(2, 4), (8, 9)])
    assert a.bounds() == (2, 9)
    assert EMPTY.bounds() is None
    assert "2,4" in repr(a).replace(" ", "")
