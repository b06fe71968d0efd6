import pytest
from hypothesis import given, strategies as st

from streamcores.intervals import EMPTY, IntervalSet, _meet, _merge, coverage_at_least


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

    def test_lists_become_tuples(self):
        # _merge hands back the spans it does not change, so it must be given tuples
        for ivs in (IntervalSet([[0, 2], [1, 3]]), IntervalSet([[0, 2], [5, 6]])):
            assert all(type(span) is tuple for span in ivs.spans)
        assert IntervalSet([[0, 2], [1, 3]]).spans == ((0, 3),)


nonempty_spans = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 6)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=12,
)


@given(nonempty_spans)
def test_merge_is_canonical_and_keeps_the_spans_it_does_not_change(raw):
    got = _merge(list(raw))
    runs = []  # the canonical form of the covered ticks: one span per maximal run
    for t in sorted({t for a, b in raw for t in range(a, b)}):
        if runs and runs[-1][1] == t:
            runs[-1] = (runs[-1][0], t + 1)
        else:
            runs.append((t, t + 1))
    assert got == tuple(runs)
    assert all(type(span) is tuple for span in got)
    for i, span in enumerate(raw):
        others = raw[:i] + raw[i + 1:]
        if not any(a <= span[1] and span[0] <= b for a, b in others):  # none overlaps or touches
            assert any(kept is span for kept in got)


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


@given(interval_sets, lopsided_pairs())
def test_three_way_clip_matches_pointwise(a, pair):
    # the star-satellite core clips a pair as two chained meets; lopsided
    # operands take the bisecting path, and an empty one empties the clip
    short, long, hi = pair
    for x, y, z in ((short, long, a), (long, a, short), (a, short, long), (EMPTY, long, a),
                    (long, a, EMPTY), (a, long, long)):
        got = _meet(_meet(x.spans, y.spans), z.spans)
        assert isinstance(got, tuple)
        assert got == (x & y & z).spans
        assert ticks(IntervalSet._raw(got), 0, hi) == (
            ticks(x, 0, hi) & ticks(y, 0, hi) & ticks(z, 0, hi))


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


@st.composite
def touching_sets(draw):
    """Up to 6 interval sets whose spans start and end on a grid of 4 ticks, so spans of
    different sets touch or share endpoints."""
    grid = st.integers(0, 7).map(lambda g: 4 * g)
    edges = st.tuples(grid, grid).filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    return draw(st.lists(st.lists(edges, max_size=3).map(IntervalSet), max_size=6))


@given(touching_sets(), st.integers(1, 8))
def test_coverage_of_touching_spans_matches_counting(sets, k):
    got = coverage_at_least(sets, k)
    assert got.spans == IntervalSet(got.spans).spans  # canonical: touching pieces are one
    covered, each = ticks(got), [ticks(ivs) for ivs in sets]
    for t in range(0, 32):
        assert (t in covered) == (sum(t in ts for ts in each) >= k)
    # the sets as span tuples cover alike
    assert coverage_at_least([ivs.spans for ivs in sets], k) == got


def test_coverage_above_the_number_of_sets_is_empty():
    sets = [IntervalSet.span(0, 4), IntervalSet([(0, 4), (6, 9)]), IntervalSet.span(2, 8)]
    assert coverage_at_least(sets, 3) == IntervalSet([(2, 4)])
    assert coverage_at_least(sets, 4) == EMPTY
    assert coverage_at_least([], 1) == EMPTY


def test_coverage_of_spans_that_meet_end_to_start():
    # a set ends where another starts: the count does not dip between them
    sets = [IntervalSet.span(0, 5), IntervalSet.span(3, 5), IntervalSet.span(5, 9),
            IntervalSet.span(5, 7)]
    assert coverage_at_least(sets, 2) == IntervalSet.span(3, 7)
    assert coverage_at_least(sets, 1) == IntervalSet.span(0, 9)
    assert coverage_at_least(sets, 3) == EMPTY


def test_coverage_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        coverage_at_least([], 0)


def test_bounds_and_repr():
    a = IntervalSet([(2, 4), (8, 9)])
    assert a.bounds() == (2, 9)
    assert EMPTY.bounds() is None
    assert "2,4" in repr(a).replace(" ", "")
