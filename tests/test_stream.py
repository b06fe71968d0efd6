import random

import pytest

from streamcores import IntervalSet, StreamGraph, TimeNodeSet, induced_static_graph
from streamcores.oracle import (
    build_event_table,
    degree_profile,
    induced_substream,
    induced_substream_between,
)
from streamcores.toys import star_toy_stream

from helpers import random_stream, random_subset


class TestTimeNodeSet:
    def test_canonical_drops_empty_entries(self):
        a = TimeNodeSet({"x": IntervalSet(), "y": IntervalSet.span(0, 1)})
        assert a.nodes() == ("y",)
        assert "x" not in a

    def test_set_operations(self):
        a = TimeNodeSet({"x": IntervalSet.span(0, 4)})
        b = TimeNodeSet({"x": IntervalSet.span(2, 6), "y": IntervalSet.span(0, 1)})
        assert a.union(b).get("x") == IntervalSet.span(0, 6)
        assert a.intersect(b) == TimeNodeSet({"x": IntervalSet.span(2, 4)})
        assert a.difference(b) == TimeNodeSet({"x": IntervalSet.span(0, 2)})
        assert a.intersect(b).issubset(a)
        assert a.measure() == 4
        assert b.node_count() == 2

    def test_hash_follows_equality(self):
        a = TimeNodeSet({"x": IntervalSet.span(0, 2)})
        b = TimeNodeSet({"x": IntervalSet([(0, 1), (1, 2)])})
        assert a == b and hash(a) == hash(b)


class TestStreamGraph:
    def test_default_presence_is_interaction_union(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("a", "c"): [(5, 7)]})
        assert s.presence("a") == IntervalSet([(0, 2), (5, 7)])
        assert s.presence("b") == IntervalSet.span(0, 2)
        assert s.horizon == (0, 7)

    def test_default_presence_matches_pairwise_unions(self):
        rng = random.Random(44)
        for trial in range(60):
            s = random_stream(rng, directed=bool(trial % 2), max_intervals=20)
            want = {}
            for (u, v), ivs in s.interaction_items():
                for w in (u, v):
                    want[w] = want.get(w, IntervalSet()).union(ivs)
            assert {v: s.presence(v) for v in want} == want

    def test_undirected_pair_key_is_normalized(self):
        s = StreamGraph({("b", "a"): [(0, 1)]})
        assert s.pair("a", "b") == s.pair("b", "a") == IntervalSet.span(0, 1)

    def test_duplicate_pairs_merge(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("b", "a"): [(1, 4)]})
        assert s.pair("a", "b") == IntervalSet.span(0, 4)

    def test_rejects_undirected_self_loop(self):
        with pytest.raises(ValueError):
            StreamGraph({("a", "a"): [(0, 1)]})

    def test_presence_must_cover_interactions(self):
        with pytest.raises(ValueError):
            StreamGraph({("a", "b"): [(0, 5)]}, presence={"a": [(0, 3)], "b": [(0, 5)]})

    def test_declared_horizon_is_checked(self):
        with pytest.raises(ValueError):
            StreamGraph({("a", "b"): [(0, 5)]}, horizon=(0, 3))

    def test_non_integer_horizon_is_refused(self):
        with pytest.raises(TypeError, match="horizon bounds must be integers"):
            StreamGraph({("a", "b"): [(1, 3)]}, horizon=(0.5, 9.7))

    @pytest.mark.parametrize("interactions", [{}, {("a", "b"): [(1, 3)]}])
    def test_reversed_horizon_is_refused(self, interactions):
        with pytest.raises(ValueError, match=r"horizon \(5, 0\) ends before it starts"):
            StreamGraph(interactions, horizon=(5, 0))

    def test_empty_horizon_is_accepted(self):
        assert StreamGraph({}, horizon=(5, 5)).horizon == (5, 5)

    def test_isolated_node_kept_with_empty_presence(self):
        s = StreamGraph({("a", "b"): [(0, 1)]}, nodes=["a", "b", "z"])
        assert "z" in s.nodes
        assert not s.presence("z")

    def test_unknown_node_raises(self):
        s = StreamGraph({("a", "b"): [(0, 1)]})
        with pytest.raises(KeyError):
            s.presence("nope")


class TestEventTable:
    def test_single_interval_transcription(self):
        s = StreamGraph({("a", "b"): [(1, 3)]})
        table = build_event_table(s)
        assert table.events["a"] == ((1, "b", 1), (3, "b", -1))
        assert table.inbound is None

    def test_disjoint_intervals_in_time_order(self):
        s = StreamGraph({("a", "b"): [(1, 3), (7, 8)]})
        assert [e[0] for e in build_event_table(s).events["a"]] == [1, 3, 7, 8]

    def test_overlapping_neighbors_sorted(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("a", "c"): [(1, 3)]})
        assert build_event_table(s).events["a"] == (
            (0, "b", 1), (1, "c", 1), (2, "b", -1), (3, "c", -1),
        )

    def test_end_sorts_before_start_at_same_tick(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("a", "c"): [(2, 3)]})
        assert build_event_table(s).events["a"] == (
            (0, "b", 1), (2, "b", -1), (2, "c", 1), (3, "c", -1),
        )

    def test_directed_tables_are_split(self):
        s = StreamGraph({("a", "b"): [(0, 2)]}, directed=True)
        table = build_event_table(s)
        assert table.events["a"] == ((0, "b", 1), (2, "b", -1))
        assert table.events["b"] == ()
        assert table.inbound["b"] == ((0, "a", 1), (2, "a", -1))

    def test_balance_invariant_on_random_streams(self):
        rng = random.Random(4)
        for _ in range(50):
            s = random_stream(rng)
            table = build_event_table(s)
            for v in s.nodes:
                running = 0
                for _, _, flag in table.events[v]:
                    running += flag
                    assert running >= 0
                assert running == 0


class TestInducedSubstream:
    def test_whole_presence_is_identity(self):
        s = star_toy_stream()
        t = induced_substream(s, s.presence_set())
        assert dict(t.interaction_items()) == dict(s.interaction_items())
        assert t.presence_set() == s.presence_set()

    def test_single_node_keeps_no_interactions(self):
        s = star_toy_stream()
        t = induced_substream(s, s.presence_set().restrict(["a"]))
        assert t.interaction_count() == 0

    def test_clips_both_endpoints(self):
        s = star_toy_stream()
        wp = TimeNodeSet({"a": IntervalSet.span(0, 2), "b": IntervalSet.span(0, 2)})
        t = induced_substream(s, wp)
        assert t.pair("a", "b") == IntervalSet.span(1, 2)

    def test_rejects_non_subset(self):
        s = star_toy_stream()
        with pytest.raises(ValueError):
            induced_substream(s, TimeNodeSet({"a": IntervalSet.span(0, 99)}))

    def test_monotone_in_the_inducing_set(self):
        rng = random.Random(11)
        for _ in range(30):
            s = random_stream(rng)
            big = random_subset(rng, s.presence_set())
            small = random_subset(rng, big)
            inner = induced_substream(s, small)
            outer = induced_substream(s, big)
            for (u, v), ivs in inner.interaction_items():
                assert ivs.issubset(outer.pair(u, v))

    def test_directed_keeps_one_way_interactions(self):
        s = StreamGraph({("a", "b"): [(0, 4)], ("b", "a"): [(0, 4)]}, directed=True)
        w1 = TimeNodeSet({"a": IntervalSet.span(0, 4)})
        w2 = TimeNodeSet({"b": IntervalSet.span(1, 3)})
        t = induced_substream_between(s, w1, w2)
        assert t.pair("a", "b") == IntervalSet.span(1, 3)
        assert not t.pair("b", "a")


def edges(graph):
    return frozenset(key for key, _ in graph.interaction_items())


class TestInducedStaticGraph:
    def test_empty(self):
        g = induced_static_graph(StreamGraph({}))
        assert g.nodes == () and not edges(g)

    def test_star_toy_edges(self):
        g = induced_static_graph(star_toy_stream())
        assert ("a", "b") in edges(g) and ("b", "d") in edges(g)

    def test_disjoint_times_collapse_to_one_edge(self):
        g = induced_static_graph(StreamGraph({("a", "b"): [(0, 1), (5, 6)]}))
        assert edges(g) == frozenset({("a", "b")})

    def test_everything_present_over_one_tick(self):
        s = StreamGraph({("a", "b"): [(2, 4)], ("c", "b"): [(7, 9)]}, nodes=["a", "b", "c", "z"],
                        directed=True)
        g = induced_static_graph(s)
        assert g.directed and g.nodes == ("a", "b", "c") and g.horizon == (0, 1)
        assert all(ivs == IntervalSet.span(0, 1) for _, ivs in g.interaction_items())
        assert all(g.presence(v) == IntervalSet.span(0, 1) for v in g.nodes)

    def test_present_isolated_node_is_kept(self):
        s = StreamGraph({("a", "b"): [(2, 4)]}, presence={"a": [(2, 4)], "b": [(0, 9)],
                                                          "c": [(5, 6)]})
        g = induced_static_graph(s)
        assert g.nodes == ("a", "b", "c") and edges(g) == frozenset({("a", "b")})
        assert g.presence("c") == IntervalSet.span(0, 1)


class TestDegreeProfile:
    def test_no_interactions_is_constant_zero(self):
        s = StreamGraph({("a", "b"): [(0, 5)]}, nodes=["a", "b", "c"])
        profile = degree_profile(s, "c")
        assert profile.segments == ((0, 5, 0),)

    def test_star_toy_degree_at_two(self):
        # at tick 2, b talks to both a and d
        assert degree_profile(star_toy_stream(), "b").value(2) == 2

    def test_step_values(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("a", "c"): [(1, 3)]})
        profile = degree_profile(s, "a")
        assert profile.segments == ((0, 1, 1), (1, 2, 2), (2, 3, 1))

    def test_directed_needs_direction(self):
        s = StreamGraph({("a", "b"): [(0, 2)]}, directed=True)
        with pytest.raises(ValueError):
            degree_profile(s, "a")
        assert degree_profile(s, "a", "out").value(1) == 1
        assert degree_profile(s, "a", "in").value(1) == 0
        assert degree_profile(s, "b", "in").value(0) == 1

    def test_undirected_rejects_direction(self):
        s = StreamGraph({("a", "b"): [(0, 2)]})
        with pytest.raises(ValueError):
            degree_profile(s, "a", "out")

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            degree_profile(StreamGraph({("a", "b"): [(0, 2)]}), "zz")

    def test_matches_per_tick_counting(self):
        rng = random.Random(21)
        for _ in range(40):
            s = random_stream(rng)
            lo, hi = s.horizon
            for v in s.nodes:
                profile = degree_profile(s, v)
                for t in range(lo, hi):
                    count = sum(
                        1 for _, ivs in s.adjacency(v).items() if ivs.contains(t)
                    )
                    assert profile.value(t) == count

    def test_breakpoints_are_event_times(self):
        s = StreamGraph({("a", "b"): [(1, 3)], ("a", "c"): [(2, 6)]}, horizon=(0, 8))
        assert degree_profile(s, "a").breakpoints() == (1, 2, 3, 6)
