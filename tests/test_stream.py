import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import reference_stream_graph
from streamcores import IntervalSet, StreamGraph, TimeNodeSet, induced_static_graph
from streamcores.stream import PresenceError
from streamcores.toys import star_toy_stream

from helpers import random_stream


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
        assert s.adjacency("a")["b"] == s.adjacency("b")["a"] == IntervalSet.span(0, 1)

    def test_duplicate_pairs_merge(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("b", "a"): [(1, 4)]})
        assert s.adjacency("a")["b"] == IntervalSet.span(0, 4)

    @pytest.mark.parametrize("directed", [False, True])
    def test_an_interval_set_given_once_is_kept_as_it_is(self, directed):
        ivs = IntervalSet([(0, 2), (5, 7)])
        s = StreamGraph({("b", "a"): ivs}, directed=directed)
        assert s.adjacency("b" if directed else "a")["a" if directed else "b"] is ivs

    def test_both_orientations_given_as_interval_sets_are_unioned(self):
        s = StreamGraph({("a", "b"): IntervalSet([(0, 2), (8, 9)]),
                         ("b", "a"): IntervalSet([(1, 4), (6, 7)])})
        assert s.adjacency("a")["b"] == IntervalSet([(0, 4), (6, 7), (8, 9)])
        assert s.presence("b") == IntervalSet([(0, 4), (6, 7), (8, 9)])

    def test_node_names_are_taken_as_given(self):
        assert StreamGraph({(1, 2): [(5, 10)]}).nodes == (1, 2)
        # 1 and "1" are two names that cannot be ordered, not one node; the
        # clash shows in orienting a pair or in sorting the node names
        for pairs, directed, clash in (
            ({(1, "b"): [(5, 10)], ("1", "b"): [(15, 20)]}, False, "1 and 'b'"),
            ({(1, 2): [(5, 10)], ("1", "2"): [(15, 20)]}, False, "1 and '1'"),
            ({(1, "b"): [(5, 10)], ("1", "b"): [(15, 20)]}, True, "1 and '1'"),
        ):
            with pytest.raises(TypeError, match=f"^node names {clash} cannot be ordered"):
                StreamGraph(pairs, directed=directed)
        with pytest.raises(TypeError, match="^node names 1 and 'a' cannot be ordered"):
            StreamGraph({(1, 2): [(5, 10)]}, presence={"a": [(0, 20)], 1: [(0, 20)],
                                                      2: [(0, 20)]})

    def test_a_type_error_that_is_no_name_clash_is_raised_as_it_is(self):
        # a pair key that is no pair fails to unpack, and names of one type
        # that cannot be ordered fail to sort; no two names clash by type
        with pytest.raises(TypeError, match="cannot unpack non-iterable int object"):
            StreamGraph({1: [(0, 1)]})
        with pytest.raises(TypeError, match="'<' not supported between instances of 'object'"):
            StreamGraph({}, presence={object(): [(0, 1)], object(): [(0, 1)]})

    def test_in_adjacency_is_refused_when_undirected(self):
        with pytest.raises(ValueError, match="only defined for directed streams"):
            StreamGraph({("a", "b"): [(0, 1)]}).in_adjacency("a")

    def test_rejects_undirected_self_loop(self):
        with pytest.raises(ValueError):
            StreamGraph({("a", "a"): [(0, 1)]})

    def test_presence_must_cover_interactions(self):
        with pytest.raises(ValueError):
            StreamGraph({("a", "b"): [(0, 5)]}, presence={"a": [(0, 3)], "b": [(0, 5)]})

    def test_node_with_empty_presence_is_no_node(self):
        s = StreamGraph({("a", "b"): [(0, 1)]},
                        presence={"a": [(0, 1)], "b": [(0, 1)], "z": []})
        assert s.nodes == ("a", "b")
        with pytest.raises(KeyError):
            s.presence("z")

    def test_unknown_node_raises(self):
        s = StreamGraph({("a", "b"): [(0, 1)]})
        with pytest.raises(KeyError):
            s.presence("nope")


def random_rows(rng, directed):
    """Pair rows in both orientations, some spans empty; self-loops when directed."""
    rows = {}
    for _ in range(rng.randint(0, 12)):
        u, v = rng.choice("abcde"), rng.choice("abcde")
        if u != v or directed:
            a = rng.randint(0, 9)
            rows.setdefault((u, v), []).append((a, a + rng.randint(0, 3)))
    return rows


@pytest.mark.parametrize("directed", [False, True])
def test_pair_items_and_count_are_derived_from_the_adjacency(directed):
    rng = random.Random(22 + directed)
    for _ in range(200):
        rows = random_rows(rng, directed)
        s = StreamGraph(rows, directed=directed)
        oriented = {}
        for (u, v), spans in rows.items():
            oriented.setdefault((u, v) if directed else tuple(sorted((u, v))), []).extend(spans)
        want = {key: IntervalSet(spans) for key, spans in oriented.items() if IntervalSet(spans)}
        items = list(s.interaction_items())
        keys = [key for key, _ in items]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert dict(items) == want
        for (u, v), ivs in items:
            assert s.adjacency(u)[v] is ivs
            assert (s.in_adjacency(v) if directed else s.adjacency(v))[u] is ivs
        assert s.interaction_count() == len(items)


_spans = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)).map(
    lambda span: (span[0], span[0] + span[1])), max_size=3)  # empty spans and lists too


@st.composite
def _builds(draw):
    """(interactions, presence, directed) for `StreamGraph`.

    The pairs come in both orientations, with self-loops (refused when
    undirected) and empty span lists; the presence is absent, covers the
    pairs (with present isolated nodes) or is drawn on its own; node
    names are of one type, or now and then of two.
    """
    directed = draw(st.booleans())
    names = ["a", "b", "c", "d", "e"] + draw(st.sampled_from([[], [], [], [1, 2]]))
    node = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(node, node, _spans), max_size=8))
    interactions = {}
    for u, v, spans in pairs:
        if u == v and not directed and draw(st.integers(0, 9)):
            continue  # an undirected self-loop is drawn in one pair list in ten
        as_set = draw(st.booleans())  # an IntervalSet is kept as it is
        interactions[u, v] = IntervalSet(spans) if as_set else spans
        if draw(st.booleans()):  # the other orientation too
            interactions[v, u] = draw(_spans)
    kind = draw(st.sampled_from(["none", "covering", "drawn"]))
    if kind == "none":
        return interactions, None, directed
    presence = {v: list(draw(_spans)) for v in draw(st.lists(node, unique=True))}
    if kind == "covering":
        for (u, v), spans in interactions.items():
            for w in (u, v):
                presence.setdefault(w, []).extend(IntervalSet(spans).spans)
    return interactions, presence, directed


def _built(interactions, presence, directed, build):
    """What `build` makes of the arguments, read through the stream's methods, or
    the type and message of the error it raises."""
    try:
        s = build(interactions, presence=presence, directed=directed)
    except (TypeError, ValueError) as err:
        return type(err), str(err)
    return (s.nodes, [s.presence(v) for v in s.nodes],
            [list(s.adjacency(v).items()) for v in s.nodes],
            [list(s.in_adjacency(v).items()) for v in s.nodes] if directed else None,
            list(s.interaction_items()), s.interaction_count())


@settings(max_examples=400, deadline=None)
@given(_builds())
@example(({("a", "a"): [(0, 1)]}, None, False))
@example(({("a", "a"): [(0, 1)], ("b", "a"): []}, {"c": [(0, 1)], "a": [(0, 1)]}, True))
@example(({("a", "b"): [(0, 5)], ("b", "c"): [(2, 3)]}, {"a": [(0, 5)], "b": [(0, 5)]}, False))
@example(({("a", "b"): [(0, 5)], (1, 2): [(2, 3)]}, None, True))
@example(({("a", "b"): [(0, 5)], (1, "a"): [(2, 3)]}, None, False))
def test_the_one_pass_build_matches_the_gathering_reference(build):
    got = _built(*build, StreamGraph)
    assert got == _built(*build, reference_stream_graph)
    if got[0] is PresenceError:
        assert re.fullmatch(r"presence of node \S+ does not cover its interaction intervals",
                            got[1])
    elif got[0] is TypeError:
        assert re.fullmatch(r"node names \S+ and \S+ cannot be ordered; "
                            r"name every node with one type", got[1])


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
        s = StreamGraph({("a", "b"): [(2, 4)], ("c", "b"): [(7, 9)]}, directed=True)
        g = induced_static_graph(s)
        assert g.directed and g.nodes == ("a", "b", "c")
        assert all(ivs == IntervalSet.span(0, 1) for _, ivs in g.interaction_items())
        assert all(g.presence(v) == IntervalSet.span(0, 1) for v in g.nodes)

    def test_present_isolated_node_is_kept(self):
        s = StreamGraph({("a", "b"): [(2, 4)]}, presence={"a": [(2, 4)], "b": [(0, 9)],
                                                          "c": [(5, 6)]})
        g = induced_static_graph(s)
        assert g.nodes == ("a", "b", "c") and edges(g) == frozenset({("a", "b")})
        assert g.presence("c") == IntervalSet.span(0, 1)
