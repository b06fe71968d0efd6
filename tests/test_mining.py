import json
import logging
import random
import re

import pytest

from streamcores import (
    AttributeContext,
    CoreSpec,
    ItemUniverse,
    MinerConfig,
    StreamGraph,
    count_by_intent_size,
    filter_min_intent,
    induced_static_graph,
    mine,
    read_patterns,
    write_patterns,
)
from streamcores.dataio import ParseError
from streamcores.mining import SUPPORT_MEASURES, write_static_patterns
from streamcores.oracle import (
    brute_enumerate,
    brute_static_enumerate,
    discretize,
    reference_mine,
    sample_set,
)
from streamcores.toys import compare_toy, simultaneous_toy, triple_context_stream

from helpers import (
    assert_mining_invariants,
    mining_records,
    random_context,
    random_core_spec,
    random_stream,
)


def reference_records():
    stream, ctx = triple_context_stream()
    return mine(stream, ctx, MinerConfig(min_support=1)), ctx


class TestMineReferenceContext:
    def test_seven_closed_patterns(self):
        records, ctx = reference_records()
        by_intent = {r.items: r.support.nodes() for r in records}
        assert by_intent == {
            ("a",): ("1", "2", "3"),
            ("a", "b"): ("1", "3"),
            ("a", "c"): ("2", "3"),
            ("a", "d"): ("1", "2"),
            ("a", "b", "c"): ("3",),
            ("a", "b", "d"): ("1",),
            ("a", "c", "d"): ("2",),
        }

    def test_root_comes_first(self):
        records, _ = reference_records()
        assert records[0].items == ("a",)
        assert records[0].depth == 0
        assert records[0].parent_item is None

    def test_invariants(self):
        stream, ctx = triple_context_stream()
        cfg = MinerConfig(min_support=1)
        assert_mining_invariants(mine(stream, ctx, cfg), stream, ctx, cfg)


def contact_triple():
    """The reference context with its three nodes in pairwise contact over [0, 1).

    Under the identity core its stream patterns are the reference
    context's, and its time-collapsed graph keeps all three nodes.
    """
    _, ctx = triple_context_stream()
    stream = StreamGraph({("1", "2"): [(0, 1)], ("1", "3"): [(0, 1)], ("2", "3"): [(0, 1)]})
    return stream, ctx


class TestMineEdgeCases:
    """Contracts of the miner; TestStaticMineEdgeCases re-runs them on the collapsed stream."""

    @staticmethod
    def run(stream, ctx, cfg):
        return mine(stream, ctx, cfg)

    @staticmethod
    def whole(stream):
        return stream.presence_set()

    def test_empty_universe_single_record(self):
        s = StreamGraph({("x", "y"): [(0, 2)]})
        ctx = AttributeContext(ItemUniverse([]), {})
        records = self.run(s, ctx, MinerConfig(min_support=1))
        assert len(records) == 1
        assert records[0].items == ()
        assert records[0].support == self.whole(s)

    def test_empty_stream_warns_and_returns_nothing(self, caplog):
        ctx = AttributeContext(ItemUniverse(["a"]), {})
        with caplog.at_level(logging.WARNING):
            records = self.run(StreamGraph({}), ctx, MinerConfig(min_support=1))
        assert records == []
        assert "empty stream" in caplog.text

    def test_nonpositive_support_rejected(self):
        stream, ctx = contact_triple()
        with pytest.raises(ValueError):
            self.run(stream, ctx, MinerConfig(min_support=0))

    def test_root_below_support_is_flagged_not_dropped(self):
        stream, ctx = contact_triple()
        records = self.run(stream, ctx, MinerConfig(min_support=99))
        assert len(records) == 1
        assert records[0].below_min_support

    def test_bad_item_order_rejected(self):
        stream, ctx = contact_triple()
        with pytest.raises(ValueError, match="permutation"):
            self.run(stream, ctx, MinerConfig(item_order=["a", "b"]))

    def test_item_order_changes_traversal_not_the_set(self):
        stream, ctx = contact_triple()
        base = [r.items for r in self.run(stream, ctx, MinerConfig(min_support=1))]
        for order in (["d", "c", "b", "a"], ["b", "d", "a", "c"]):
            cfg = MinerConfig(min_support=1, item_order=order)
            got = [r.items for r in self.run(stream, ctx, cfg)]
            assert got != base
            assert sorted(got) == sorted(base)

    def test_node_count_support_measure(self):
        # on the collapsed stream both measures count nodes, so it must agree here
        stream, ctx = contact_triple()
        records = self.run(stream, ctx, MinerConfig(min_support=2, support_measure="nodes"))
        assert {r.items for r in records if not r.below_min_support} == {
            ("a",), ("a", "b"), ("a", "c"), ("a", "d"),
        }


class TestStaticMineEdgeCases(TestMineEdgeCases):
    @staticmethod
    def run(stream, ctx, cfg):
        return mine(induced_static_graph(stream), ctx, cfg)

    @staticmethod
    def whole(stream):
        return induced_static_graph(stream).presence_set()


class TestMineAgainstOracle:
    @pytest.mark.parametrize("directed", [False, True])
    def test_random_instances(self, directed):
        rng = random.Random(777 + directed)
        for _ in range(40):
            s = random_stream(rng, directed=directed)
            ctx = random_context(rng, s)
            spec = random_core_spec(rng, directed)
            min_support = rng.randint(1, 4)
            cfg = MinerConfig(core=spec, min_support=min_support)
            got = frozenset(
                (r.mask, sample_set(r.support)) for r in mining_records(s, ctx, cfg)
            )
            want = brute_enumerate(discretize(s), ctx, spec, min_support)
            assert got == want

    def test_node_count_mode_against_oracle(self):
        for directed in (False, True):
            rng = random.Random(999 + directed)
            for _ in range(20):
                s = random_stream(rng, directed=directed)
                ctx = random_context(rng, s)
                spec = random_core_spec(rng, directed)
                cfg = MinerConfig(core=spec, min_support=2, support_measure="nodes")
                got = frozenset(
                    (r.mask, sample_set(r.support)) for r in mining_records(s, ctx, cfg)
                )
                want = brute_enumerate(discretize(s), ctx, spec, 2, count_nodes=True)
                assert got == want

    def test_invariants_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(20):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            cfg = MinerConfig(core=random_core_spec(rng, False), min_support=1)
            assert_mining_invariants(mining_records(s, ctx, cfg), s, ctx, cfg)


def random_config(rng, ctx, directed, measure):
    """A core, a threshold that often prunes, and a shuffled item order."""
    order = list(ctx.universe.items)
    rng.shuffle(order)
    return MinerConfig(
        core=random_core_spec(rng, directed),
        min_support=rng.randint(1, 4 if measure == "nodes" else 40),
        min_intent_size=rng.randint(0, 2),
        item_order=order,
        support_measure=measure,
    )


class TestMineAgainstReference:
    """Occurrence deliver, the support bound and the excluded-item skip change no record."""

    @pytest.mark.parametrize("measure", SUPPORT_MEASURES)
    @pytest.mark.parametrize("directed", [False, True])
    def test_records_equal_field_by_field(self, directed, measure):
        rng = random.Random(4242 + 2 * directed + SUPPORT_MEASURES.index(measure))
        for _ in range(80):
            s = random_stream(rng, directed=directed, max_intervals=16)
            ctx = random_context(rng, s)
            cfg = random_config(rng, ctx, directed, measure)
            got = [vars(rec) for rec in mine(s, ctx, cfg)]
            assert got == [vars(rec) for rec in reference_mine(s, ctx, cfg)]


SEARCH_LOG = re.compile(
    r"(\d+) candidates: (\d+) pruned by the support bound, (\d+) core calls, "
    r"(\d+) pruned by support after the core, (\d+) pruned by canonicity, (\d+) emitted"
)


class TestSearchCounters:
    def counters(self, caplog, s, ctx, cfg):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="streamcores.mining"):
            records = mine(s, ctx, cfg)
        found = [SEARCH_LOG.fullmatch(r.getMessage()) for r in caplog.records]
        (match,) = [m for m in found if m]
        return records, [int(g) for g in match.groups()]

    def test_reference_context(self, caplog):
        stream, ctx = triple_context_stream()
        _, counts = self.counters(caplog, stream, ctx, MinerConfig(min_support=1))
        # tried: b, c, d under a; c, d under ab; d under abc (no carrier, so
        # the bound drops it); d under ac. Every other item is in its frame's
        # intent or already finished.
        assert counts == [7, 1, 6, 0, 0, 6]

    @pytest.mark.parametrize("directed", [False, True])
    def test_pruned_and_emitted_add_up_to_candidates(self, caplog, directed):
        rng = random.Random(55 + directed)
        for trial in range(30):
            s = random_stream(rng, directed=directed)
            ctx = random_context(rng, s)
            cfg = random_config(rng, ctx, directed, SUPPORT_MEASURES[trial % 2])
            cfg.min_intent_size = 0
            records, counts = self.counters(caplog, s, ctx, cfg)
            tried, bound, cores, support, canonicity, emitted = counts
            assert bound + support + canonicity + emitted == tried
            assert cores == tried - bound
            assert emitted == len(records) - 1


class TestIntentSizeTools:
    def test_histogram(self):
        records, _ = reference_records()
        assert count_by_intent_size(records) == {1: 1, 2: 3, 3: 3}

    def test_filter_zero_is_identity(self):
        records, _ = reference_records()
        assert filter_min_intent(records, 0) == records

    def test_filter_above_max_empties(self):
        records, _ = reference_records()
        assert filter_min_intent(records, 4) == []

    def test_filter_two_drops_only_the_root(self):
        records, _ = reference_records()
        kept = filter_min_intent(records, 2)
        assert len(kept) == 6
        assert all(len(r.items) >= 2 for r in kept)

    def test_config_filter_matches_function(self):
        stream, ctx = triple_context_stream()
        direct = mine(stream, ctx, MinerConfig(min_support=1, min_intent_size=2))
        assert [r.items for r in direct] == [
            r.items for r in filter_min_intent(reference_records()[0], 2)
        ]


class TestStaticMine:
    def test_compare_toy_counts(self):
        stream, ctx = compare_toy()
        cfg = MinerConfig(core=CoreSpec.star_satellite(2), min_support=1)
        stream_intents = {r.items for r in mining_records(stream, ctx, cfg)}
        graph = induced_static_graph(stream)
        static_records = [r for r in mine(graph, ctx, cfg) if not r.below_min_support]
        static_intents = {r.items for r in static_records}
        assert len(stream_intents) == 3
        assert len(static_intents) == 4
        assert stream_intents < static_intents
        extra = (static_intents - stream_intents).pop()
        assert extra == ("a", "b")
        lost = next(r for r in static_records if r.items == ("a", "b"))
        assert frozenset(lost.support.nodes()) == frozenset({"u", "x", "y"})

    def test_simultaneous_toy_counts_match(self):
        stream, ctx = simultaneous_toy()
        cfg = MinerConfig(core=CoreSpec.star_satellite(2), min_support=1)
        stream_count = len(mining_records(stream, ctx, cfg))
        static_records = [
            r for r in mine(induced_static_graph(stream), ctx, cfg)
            if not r.below_min_support
        ]
        assert stream_count == len(static_records) == 3

    def test_against_static_oracle(self):
        rng = random.Random(31337)
        for trial in range(30):
            directed = bool(trial % 3 == 0)
            s = random_stream(rng, directed=directed)
            g = induced_static_graph(s)
            ctx = random_context(rng, s)
            spec = random_core_spec(rng, directed)
            got = frozenset(
                (r.mask, frozenset(r.support.nodes()))
                for r in mine(g, ctx, MinerConfig(core=spec, min_support=1))
                if not r.below_min_support
            )
            assert got == brute_static_enumerate(g, ctx, spec, 1)

    def test_stream_intents_contained_in_static_intents(self):
        rng = random.Random(2024)
        for _ in range(40):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            spec = CoreSpec.star_satellite(rng.randint(0, 3))
            cfg = MinerConfig(core=spec, min_support=1)
            stream_intents = {r.mask for r in mining_records(s, ctx, cfg)}
            static_intents = {
                r.mask for r in mine(induced_static_graph(s), ctx, cfg)
                if not r.below_min_support
            }
            assert stream_intents <= static_intents


class TestPatternFiles:
    def test_roundtrip(self, tmp_path):
        records, _ = reference_records()
        path = tmp_path / "patterns.jsonl"
        write_patterns(records, path)
        back = read_patterns(path)
        assert [(r.items, r.support, r.support_measure, r.node_count) for r in back] == [
            (r.items, r.support, r.support_measure, r.node_count) for r in records
        ]

    def test_field_order_is_fixed(self, tmp_path):
        records, _ = reference_records()
        path = tmp_path / "patterns.jsonl"
        write_patterns(records, path)
        first = path.read_text().splitlines()[0]
        assert list(json.loads(first)) == ["intent", "support", "support_measure", "node_count"]

    def test_flag_preserved(self, tmp_path):
        stream, ctx = triple_context_stream()
        records = mine(stream, ctx, MinerConfig(min_support=99))
        path = tmp_path / "patterns.jsonl"
        write_patterns(records, path)
        assert read_patterns(path)[0].below_min_support

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "patterns.jsonl"
        path.write_text('{"intent": []}\n')
        with pytest.raises(ValueError, match="patterns.jsonl:1"):
            read_patterns(path)

    @pytest.mark.parametrize("field,forged", [("support_measure", 5), ("node_count", 999)])
    def test_measures_must_match_the_support(self, tmp_path, field, forged):
        records, _ = reference_records()
        path = tmp_path / "patterns.jsonl"
        write_patterns(records, path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row[field] = forged
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"patterns.jsonl:2: bad pattern record: {field} {forged}"):
            read_patterns(path)

    @pytest.mark.parametrize("field,value,message", [
        ("intent", "ab", "intent must be of type list, got 'ab'"),
        ("intent", ["a", 1], "intent item must be of type str, got 1"),
        ("support", ["v"], "support must be of type dict, got ['v']"),
        ("support", {"v": [[0, 2.7]]}, "span end must be of type int, got 2.7"),
        ("support_measure", 2.0, "support_measure must be of type int, got 2.0"),
        ("node_count", True, "node_count must be of type int, got True"),
        ("below_min_support", 1, "below_min_support must be of type bool, got 1"),
        # a span list is refused unless it is canonical as written, never merged or dropped
        ("support", {"v": [[0, 2], [1, 3]]},
         "span [1, 3) of node 'v' does not start after the end 2 of the span before it"),
        ("support", {"v": [[0, 1], [1, 2]]},
         "span [1, 2) of node 'v' does not start after the end 1 of the span before it"),
        ("support", {"v": [[3, 4], [0, 1]]},
         "span [0, 1) of node 'v' does not start after the end 4 of the span before it"),
        ("support", {"v": [[0, 2]], "u": [[5, 5]]}, "empty span [5, 5) of node 'u'"),
        ("support", {"v": [[2, 0]]}, "empty span [2, 0) of node 'v'"),
        ("support", {"v": [[0, 2]], "u": []}, "node 'u' has no spans"),
        ("support", {"v": [[0, 1, 2]]},
         "span of node 'v' must be a [start, end] pair, got [0, 1, 2]"),
        ("support", {"v": "ab"}, "spans of node 'v' must be of type list, got 'ab'"),
        # mine flags every empty support, as min_support is at least 1
        ("support", {}, "an empty support must be flagged below_min_support"),
    ], ids=["string-intent", "non-string-item", "support-list", "fractional-span",
            "float-measure", "bool-node-count", "int-flag", "overlapping-spans",
            "touching-spans", "unsorted-spans", "empty-span", "reversed-span", "no-spans",
            "span-triple", "spans-string", "empty-support"])
    def test_values_are_checked_not_coerced(self, tmp_path, field, value, message):
        good = {"intent": ["a"], "support": {"v": [[0, 2]]}, "support_measure": 2, "node_count": 1}
        path = tmp_path / "patterns.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ParseError) as err:
            read_patterns(path)
        assert str(err.value) == f"{path}:2: bad pattern record: {message}"

    def test_a_flagged_empty_support_is_read(self, tmp_path):
        path = tmp_path / "patterns.jsonl"
        path.write_text('{"intent": [], "support": {}, "support_measure": 0, "node_count": 0, '
                        '"below_min_support": true}\n')
        [rec] = read_patterns(path)
        assert rec.below_min_support and not rec.support

    def test_static_writer(self, tmp_path):
        stream, ctx = compare_toy()
        cfg = MinerConfig(core=CoreSpec.star_satellite(2), min_support=1)
        records = mine(induced_static_graph(stream), ctx, cfg)
        path = tmp_path / "static.jsonl"
        write_static_patterns(records, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert {tuple(r["intent"]) for r in rows} >= {("a", "b")}
        assert all(r["support"] == sorted(r["support"]) for r in rows)
