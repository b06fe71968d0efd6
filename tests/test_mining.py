import json
import logging
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from streamcores import (
    AttributeContext,
    ClosedPatternRecord,
    CoreSpec,
    IntervalSet,
    ItemUniverse,
    MinerConfig,
    StreamGraph,
    TimeNodeSet,
    filter_min_intent,
    induced_static_graph,
    mine,
    read_patterns,
    write_patterns,
)
from streamcores import patternio
from streamcores.dataio import ParseError
from streamcores.mining import SUPPORT_MEASURES
from streamcores.toys import compare_toy, triple_context_stream

from helpers import (
    STREAM_KINDS,
    assert_mining_invariants,
    mining_records,
    permuted_context,
    random_context,
    random_core_spec,
    random_stream,
    simultaneous_toy,
)
from oracle import (
    SAMPLE_BUDGET,
    brute_enumerate,
    certify,
    brute_static_enumerate,
    discretize,
    reference_mine,
    reference_write_patterns,
    sample_set,
)
from test_dataio import LINE_BREAKS


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

    def test_unknown_support_measure_rejected(self):
        with pytest.raises(ValueError, match=re.escape(f"must be one of {SUPPORT_MEASURES}")):
            MinerConfig(support_measure="ticks")

    def test_root_below_support_is_flagged_not_dropped(self):
        stream, ctx = contact_triple()
        records = self.run(stream, ctx, MinerConfig(min_support=99))
        assert len(records) == 1
        assert records[0].below_min_support

    def test_item_order_changes_traversal_not_the_set(self):
        # the universe's order is the item order; its items are a, b, c, d
        stream, ctx = contact_triple()
        cfg = MinerConfig(min_support=1)
        base = [r.items for r in self.run(stream, ctx, cfg)]
        for order in (["d", "c", "b", "a"], ["b", "d", "a", "c"]):
            got = [tuple(sorted(r.items))
                   for r in self.run(stream, permuted_context(ctx, order), cfg)]
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
    """`ctx` with its universe shuffled, and a core and a threshold that often prunes."""
    order = list(ctx.universe.items)
    rng.shuffle(order)
    return permuted_context(ctx, order), MinerConfig(
        core=random_core_spec(rng, directed),
        min_support=rng.randint(1, 4 if measure == "nodes" else 40),
        min_intent_size=rng.randint(0, 2),
        support_measure=measure,
    )


class TestMineAgainstReference:
    """Occurrence deliver, the support bound and the excluded-item skip change no record."""

    @pytest.mark.parametrize("measure", SUPPORT_MEASURES)
    @pytest.mark.parametrize("directed,presence", STREAM_KINDS)
    def test_records_equal_field_by_field(self, directed, presence, measure):
        rng = random.Random(4242 + 2 * directed + SUPPORT_MEASURES.index(measure) + 4 * presence)
        for _ in range(80):
            s = random_stream(rng, directed=directed, max_intervals=16, presence=presence)
            ctx, cfg = random_config(rng, random_context(rng, s), directed, measure)
            got = [vars(rec) for rec in mine(s, ctx, cfg)]
            assert got == [vars(rec) for rec in reference_mine(s, ctx, cfg)]


@st.composite
def _large_runs(draw):
    """(stream, context, config): up to 10 nodes over 6,000 ticks, more node-ticks
    than the per-tick oracle's budget, up to 6 items and a core of the stream's kind."""
    directed = draw(st.booleans())
    names = [f"n{i}" for i in range(draw(st.integers(3, 10)))]
    node = st.sampled_from(names)
    rows = draw(st.lists(st.tuples(node, node, st.integers(0, 3_999), st.integers(1, 2_000)),
                         min_size=3 * len(names), max_size=60))
    pairs = {}
    for u, v, start, length in rows:
        if directed or u != v:
            key = (u, v) if directed else tuple(sorted((u, v)))
            pairs.setdefault(key, []).append((start, start + length))
    s = StreamGraph(pairs, directed=directed)
    assume(s.presence_set().measure() > SAMPLE_BUDGET)
    universe = ItemUniverse([f"i{j}" for j in range(draw(st.integers(1, 6)))])
    ctx = AttributeContext(universe, {v: draw(st.integers(0, universe.full_mask))
                                      for v in s.nodes})
    threshold = draw(st.sampled_from(SUPPORT_MEASURES))
    if directed:
        core = CoreSpec.hub_authority(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    else:
        core = CoreSpec.star_satellite(draw(st.integers(0, 3)))
    return s, ctx, MinerConfig(
        core=core, support_measure=threshold,
        min_support=draw(st.integers(1, 6) if threshold == "nodes" else st.integers(1, 12_000)))


@settings(max_examples=150, deadline=None)
@given(run=_large_runs(), data=st.data())
def test_mining_above_the_per_tick_budget_passes_the_certificate(run, data):
    # too large for brute_enumerate; certify checks each record and one step from it
    s, ctx, cfg = run
    records = mine(s, ctx, cfg)
    assert certify(records, s, ctx, cfg) == []
    if len(records) > 1:
        dropped = data.draw(st.integers(1, len(records) - 1))
        assert certify(records[:dropped] + records[dropped + 1:], s, ctx, cfg)


SEARCH_LOG = re.compile(
    r"(\d+) candidates: (\d+) pruned by the support bound, "
    r"(\d+) pruned by canonicity before the core, (\d+) core calls, "
    r"(\d+) pruned by support after the core, (\d+) pruned by canonicity after the core, "
    r"(\d+) emitted"
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
        assert counts == [7, 1, 0, 6, 0, 0, 6]

    @pytest.mark.parametrize("directed", [False, True])
    def test_pruned_and_emitted_add_up_to_candidates(self, caplog, directed):
        rng = random.Random(55 + directed)
        for trial in range(30):
            s = random_stream(rng, directed=directed)
            ctx, cfg = random_config(rng, random_context(rng, s), directed,
                                     SUPPORT_MEASURES[trial % 2])
            cfg.min_intent_size = 0
            records, counts = self.counters(caplog, s, ctx, cfg)
            tried, bound, before, cores, support, after, emitted = counts
            assert bound + before + cores == tried
            assert support + after + emitted == cores
            assert emitted == len(records) - 1


class TestIntentSizeTools:
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

    def test_line_breaks_and_comment_marks_in_names_round_trip(self, tmp_path):
        # json.dumps escapes every break at which the row reader cuts, and a
        # record's line starts with "{", never with "#"
        names = [f"#{brk}" for brk in LINE_BREAKS] + [f"a{brk}b" for brk in LINE_BREAKS]
        records = [
            ClosedPatternRecord((item,), TimeNodeSet({node: IntervalSet.span(0, 2)}))
            for item, node in zip(names, reversed(names))
        ]
        path = tmp_path / "patterns.jsonl"
        write_patterns(records, path)
        assert [(r.items, r.support) for r in read_patterns(path)] == [
            (r.items, r.support) for r in records]

    def test_a_mark_comments_blank_lines_and_crlf_are_read_as_in_any_input_file(self, tmp_path):
        records, _ = reference_records()
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_patterns(records, plain)
        lines = plain.read_text().splitlines()
        marked.write_bytes(("\ufeff# mined from the reference context\r\n\r\n"
                            + "\r\n# a comment\r\n".join(lines) + "\r\n").encode())
        read = [[(r.items, r.support, r.support_measure, r.node_count, r.below_min_support)
                 for r in read_patterns(path)] for path in (plain, marked)]
        assert read[0] == read[1] and len(read[0]) == len(records)

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
        ("intent", ["a", "a"], "intent ['a', 'a'] repeats an item"),
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
        ("below_min_suport", True, "unknown fields ['below_min_suport']"),
    ], ids=["string-intent", "non-string-item", "repeated-item", "support-list", "fractional-span",
            "float-measure", "bool-node-count", "int-flag", "overlapping-spans",
            "touching-spans", "unsorted-spans", "empty-span", "reversed-span", "no-spans",
            "span-triple", "spans-string", "empty-support", "unknown-field"])
    def test_values_are_checked_not_coerced(self, tmp_path, field, value, message):
        good = {"intent": ["a"], "support": {"v": [[0, 2]]}, "support_measure": 2, "node_count": 1}
        path = tmp_path / "patterns.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        with pytest.raises(ParseError) as err:
            read_patterns(path)
        assert str(err.value) == f"{path}:2: bad pattern record: {message}"

    def test_a_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "patterns.jsonl"
        path.write_text('["intent", "support"]\n')
        with pytest.raises(ParseError) as err:
            read_patterns(path)
        assert str(err.value) == (f"{path}:1: bad pattern record: "
                                  "record must be of type dict, got ['intent', 'support']")

    def test_a_flagged_empty_support_is_read(self, tmp_path):
        path = tmp_path / "patterns.jsonl"
        path.write_text('{"intent": [], "support": {}, "support_measure": 0, "node_count": 0, '
                        '"below_min_support": true}\n')
        [rec] = read_patterns(path)
        assert rec.below_min_support and not rec.support


PIECE = 1024  # patternio._PIECE_SPANS, the most spans of one piece of a written support

# quotes, backslashes, text outside ASCII (an astral character among it)
# and every line break the row reader cuts at
_names = st.lists(st.sampled_from(['"', "\\", "é", "名", "\U0001f600", "a", "0", "[", "{", ":"]
                                  + LINE_BREAKS), max_size=4).map("".join)


def _spans(start, count):
    """`count` disjoint, non-touching spans from `start` on, of lengths 1 and 2."""
    return tuple((start + 3 * i, start + 3 * i + 1 + i % 2) for i in range(count))


def _record(items, counts, start=0, below=False):
    """A record whose support gives the nodes of `counts` that many spans each."""
    support = TimeNodeSet({v: IntervalSet(_spans(start, n)) for v, n in counts.items()})
    return ClosedPatternRecord(tuple(items), support, below_min_support=below or not support)


@st.composite
def _written_records(draw):
    """(piece, records): a bound on the spans of a piece, and records whose nodes
    hold a few spans or about as many as a piece or two."""
    piece = draw(st.sampled_from([1, 2, 5, PIECE]))
    count = st.integers(1, 3) | st.sampled_from([piece, piece + 1, 2 * piece + 1, 3 * piece - 1])
    records = [_record(items, draw(st.dictionaries(_names, count, max_size=4)),
                       draw(st.integers(-5, 5)), draw(st.booleans()))
               for items in draw(st.lists(st.lists(_names, unique=True, max_size=3), max_size=4))]
    return piece, records


class TestWriterAgainstReference:
    """`write_patterns` writes the bytes of one `json.dumps` of each whole record."""

    @settings(max_examples=150, deadline=None)
    @given(case=_written_records())
    @example(case=(PIECE, [_record(["a"], {}, below=True)]))  # an empty support
    @example(case=(PIECE, [_record(['"\\é'], {"n ": 2 * PIECE + 1})]))
    @example(case=(PIECE, [_record(["x"], {str(i): PIECE // 3 + 1 for i in range(7)})]))
    def test_the_same_bytes(self, tmp_path_factory, case):
        # a small piece cuts many nodes, and many a node's span list, into pieces;
        # a writer without pieces is checked as well, so the bound may be missing
        piece, records = case
        path = tmp_path_factory.mktemp("patterns")
        reference_write_patterns(records, path / "reference.jsonl")
        with mock.patch.object(patternio, "_PIECE_SPANS", piece, create=True):
            write_patterns(records, path / "pieces.jsonl")
        assert (path / "pieces.jsonl").read_bytes() == (path / "reference.jsonl").read_bytes()

    def test_no_piece_holds_more_spans_than_the_bound(self):
        assert patternio._PIECE_SPANS == PIECE
        support = _record([], {"a": 2 * PIECE + 1, "b": PIECE // 2, "c": PIECE // 2 + 1,
                               "d": 3}).support
        pieces = list(patternio._support_pieces(support))
        spans = [len(re.findall(r"\[\d+, \d+\]", piece)) for piece in pieces]
        assert spans == [PIECE, PIECE, 1, PIECE // 2, PIECE // 2 + 4]
        assert "{" + ", ".join(pieces) + "}" == json.dumps(
            {v: ivs.spans for v, ivs in support.items()})
