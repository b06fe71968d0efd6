import random

import pytest

from streamcores import (
    ClosedPatternRecord,
    IntervalSet,
    MinerConfig,
    PairDistances,
    SelectionConfig,
    TimeNodeSet,
    g_beta_select,
    mine,
    selection,
    selection_counts,
    temporal_jaccard_distance,
)
from streamcores.oracle import reference_jaccard_distance, reference_select
from streamcores.toys import triple_context_stream

from helpers import (
    mining_records,
    random_context,
    random_core_spec,
    random_stream,
    random_subset,
)


def record(items, support):
    return ClosedPatternRecord(
        items=tuple(items),
        support=support,
        support_measure=support.measure(),
        node_count=support.node_count(),
    )


def tns(**entries):
    return TimeNodeSet({k: IntervalSet(v) for k, v in entries.items()})


class TestDistance:
    def test_identity(self):
        a = tns(u=[(0, 2)])
        assert temporal_jaccard_distance(a, a) == 0.0

    def test_disjoint(self):
        assert temporal_jaccard_distance(tns(u=[(0, 2)]), tns(v=[(0, 1)])) == 1.0
        assert temporal_jaccard_distance(tns(u=[(0, 2)]), tns(u=[(5, 6)])) == 1.0

    def test_partial_overlap(self):
        # |inter| = 1 tick, |union| = 3 ticks
        got = temporal_jaccard_distance(tns(u=[(0, 2)]), tns(u=[(1, 3)]))
        assert got == pytest.approx(2 / 3)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            temporal_jaccard_distance(TimeNodeSet(), TimeNodeSet())

    def test_pseudometric_on_random_supports(self):
        rng = random.Random(8)
        from helpers import random_subset
        for _ in range(100):
            s = random_stream(rng)
            w = s.presence_set()
            a, b = random_subset(rng, w), random_subset(rng, w)
            if not a and not b:
                continue
            d = temporal_jaccard_distance(a, b)
            assert 0.0 <= d <= 1.0
            assert d == temporal_jaccard_distance(b, a)
            if a:
                assert temporal_jaccard_distance(a, a) == 0.0


class TestSelect:
    def test_beta_zero_keeps_everything(self):
        records, _ = _mined()
        kept = g_beta_select(records, SelectionConfig(beta=0.0))
        assert len(kept) == len(records)

    def test_single_pattern_kept(self):
        only = [record("a", tns(u=[(0, 2)]))]
        assert g_beta_select(only, SelectionConfig(beta=1.0)) == only

    def test_greedy_with_ties_broken_by_intent(self):
        a = record("a", tns(u=[(0, 2)]))
        b = record("b", tns(u=[(1, 3)]))
        c = record("c", tns(v=[(0, 1)]))
        # equal durations are impossible here (c is shorter), pin g by nodes
        cfg = SelectionConfig(beta=0.7, g="nodes")
        kept = g_beta_select([c, b, a], cfg)
        # order a, b, c; b is within 2/3 < 0.7 of a; c is disjoint
        assert [rec.items for rec in kept] == [("a",), ("c",)]

    def test_pairwise_guarantee(self):
        records, _ = _mined()
        for beta in (0.2, 0.5, 0.8, 1.0):
            kept = g_beta_select(records, SelectionConfig(beta=beta))
            for i, x in enumerate(kept):
                for y in kept[i + 1:]:
                    assert temporal_jaccard_distance(x.support, y.support) >= beta

    def test_greedy_maximality(self):
        records, _ = _mined()
        cfg = SelectionConfig(beta=0.5)
        kept = g_beta_select(records, cfg)
        kept_ids = {id(r) for r in kept}
        for rec in records:
            if id(rec) in kept_ids:
                continue
            blockers = [
                k for k in kept
                if temporal_jaccard_distance(rec.support, k.support) < cfg.beta
            ]
            assert blockers
            assert any(k.support_measure >= rec.support_measure for k in blockers)

    def test_counts_non_increasing_in_beta(self):
        records, _ = _mined()
        counts = [n for _, n in selection_counts(records, [0, 0.2, 0.4, 0.6, 0.8])]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == len(records)

    def test_overlapping_supports_under_beta_one(self):
        shared = [
            record("a", tns(u=[(0, 4)])),
            record("b", tns(u=[(0, 3)])),
            record("c", tns(u=[(2, 5)])),
        ]
        kept = g_beta_select(shared, SelectionConfig(beta=1.0))
        assert [rec.items for rec in kept] == [("a",)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectionConfig(beta=1.5)
        with pytest.raises(ValueError):
            SelectionConfig(beta=0.5, g="nope")

    def test_random_runs_hold_the_guarantees(self):
        rng = random.Random(77)
        for _ in range(15):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            cfg = MinerConfig(core=random_core_spec(rng, False), min_support=1)
            records = mining_records(s, ctx, cfg)
            if not records:
                continue
            beta = rng.choice([0.1, 0.4, 0.7, 1.0])
            kept = g_beta_select(records, SelectionConfig(beta=beta))
            assert kept, "the top pattern is always kept"
            for i, x in enumerate(kept):
                for y in kept[i + 1:]:
                    assert temporal_jaccard_distance(x.support, y.support) >= beta


BETAS = [0.0, 0.1, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8, 0.9, 1.0]


def _outcome(fn):
    """What `fn` returns, or the error it raises."""
    try:
        return fn()
    except ValueError as err:
        return ("ValueError", str(err))


def _shifted(support, by):
    """`support` on the same nodes, moved `by` ticks later."""
    return TimeNodeSet({v: IntervalSet([(a + by, b + by) for a, b in ivs.spans])
                        for v, ivs in support.items()})


def _renamed(support):
    """`support` on new nodes, at the same ticks."""
    return TimeNodeSet({f"{v}'": ivs for v, ivs in support.items()})


def _random_records(rng):
    """Records over random supports, with the shapes the scan's filters decide.

    Besides random subsets: duplicate supports, nested ones, ones on the
    same nodes with no shared tick and ones on disjoint node sets (the
    last two tie the measures of the support they copy), tied intents and
    empty supports.
    """
    w = random_stream(rng).presence_set()
    supports = [random_subset(rng, w) for _ in range(rng.randint(1, 8))]
    supports += [rng.choice(supports) for _ in range(rng.randint(0, 3))]
    supports += [random_subset(rng, rng.choice(supports)) for _ in range(rng.randint(0, 2))]
    supports += [_shifted(rng.choice(supports), 100) for _ in range(rng.randint(0, 2))]
    supports += [_renamed(rng.choice(supports)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        supports.append(TimeNodeSet())
    if rng.random() < 0.1:
        supports.append(TimeNodeSet())
    rng.shuffle(supports)
    return [record(rng.sample("abc", rng.randint(0, 2)), sup) for sup in supports]


class TestAgainstReference:
    """The filtered, memoised selection equals the union-based, memo-free one."""

    def assert_same_selection(self, records, g):
        distances = PairDistances(records)
        for beta in BETAS:
            got = _outcome(lambda: [id(r) for r in g_beta_select(
                records, SelectionConfig(beta=beta, g=g), distances)])
            want = _outcome(lambda: [id(r) for r in reference_select(records, beta, g)])
            assert got == want
        got = _outcome(lambda: selection_counts(records, BETAS, g, distances=distances))
        want = _outcome(lambda: [(b, len(reference_select(records, b, g))) for b in BETAS])
        assert got == want

    def test_distance_is_bit_identical(self):
        rng = random.Random(31)
        for _ in range(300):
            w = random_stream(rng).presence_set()
            a = random_subset(rng, w) if rng.random() < 0.9 else TimeNodeSet()
            b = rng.choice([a, random_subset(rng, w), TimeNodeSet()])
            want = _outcome(lambda: reference_jaccard_distance(a, b))
            assert _outcome(lambda: temporal_jaccard_distance(a, b)) == want
            assert _outcome(lambda: temporal_jaccard_distance(a, b, a.measure(), b.measure())) == want

    def test_mined_records(self):
        rng = random.Random(5)
        for _ in range(25):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            cfg = MinerConfig(core=random_core_spec(rng, False), min_support=1)
            records = mining_records(s, ctx, cfg)
            for g in ("duration", "nodes", "intent-size"):
                self.assert_same_selection(records, g)

    def test_random_supports(self):
        rng = random.Random(13)
        raised = 0
        for _ in range(200):
            records = _random_records(rng)
            for g in ("duration", "nodes", "intent-size"):
                self.assert_same_selection(records, g)
            raised += isinstance(_outcome(lambda: reference_select(records, 0.0)), tuple)
        assert raised, "two empty supports in one list must raise in both"

    def test_two_empty_supports_raise_at_every_beta(self):
        rng = random.Random(17)
        for _ in range(40):
            records = [rec for rec in _random_records(rng) if rec.support]
            records += [record("e", TimeNodeSet()) for _ in range(rng.randint(2, 3))]
            rng.shuffle(records)
            for g in ("duration", "nodes", "intent-size"):
                distances = PairDistances(records)
                for beta in BETAS:
                    with pytest.raises(ValueError, match="two empty supports"):
                        g_beta_select(records, SelectionConfig(beta=beta, g=g), distances)
                    with pytest.raises(ValueError, match="two empty supports"):
                        reference_select(records, beta, g)
                with pytest.raises(ValueError, match="two empty supports"):
                    selection_counts(records, BETAS, g)

    def test_pairs_the_filters_decide_are_never_measured(self, monkeypatch):
        original = selection.temporal_jaccard_distance
        calls = []

        def counting(wi, wj, *rest):
            calls.append(frozenset((id(wi), id(wj))))
            return original(wi, wj, *rest)

        monkeypatch.setattr(selection, "temporal_jaccard_distance", counting)
        big = record("a", tns(u=[(0, 10)]))
        elsewhere = record("b", tns(v=[(0, 10)]))  # no node shared with big
        close = record("c", tns(u=[(0, 9)]))  # 1 - 9/10 < beta: needs the intersection
        short = record("d", tns(u=[(0, 2)]))  # 1 - 2/10 >= beta: decided by length
        records = [short, close, elsewhere, big]
        kept = g_beta_select(records, SelectionConfig(beta=0.5))
        assert kept == [big, elsewhere, short]
        assert calls == [frozenset((id(big.support), id(close.support)))]
        calls.clear()
        assert g_beta_select(records, SelectionConfig(beta=0.0)) == [big, elsewhere, close, short]
        assert calls == []

    def test_distances_of_another_list_are_refused(self):
        records, _ = _mined()
        with pytest.raises(ValueError):
            g_beta_select(list(records), SelectionConfig(), PairDistances(records))


def _mined():
    stream, ctx = triple_context_stream()
    records = mine(stream, ctx, MinerConfig(min_support=1))
    return records, ctx
