"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import os
import random
import time

import pytest

from streamcores import (
    CoreSpec,
    IntervalSet,
    MinerConfig,
    SelectionConfig,
    TimeNodeSet,
    apply_core,
    g_beta_select,
    induced_static_graph,
    mine,
    selection_counts,
    temporal_jaccard_distance,
)
from streamcores.context import closure, extent, intent
from streamcores.cores import bha_bicore, star_satellite_split
from streamcores.dataio import read_highschool_context, read_link_stream
from streamcores.selection import INTEREST_MEASURES
from streamcores.toys import (
    bipartite_toy_stream,
    compare_toy,
    star_toy_stream,
    triple_context_stream,
)

from helpers import (
    mining_records,
    random_context,
    random_core_spec,
    random_stream,
    random_subset,
    timenodes_close,
)
from oracle import brute_core, brute_enumerate, discretize, sample_set


def verdict(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_c1_reference_context_golden():
    stream, ctx = triple_context_stream()
    u = ctx.universe

    def drop_third(x: TimeNodeSet) -> TimeNodeSet:
        return x.restrict(["1", "2"])

    def compute():
        root = intent(extent(0, ctx, stream), ctx)
        closed, support = closure(0, ctx, stream, drop_third)
        return root, closed, support

    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        root, closed, support = compute()
        best = min(best, time.perf_counter() - started)

    assert root == u.mask_of("a")
    assert closed == u.mask_of("ad")
    assert support == TimeNodeSet({"1": IntervalSet.span(0, 1), "2": IntervalSet.span(0, 1)})
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    verdict("C1", f"exact closure goldens in {best * 1e6:.0f} us")


def test_c2_core_goldens():
    s = star_toy_stream()
    stars, sats = star_satellite_split(s, s.presence_set(), 2)
    want_stars = TimeNodeSet({"b": IntervalSet([(1, 3), (7, 8)])})
    want_sats = TimeNodeSet({
        "a": IntervalSet([(1, 3), (7, 8)]),
        "c": IntervalSet([(7, 8)]),
        "d": IntervalSet([(2, 3)]),
    })
    # one tick of boundary slack: under half-open semantics the first
    # star burst starts when the second neighbor arrives at tick 2
    assert timenodes_close(stars, want_stars, slack=1)
    assert timenodes_close(sats, want_sats, slack=1)

    b = bipartite_toy_stream()
    hubs, authorities = bha_bicore(b, b.presence_set(), b.presence_set(), 2, 2)
    flattened = hubs.union(authorities)
    assert flattened == TimeNodeSet({v: IntervalSet.span(3, 5) for v in "uvxyz"})
    assert "w" not in flattened
    verdict("C2", "star/satellite within 1 tick, hub/authority exact")


def test_c3_oracle_equivalence_on_random_instances():
    started = time.perf_counter()
    rng = random.Random(20260809)
    instances = 0
    for directed in (False, True):
        for _ in range(100):
            s = random_stream(rng, directed=directed, max_nodes=5,
                              max_intervals=12, max_tick=20)
            ctx = random_context(rng, s, max_items=6)
            if directed:
                spec = CoreSpec.hub_authority(rng.randint(0, 2), rng.randint(0, 2))
            else:
                spec = CoreSpec.star_satellite(rng.randint(0, 3))
            min_support = rng.randint(1, 4)
            d = discretize(s)

            mined = frozenset(
                (rec.mask, sample_set(rec.support))
                for rec in mining_records(s, ctx, MinerConfig(core=spec, min_support=min_support))
            )
            assert mined == brute_enumerate(d, ctx, spec, min_support)

            x = random_subset(rng, s.presence_set())
            assert sample_set(apply_core(spec, s, x)) == brute_core(d, sample_set(x), spec)
            instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 200
    assert elapsed < 60, f"took {elapsed:.1f}s"
    verdict("C3", f"{instances} instances, zero mismatches, {elapsed:.1f}s")


def test_c4_operator_laws():
    rng = random.Random(424242)
    core_pairs = 0
    while core_pairs < 500:
        directed = bool(core_pairs % 2)
        s = random_stream(rng, directed=directed, max_intervals=8)
        spec = random_core_spec(rng, directed)
        x = random_subset(rng, s.presence_set())
        once = apply_core(spec, s, x)
        assert once.issubset(x)
        assert apply_core(spec, s, once) == once
        smaller = random_subset(rng, x)
        assert apply_core(spec, s, smaller).issubset(once)
        core_pairs += 1

    closure_pairs = 0
    while closure_pairs < 500:
        s = random_stream(rng, max_intervals=8)
        ctx = random_context(rng, s)
        spec = random_core_spec(rng, directed=False)

        def core(x, _s=s, _spec=spec):
            return apply_core(_spec, _s, x)

        bits = len(ctx.universe)
        q = rng.getrandbits(bits)
        closed, support = closure(q, ctx, s, core)
        again, support_again = closure(closed, ctx, s, core)
        assert (closed, support) == (again, support_again), "not idempotent"
        if support:
            assert closed & q == q, "not extensive on supported patterns"
        wider = q | rng.getrandbits(bits)
        wider_closed, _ = closure(wider, ctx, s, core)
        assert wider_closed & closed == closed, "not monotone"
        closure_pairs += 1
    verdict("C4", f"{core_pairs} interior + {closure_pairs} closure probes, zero violations")


def test_c5_uniqueness_across_mining_runs():
    runs = 0
    stream, ctx = triple_context_stream()
    batches = [(stream, ctx, MinerConfig(min_support=1))]
    cstream, cctx = compare_toy()
    batches.append((cstream, cctx, MinerConfig(core=CoreSpec.star_satellite(2), min_support=1)))
    rng = random.Random(5150)
    for _ in range(40):
        s = random_stream(rng)
        batches.append((s, random_context(rng, s),
                        MinerConfig(core=random_core_spec(rng, False), min_support=1)))
    for s, c, cfg in batches:
        records = mine(s, c, cfg)
        assert len({rec.mask for rec in records}) == len(records)
        assert len({rec.support for rec in records}) == len(records)
        runs += 1
    verdict("C5", f"{runs} runs, no duplicate intents or supports")


def test_c6_selection_guarantees():
    stream, ctx = compare_toy()
    records = mining_records(stream, ctx,
                             MinerConfig(core=CoreSpec.star_satellite(2), min_support=1))
    rng = random.Random(616)
    pools = [records]
    for _ in range(10):
        s = random_stream(rng)
        c = random_context(rng, s)
        pool = mining_records(s, c, MinerConfig(min_support=1))
        if pool:
            pools.append(pool)

    betas = [0.0, 0.2, 0.4, 0.6, 0.8]
    checked = 0
    for pool in pools:
        assert len(g_beta_select(pool, SelectionConfig(beta=0.0))) == len(pool)
        counts = [n for _, n in selection_counts(pool, betas)]
        assert counts == sorted(counts, reverse=True)
        for beta in (0.3, 0.7, 1.0):
            cfg = SelectionConfig(beta=beta)
            kept = g_beta_select(pool, cfg)
            for i, x in enumerate(kept):
                for y in kept[i + 1:]:
                    assert temporal_jaccard_distance(x.support, y.support) >= beta
            kept_ids = {id(rec) for rec in kept}
            g = INTEREST_MEASURES[cfg.g]
            for rec in pool:
                if id(rec) in kept_ids:
                    continue
                blockers = [k for k in kept
                            if temporal_jaccard_distance(rec.support, k.support) < beta]
                assert blockers and any(g(k) >= g(rec) for k in blockers)
            checked += 1
    verdict("C6", f"{checked} selections verified, {len(pools)} pattern pools")


def test_c7_stream_static_containment():
    stream, ctx = compare_toy()
    cfg = MinerConfig(core=CoreSpec.star_satellite(2), min_support=1)
    stream_intents = {rec.items for rec in mining_records(stream, ctx, cfg)}
    static_records = [rec for rec in mine(induced_static_graph(stream), ctx, cfg)
                      if not rec.below_min_support]
    static_intents = {rec.items for rec in static_records}
    assert len(static_intents) == 4 and len(stream_intents) == 3
    assert stream_intents < static_intents

    rng = random.Random(70707)
    instances = 0
    while instances < 100:
        s = random_stream(rng)
        c = random_context(rng, s)
        k = rng.randint(0, 3)
        run_cfg = MinerConfig(core=CoreSpec.star_satellite(k), min_support=1)
        mined = {rec.mask for rec in mining_records(s, c, run_cfg)}
        static = {rec.mask for rec in mine(induced_static_graph(s), c, run_cfg)
                  if not rec.below_min_support}
        assert mined <= static
        instances += 1
    verdict("C7", f"toy 4-vs-3 exact, containment on {instances} random instances")


HS_CONTACTS = os.environ.get("STREAMCORES_HS327_CONTACTS", "")
HS_METADATA = os.environ.get("STREAMCORES_HS327_METADATA", "")


@pytest.mark.skipif(not HS_CONTACTS, reason="set STREAMCORES_HS327_CONTACTS to run")
def test_c8_highschool_dataset_informational():
    started = time.perf_counter()
    stream = read_link_stream(HS_CONTACTS, fmt="contacts", instant_extension_seconds=20)
    ctx = read_highschool_context(
        contacts=HS_CONTACTS,
        metadata=HS_METADATA or None,
        stream=stream,
    )
    min_support = int(os.environ.get("STREAMCORES_HS327_MIN_SUPPORT", "1"))
    cfg = MinerConfig(core=CoreSpec.star_satellite(4), min_support=min_support)
    records = mining_records(stream, ctx, cfg)
    elapsed = time.perf_counter() - started
    assert elapsed < 1800, f"took {elapsed:.0f}s"
    assert records, "expected a non-empty pattern set"
    verdict(
        "C8",
        f"{len(records)} patterns with s={min_support} node-ticks in {elapsed:.0f}s "
        f"(reference run reports 99)",
    )
