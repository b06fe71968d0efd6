"""Shared generators and invariant checks for the test suite."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, List, Tuple

import pytest

from streamcores import (
    AttributeContext,
    ClosedPatternRecord,
    CoreSpec,
    IntervalSet,
    ItemUniverse,
    MinerConfig,
    StreamGraph,
    TimeNodeSet,
    apply_core,
)
from streamcores.context import extent, intent

NODE_NAMES = ["a", "b", "c", "d", "e"]

# (directed, presence) arguments of `random_stream` for differential tests;
# the ids of the streams without an explicit presence are the bare flag
STREAM_KINDS = [
    pytest.param(directed, presence, id=f"{directed}-presence" if presence else f"{directed}")
    for presence in (False, True) for directed in (False, True)
]


def write_lines(path: Path, lines: Iterable[str]) -> Path:
    """`path` holding `lines`, each ended by a newline, as UTF-8; returns `path`."""
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def random_stream(
    rng: random.Random,
    *,
    directed: bool = False,
    max_nodes: int = 5,
    max_intervals: int = 12,
    max_tick: int = 20,
    allow_empty: bool = False,
    presence: bool = False,
) -> StreamGraph:
    """A random stream; with `presence`, one built from an explicit presence.

    That presence holds each node's pair spans plus random extra spans,
    and an isolated node "z", so it is larger than the pairs imply.
    """
    n = rng.randint(2, max_nodes)
    names = NODE_NAMES[:n]
    pairs = {}
    lo = 0 if allow_empty else 1
    for _ in range(rng.randint(lo, max_intervals)):
        u, v = rng.sample(names, 2)
        a = rng.randint(0, max_tick - 1)
        b = rng.randint(a + 1, max_tick)
        key = (u, v) if directed else tuple(sorted((u, v)))
        pairs.setdefault(key, []).append((a, b))
    if not presence:
        return StreamGraph(pairs, directed=directed)
    spans = {}
    for (u, v), got in pairs.items():
        spans.setdefault(u, []).extend(got)
        spans.setdefault(v, []).extend(got)
    for v in [*names, "z"]:
        for _ in range(rng.randint(v == "z", 2)):
            a = rng.randint(0, max_tick - 1)
            spans.setdefault(v, []).append((a, rng.randint(a + 1, max_tick)))
    return StreamGraph(pairs, presence=spans, directed=directed)


def random_context(rng: random.Random, stream: StreamGraph, max_items: int = 6) -> AttributeContext:
    count = rng.randint(1, max_items)
    universe = ItemUniverse([f"i{j}" for j in range(count)])
    return AttributeContext(
        universe, {v: rng.getrandbits(count) for v in stream.nodes}
    )


def permuted_context(ctx: AttributeContext, order) -> AttributeContext:
    """`ctx` with its item universe in `order`, a permutation of its items."""
    universe = ItemUniverse(order)
    assert sorted(universe.items) == sorted(ctx.universe.items)
    return AttributeContext(universe, {
        v: universe.mask_of(ctx.universe.items_of(ctx.description(v))) for v in ctx.nodes()
    })


def random_core_spec(rng: random.Random, directed: bool) -> CoreSpec:
    if directed:
        return CoreSpec.hub_authority(rng.randint(0, 2), rng.randint(0, 2))
    return CoreSpec.star_satellite(rng.randint(0, 3))


def random_subset(rng: random.Random, base: TimeNodeSet, max_tick: int = 20) -> TimeNodeSet:
    """A random time-node subset of `base`."""
    entries = {}
    for v, ivs in base.items():
        if rng.random() < 0.15:
            continue
        picks = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, max_tick)
            b = rng.randint(a, max_tick + 1)
            picks.append((a, b))
        got = ivs.intersect(IntervalSet(picks))
        if got:
            entries[v] = got
    return TimeNodeSet(entries)


def random_mixed_subset(rng: random.Random, stream: StreamGraph) -> TimeNodeSet:
    """A subset of the stream's presence that keeps some nodes' presence objects.

    Each node keeps its presence object itself, gets a random subset of it
    (a new object) or is left out, so a core sees pairs with both, one or
    neither endpoint whole.
    """
    entries = {}
    for v, ivs in stream.presence_set().items():
        pick = rng.randrange(3)
        if pick == 0:
            entries[v] = ivs
        elif pick == 1:
            entries[v] = random_subset(rng, TimeNodeSet({v: ivs})).get(v)
    return TimeNodeSet(entries)


def random_nested_pair(
    rng: random.Random, base: TimeNodeSet
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    bigger = random_subset(rng, base)
    smaller = random_subset(rng, bigger)
    return smaller, bigger


def mining_records(
    stream: StreamGraph,
    ctx: AttributeContext,
    cfg: MinerConfig,
) -> List[ClosedPatternRecord]:
    from streamcores import mine
    return [rec for rec in mine(stream, ctx, cfg) if not rec.below_min_support]


def assert_mining_invariants(records, stream, ctx, cfg) -> None:
    """Soundness, uniqueness and tree-shape checks on a finished run."""
    intents = [rec.mask for rec in records]
    supports = [rec.support for rec in records]
    assert len(set(intents)) == len(records), "duplicate intents"
    assert len(set(supports)) == len(records), "duplicate supports"
    for i, rec in enumerate(records):
        assert intent(rec.support, ctx) == rec.mask
        # re-deriving the support from scratch must land on the same set
        again = apply_core(cfg.core, stream, extent(rec.mask, ctx, stream))
        assert again == rec.support, f"support of {rec.items} not reproducible"
        if rec.depth == 0:
            continue
        # the closest preceding record one level up is the DFS parent: a child
        # adds items to its parent's intent and keeps part of its support
        parent = next(r for r in reversed(records[:i]) if r.depth == rec.depth - 1)
        assert parent.mask & ~rec.mask == 0 and parent.mask != rec.mask, (
            f"{rec.items} does not extend its parent {parent.items}")
        assert rec.support.issubset(parent.support)
        assert rec.support_measure <= parent.support_measure


def intervals_close(got: IntervalSet, want: IntervalSet, slack: int = 1) -> bool:
    """Same shape with every endpoint within `slack` ticks."""
    if len(got.spans) != len(want.spans):
        return False
    return all(
        abs(ga - wa) <= slack and abs(gb - wb) <= slack
        for (ga, gb), (wa, wb) in zip(got.spans, want.spans)
    )


def timenodes_close(got: TimeNodeSet, want: TimeNodeSet, slack: int = 1) -> bool:
    if got.nodes() != want.nodes():
        return False
    return all(intervals_close(got.get(v), want.get(v), slack) for v in want.nodes())


def simultaneous_toy() -> Tuple[StreamGraph, AttributeContext]:
    """Two simultaneous 2-stars; collapsing time changes nothing."""
    stream = StreamGraph({
        ("p", "q"): [(0, 1)],
        ("p", "r"): [(0, 1)],
        ("s", "t"): [(0, 1)],
        ("s", "v"): [(0, 1)],
    })
    universe = ItemUniverse(["a", "b", "g"])
    ctx = AttributeContext(universe, {
        "p": universe.mask_of("ab"),
        "q": universe.mask_of("ab"),
        "r": universe.mask_of("ab"),
        "s": universe.mask_of("ag"),
        "t": universe.mask_of("ag"),
        "v": universe.mask_of("ag"),
    })
    return stream, ctx
