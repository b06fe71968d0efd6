"""Depth-first enumeration of frequent core closed patterns.

The traversal starts from the closure of the empty pattern and adds one
item at a time. A child's support is the core of the parent's support
restricted to the nodes carrying the new item (the item's carriers),
which coincides with the core of the global extent.

Candidates are evaluated by occurrence deliver (Uno, Kiyomi & Arimura,
LCM ver. 2, FIMI 2004): when a frame is pushed, one pass over its
support files every node under each untried item it carries,
and tallies the item's support measure over those carriers. Every core
operator is contractive (`core(X)` is a subset of `X`), so the tally
bounds the child's support from above: a candidate whose tally is below
the threshold is dropped without running the core, and the others queue
in item order with their carriers. A candidate thus costs its carriers,
not the parent's whole support.

An exclusion mask prevents re-reaching a closed pattern through a second
branch: a closure containing an already expanded item is skipped. A
frame is the list [queue, excluded, depth]. A child is pushed with the
parent's mask, and the parent then adds the child's item to its own, so
the child's subtree runs without the item and the later siblings with
it. An excluded item is never tried: the child's support holds only its
carriers (or nothing, whose intent is the full universe), so the closure
would contain the item itself.

Canonicity is also tested before the core. A queued candidate's core
support is a subset of its carriers, and the intent is antitone in the
node set, so the closure contains the items all carriers share (an
empty core gives the full universe). When those shared items meet the
frame's exclusion mask, the closure would too: the candidate is
counted as pruned before the core, and its core never runs. LCM's
prefix-preserving test rests on the same argument. The shared items
are ANDed inline, not through `intent`, so that the calls to `intent`
stay the closures taken. A candidate that passes this test can still
be pruned after the core, by its support or by its closure.

Items are tried in the universe's order, which `read_attributes` takes
from the order in which items first appear in the attribute file.
Under any item order the loop reaches each closed pattern exactly once,
so another order changes the records' order (and the item order within
each intent) and nothing else; there is no item-order setting.

Static closed patterns are mined by the same loop on the time-collapsed
stream (`induced_static_graph`).

The miner returns `ClosedPatternRecord`s; the record, its pattern file
and the support measures a threshold takes (`SUPPORT_MEASURES`) live in
`patternio`, which `select` and `inspect` load without this module.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Sequence, Tuple

from .context import AttributeContext, Pattern, intent
from .cores import CoreSpec, apply_core
from .intervals import IntervalSet
from .patternio import SUPPORT_MEASURES, ClosedPatternRecord
from .stream import StreamGraph, TimeNodeSet

log = logging.getLogger(__name__)


class MinerConfig:
    def __init__(self, core: CoreSpec = CoreSpec.identity(), min_support: int = 1,
                 min_intent_size: int = 0, support_measure: str = "duration") -> None:
        if min_support <= 0:
            raise ValueError("minimum support must be positive")
        if min_intent_size < 0:
            raise ValueError("minimum intent size cannot be negative")
        if support_measure not in SUPPORT_MEASURES:
            raise ValueError(f"support measure must be one of {SUPPORT_MEASURES}")
        self.core = core
        self.min_support = min_support
        self.min_intent_size = min_intent_size
        self.support_measure = support_measure  # threshold unit: node-ticks or distinct nodes


def _deliver(
    support: TimeNodeSet, ctx: AttributeContext, skip: Pattern, count_nodes: bool
) -> Tuple[Dict[Pattern, int], Dict[Pattern, Dict[str, IntervalSet]]]:
    """Occurrence deliver: per item outside `skip`, its support tally and its carriers.

    The tally is the carriers' node-ticks, or their number when
    `count_nodes`; the carriers map each support node holding the item to
    its intervals. One pass over the support fills both.
    """
    tallies: Dict[Pattern, int] = {}
    carriers: Dict[Pattern, Dict[str, IntervalSet]] = {}
    for v, ivs in support.items():
        rest = ctx.description(v) & ~skip
        if not rest:
            continue
        size = 1 if count_nodes else ivs.measure()
        while rest:
            bit = rest & -rest
            rest ^= bit
            tallies[bit] = tallies.get(bit, 0) + size
            entries = carriers.get(bit)
            if entries is None:
                carriers[bit] = {v: ivs}
            else:
                entries[v] = ivs
    return tallies, carriers


def mine(
    stream: StreamGraph, ctx: AttributeContext, cfg: MinerConfig
) -> List[ClosedPatternRecord]:
    """Enumerate every core closed pattern with support at least cfg.min_support.

    The closure of the whole presence set comes first; when its support
    falls short of the threshold it is flagged instead of dropped, but
    `cfg.min_intent_size` drops it like any other record whose intent
    is too small (with a threshold above the root's support, that
    leaves no record at all). Output order is the deterministic
    depth-first order induced by the universe's item order. The stack
    is explicit, so depth is not bounded by the interpreter's recursion
    limit.
    """
    universe = ctx.universe
    if not stream.nodes:
        log.warning("mining an empty stream: no patterns")
        return []

    count_nodes = cfg.support_measure == "nodes"
    # apply_core and intent are looked up at call time, so that
    # instrumentation rebinding them on this module sees every call
    root_support = apply_core(cfg.core, stream, stream.presence_set())
    root_mask = intent(root_support, ctx)
    root = ClosedPatternRecord(universe.items_of(root_mask), root_support, root_mask)
    # only the root is kept below the threshold: every other record has passed it
    size = root.node_count if count_nodes else root.support_measure
    root.below_min_support = size < cfg.min_support
    records = [root]

    full = universe.full_mask
    describe = ctx.description
    tried = bound_pruned = core_calls = support_pruned = 0
    pruned_before = pruned_after = 0  # by canonicity, before and after the core

    def frame(mask, support, excluded, depth) -> list:
        # [queue, excluded, depth]; the queue holds the candidates that pass
        # the support bound, last in item order (the largest bit) first
        nonlocal tried, bound_pruned
        skip = mask | excluded
        tallies, carriers = _deliver(support, ctx, skip, count_nodes)
        passing = sorted((bit for bit, tally in tallies.items()
                          if tally >= cfg.min_support), reverse=True)
        untried = (full & ~skip).bit_count()
        tried += untried
        bound_pruned += untried - len(passing)
        return [[(bit, carriers[bit]) for bit in passing], excluded, depth]

    stack = [frame(root_mask, root_support, 0, 0)]
    while stack:
        top = stack[-1]
        queue, excluded, depth = top
        while queue:
            bit, entries = queue.pop()
            shared = excluded  # the excluded items every carrier holds
            for v in entries:
                if not shared:
                    break
                shared &= describe(v)
            if shared:
                pruned_before += 1
                continue
            core_calls += 1
            support = apply_core(cfg.core, stream, TimeNodeSet._raw(entries))
            n = support.node_count() if count_nodes else support.measure()
            if n < cfg.min_support:
                support_pruned += 1
                continue
            closed = intent(support, ctx)
            if closed & excluded:
                pruned_after += 1
                continue
            records.append(ClosedPatternRecord(universe.items_of(closed), support, closed,
                                               depth + 1))
            stack.append(frame(closed, support, excluded, depth + 1))
            top[1] = excluded | bit
            break
        else:
            stack.pop()

    log.info("%d candidates: %d pruned by the support bound, "
             "%d pruned by canonicity before the core, %d core calls, "
             "%d pruned by support after the core, %d pruned by canonicity after the core, "
             "%d emitted", tried, bound_pruned, pruned_before, core_calls, support_pruned,
             pruned_after, len(records) - 1)
    if cfg.min_intent_size:
        records = filter_min_intent(records, cfg.min_intent_size)
    return records


def filter_min_intent(
    records: Sequence[ClosedPatternRecord], n: int
) -> List[ClosedPatternRecord]:
    """Keep records with at least n items, preserving order."""
    return [rec for rec in records if len(rec.items) >= n]

