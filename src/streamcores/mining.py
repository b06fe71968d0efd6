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

Static closed patterns are mined by the same loop on the time-collapsed
stream (`induced_static_graph`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .context import AttributeContext, Pattern, intent
from .cores import CoreSpec, apply_core
from .dataio import ParseError
from .intervals import IntervalSet
from .stream import StreamGraph, TimeNodeSet

log = logging.getLogger(__name__)

SUPPORT_MEASURES = ("duration", "nodes")


@dataclass
class MinerConfig:
    core: CoreSpec = field(default_factory=CoreSpec.identity)
    min_support: int = 1
    min_intent_size: int = 0
    item_order: Optional[Sequence[str]] = None  # permutation of the universe, default file order
    support_measure: str = "duration"  # threshold unit: node-ticks or distinct nodes

    def check(self) -> None:
        """Check the settings that need no item universe; a ValueError if one is bad."""
        if self.min_support <= 0:
            raise ValueError("minimum support must be positive")
        if self.min_intent_size < 0:
            raise ValueError("minimum intent size cannot be negative")
        if self.support_measure not in SUPPORT_MEASURES:
            raise ValueError(f"support measure must be one of {SUPPORT_MEASURES}")

    def validate(self, universe) -> Tuple[str, ...]:
        """Check the config against an item universe; returns the item order."""
        self.check()
        if self.item_order is None:
            return universe.items
        order = tuple(self.item_order)
        if sorted(order) != sorted(universe.items):
            raise ValueError("item order must be a permutation of the universe")
        return order


@dataclass
class ClosedPatternRecord:
    items: Tuple[str, ...]  # universe order
    support: TimeNodeSet
    support_measure: int  # node-ticks
    node_count: int
    mask: Optional[Pattern] = None
    parent_item: Optional[str] = None
    depth: int = 0
    below_min_support: bool = False


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

    The closure of the whole presence set is always emitted first; when
    its support falls short of the threshold it is flagged instead of
    dropped. Output order is the deterministic depth-first order induced
    by the item order. The stack is explicit, so depth is not bounded by
    the interpreter's recursion limit.
    """
    universe = ctx.universe
    order = cfg.validate(universe)
    if not stream.nodes:
        log.warning("mining an empty stream: no patterns")
        return []
    names = {universe.bit(name): name for name in order}
    rank = {bit: i for i, bit in enumerate(names)}

    def record(mask, support, size, parent_item, depth) -> ClosedPatternRecord:
        return ClosedPatternRecord(
            items=universe.items_of(mask),
            support=support,
            support_measure=support.measure(),
            node_count=support.node_count(),
            mask=mask,
            parent_item=parent_item,
            depth=depth,
            below_min_support=size < cfg.min_support,
        )

    count_nodes = cfg.support_measure == "nodes"
    # apply_core and intent are looked up at call time, so that
    # instrumentation rebinding them on this module sees every call
    root_support = apply_core(cfg.core, stream, stream.presence_set())
    root_mask = intent(root_support, ctx)
    root_size = root_support.node_count() if count_nodes else root_support.measure()
    records = [record(root_mask, root_support, root_size, None, 0)]

    full = universe.full_mask
    tried = bound_pruned = core_calls = support_pruned = canonicity_pruned = 0

    def frame(mask, support, excluded, depth) -> list:
        # [queue, excluded, depth]; the queue holds the candidates that pass
        # the support bound, last in item order first
        nonlocal tried, bound_pruned
        skip = mask | excluded
        tallies, carriers = _deliver(support, ctx, skip, count_nodes)
        passing = sorted((bit for bit, tally in tallies.items()
                          if tally >= cfg.min_support), key=rank.get, reverse=True)
        untried = (full & ~skip).bit_count()
        tried += untried
        bound_pruned += untried - len(passing)
        return [[(bit, names[bit], carriers[bit]) for bit in passing], excluded, depth]

    stack = [frame(root_mask, root_support, 0, 0)]
    while stack:
        top = stack[-1]
        queue, excluded, depth = top
        while queue:
            bit, name, entries = queue.pop()
            core_calls += 1
            support = apply_core(cfg.core, stream, TimeNodeSet._raw(entries))
            n = support.node_count() if count_nodes else support.measure()
            if n < cfg.min_support:
                support_pruned += 1
                continue
            closed = intent(support, ctx)
            if closed & excluded:
                canonicity_pruned += 1
                continue
            records.append(record(closed, support, n, name, depth + 1))
            stack.append(frame(closed, support, excluded, depth + 1))
            top[1] = excluded | bit
            break
        else:
            stack.pop()

    log.info("%d candidates: %d pruned by the support bound, %d core calls, "
             "%d pruned by support after the core, %d pruned by canonicity, %d emitted",
             tried, bound_pruned, core_calls, support_pruned, canonicity_pruned,
             len(records) - 1)
    if cfg.min_intent_size:
        records = filter_min_intent(records, cfg.min_intent_size)
    return records


def count_by_intent_size(records: Sequence[ClosedPatternRecord]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for rec in records:
        n = len(rec.items)
        out[n] = out.get(n, 0) + 1
    return dict(sorted(out.items()))


def filter_min_intent(
    records: Sequence[ClosedPatternRecord], n: int
) -> List[ClosedPatternRecord]:
    """Keep records with at least n items, preserving order."""
    return [rec for rec in records if len(rec.items) >= n]


# -- pattern files ------------------------------------------------------------


def _record_payload(rec: ClosedPatternRecord) -> dict:
    payload = {
        "intent": list(rec.items),
        "support": {v: ivs.spans for v, ivs in rec.support.items()},  # tuples dump as arrays
        "support_measure": rec.support_measure,
        "node_count": rec.node_count,
    }
    if rec.below_min_support:
        payload["below_min_support"] = True
    return payload


def write_patterns(records: Sequence[ClosedPatternRecord], path: Union[str, Path]) -> None:
    """One JSON object per line, fields in a fixed order."""
    with open(path, "w") as handle:
        for rec in records:
            handle.write(json.dumps(_record_payload(rec)) + "\n")


def write_static_patterns(
    records: Sequence[ClosedPatternRecord], path: Union[str, Path]
) -> None:
    """Static patterns mined on `induced_static_graph`: supports are node lists."""
    with open(path, "w") as handle:
        for rec in records:
            payload = {
                "intent": list(rec.items),
                "support": list(rec.support.nodes()),
                "node_count": rec.node_count,
            }
            if rec.below_min_support:
                payload["below_min_support"] = True
            handle.write(json.dumps(payload) + "\n")


def _typed(value, kind: type, name: str):
    """`value` itself when its type is exactly `kind` (so a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _node_support(node: str, spans) -> IntervalSet:
    """One node's span list as `write_patterns` writes it, checked in one pass.

    The spans must be [start, end] integer pairs, nonempty, sorted,
    disjoint and non-touching, and there must be at least one: a list
    that canonicalisation would change is refused, not repaired.
    """
    _typed(spans, list, f"spans of node {node!r}")
    if not spans:
        raise ValueError(f"node {node!r} has no spans")
    out = []
    end = None
    for span in spans:
        if type(span) is not list or len(span) != 2:
            raise ValueError(f"span of node {node!r} must be a [start, end] pair, got {span!r}")
        a, b = span
        if type(a) is not int or type(b) is not int:
            _typed(a, int, "span start")
            _typed(b, int, "span end")
        if a >= b:
            raise ValueError(f"empty span [{a}, {b}) of node {node!r}")
        if end is not None and a <= end:
            raise ValueError(f"span [{a}, {b}) of node {node!r} does not start after "
                             f"the end {end} of the span before it")
        out.append((a, b))
        end = b
    return IntervalSet._raw(tuple(out))


def read_patterns(path: Union[str, Path]) -> List[ClosedPatternRecord]:
    """Records written by `write_patterns`.

    A malformed record, one whose `support_measure` or `node_count`
    disagrees with its support, or one with an empty support that is not
    flagged `below_min_support`, raises `dataio.ParseError`. Values are
    checked, never coerced or repaired: an intent must be a list of
    strings, the support an object of canonical span lists (see
    `_node_support`), and every number a plain integer.
    """
    records = []
    with open(path) as handle:
        for i, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                items = tuple(_typed(obj["intent"], list, "intent"))
                for item in items:
                    _typed(item, str, "intent item")
                support = TimeNodeSet._raw({
                    v: _node_support(v, spans)
                    for v, spans in _typed(obj["support"], dict, "support").items()
                })
                rec = ClosedPatternRecord(
                    items=items,
                    support=support,
                    support_measure=_typed(obj["support_measure"], int, "support_measure"),
                    node_count=_typed(obj["node_count"], int, "node_count"),
                    below_min_support=_typed(obj.get("below_min_support", False), bool,
                                             "below_min_support"),
                )
                # mine flags every empty support: min_support is at least 1
                if not support and not rec.below_min_support:
                    raise ValueError("an empty support must be flagged below_min_support")
                if rec.support_measure != support.measure():
                    raise ValueError(f"support_measure {rec.support_measure} but the "
                                     f"support covers {support.measure()} node-ticks")
                if rec.node_count != support.node_count():
                    raise ValueError(f"node_count {rec.node_count} but the "
                                     f"support has {support.node_count()} nodes")
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as err:
                raise ParseError(f"bad pattern record: {err}", source=str(path), row=i) from None
            records.append(rec)
    return records
