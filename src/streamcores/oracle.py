"""Brute-force reference implementations over per-tick samples.

Everything here trades speed for obviousness: streams are expanded to
(tick, node) samples, core properties are re-checked sample by sample,
and closures are enumerated over the whole pattern lattice. Intended
for validating the interval-based engines on small instances only.

`reference_mine` is the depth-first miner without occurrence deliver:
it restricts the parent support and runs the core for every candidate,
with no support bound; `mining.mine` must return the same records.

The selection section holds the temporal Jaccard distance computed on
the built union and the greedy beta-scan without a memo; `selection`
must agree with them bit for bit.

`reference_read_link_stream` is the link-stream reader row by row: the
whole file split with `str.splitlines`, each row split and converted
through `dataio.to_ticks`, one span list per oriented pair, and every
span checked and merged by `IntervalSet`; `dataio.read_link_stream`
must build the same stream and raise the same errors.

The last section holds reference definitions of stream-graph notions
(induced substreams, degree profiles, adjacency event tables; Latapy,
Viard & Magnien, "Stream graphs and link streams for the modeling of
interactions over time", SNAM 2018). The miner does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .context import AttributeContext, Pattern, intent
from .cores import CoreSpec, apply_core
from .dataio import FORMAT_WIDTHS, ParseError, PathOrLines, to_ticks
from .intervals import IntervalSet
from .mining import ClosedPatternRecord, MinerConfig, filter_min_intent
from .selection import INTEREST_MEASURES
from .stream import StreamGraph, TimeNodeSet

Sample = Tuple[int, str]

SAMPLE_BUDGET = 10_000


@dataclass(frozen=True)
class DiscretizedStream:
    """Per-tick expansion of a stream graph."""

    directed: bool
    samples: FrozenSet[Sample]
    edges_at: Mapping[int, Tuple[Tuple[str, str], ...]]


def discretize(stream: StreamGraph) -> DiscretizedStream:
    samples: Set[Sample] = set()
    for v in stream.nodes:
        for a, b in stream.presence(v).spans:
            for t in range(a, b):
                samples.add((t, v))
    if len(samples) > SAMPLE_BUDGET:
        raise ValueError(f"{len(samples)} samples exceed the oracle budget {SAMPLE_BUDGET}")
    edges: Dict[int, list] = {}
    for (u, v), ivs in stream.interaction_items():
        for a, b in ivs.spans:
            for t in range(a, b):
                edges.setdefault(t, []).append((u, v))
    return DiscretizedStream(
        directed=stream.directed,
        samples=frozenset(samples),
        edges_at={t: tuple(sorted(pairs)) for t, pairs in edges.items()},
    )


def sample_set(tns: TimeNodeSet) -> FrozenSet[Sample]:
    out: Set[Sample] = set()
    for v, ivs in tns.items():
        for a, b in ivs.spans:
            for t in range(a, b):
                out.add((t, v))
    return frozenset(out)


def _star_satellite_pass(d: DiscretizedStream, x: FrozenSet[Sample], k: int) -> FrozenSet[Sample]:
    keep: Set[Sample] = set()
    degree: Dict[Sample, int] = {}
    active: Dict[int, list] = {}
    for t, pairs in d.edges_at.items():
        live = [(u, v) for u, v in pairs if (t, u) in x and (t, v) in x]
        if live:
            active[t] = live
        for u, v in live:
            degree[(t, u)] = degree.get((t, u), 0) + 1
            degree[(t, v)] = degree.get((t, v), 0) + 1
    for s in x:
        if degree.get(s, 0) >= k:
            keep.add(s)
    for t, pairs in active.items():
        for u, v in pairs:
            if degree.get((t, u), 0) >= k:
                keep.add((t, v))
            if degree.get((t, v), 0) >= k:
                keep.add((t, u))
    return frozenset(keep)


def _bha_pass(
    d: DiscretizedStream,
    x1: FrozenSet[Sample],
    x2: FrozenSet[Sample],
    h: int,
    a: int,
) -> Tuple[FrozenSet[Sample], FrozenSet[Sample]]:
    outdeg: Dict[Sample, int] = {}
    indeg: Dict[Sample, int] = {}
    for t, pairs in d.edges_at.items():
        for u, v in pairs:
            if (t, u) in x1 and (t, v) in x2:
                outdeg[(t, u)] = outdeg.get((t, u), 0) + 1
                indeg[(t, v)] = indeg.get((t, v), 0) + 1
    keep1 = frozenset(s for s in x1 if outdeg.get(s, 0) >= h)
    keep2 = frozenset(s for s in x2 if indeg.get(s, 0) >= a)
    return keep1, keep2


def brute_bicore(
    d: DiscretizedStream,
    x1: FrozenSet[Sample],
    x2: FrozenSet[Sample],
    h: int,
    a: int,
) -> Tuple[FrozenSet[Sample], FrozenSet[Sample]]:
    while True:
        n1, n2 = _bha_pass(d, x1, x2, h, a)
        if n1 == x1 and n2 == x2:
            return x1, x2
        x1, x2 = n1, n2


def brute_core(d: DiscretizedStream, x: FrozenSet[Sample], spec: CoreSpec) -> FrozenSet[Sample]:
    """Greatest fixed point by literal repeated removal of violating samples."""
    x = frozenset(x)
    if spec.kind == "identity":
        return x
    if spec.kind == "star-sat":
        if spec.k == 0:
            return x
        while True:
            nxt = _star_satellite_pass(d, x, spec.k)
            if nxt == x:
                return x
            x = nxt
    h1, h2 = brute_bicore(d, x, x, spec.h, spec.a)
    return h1 | h2


def brute_enumerate(
    d: DiscretizedStream,
    ctx: AttributeContext,
    spec: CoreSpec,
    min_support: int,
    count_nodes: bool = False,
) -> FrozenSet[Tuple[Pattern, FrozenSet[Sample]]]:
    """Closures of every pattern, deduplicated by support, kept when large enough."""
    universe = ctx.universe
    if len(universe) > 12:
        raise ValueError("pattern lattice too large for exhaustive enumeration")
    if min_support <= 0:
        raise ValueError("minimum support must be positive")
    found: Set[Tuple[Pattern, FrozenSet[Sample]]] = set()
    for mask in range(universe.full_mask + 1):
        ext = frozenset(s for s in d.samples if ctx.description(s[1]) & mask == mask)
        core = brute_core(d, ext, spec)
        size = len({v for _, v in core}) if count_nodes else len(core)
        if size < min_support:
            continue
        closed = universe.full_mask
        for _, v in core:
            closed &= ctx.description(v)
        found.add((closed, core))
    return frozenset(found)


def reference_mine(
    stream: StreamGraph, ctx: AttributeContext, cfg: MinerConfig
) -> List[ClosedPatternRecord]:
    """`mining.mine` as a plain recursion: restrict, then core, for every candidate."""
    universe = ctx.universe
    order = cfg.validate(universe)
    if not stream.nodes:
        return []

    def size(support: TimeNodeSet) -> int:
        return support.node_count() if cfg.support_measure == "nodes" else support.measure()

    def record(mask, support, parent_item, depth) -> ClosedPatternRecord:
        return ClosedPatternRecord(
            items=universe.items_of(mask),
            support=support,
            support_measure=support.measure(),
            node_count=support.node_count(),
            mask=mask,
            parent_item=parent_item,
            depth=depth,
            below_min_support=size(support) < cfg.min_support,
        )

    def expand(mask, support, excluded, depth):
        for name in order:
            bit = universe.bit(name)
            if mask & bit:
                continue
            restricted = TimeNodeSet({v: ivs for v, ivs in support.items()
                                      if ctx.description(v) & bit})
            child = apply_core(cfg.core, stream, restricted)
            if size(child) < cfg.min_support:
                continue
            closed = intent(child, ctx)
            if closed & excluded:
                continue
            records.append(record(closed, child, name, depth + 1))
            expand(closed, child, excluded, depth + 1)
            excluded |= bit

    root = apply_core(cfg.core, stream, stream.presence_set())
    records = [record(intent(root, ctx), root, None, 0)]
    expand(records[0].mask, root, 0, 0)
    return filter_min_intent(records, cfg.min_intent_size)


# -- static graphs -----------------------------------------------------------


def brute_static_core(graph: StreamGraph, x: FrozenSet[str], spec: CoreSpec) -> FrozenSet[str]:
    """Static core by node-degree pruning; `graph` is a time-collapsed stream."""
    x = frozenset(x)
    edges = [key for key, _ in graph.interaction_items()]
    if spec.kind == "identity":
        return x
    if spec.kind == "star-sat":
        if spec.k == 0:
            return x
        while True:
            degree = {v: 0 for v in x}
            for u, v in edges:
                if u in x and v in x:
                    degree[u] += 1
                    degree[v] += 1
            stars = {v for v, deg in degree.items() if deg >= spec.k}
            keep = set(stars)
            for u, v in edges:
                if u in x and v in x:
                    if u in stars:
                        keep.add(v)
                    if v in stars:
                        keep.add(u)
            keep = frozenset(keep)
            if keep == x:
                return x
            x = keep
    hubs = auths = x
    while True:
        outdeg = {v: 0 for v in hubs}
        indeg = {v: 0 for v in auths}
        for u, v in edges:
            if u in hubs and v in auths:
                outdeg[u] += 1
                indeg[v] += 1
        n1 = frozenset(v for v in hubs if outdeg[v] >= spec.h)
        n2 = frozenset(v for v in auths if indeg[v] >= spec.a)
        if n1 == hubs and n2 == auths:
            return hubs | auths
        hubs, auths = n1, n2


def brute_static_enumerate(
    graph: StreamGraph,
    ctx: AttributeContext,
    spec: CoreSpec,
    min_support: int,
) -> FrozenSet[Tuple[Pattern, FrozenSet[str]]]:
    universe = ctx.universe
    if len(universe) > 12:
        raise ValueError("pattern lattice too large for exhaustive enumeration")
    found: Set[Tuple[Pattern, FrozenSet[str]]] = set()
    for mask in range(universe.full_mask + 1):
        ext = frozenset(v for v in graph.nodes if ctx.description(v) & mask == mask)
        core = brute_static_core(graph, ext, spec)
        if len(core) < min_support:
            continue
        closed = universe.full_mask
        for v in core:
            closed &= ctx.description(v)
        found.add((closed, core))
    return frozenset(found)


# -- selection ---------------------------------------------------------------


def reference_jaccard_distance(wi: TimeNodeSet, wj: TimeNodeSet) -> float:
    """1 - |intersection| / |union| in node-ticks, with the union built."""
    union = wi.union(wj).measure()
    if union == 0:
        raise ValueError("the distance of two empty supports is undefined")
    inter = wi.intersect(wj).measure()
    return 1.0 - inter / union


def reference_select(
    records: Sequence[ClosedPatternRecord], beta: float, g: str = "duration"
) -> List[ClosedPatternRecord]:
    """Greedy scan in decreasing interestingness, ties broken by intent, every distance recomputed."""
    measure = INTEREST_MEASURES[g]
    ordered = sorted(records, key=lambda rec: (-measure(rec), tuple(sorted(rec.items))))
    kept: List[ClosedPatternRecord] = []
    for rec in ordered:
        if all(reference_jaccard_distance(rec.support, k.support) >= beta for k in kept):
            kept.append(rec)
    return kept


# -- link-stream input -------------------------------------------------------


def reference_read_link_stream(
    data: PathOrLines,
    *,
    fmt: str = "auto",
    resolution: int = 1,
    instant_extension_seconds: float = 20.0,
    directed: bool = False,
    presence: Optional[Mapping[str, IntervalSet]] = None,
    horizon: Optional[Tuple[int, int]] = None,
) -> StreamGraph:
    """`dataio.read_link_stream` with every row held, split and checked on its own."""
    if fmt != "auto" and fmt not in FORMAT_WIDTHS:
        raise ValueError(f"unknown stream format {fmt!r}")
    try:
        delta = to_ticks(instant_extension_seconds, resolution, "", 0)
    except ParseError:
        raise ValueError(
            f"instant extension {instant_extension_seconds!r} s is not a finite whole "
            f"number of ticks at {resolution} ticks/second"
        ) from None
    if delta <= 0 and fmt != "quadruples":
        raise ValueError("instant extension must be positive")
    if isinstance(data, (str, Path)):
        lines = Path(data).read_text().splitlines()
        source = str(Path(data))
    else:
        lines = list(data)
        source = ""
    width = FORMAT_WIDTHS.get(fmt)
    records = []
    for row, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "," in text:
            fields = [f.strip() for f in text.split(",")]
        else:
            fields = text.split()
        if width is None:
            width = len(fields)
            if width not in FORMAT_WIDTHS.values():
                raise ParseError(f"cannot infer format from {width} columns", source, row)
        if len(fields) != width:
            raise ParseError(f"expected {width} columns, got {len(fields)}", source, row)
        if width == 4:
            b, e, u, v = fields
            records.append((row, (to_ticks(b, resolution, source, row),
                                  to_ticks(e, resolution, source, row), u, v)))
        else:
            records.append((row, (to_ticks(fields[0], resolution, source, row),
                                  fields[1], fields[2])))

    pair_spans: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
    for row, rec in records:
        if len(rec) == 3:
            t, u, v = rec
            if delta <= 0:
                raise ParseError("instant records need a positive extension", source, row)
            b, e = t - delta, t
        else:
            b, e, u, v = rec
            if b >= e:
                raise ParseError(f"empty interval [{b}, {e})", source, row)
        if u == v and not directed:
            raise ParseError(f"self-interaction on node {u!r}", source, row)
        if horizon is not None and (b < horizon[0] or e > horizon[1]):
            raise ParseError(f"interval [{b}, {e}) outside horizon {horizon}", source, row)
        if not directed and u > v:
            u, v = v, u
        pair_spans.setdefault((u, v), []).append((b, e))
    return StreamGraph(pair_spans, presence=presence, horizon=horizon, directed=directed)


# -- reference definitions of stream-graph notions ---------------------------


Event = Tuple[int, str, int]  # (tick, other node, +1 start / -1 end)


@dataclass(frozen=True)
class AdjacencyEventTable:
    """Per-node interaction events sorted by time.

    Ties at the same tick put ends (-1) before starts (+1), then sort by
    the other node's id. For directed streams `inbound` carries the
    mirror table; it is None otherwise.
    """

    events: Mapping[str, Tuple[Event, ...]]
    inbound: Optional[Mapping[str, Tuple[Event, ...]]] = None


def _event_list(adjacency: Mapping[str, IntervalSet]) -> Tuple[Event, ...]:
    events: List[Event] = []
    for other, ivs in adjacency.items():
        for a, b in ivs.spans:
            events.append((a, other, 1))
            events.append((b, other, -1))
    events.sort(key=lambda e: (e[0], e[2], e[1]))
    return tuple(events)


def build_event_table(stream: StreamGraph) -> AdjacencyEventTable:
    out = {v: _event_list(stream.adjacency(v)) for v in stream.nodes}
    if not stream.directed:
        return AdjacencyEventTable(events=out)
    inbound = {v: _event_list(stream.in_adjacency(v)) for v in stream.nodes}
    return AdjacencyEventTable(events=out, inbound=inbound)


def induced_substream(stream: StreamGraph, wp: TimeNodeSet) -> StreamGraph:
    """Substream induced by a time-node subset of the presence set."""
    if not wp.issubset(stream.presence_set()):
        raise ValueError("the inducing set is not contained in the stream's presence")
    interactions = {}
    for (u, v), ivs in stream.interaction_items():
        clipped = ivs.intersect(wp.get(u)).intersect(wp.get(v))
        if clipped:
            interactions[(u, v)] = clipped
    return StreamGraph(
        interactions,
        presence={v: ivs for v, ivs in wp.items()},
        horizon=stream.horizon,
        directed=stream.directed,
        nodes=wp.nodes(),
    )


def induced_substream_between(stream: StreamGraph, w1: TimeNodeSet, w2: TimeNodeSet) -> StreamGraph:
    """Directed substream keeping interactions from w1 into w2."""
    if not stream.directed:
        raise ValueError("two-sided induction needs a directed stream")
    w = stream.presence_set()
    if not (w1.issubset(w) and w2.issubset(w)):
        raise ValueError("the inducing sets are not contained in the stream's presence")
    interactions = {}
    for (u, v), ivs in stream.interaction_items():
        clipped = ivs.intersect(w1.get(u)).intersect(w2.get(v))
        if clipped:
            interactions[(u, v)] = clipped
    union = w1.union(w2)
    return StreamGraph(
        interactions,
        presence={v: ivs for v, ivs in union.items()},
        horizon=stream.horizon,
        directed=True,
        nodes=union.nodes(),
    )


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant integer function over the stream horizon."""

    segments: Tuple[Tuple[int, int, int], ...]  # (start, end, value), contiguous

    def value(self, tick: int) -> int:
        for a, b, val in self.segments:
            if a <= tick < b:
                return val
        raise ValueError(f"tick {tick} outside the profiled horizon")

    def breakpoints(self) -> Tuple[int, ...]:
        return tuple(seg[0] for seg in self.segments[1:])


def degree_profile(stream: StreamGraph, node: str, direction: Optional[str] = None) -> StepFunction:
    """Number of distinct active neighbors of `node` as a function of time.

    `direction` must be None for undirected streams and "out" or "in"
    for directed ones.
    """
    if stream.directed:
        if direction == "out":
            adjacency = stream.adjacency(node)
        elif direction == "in":
            adjacency = stream.in_adjacency(node)
        else:
            raise ValueError("directed streams need direction='out' or 'in'")
    else:
        if direction is not None:
            raise ValueError("undirected streams take no direction")
        adjacency = stream.adjacency(node)

    alpha, omega = stream.horizon
    events: List[Tuple[int, int]] = []
    for ivs in adjacency.values():
        for a, b in ivs.spans:
            events.append((a, 1))
            events.append((b, -1))
    events.sort()

    segments: List[Tuple[int, int, int]] = []
    cursor, count = alpha, 0
    i, n = 0, len(events)
    while i < n:
        t = events[i][0]
        if t > cursor:
            segments.append((cursor, t, count))
            cursor = t
        while i < n and events[i][0] == t:
            count += events[i][1]
            i += 1
    if cursor < omega or not segments:
        segments.append((cursor, omega, count))
    # merge equal-valued neighbors produced by touching intervals
    merged: List[Tuple[int, int, int]] = []
    for seg in segments:
        if merged and merged[-1][2] == seg[2] and merged[-1][1] == seg[0]:
            merged[-1] = (merged[-1][0], seg[1], seg[2])
        else:
            merged.append(seg)
    return StepFunction(tuple(merged))
