"""Brute-force reference implementations over per-tick samples.

Everything here trades speed for obviousness: streams are expanded to
(tick, node) samples, core properties are re-checked sample by sample,
and closures are enumerated over the whole pattern lattice. Intended
for validating the interval-based engines on small instances only.

`reference_mine` is the depth-first miner without occurrence deliver:
it restricts the parent support and runs the core for every candidate,
in the universe's item order, with no support bound; `mining.mine`
must return the same records, in the same order.

The selection section holds the temporal Jaccard distance computed on
the built union and the greedy beta-scan without a memo; `selection`
must agree with them bit for bit.

`reference_read_link_stream` is the link-stream reader row by row: the
whole file decoded as `utf-8-sig` and split with `str.splitlines`, each
row split and converted through `dataio.to_ticks`, one span list per
oriented pair, and every span checked and merged by `IntervalSet`;
`dataio.read_link_stream` must build the same stream and raise the same
errors. Both check their settings (resolution, format, instant
extension) with `dataio.extension_ticks` before they read a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from streamcores.context import AttributeContext, Pattern, intent
from streamcores.cores import CoreSpec, apply_core
from streamcores.dataio import FORMAT_WIDTHS, ParseError, extension_ticks, to_ticks
from streamcores.intervals import IntervalSet
from streamcores.mining import ClosedPatternRecord, MinerConfig, filter_min_intent
from streamcores.selection import INTEREST_MEASURES
from streamcores.stream import StreamGraph, TimeNodeSet

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
    if not stream.nodes:
        return []

    def size(support: TimeNodeSet) -> int:
        return support.node_count() if cfg.support_measure == "nodes" else support.measure()

    def record(mask, support, depth) -> ClosedPatternRecord:
        return ClosedPatternRecord(
            items=universe.items_of(mask),
            support=support,
            support_measure=support.measure(),
            node_count=support.node_count(),
            mask=mask,
            depth=depth,
            below_min_support=size(support) < cfg.min_support,
        )

    def expand(mask, support, excluded, depth):
        for name in universe.items:
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
            records.append(record(closed, child, depth + 1))
            expand(closed, child, excluded, depth + 1)
            excluded |= bit

    root = apply_core(cfg.core, stream, stream.presence_set())
    records = [record(intent(root, ctx), root, 0)]
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
    path: Union[str, Path],
    *,
    fmt: str = "auto",
    resolution: int = 1,
    instant_extension_seconds: float = 20.0,
    directed: bool = False,
    presence: Optional[Mapping[str, IntervalSet]] = None,
) -> StreamGraph:
    """`dataio.read_link_stream` with every row held, split and checked on its own.

    The settings are checked first, by the reader's own `extension_ticks`.
    """
    delta = extension_ticks(instant_extension_seconds, resolution, fmt)
    source = str(path)
    # read as the reader reads: a leading byte-order mark is dropped
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
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
            record = (to_ticks(b, resolution, source, row), to_ticks(e, resolution, source, row),
                      u, v)
        else:
            u, v = fields[1], fields[2]
            record = (to_ticks(fields[0], resolution, source, row), u, v)
        if not u or not v:
            raise ParseError("empty node name", source, row)
        records.append((row, record))

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
        if not directed and u > v:
            u, v = v, u
        pair_spans.setdefault((u, v), []).append((b, e))
    return StreamGraph(pair_spans, presence=presence, directed=directed)

