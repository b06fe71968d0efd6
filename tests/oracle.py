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

`reference_bicore` is the hub-authority fixed point that re-clips
every pair of every re-pruned node to both its endpoints' entries
(`pair ∩ own ∩ other`) in each pass; `cores.bha_bicore`, which keeps
each node's clips and re-prunes only what a change touches, must return
the same sides on inputs too large for the per-tick oracle.

`certify` checks a mining run's records without enumerating the
lattice, so it also runs on streams too large for the per-tick oracle:
each record is sound, and one step from each record reaches only
emitted intents.

`reference_write_patterns` writes each record's line with one
`json.dumps` of the whole record; `patternio.write_patterns`, which writes
the support in pieces, must write the same bytes.

`reference_stream_graph` is the `StreamGraph` build that gathers
every pair first: an oriented pair dict of pairwise unions and one span
list per node, each node's presence merged from its concatenated list
once every pair is in; `StreamGraph`, which fills its adjacency in one
pass and merges each node's presence from that, must build the same
stream and raise the same errors.

`reference_read_link_stream` is the link-stream reader row by row: the
whole file decoded as `utf-8-sig` and split with `str.splitlines`, each
row split, converted through `dataio.to_ticks` and checked in file
order, one span list per oriented pair, and every list merged by
`IntervalSet`; `dataio.read_link_stream` must build the same stream
and raise the same first error. Both check their settings (resolution,
format, instant extension) with `dataio.extension_ticks` before they
read a row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from streamcores.context import AttributeContext, Pattern, extent, intent
from streamcores.cores import CoreSpec, apply_core
from streamcores.dataio import FORMAT_WIDTHS, ParseError, extension_ticks, open_output, to_ticks
from streamcores.intervals import EMPTY, IntervalSet, _meet, _merge, coverage_at_least
from streamcores.mining import ClosedPatternRecord, MinerConfig, filter_min_intent
from streamcores.selection import INTEREST_MEASURES
from streamcores.stream import (PresenceError, StreamGraph, TimeNodeSet, _canonical,
                                _refuse_unordered)

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


def reference_bicore(
    stream: StreamGraph, w1: TimeNodeSet, w2: TimeNodeSet, h: int, a: int
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    """`cores.bha_bicore` as a worklist that re-clips every pair of a dirty node.

    Greatest (hubs, authorities) pair of a directed stream.

    Hubs need out-degree >= h towards the authority side, authorities
    need in-degree >= a from the hub side, both inside the substream the
    pair induces; a node present on both sides must satisfy both.

    Each pass re-prunes hubs, then authorities, against the other side.
    The first pass prunes every node; later passes prune only the nodes
    with a neighbour on the other side that changed since their own last
    pruning, since no other node's clipped degree can have changed. The
    loop stops after a pass that leaves no hub to re-prune, i.e. one in
    which no authority with a hub in-neighbour changed.

    A pair between two nodes whose entries are still their whole
    presence is not clipped (the `cores` module docstring), and a node
    with fewer clipped neighbours than its threshold loses all its times
    without a coverage sweep.

    Bound: every pass but the last removes at least one node-tick from
    the authorities and neither side ever gains one, so at most
    w1.measure() + w2.measure() + 1 passes run.
    """
    if not stream.directed:
        raise ValueError("hub-authority cores are defined on directed streams")
    if h < 0 or a < 0:
        raise ValueError("thresholds must be non-negative")

    presence = stream.presence
    hubs = dict(w1.items())
    auths = dict(w2.items())
    # (side, its threshold, its adjacency towards the other side, the other side)
    sides = (
        (hubs, h, stream.adjacency, auths),
        (auths, a, stream.in_adjacency, hubs),
    )
    dirty = [set(hubs), set(auths)]
    for _ in range(w1.measure() + w2.measure() + 1):
        for side, (keep, threshold, adjacency, opposite) in enumerate(sides):
            changed = []
            if threshold:
                for u in dirty[side]:
                    own = keep.get(u)
                    if own is None:
                        continue
                    own_whole = own is presence(u)
                    own_spans = own.spans
                    clipped = []
                    for v, ivs in adjacency(u).items():
                        other = opposite.get(v)
                        if other is not None:
                            if own_whole and other is presence(v):
                                clipped.append(ivs.spans)
                                continue
                            got = _meet(ivs.spans, own_spans)
                            if got:
                                got = _meet(got, other.spans)
                            if got:
                                clipped.append(got)
                    got = EMPTY
                    if len(clipped) >= threshold:
                        got = coverage_at_least(clipped, threshold)
                    if got != own:
                        changed.append(u)
                        if got:
                            keep[u] = got
                        else:
                            del keep[u]
            dirty[side] = set()
            # a changed node's neighbours on the other side see a new degree
            far = dirty[1 - side]
            for u in changed:
                far.update(v for v in adjacency(u) if v in opposite)
        if not dirty[0]:
            return TimeNodeSet._raw(hubs), TimeNodeSet._raw(auths)
    raise RuntimeError("bi-core pruning failed to reach a fixed point within its bound")


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


def certify(
    records: Sequence[ClosedPatternRecord], stream: StreamGraph, ctx: AttributeContext,
    cfg: MinerConfig,
) -> List[str]:
    """The problems that keep `records` from being the closed patterns `cfg` mines.

    Soundness: each support is the core of its intent's extent and has
    that intent, and no intent is emitted twice. Completeness: the
    closure of the empty pattern is emitted, and for each record R and
    each item i outside R's intent, when the core of R's support
    restricted to i's carriers reaches the threshold, its intent is
    emitted. Those checks certify every closed pattern Q above the
    threshold: from the emitted root, whose intent Q contains, an item
    of Q missing from the current record R leads to an emitted record
    whose intent lies in Q, has more items than R's and keeps a support
    at least Q's.

    Each record's support is tallied by item in one pass, as the
    miner's occurrence deliver does, rather than taking one global
    extent per record and item. Records are matched by their items, so
    the records `patternio.read_patterns` returns are certified as well.
    """
    if cfg.min_intent_size:
        raise ValueError("a run that drops small intents breaks the chain from the root")
    universe = ctx.universe

    def size(support: TimeNodeSet) -> int:
        return support.node_count() if cfg.support_measure == "nodes" else support.measure()

    def core(support: TimeNodeSet) -> TimeNodeSet:
        return apply_core(cfg.core, stream, support)

    problems = []
    masks = [universe.mask_of(rec.items) for rec in records]
    emitted = set(masks)
    if len(emitted) < len(masks):
        problems.append("an intent is emitted twice")
    if stream.nodes:
        root = intent(core(stream.presence_set()), ctx)
        if root not in emitted:
            problems.append(f"the root {universe.items_of(root)} is not emitted")
    for rec, mask in zip(records, masks):
        if intent(rec.support, ctx) != mask:
            problems.append(f"{rec.items}: the support has another intent")
        if core(extent(mask, ctx, stream)) != rec.support:
            problems.append(f"{rec.items}: the support is not the core of the extent")
        carriers: Dict[Pattern, Dict[str, IntervalSet]] = {}
        for v, ivs in rec.support.items():
            rest = ctx.description(v) & ~mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                carriers.setdefault(bit, {})[v] = ivs
        for bit, entries in carriers.items():
            child = core(TimeNodeSet._raw(entries))
            if size(child) >= cfg.min_support and intent(child, ctx) not in emitted:
                problems.append(f"{rec.items} + {universe.items_of(bit)}: the closure "
                                f"{universe.items_of(intent(child, ctx))} is not emitted")
    return problems


# -- pattern files -----------------------------------------------------------


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


def reference_write_patterns(records: Sequence[ClosedPatternRecord],
                             path: Union[str, Path]) -> None:
    """`patternio.write_patterns` as one `json.dumps` of each whole record."""
    with open_output(path) as handle:
        for rec in records:
            handle.write(json.dumps(_record_payload(rec)))
            handle.write("\n")


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


# -- stream build --------------------------------------------------------------


def reference_stream_graph(
    interactions: Mapping[Tuple[str, str], Sequence[Tuple[int, int]]],
    presence: Optional[Mapping[str, Sequence[Tuple[int, int]]]] = None,
    directed: bool = False,
) -> StreamGraph:
    """`StreamGraph(interactions, presence, directed)` built from every pair gathered first.

    Each pair is oriented and unioned with its other orientation in a
    pair dict, each node's spans are gathered into one list, and the
    lists are merged once every pair is in; the adjacency is made from
    the pair dict last. Self-loops, mixed name types and a presence
    that does not cover a node are refused as `StreamGraph` refuses them.
    """
    pairs: Dict[Tuple[str, str], IntervalSet] = {}
    node_spans: Dict[str, List[Tuple[int, int]]] = {}
    u = v = None
    try:
        for (u, v), spans in interactions.items():
            if u == v:
                if not directed:
                    raise ValueError(f"self-interaction on node {u!r} in an undirected stream")
            elif not directed and u > v:
                u, v = v, u
            ivs = _canonical(spans)
            if ivs:
                other = pairs.get((u, v))
                pairs[u, v] = ivs if other is None else other.union(ivs)
                for w in (u, v):
                    node_spans.setdefault(w, []).extend(ivs.spans)
    except TypeError:
        _refuse_unordered((u, v))
        raise
    default_presence = {w: IntervalSet._raw(_merge(spans)) for w, spans in node_spans.items()}
    if presence is None:
        pres = default_presence
    else:
        pres = {w: ivs for w, spans in presence.items() if (ivs := _canonical(spans))}
        for w, needed in default_presence.items():
            if not needed.issubset(pres.get(w, EMPTY)):
                raise PresenceError(
                    f"presence of node {w!r} does not cover its interaction intervals")
    try:
        nodes = tuple(sorted(pres))
    except TypeError:
        _refuse_unordered(pres)
        raise
    adj: Dict[str, Dict[str, IntervalSet]] = {w: {} for w in nodes}
    in_adj = {w: {} for w in nodes} if directed else adj
    for (u, v), ivs in pairs.items():
        adj[u][v] = ivs
        in_adj[v][u] = ivs
    stream = object.__new__(StreamGraph)
    stream.directed, stream.nodes, stream._presence = directed, nodes, pres
    stream._adj, stream._in_adj = adj, in_adj
    return stream


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
    """`dataio.read_link_stream` with every row split and checked on its own, in file order.

    The settings are checked first, by the reader's own `extension_ticks`.
    """
    delta = extension_ticks(instant_extension_seconds, resolution, fmt)
    source = str(path)
    # read as the reader reads: a leading byte-order mark is dropped
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    width = FORMAT_WIDTHS.get(fmt)
    pair_spans: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
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
            b, e = to_ticks(b, resolution, source, row), to_ticks(e, resolution, source, row)
        else:
            u, v = fields[1], fields[2]
            e = to_ticks(fields[0], resolution, source, row)
            b = e - delta
        if not u or not v:
            raise ParseError("empty node name", source, row)
        if b >= e:
            raise ParseError(f"empty interval [{b}, {e})", source, row)
        if u == v and not directed:
            raise ParseError(f"self-interaction on node {u!r}", source, row)
        if not directed and u > v:
            u, v = v, u
        pair_spans.setdefault((u, v), []).append((b, e))
    return StreamGraph(pair_spans, presence=presence, directed=directed)

