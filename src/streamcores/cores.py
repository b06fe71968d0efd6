"""Interior (core) operators on time-node sets.

star_satellite_core keeps the time-nodes that, inside the induced
substream, either have at least k simultaneous neighbors (stars) or
touch such a node (satellites). One removal pass is enough: a star's
neighbors all qualify as satellites, so no star loses degree when the
non-qualifying time-nodes are dropped.

The hub/authority bi-core on directed streams prunes the hub side by
out-degree and the authority side by in-degree, alternating passes on
the substream induced by the current pair until nothing changes. Each
node keeps its clips: its pairs towards the other side, each met with
the far endpoint's current entry (`pair ∩ other`). Its own entry is
applied once, to the coverage sweep's result. When a node's entry
shrinks, only its far neighbours' clips of their pair with it are met
with the new entry, and a neighbour is re-pruned only if its clip
changed, as linear-time core peeling updates only the neighbours a
removal touches (Batagelj & Zaveršnik, 2003). The number of passes is
capped by the measure of the two input sides. `bha_bicore` returns the
pair (hubs, authorities) and `ha_core` is their union, as
`star_satellite_core` is that of `star_satellite_split`'s (stars, satellites).

Both operators work on canonical span tuples (`intervals._meet`) and
build an `IntervalSet` only for a result they keep.

Whole-presence rule: `StreamGraph` keeps every pair's spans inside both
endpoints' presence (it derives the presence from the pairs, or checks a
given presence against them), so meeting a pair with a presence returns
its spans unchanged. When every node of the stream is in the input set
with its own presence object (the root call of mining), the
star-satellite core takes each node's adjacency as it is, without a
per-pair loop; any other input set has each of its pairs clipped. The
bi-core skips the meet of a pair with its far entry, and of a sweep's
result with the node's input entry, when that entry is the presence
object. The identity test, not equality, costs one pointer comparison;
a set equal to the presence but built anew is met as any other.

A node with fewer active neighbours than its threshold (k, h or a) has
no time at which it qualifies, so no coverage sweep runs for it. The
satellite spans a node gets from all its stars are gathered and merged
once per node; `star_satellite_core` merges a node's star spans into
that same merge.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Tuple

from .intervals import IntervalSet, Span, _meet, _merge, coverage_at_least
from .stream import StreamGraph, TimeNodeSet


class CoreSpec:
    """Which core operator to run, with its thresholds; immutable, compared by identity."""

    __slots__ = ("kind", "k", "h", "a")

    def __init__(self, kind: str, k: int = 0, h: int = 0, a: int = 0) -> None:
        if kind not in ("identity", "star-sat", "ha"):
            raise ValueError(f"unknown core kind {kind!r}")
        if min(k, h, a) < 0:
            raise ValueError("core thresholds must be non-negative")
        for name, value in (("kind", kind), ("k", k), ("h", h), ("a", a)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"CoreSpec is immutable: cannot set {name}")

    @classmethod
    def identity(cls) -> "CoreSpec":
        return cls("identity")

    @classmethod
    def star_satellite(cls, k: int) -> "CoreSpec":
        return cls("star-sat", k=k)

    @classmethod
    def hub_authority(cls, h: int, a: int) -> "CoreSpec":
        return cls("ha", h=h, a=a)

    @classmethod
    def parse(cls, text: str) -> "CoreSpec":
        """Parse "identity", "star-sat:K" or "ha:H,A", with K, H and A in ASCII digits.

        Surrounding whitespace is stripped; `int` alone would also read "1_0", "+2" or "٣".
        """
        name, colon, args = text.strip().partition(":")
        counts = args.split(",")
        digits = all(n.isascii() and n.isdigit() for n in counts)
        try:
            if name == "identity" and not colon:
                return cls.identity()
            if name == "star-sat" and digits and len(counts) == 1:
                return cls.star_satellite(int(args))
            if name == "ha" and digits and len(counts) == 2:
                return cls.hub_authority(*map(int, counts))
        except ValueError as err:
            raise ValueError(f"bad core spec {text!r}: {err}") from None
        raise ValueError(f"bad core spec {text!r}")


def _clipped_pairs(stream: StreamGraph, wp: TimeNodeSet) -> Dict[str, Mapping[str, IntervalSet]]:
    """Per-node neighbor intervals inside the substream induced by wp.

    At the root (module docstring) each node's adjacency is handed back
    as it is. Otherwise each pair u < v of wp is clipped once, to
    `pair ∩ own ∩ other`, by two `_meet`s that stop at the first empty
    one. For each u the loop walks the smaller side: u's whole stream
    adjacency, or the nodes of wp after u (wp's nodes are sorted once
    per call). Mining calls this on small supports of high-degree nodes,
    where wp is usually the smaller side: the adjacency side is walked
    for 101 of 1,856 nodes on hs-k4, 154 of 3,701 on hs-k2-wide and 152
    of 6,647 on the contacts export at star-sat:2 and support 600. On a
    sparse 6,000-node stream, with every entry built anew, a core over
    5,887 nodes took 61.5 ms and one over 2,944 nodes 17.7 ms, against
    720 and 206 ms walking wp only.
    """
    nodes = wp.nodes()
    if len(nodes) == len(stream.nodes) and all(wp.get(v) is stream.presence(v) for v in nodes):
        return {u: stream.adjacency(u) for u in nodes}
    spans_of = {v: wp.get(v).spans for v in nodes}
    active: Dict[str, Dict[str, IntervalSet]] = {v: {} for v in nodes}
    for i, u in enumerate(nodes):
        own = spans_of[u]
        near = active[u]
        adjacency = stream.adjacency(u)
        if len(adjacency) <= len(nodes) - i - 1:
            pairs = ((v, ivs) for v, ivs in adjacency.items() if v > u and v in spans_of)
        else:
            pairs = ((v, adjacency[v]) for v in nodes[i + 1:] if v in adjacency)
        for v, ivs in pairs:
            got = _meet(ivs.spans, own)
            if got:
                got = _meet(got, spans_of[v])
            if got:
                near[v] = active[v][u] = IntervalSet._raw(got)
    return active


def _stars_and_satellite_spans(
    stream: StreamGraph, wp: TimeNodeSet, k: int
) -> Tuple[Dict[str, IntervalSet], Dict[str, list]]:
    """Each star's times, and each satellite's spans from all its stars, not yet merged.

    A node with fewer than k active neighbours is no star, so its
    coverage is not computed.
    """
    if stream.directed:
        raise ValueError("star-satellite cores are defined on undirected streams")
    if k < 0:
        raise ValueError("k must be non-negative")

    active = _clipped_pairs(stream, wp)
    stars: Dict[str, IntervalSet] = {}
    if k == 0:
        stars = {v: wp.get(v) for v in wp.nodes()}
    else:
        for u, nbrs in active.items():
            if len(nbrs) >= k:
                got = coverage_at_least(nbrs.values(), k)
                if got:
                    stars[u] = got

    sats: Dict[str, list] = {}
    for u, star in stars.items():
        star_spans = star.spans
        for v, ivs in active[u].items():
            got = _meet(ivs.spans, star_spans)
            if got:
                spans = sats.get(v)
                if spans is None:
                    sats[v] = [*got]
                else:
                    spans += got
    return stars, sats


def star_satellite_split(
    stream: StreamGraph, wp: TimeNodeSet, k: int
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    """(stars, satellites) of the k-star-satellite core: each node's star and satellite times."""
    stars, sats = _stars_and_satellite_spans(stream, wp, k)
    return TimeNodeSet._raw(stars), TimeNodeSet._raw(
        {v: IntervalSet._raw(_merge(spans)) for v, spans in sats.items()})


def star_satellite_core(stream: StreamGraph, wp: TimeNodeSet, k: int) -> TimeNodeSet:
    """Greatest subset of wp whose members are all stars or satellites at their times."""
    stars, sats = _stars_and_satellite_spans(stream, wp, k)
    core = dict(stars)
    for v, spans in sats.items():
        star = stars.get(v)
        if star is not None:
            spans += star.spans
        core[v] = IntervalSet._raw(_merge(spans))
    return TimeNodeSet._raw(core)


def _far_clips(
    adjacency: Mapping[str, IntervalSet],
    opposite: Mapping[str, IntervalSet],
    presence: Callable[[str], IntervalSet],
) -> Dict[str, Tuple[Span, ...]]:
    """A node's kept clips: each pair towards the other side met with the far endpoint's entry.

    A far entry that is still its node's presence cuts nothing (module
    docstring), and a clip that cuts nothing is the pair's own span
    tuple, so it costs a dict slot and not a copy.
    """
    clips = {}
    for v, ivs in adjacency.items():
        other = opposite.get(v)
        if other is None:
            continue
        pair = ivs.spans
        if other is not presence(v):
            got = _meet(pair, other.spans)
            if not got:
                continue
            if got != pair:
                pair = got
        clips[v] = pair
    return clips


def bha_bicore(
    stream: StreamGraph, w1: TimeNodeSet, w2: TimeNodeSet, h: int, a: int
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    """Greatest (hubs, authorities) pair of a directed stream.

    Hubs need out-degree >= h towards the authority side, authorities
    need in-degree >= a from the hub side, both inside the substream the
    pair induces; a node present on both sides must satisfy both.

    Each pass re-prunes hubs, then authorities, against the other side.
    A node keeps its clips (`_far_clips`): each of its pairs towards the
    other side met with the far endpoint's current entry, built when the
    node is first pruned. Its own entry is applied once, after the
    coverage sweep, as `coverage_k(pair ∩ other) ∩ own` equals
    `coverage_k(pair ∩ own ∩ other)`. Clips only shrink, so each sweep
    lies inside the one before: meeting it with the node's input entry
    gives its current entry's meet, and is skipped when that input entry
    is the node's presence. When a node's entry shrinks, each far
    neighbour's clip for that pair is met with the new entry, and the
    neighbour is re-pruned in the next half-pass only if its clip
    changed. The first pass prunes every node; the loop stops after a
    pass that leaves no hub to re-prune, i.e. one in which no authority
    changed a hub's clip. A node with fewer clips than its threshold
    loses all its times without a coverage sweep.

    Bound: every pass but the last removes at least one node-tick from
    the authorities and neither side ever gains one, so at most
    w1.measure() + w2.measure() + 1 passes run. The loop allows the sum
    of the input entries' extents (last end − first start) plus one, no
    less, at one subtraction per node instead of a sum over every span.
    """
    if not stream.directed:
        raise ValueError("hub-authority cores are defined on directed streams")
    if h < 0 or a < 0:
        raise ValueError("thresholds must be non-negative")

    presence = stream.presence
    hubs = dict(w1.items())
    auths = dict(w2.items())
    hub_clips: Dict[str, Dict[str, Tuple[Span, ...]]] = {}
    auth_clips: Dict[str, Dict[str, Tuple[Span, ...]]] = {}
    # (the side's input set, the side, its threshold, its adjacency towards
    # the other side, the other side, the side's kept clips, the other side's)
    sides = (
        (w1, hubs, h, stream.adjacency, auths, hub_clips, auth_clips),
        (w2, auths, a, stream.in_adjacency, hubs, auth_clips, hub_clips),
    )
    dirty = [set(hubs), set(auths)]
    extent = sum(ivs.spans[-1][1] - ivs.spans[0][0] for side in (hubs, auths)
                 for ivs in side.values())
    for _ in range(extent + 1):
        for side, (given, keep, threshold, adjacency, opposite, kept, far_kept) in enumerate(sides):
            changed = []
            if threshold:
                for u in dirty[side]:
                    own = keep[u]
                    clips = kept.get(u)
                    if clips is None:
                        clips = kept[u] = _far_clips(adjacency(u), opposite, presence)
                    spans = ()
                    if len(clips) >= threshold:
                        spans = coverage_at_least(clips.values(), threshold).spans
                        first = given.get(u)
                        if spans and first is not presence(u):
                            spans = _meet(spans, first.spans)
                    if spans != own.spans:
                        changed.append(u)
                        if spans:
                            keep[u] = IntervalSet._raw(spans)
                        else:
                            del keep[u], kept[u]
            dirty[side] = set()
            # a changed node's new entry cuts its far neighbours' clips of
            # their pair; a neighbour whose clip is not cut keeps its degree
            far = dirty[1 - side]
            for u in changed:
                cut = keep[u].spans if u in keep else ()
                for v in adjacency(u):
                    clips = far_kept.get(v)
                    clip = clips.get(u) if clips is not None else None
                    if clip is None:
                        continue
                    got = _meet(clip, cut) if cut else ()
                    if got != clip:
                        if got:
                            clips[u] = got
                        else:
                            del clips[u]
                        far.add(v)
        if not dirty[0]:
            return TimeNodeSet._raw(hubs), TimeNodeSet._raw(auths)
    raise RuntimeError("bi-core pruning failed to reach a fixed point within its bound")


def ha_core(stream: StreamGraph, x: TimeNodeSet, h: int, a: int) -> TimeNodeSet:
    """Flattened hub-authority core: union of the two bi-core sides on (x, x)."""
    hubs, authorities = bha_bicore(stream, x, x, h, a)
    return hubs.union(authorities)


def apply_core(spec: CoreSpec, stream: StreamGraph, x: TimeNodeSet) -> TimeNodeSet:
    if spec.kind == "identity":
        return x
    if spec.kind == "star-sat":
        return star_satellite_core(stream, x, spec.k)
    return ha_core(stream, x, spec.h, spec.a)


def apply_static_core(spec: CoreSpec, graph: StreamGraph, nodes: Iterable[str]) -> FrozenSet[str]:
    """Static core of a node set on a time-collapsed stream (`induced_static_graph`)."""
    return frozenset(apply_core(spec, graph, graph.presence_set().restrict(nodes)).nodes())
