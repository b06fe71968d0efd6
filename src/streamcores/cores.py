"""Interior (core) operators on time-node sets.

star_satellite_core keeps the time-nodes that, inside the induced
substream, either have at least k simultaneous neighbors (stars) or
touch such a node (satellites). One removal pass is enough: a star's
neighbors all qualify as satellites, so no star loses degree when the
non-qualifying time-nodes are dropped.

The hub/authority bi-core on directed streams prunes the hub side by
out-degree and the authority side by in-degree, alternating passes on
the substream induced by the current pair until nothing changes. After
the first full pass, a pass re-prunes only the nodes next to a node of
the other side that changed (a worklist), and the number of passes is
capped by the measure of the two input sides. `bha_bicore` returns the
pair (hubs, authorities) and `ha_core` is their union, as
`star_satellite_core` is that of `star_satellite_split`'s (stars, satellites).

Whole-presence rule: both operators clip a pair's spans to its two
endpoints' time-nodes in the input set, except when both entries are
the stream's own presence objects (`own is stream.presence(u)`). Then
the spans are taken as they are. That is sound because `StreamGraph`
keeps every pair's spans inside both endpoints' presence: it derives
the presence from the pairs, or checks a given presence against them,
so the clip would return the spans unchanged. The identity test, not
equality, makes the rule cost one pointer comparison per node; a set
equal to the presence but built anew is clipped as before.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from .intervals import EMPTY, IntervalSet, coverage_at_least
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
        """Parse "identity", "star-sat:K" or "ha:H,A"."""
        name, _, args = text.strip().partition(":")
        try:
            if name == "identity" and not args:
                return cls.identity()
            if name == "star-sat":
                return cls.star_satellite(int(args))
            if name == "ha":
                h, a = args.split(",")
                return cls.hub_authority(int(h), int(a))
        except ValueError as err:
            raise ValueError(f"bad core spec {text!r}: {err}") from None
        raise ValueError(f"bad core spec {text!r}")


def _clipped_pairs(stream: StreamGraph, wp: TimeNodeSet) -> Dict[str, list]:
    """Per-node neighbor intervals inside the substream induced by wp.

    Each pair u < v of wp is clipped once. For each u the loop walks the
    smaller side: u's whole stream adjacency, or the nodes of wp after u
    (wp's nodes are sorted once per call). Mining calls this on small
    supports of high-degree nodes, where wp is usually the smaller side;
    a root core of a sparse 6,000-node stream needs the adjacency side
    (0.06 s, against 0.52 s walking wp only).
    A pair between two whole-presence nodes is not clipped (module
    docstring).
    """
    active: Dict[str, list] = {}
    nodes = wp.nodes()
    whole = {v for v in nodes if wp.get(v) is stream.presence(v)}
    for i, u in enumerate(nodes):
        own = wp.get(u)
        own_whole = u in whole
        adjacency = stream.adjacency(u)
        if len(adjacency) <= len(nodes) - i - 1:
            pairs = ((v, ivs) for v, ivs in adjacency.items() if v > u and v in wp)
        else:
            pairs = ((v, adjacency[v]) for v in nodes[i + 1:] if v in adjacency)
        for v, ivs in pairs:
            if own_whole and v in whole:
                clipped = ivs
            else:
                clipped = ivs.intersect(own).intersect(wp.get(v))
            if clipped:
                active.setdefault(u, []).append((v, clipped))
                active.setdefault(v, []).append((u, clipped))
    return active


def star_satellite_split(
    stream: StreamGraph, wp: TimeNodeSet, k: int
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    """(stars, satellites) of the k-star-satellite core: each node's star and satellite times."""
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
            got = coverage_at_least([ivs for _, ivs in nbrs], k)
            if got:
                stars[u] = got

    sats: Dict[str, IntervalSet] = {}
    for u, nbrs in active.items():
        star_iv = stars.get(u)
        if not star_iv:
            continue
        for v, ivs in nbrs:
            got = ivs.intersect(star_iv)
            if got:
                cur = sats.get(v)
                sats[v] = got if cur is None else cur.union(got)
    return TimeNodeSet._raw(stars), TimeNodeSet._raw(sats)


def star_satellite_core(stream: StreamGraph, wp: TimeNodeSet, k: int) -> TimeNodeSet:
    """Greatest subset of wp whose members are all stars or satellites at their times."""
    stars, satellites = star_satellite_split(stream, wp, k)
    return stars.union(satellites)


def bha_bicore(
    stream: StreamGraph, w1: TimeNodeSet, w2: TimeNodeSet, h: int, a: int
) -> Tuple[TimeNodeSet, TimeNodeSet]:
    """Greatest (hubs, authorities) pair of a directed stream.

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
    presence is not clipped (module docstring).

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
                    clipped = []
                    for v, ivs in adjacency(u).items():
                        other = opposite.get(v)
                        if other is not None:
                            if own_whole and other is presence(v):
                                clipped.append(ivs)
                                continue
                            got = ivs.intersect(own).intersect(other)
                            if got:
                                clipped.append(got)
                    got = coverage_at_least(clipped, threshold) if clipped else EMPTY
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
