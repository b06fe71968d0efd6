"""Interaction-stream data model.

A stream holds per-pair interaction intervals and the presence
intervals of its nodes; its nodes are exactly the nodes with nonempty
presence. Each pair's `IntervalSet` is kept once, in the adjacency
(out- and in-adjacency when directed); `interaction_items` derives the
pair keys from it: (src, dst) when directed, else the sorted pair.
`StreamGraph` fills its adjacency in one pass over the pairs it is
given: each pair's key is oriented, an undirected self-loop is refused,
and its spans are made canonical and merged with its other
orientation's in both endpoints' entries. Each node's default presence
is then merged from its own entries, one node at a time, so no copy of
the pairs or of their spans is held beside the adjacency. Pairs and a
given presence follow one rule (`_canonical`): an
`IntervalSet` is kept as it is, any other span collection normalised.
Everything is immutable after construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .intervals import EMPTY, IntervalSet, Span, _merge


class TimeNodeSet:
    """A set of (tick, node) points stored as node -> IntervalSet.

    Canonical form keeps only nodes whose interval set is nonempty, so
    equal point sets compare (and hash) equal.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, IntervalSet] = ()) -> None:
        self._entries = {v: ivs for v, ivs in dict(entries).items() if ivs}

    @classmethod
    def _raw(cls, entries: Dict[str, IntervalSet]) -> "TimeNodeSet":
        # caller guarantees all interval sets nonempty
        out = object.__new__(cls)
        out._entries = entries
        return out

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def get(self, node: str) -> IntervalSet:
        return self._entries.get(node, EMPTY)

    def items(self) -> Iterator[Tuple[str, IntervalSet]]:
        for v in sorted(self._entries):
            yield v, self._entries[v]

    def measure(self) -> int:
        """Total node-ticks."""
        return sum(ivs.measure() for ivs in self._entries.values())

    def node_count(self) -> int:
        return len(self._entries)

    def union(self, other: "TimeNodeSet") -> "TimeNodeSet":
        merged = dict(self._entries)
        for v, ivs in other._entries.items():
            cur = merged.get(v)
            merged[v] = ivs if cur is None else cur.union(ivs)
        return TimeNodeSet._raw(merged)

    def intersect(self, other: "TimeNodeSet") -> "TimeNodeSet":
        out = {}
        small, big = self._entries, other._entries
        if len(big) < len(small):
            small, big = big, small
        for v, ivs in small.items():
            o = big.get(v)
            if o is not None:
                got = ivs.intersect(o)
                if got:
                    out[v] = got
        return TimeNodeSet._raw(out)

    def issubset(self, other: "TimeNodeSet") -> bool:
        return all(ivs.issubset(other.get(v)) for v, ivs in self._entries.items())

    def restrict(self, nodes: Iterable[str]) -> "TimeNodeSet":
        keep = set(nodes)
        return TimeNodeSet._raw({v: ivs for v, ivs in self._entries.items() if v in keep})

    def __contains__(self, node: str) -> bool:
        return node in self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeNodeSet):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{v}:{ivs!r}" for v, ivs in self.items())
        return f"TimeNodeSet({body})"


class PresenceError(ValueError):
    """A given presence that does not cover a node's interactions."""


def _refuse_unordered(names: Iterable) -> None:
    """Raise a TypeError naming two of `names` that cannot be ordered, if two cannot."""
    firsts: Dict[type, object] = {}  # the first name of each type, in a hash-free order
    for name in sorted(set(names), key=lambda x: (type(x).__qualname__, repr(x))):
        for other in firsts.values():
            if type(other) is not type(name):
                try:
                    other < name
                except TypeError:
                    raise TypeError(
                        f"node names {other!r} and {name!r} cannot be ordered; "
                        "name every node with one type"
                    ) from None
        firsts.setdefault(type(name), name)


def _canonical(spans: Iterable[Span]) -> IntervalSet:
    """`spans` as an `IntervalSet`: one given is canonical already and is kept as it is."""
    return spans if isinstance(spans, IntervalSet) else IntervalSet(spans)


def _pair_presence(adj: Dict[str, Dict[str, IntervalSet]],
                   in_adj: Optional[Dict[str, Dict[str, IntervalSet]]]
                   ) -> Iterator[Tuple[str, IntervalSet]]:
    """Each node of `adj` and the union of its pairs' spans, merged one node at a time.

    `in_adj` is the in-adjacency of a directed stream, whose pairs
    count too, or None.
    """
    for w, out in adj.items():
        spans = [span for ivs in out.values() for span in ivs.spans]
        if in_adj is not None:
            spans += [span for ivs in in_adj[w].values() for span in ivs.spans]
        yield w, IntervalSet._raw(_merge(spans))


class StreamGraph:
    """Nodes with presence intervals plus timed pairwise interactions."""

    __slots__ = ("directed", "nodes", "_presence", "_adj", "_in_adj")

    def __init__(
        self,
        interactions: Mapping[Tuple[str, str], Iterable[Span]],
        presence: Optional[Mapping[str, Iterable[Span]]] = None,
        directed: bool = False,
    ) -> None:
        self.directed = directed
        # one pass fills the adjacency from `interactions`: both orientations of an
        # undirected pair meet in one entry, and every endpoint has an entry on each
        # side, made in the order it first appears (the presence check's order)
        adj: Dict[str, Dict[str, IntervalSet]] = {}
        in_adj: Dict[str, Dict[str, IntervalSet]] = {} if directed else adj
        u = v = None  # the handler reads them even when the first key fails to unpack
        try:
            for (u, v), spans in interactions.items():
                if u == v:
                    if not directed:
                        raise ValueError(f"self-interaction on node {u!r} in an undirected stream")
                elif not directed and u > v:
                    u, v = v, u
                ivs = _canonical(spans)
                if ivs:
                    out = adj.setdefault(u, {})
                    other = out.get(v)
                    out[v] = ivs = ivs if other is None else other.union(ivs)
                    in_adj.setdefault(v, {})[u] = ivs
                    if directed:
                        adj.setdefault(v, {})
                        in_adj.setdefault(u, {})
        except TypeError:
            _refuse_unordered((u, v))
            raise
        # the pair sets are canonical already, so their spans need no second check
        default_presence = _pair_presence(adj, in_adj if directed else None)
        if presence is None:
            pres = dict(default_presence)
        else:
            pres = {v: ivs for v, spans in presence.items() if (ivs := _canonical(spans))}
            for v, needed in default_presence:
                if not needed.issubset(pres.get(v, EMPTY)):
                    raise PresenceError(
                        f"presence of node {v!r} does not cover its interaction intervals"
                    )

        # the nodes are the ones present: pres covers every pair's endpoints by now
        try:
            self.nodes: Tuple[str, ...] = tuple(sorted(pres))
        except TypeError:
            _refuse_unordered(pres)
            raise
        self._presence = pres
        for v in self.nodes:  # a present node without pairs has empty adjacencies
            adj.setdefault(v, {})
            in_adj.setdefault(v, {})
        self._adj = adj
        self._in_adj = in_adj

    def presence(self, node: str) -> IntervalSet:
        ivs = self._presence.get(node)
        if ivs is None:
            raise KeyError(f"unknown node {node!r}")
        return ivs

    def presence_set(self) -> TimeNodeSet:
        return TimeNodeSet._raw(dict(self._presence))

    def interaction_items(self) -> Iterator[Tuple[Tuple[str, str], IntervalSet]]:
        """Each interacting pair's key and intervals, in key order."""
        for u in self.nodes:
            nbrs = self._adj[u]
            for v in sorted(nbrs):
                if self.directed or u < v:
                    yield (u, v), nbrs[v]

    def adjacency(self, node: str) -> Mapping[str, IntervalSet]:
        """Neighbors with interaction intervals (out-neighbors when directed)."""
        return self._adj[node]

    def in_adjacency(self, node: str) -> Mapping[str, IntervalSet]:
        if not self.directed:
            raise ValueError("in-adjacency is only defined for directed streams")
        return self._in_adj[node]

    def interaction_count(self) -> int:
        entries = sum(map(len, self._adj.values()))
        return entries if self.directed else entries // 2

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"StreamGraph({kind}, |V|={len(self.nodes)}, pairs={self.interaction_count()})"


def induced_static_graph(stream: StreamGraph) -> StreamGraph:
    """The time-collapsed graph, as a stream over the single tick [0, 1).

    Every node with non-empty presence, isolated or not, and every
    interacting pair is present over [0, 1). A graph is a stream whose
    nodes and links are present at all times, so on this stream the
    stream cores and `mine` compute the static cores and the static
    closed patterns.
    """
    always = IntervalSet.span(0, 1)
    return StreamGraph(
        {key: always for key, _ in stream.interaction_items()},
        presence=dict.fromkeys(stream.nodes, always),
        directed=stream.directed,
    )
