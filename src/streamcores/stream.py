"""Interaction-stream data model.

A stream holds a finite tick horizon, a set of nodes with presence
intervals, and per-pair interaction intervals. Undirected pairs are
stored under their sorted key; directed streams keep ordered (src, dst)
keys plus separate in/out adjacency. `StreamGraph` is the one place
that orients pair keys and canonicalises the spans it is given: the
spans of both orientations of a pair become one `IntervalSet`.
Everything is immutable after construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

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

    def difference(self, other: "TimeNodeSet") -> "TimeNodeSet":
        out = {}
        for v, ivs in self._entries.items():
            got = ivs.subtract(other.get(v))
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


class StreamGraph:
    """Nodes with presence intervals plus timed pairwise interactions."""

    __slots__ = ("directed", "horizon", "nodes", "_presence", "_pairs", "_adj", "_in_adj")

    def __init__(
        self,
        interactions: Mapping[Tuple[str, str], Iterable[Span]],
        presence: Optional[Mapping[str, Iterable[Span]]] = None,
        horizon: Optional[Span] = None,
        directed: bool = False,
        nodes: Iterable[str] = (),
    ) -> None:
        self.directed = directed
        # both orientations of an undirected pair gather under its sorted key,
        # so each pair is checked and merged once
        gathered: Dict[Tuple[str, str], List[Span]] = {}
        u = v = None  # the handler reads them even when the first key fails to unpack
        try:
            for (u, v), spans in interactions.items():
                if u == v:
                    if not directed:
                        raise ValueError(f"self-interaction on node {u!r} in an undirected stream")
                elif not directed and u > v:
                    u, v = v, u
                gathered.setdefault((u, v), []).extend(spans)
        except TypeError:
            _refuse_unordered((u, v))
            raise
        pairs: Dict[Tuple[str, str], IntervalSet] = {}
        for key, spans in gathered.items():
            ivs = IntervalSet(spans)
            if ivs:
                pairs[key] = ivs

        # collect first and normalise once per node: a union per pair is quadratic
        node_spans: Dict[str, List[Span]] = {}
        for (u, v), ivs in pairs.items():
            for w in (u, v):
                node_spans.setdefault(w, []).extend(ivs.spans)
        # the pair sets are canonical already, so their spans need no second check
        default_presence = {w: IntervalSet._raw(_merge(spans)) for w, spans in node_spans.items()}

        names = set(nodes)
        if presence is None:
            pres = default_presence
        else:
            pres = {}
            for v, spans in presence.items():
                ivs = IntervalSet(spans)
                if ivs:
                    pres[v] = ivs
                names.add(v)
            for v, needed in default_presence.items():
                if not needed.issubset(pres.get(v, EMPTY)):
                    raise ValueError(
                        f"presence of node {v!r} does not cover its interaction intervals"
                    )

        names.update(pres)  # pres covers every pair's endpoints by now
        try:
            self.nodes: Tuple[str, ...] = tuple(sorted(names))
        except TypeError:
            _refuse_unordered(names)
            raise
        self._presence = pres
        self._pairs = pairs

        # every presence kept is nonempty
        lo = min((ivs.spans[0][0] for ivs in pres.values()), default=None)
        hi = max((ivs.spans[-1][1] for ivs in pres.values()), default=None)
        if horizon is None:
            self.horizon: Span = (lo, hi) if lo is not None else (0, 0)
        else:
            if not all(isinstance(t, int) for t in horizon):
                raise TypeError(f"horizon bounds must be integers, got {horizon!r}")
            if horizon[0] > horizon[1]:
                raise ValueError(f"horizon {horizon} ends before it starts")
            if lo is not None and (lo < horizon[0] or hi > horizon[1]):
                raise ValueError(
                    f"intervals [{lo},{hi}) fall outside the declared horizon {horizon}"
                )
            self.horizon = (horizon[0], horizon[1])

        adj: Dict[str, Dict[str, IntervalSet]] = {v: {} for v in self.nodes}
        in_adj: Dict[str, Dict[str, IntervalSet]] = {v: {} for v in self.nodes} if directed else adj
        for (u, v), ivs in pairs.items():
            adj[u][v] = ivs
            in_adj[v][u] = ivs
        self._adj = adj
        self._in_adj = in_adj

    def presence(self, node: str) -> IntervalSet:
        if node not in self._adj:
            raise KeyError(f"unknown node {node!r}")
        return self._presence.get(node, EMPTY)

    def presence_set(self) -> TimeNodeSet:
        return TimeNodeSet._raw(dict(self._presence))

    def pair(self, u: str, v: str) -> IntervalSet:
        """Interaction intervals of a pair (u -> v when directed)."""
        if not self.directed and u > v:
            u, v = v, u
        return self._pairs.get((u, v), EMPTY)

    def interaction_items(self) -> Iterator[Tuple[Tuple[str, str], IntervalSet]]:
        for key in sorted(self._pairs):
            yield key, self._pairs[key]

    def adjacency(self, node: str) -> Mapping[str, IntervalSet]:
        """Neighbors with interaction intervals (out-neighbors when directed)."""
        return self._adj[node]

    def in_adjacency(self, node: str) -> Mapping[str, IntervalSet]:
        if not self.directed:
            raise ValueError("in-adjacency is only defined for directed streams")
        return self._in_adj[node]

    def interaction_count(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"StreamGraph({kind}, |V|={len(self.nodes)}, pairs={len(self._pairs)}, "
            f"horizon={self.horizon})"
        )


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
        presence={v: always for v in stream.presence_set().nodes()},
        directed=stream.directed,
    )
