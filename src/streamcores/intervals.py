"""Exact algebra on finite unions of half-open integer intervals.

Time is measured in integer ticks. An interval [a, b) covers the ticks
a, a+1, ..., b-1, so its measure is b - a. The canonical form (sorted,
pairwise disjoint, maximally merged, no empty pieces) is unique for a
given point set, which makes structural equality set equality.

It holds only the operations the pipeline runs. The intersection
works on span tuples (`_meet`), and `IntervalSet.intersect` and
`IntervalSet.issubset` wrap it. `_meet` bisects lopsided operands
(`_clip_into`): 8,618 of the 41,684 `_meet` calls of hs-k2-wide's
seed-1 mine take that path, and star-sat:2 at support 600 on the
contacts export took 402 ms with it, 440 without.
`coverage_at_least` sweeps two sorted lists of ints, the start and the
end ticks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Tuple

Span = Tuple[int, int]

# _meet bisects the shorter span list into the longer one when it has at
# most 1/_BISECT_RATIO as many spans, and merges the two lists otherwise; on
# hs-shaped presences the two cost the same at about this ratio
_BISECT_RATIO = 6


def _merge(spans: list[Span]) -> Tuple[Span, ...]:
    """Canonical form of a list of nonempty span tuples; sorts the list in place.

    A span that no other span extends is returned as the same tuple
    object, so the spans must be tuples. Its callers all pass tuples:
    `_normalize` and `IntervalSet.union`; `stream._pair_presence` (each
    node's presence from its pairs' spans); `dataio._Records` (the
    quadruples of a pair, once the file has parsed); the
    star-satellite core (each node's satellite spans, and its star spans).
    """
    if not spans:
        return ()
    spans.sort()
    merged: list[Span] = []
    keep = spans[0]  # the open span while no other span extends it, else None
    lo, hi = keep
    for span in spans:
        a, b = span
        if a > hi:
            merged.append(keep or (lo, hi))
            keep = span
            lo, hi = a, b
        elif b > hi:
            hi = b
            keep = None
    merged.append(keep or (lo, hi))
    return tuple(merged)


def _normalize(spans: Iterable[Span]) -> Tuple[Span, ...]:
    cleaned = []
    for a, b in spans:
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError(f"interval endpoints must be integers, got ({a!r}, {b!r})")
        if a > b:
            raise ValueError(f"interval start {a} exceeds end {b}")
        if a < b:
            cleaned.append((a, b))
    return _merge(cleaned)


def _clip_into(xs: Tuple[Span, ...], ys: Tuple[Span, ...]) -> Tuple[Span, ...]:
    """Canonical xs ∩ ys, bisecting each span of the short xs into the long ys.

    Costs O(len(xs) · log len(ys) + output) instead of a merge's
    O(len(xs) + len(ys)) (Demaine, López-Ortiz & Munro, SODA 2000).
    """
    out: list[Span] = []
    n = len(ys)
    j = 0
    for a, b in xs:
        j = bisect_left(ys, (a,), j)  # first span of ys starting at or after a
        if j and ys[j - 1][1] > a:
            j -= 1
        while j < n:
            c, d = ys[j]
            if c >= b:
                break
            out.append((a if a > c else c, b if b < d else d))
            if d > b:  # the span may also meet the next span of xs
                break
            j += 1
    return tuple(out)


def _meet(xs: Tuple[Span, ...], ys: Tuple[Span, ...]) -> Tuple[Span, ...]:
    """Canonical xs ∩ ys of two canonical span tuples.

    Bisects the shorter list into the longer one when it is lopsided
    (`_clip_into`) and merges the two otherwise.
    """
    nx, ny = len(xs), len(ys)
    if ny < nx:
        xs, ys, nx, ny = ys, xs, ny, nx
    if not nx:
        return ()
    if nx * _BISECT_RATIO <= ny:
        return _clip_into(xs, ys)
    out: list[Span] = []
    i = j = 0
    a, b = xs[0]
    c, d = ys[0]
    while True:
        lo = a if a > c else c
        if b <= d:
            if lo < b:
                out.append((lo, b))
            i += 1
            if i == nx:
                break
            a, b = xs[i]
        else:
            if lo < d:
                out.append((lo, d))
            j += 1
            if j == ny:
                break
            c, d = ys[j]
    return tuple(out)


class IntervalSet:
    """Immutable canonical union of half-open integer intervals."""

    __slots__ = ("_spans",)

    def __init__(self, spans: Iterable[Span] = ()) -> None:
        self._spans = _normalize(spans)

    @classmethod
    def _raw(cls, spans: Tuple[Span, ...]) -> "IntervalSet":
        # internal fast path; caller guarantees canonical input
        out = object.__new__(cls)
        out._spans = spans
        return out

    @classmethod
    def span(cls, start: int, end: int) -> "IntervalSet":
        return cls(((start, end),))

    @property
    def spans(self) -> Tuple[Span, ...]:
        return self._spans

    def measure(self) -> int:
        """Total number of ticks covered."""
        return sum(b - a for a, b in self._spans)

    def bounds(self) -> Optional[Span]:
        """Smallest enclosing span, or None when empty."""
        if not self._spans:
            return None
        return (self._spans[0][0], self._spans[-1][1])

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet._raw(_merge([*self._spans, *other._spans]))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet._raw(_meet(self._spans, other._spans))

    def issubset(self, other: "IntervalSet") -> bool:
        return _meet(self._spans, other._spans) == self._spans

    __or__ = union
    __and__ = intersect

    def __bool__(self) -> bool:
        return bool(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __repr__(self) -> str:
        body = " ".join(f"[{a},{b})" for a, b in self._spans) or "{}"
        return f"IntervalSet({body})"


EMPTY = IntervalSet()


def coverage_at_least(sets: Iterable[Iterable[Span]], k: int) -> IntervalSet:
    """Ticks covered by at least k of the given canonical span collections.

    Each collection is an `IntervalSet` or a canonical span tuple. The
    sweep walks the sorted start ticks and consumes the sorted end ticks
    up to each start, so the coverage count only changes at an endpoint
    and the result's endpoints are a subset of the input endpoints.
    """
    if k <= 0:
        raise ValueError("coverage threshold must be positive")
    starts: list[int] = []
    ends: list[int] = []
    for spans in sets:
        for a, b in spans:
            starts.append(a)
            ends.append(b)
    starts.sort()
    ends.sort()
    # the i-th smallest end exceeds the i-th smallest start, since every span
    # is nonempty, so ends[j] never runs past the list while a start is left
    out: list[Span] = []
    count = j = 0
    opened = 0
    for t in starts:
        while ends[j] <= t:  # ends at t close before starts at t open
            count -= 1
            if count == k - 1:
                out.append((opened, ends[j]))
            j += 1
        count += 1
        if count == k:
            # a region that closed at t and reopens at t is one span
            opened = out.pop()[0] if out and out[-1][1] == t else t
    if count >= k:  # the region still open closes at the (count - k + 1)-th end left
        out.append((opened, ends[j + count - k]))
    return IntervalSet._raw(tuple(out))
