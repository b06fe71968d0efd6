"""Greedy diverse-subset selection of mined patterns.

Patterns are scanned in decreasing interestingness; one is kept only
when its support is at temporal Jaccard distance at least beta from
every already kept support.

Most pairs are decided without an intersection, by the two filters of
set-similarity joins. A scan indexes each node to the kept supports
that hold it, and compares a support only with the kept ones that share
a node: the others are at distance 1.0. For those that share one, the
size filter comes first: with sizes lo <= hi, the distance is at least
1 - lo / hi, so when that reaches beta the pair passes. The bound holds
in floating point too, because |A ∩ B| <= lo, |A ∪ B| >= hi, and
correctly rounded division and subtraction are monotone.

The remaining pairs take |A ∪ B| as |A| + |B| - |A ∩ B|, so they only
build the intersection. A `PairDistances` memo over one list of records
computes each such pair's distance at most once, with each |A| summed
once; a `select` command shares one memo between the scan at its beta
and every scan of its sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .patternio import ClosedPatternRecord
from .stream import TimeNodeSet

INTEREST_MEASURES: Dict[str, Callable[[ClosedPatternRecord], int]] = {
    "duration": lambda rec: rec.support_measure,
    "nodes": lambda rec: rec.node_count,
    "intent-size": lambda rec: len(rec.items),
}


def interest_key(g: str) -> Callable[[ClosedPatternRecord], tuple]:
    """Sort key for decreasing interestingness `g`, ties broken by intent."""
    measure = INTEREST_MEASURES[g]
    return lambda rec: (-measure(rec), tuple(sorted(rec.items)))


class SelectionConfig:
    def __init__(self, beta: float = 0.0, g: str = "duration") -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if g not in INTEREST_MEASURES:
            raise ValueError(f"interestingness measure must be one of {tuple(INTEREST_MEASURES)}")
        self.beta = beta
        self.g = g


def temporal_jaccard_distance(
    wi: TimeNodeSet,
    wj: TimeNodeSet,
    measure_i: Optional[int] = None,
    measure_j: Optional[int] = None,
) -> float:
    """1 - |intersection| / |union| in node-ticks; 0 iff equal, 1 iff disjoint.

    `measure_i` and `measure_j` are `wi.measure()` and `wj.measure()`
    when the caller already has them.
    """
    if measure_i is None:
        measure_i = wi.measure()
    if measure_j is None:
        measure_j = wj.measure()
    inter = wi.intersect(wj).measure()
    union = measure_i + measure_j - inter
    if union == 0:
        raise ValueError("the distance of two empty supports is undefined")
    return 1.0 - inter / union


class PairDistances:
    """Distances between the supports of `records`, by position, each computed once.

    Also holds each support's measure and node tuple, which the scan's
    filters read.
    """

    def __init__(self, records: Sequence[ClosedPatternRecord]) -> None:
        self.records = records
        self.measures = [rec.support_measure for rec in records]
        self.nodes = [rec.support.nodes() for rec in records]
        self._memo: Dict[Tuple[int, int], float] = {}

    def __call__(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        got = self._memo.get(key)
        if got is None:
            a, b = key
            got = self._memo[key] = temporal_jaccard_distance(
                self.records[a].support, self.records[b].support,
                self.measures[a], self.measures[b],
            )
        return got

    def at_least(self, i: int, j: int, beta: float) -> bool:
        """Whether distance(i, j) >= beta, by the sizes alone when they suffice.

        Both supports must be non-empty.
        """
        a, b = self.measures[i], self.measures[j]
        lo, hi = (a, b) if a <= b else (b, a)
        return 1.0 - lo / hi >= beta or self(i, j) >= beta


def _sharing(holders: Dict[str, List[int]], nodes: Sequence[str]) -> Iterator[int]:
    """The positions listed under any of `nodes`, each once."""
    seen = set()
    for v in nodes:
        for k in holders.get(v, ()):
            if k not in seen:
                seen.add(k)
                yield k


def g_beta_select(
    records: Sequence[ClosedPatternRecord],
    cfg: SelectionConfig,
    distances: Optional[PairDistances] = None,
) -> List[ClosedPatternRecord]:
    """Greedy scan in decreasing interestingness, ties broken by intent.

    `distances`, when given, must be built over `records` itself. Two
    empty supports raise `ValueError` at any beta, as their distance is
    undefined.
    """
    if distances is None:
        distances = PairDistances(records)
    elif distances.records is not records:
        raise ValueError("the pair distances belong to another record list")
    # one empty support is at distance 1.0 from every other, so it is
    # always kept and a second one always meets it
    if distances.measures.count(0) > 1:
        raise ValueError("the distance of two empty supports is undefined")
    key = interest_key(cfg.g)
    ordered = sorted(range(len(records)), key=lambda i: key(records[i]))
    beta = cfg.beta
    kept: List[int] = []
    holders: Dict[str, List[int]] = {}  # node -> kept positions whose support holds it
    for i in ordered:
        nodes = distances.nodes[i]
        if all(distances.at_least(i, k, beta) for k in _sharing(holders, nodes)):
            kept.append(i)
            for v in nodes:
                holders.setdefault(v, []).append(i)
    return [records[i] for i in kept]


def selection_counts(
    records: Sequence[ClosedPatternRecord],
    betas: Sequence[float],
    g: str = "duration",
    distances: Optional[PairDistances] = None,
) -> List[Tuple[float, int]]:
    """Kept-set size for each beta; the sweep the reports are built from.

    Every scan shares `distances` (one over `records` when omitted).

    The counts are not promised to fall as beta grows: a support rejected
    at a higher beta no longer blocks the ones scanned after it. Five
    supports over node-ticks {0,1,2,5,6,7}, {0,1,6}, {1,5}, {1}, {5},
    scanned in that order, keep 5, 5, 5, 2, 3 at beta = 0, 0.2, 0.4,
    0.6, 0.8.
    """
    if distances is None:
        distances = PairDistances(records)
    return [
        (beta, len(g_beta_select(records, SelectionConfig(beta=beta, g=g), distances)))
        for beta in betas
    ]
