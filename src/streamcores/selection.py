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

The remaining pairs take |A ∪ B| as |A| + |B| - |A ∩ B|, and |A ∩ B|
is summed node by node from the spans the intersection would hold,
which is not built. A `PairDistances` over one list of records does
each piece of the work once: it sums each |A| once, computes each such
pair's distance at most once, sorts the records into each interest
order once, and keeps each scan's result by (beta, g), so a scan is
run once whatever asks for it again. A `select` command shares one
between the scan at its beta and every scan of its sweep, and the
default beta, 0, is also the default sweep's first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .intervals import _meet
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
    when the caller already has them. |intersection| is summed from the
    spans the intersection would hold, which is not built.
    """
    if measure_i is None:
        measure_i = wi.measure()
    if measure_j is None:
        measure_j = wj.measure()
    inter = _intersection_measure(wi, wj)
    union = measure_i + measure_j - inter
    if union == 0:
        raise ValueError("the distance of two empty supports is undefined")
    return 1.0 - inter / union


def _intersection_measure(wi: TimeNodeSet, wj: TimeNodeSet) -> int:
    """The node-ticks of `wi.intersect(wj)`, summed without building it."""
    small, big = wi._entries, wj._entries
    if len(big) < len(small):
        small, big = big, small
    total = 0
    for v, ivs in small.items():
        o = big.get(v)
        if o is not None:
            for a, b in _meet(ivs.spans, o.spans):
                total += b - a
    return total


class PairDistances:
    """Distances between the supports of `records`, by position, each computed once.

    Also holds what every scan over `records` reads: each support's
    measure and node tuple, the interest order of each measure `g`, and
    the positions each scan kept, by (beta, g), so a scan at a beta
    already scanned is not run again.
    """

    def __init__(self, records: Sequence[ClosedPatternRecord]) -> None:
        self.records = records
        self.measures = [rec.support_measure for rec in records]
        self.nodes = [rec.support.nodes() for rec in records]
        self._memo: Dict[Tuple[int, int], float] = {}
        self._orders: Dict[str, List[int]] = {}
        self._scans: Dict[Tuple[float, str], List[int]] = {}

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

    def _order(self, g: str) -> List[int]:
        """The positions of `records` in decreasing interestingness `g`, ties broken by intent."""
        got = self._orders.get(g)
        if got is None:
            keys = list(map(interest_key(g), self.records))
            got = self._orders[g] = sorted(range(len(keys)), key=keys.__getitem__)
        return got

    def _kept(self, beta: float, g: str) -> List[int]:
        """The positions the greedy scan keeps at `beta` and `g`, in scan order."""
        got = self._scans.get((beta, g))
        if got is None:
            got = self._scans[beta, g] = _scan(self, self._order(g), beta)
        return got


def _scan(distances: PairDistances, order: Sequence[int], beta: float) -> List[int]:
    """The positions of `order` kept by the greedy scan at `beta`.

    A position is compared only with the kept ones whose support shares
    a node with its own, each once, and the size filter decides a pair
    before its distance is asked for.
    """
    measures, node_tuples = distances.measures, distances.nodes
    kept: List[int] = []
    holders: Dict[str, List[int]] = {}  # node -> kept positions whose support holds it
    for i in order:
        a = measures[i]
        nodes = node_tuples[i]
        seen = set()
        near = False
        for v in nodes:
            for k in holders.get(v, ()):
                if k not in seen:
                    seen.add(k)
                    b = measures[k]
                    # 1 - lo / hi bounds the distance from below; both supports are non-empty
                    if 1.0 - (a / b if a <= b else b / a) < beta and distances(i, k) < beta:
                        near = True
                        break
            if near:
                break
        if not near:
            kept.append(i)
            for v in nodes:
                holders.setdefault(v, []).append(i)
    return kept


def g_beta_select(
    records: Sequence[ClosedPatternRecord],
    cfg: SelectionConfig,
    distances: Optional[PairDistances] = None,
) -> List[ClosedPatternRecord]:
    """Greedy scan in decreasing interestingness, ties broken by intent.

    `distances`, when given, must be built over `records` itself; a scan
    it already holds is not run again. Two empty supports raise
    `ValueError` at any beta, as their distance is undefined.
    """
    if distances is None:
        distances = PairDistances(records)
    elif distances.records is not records:
        raise ValueError("the pair distances belong to another record list")
    # one empty support is at distance 1.0 from every other, so it is
    # always kept and a second one always meets it
    if distances.measures.count(0) > 1:
        raise ValueError("the distance of two empty supports is undefined")
    return [records[i] for i in distances._kept(cfg.beta, cfg.g)]


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
