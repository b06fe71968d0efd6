"""Greedy diverse-subset selection of mined patterns.

Patterns are scanned in decreasing interestingness; one is kept only
when its support is at temporal Jaccard distance at least beta from
every already kept support.

The distance takes |A ∪ B| as |A| + |B| - |A ∩ B|, so it only builds
the intersection. A `PairDistances` memo over one list of records
computes each pair's distance at most once, with each |A| summed once;
a `select` command shares one memo between the scan at its beta and
every scan of its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .mining import ClosedPatternRecord
from .stream import TimeNodeSet

INTEREST_MEASURES: Dict[str, Callable[[ClosedPatternRecord], int]] = {
    "duration": lambda rec: rec.support_measure,
    "nodes": lambda rec: rec.node_count,
    "intent-size": lambda rec: len(rec.items),
}


@dataclass
class SelectionConfig:
    beta: float = 0.0
    g: str = "duration"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.g not in INTEREST_MEASURES:
            raise ValueError(f"interestingness measure must be one of {tuple(INTEREST_MEASURES)}")


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
    """Distances between the supports of `records`, by position, each computed once."""

    def __init__(self, records: Sequence[ClosedPatternRecord]) -> None:
        self.records = records
        self._measures = [rec.support.measure() for rec in records]
        self._memo: Dict[Tuple[int, int], float] = {}

    def __call__(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        got = self._memo.get(key)
        if got is None:
            a, b = key
            got = self._memo[key] = temporal_jaccard_distance(
                self.records[a].support, self.records[b].support,
                self._measures[a], self._measures[b],
            )
        return got


def g_beta_select(
    records: Sequence[ClosedPatternRecord],
    cfg: SelectionConfig,
    distances: Optional[PairDistances] = None,
) -> List[ClosedPatternRecord]:
    """Greedy scan in decreasing interestingness, ties broken by intent.

    `distances`, when given, must be built over `records` itself.
    """
    if distances is None:
        distances = PairDistances(records)
    elif distances.records is not records:
        raise ValueError("the pair distances belong to another record list")
    measure = INTEREST_MEASURES[cfg.g]
    ordered = sorted(
        range(len(records)),
        key=lambda i: (-measure(records[i]), tuple(sorted(records[i].items))),
    )
    kept: List[int] = []
    for i in ordered:
        if all(distances(i, k) >= cfg.beta for k in kept):
            kept.append(i)
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
