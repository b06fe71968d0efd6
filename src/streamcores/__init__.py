"""Core closed pattern mining on attributed interaction streams."""

from .context import AttributeContext, ItemUniverse, closure, extent, intent
from .cores import (
    CoreSpec,
    apply_core,
    apply_static_core,
    bha_bicore,
    ha_core,
    star_satellite_core,
    star_satellite_split,
)
from .intervals import EMPTY, IntervalSet, coverage_at_least
from .mining import (
    ClosedPatternRecord,
    MinerConfig,
    filter_min_intent,
    mine,
    read_patterns,
    write_patterns,
)
from .selection import (
    PairDistances,
    SelectionConfig,
    g_beta_select,
    selection_counts,
    temporal_jaccard_distance,
)
from .stream import StreamGraph, TimeNodeSet, induced_static_graph

__version__ = "0.1.0"

__all__ = [
    "AttributeContext",
    "ClosedPatternRecord",
    "CoreSpec",
    "EMPTY",
    "IntervalSet",
    "ItemUniverse",
    "MinerConfig",
    "PairDistances",
    "SelectionConfig",
    "StreamGraph",
    "TimeNodeSet",
    "apply_core",
    "apply_static_core",
    "bha_bicore",
    "closure",
    "coverage_at_least",
    "extent",
    "filter_min_intent",
    "g_beta_select",
    "ha_core",
    "induced_static_graph",
    "intent",
    "mine",
    "read_patterns",
    "selection_counts",
    "star_satellite_core",
    "star_satellite_split",
    "temporal_jaccard_distance",
    "write_patterns",
]
