"""Core closed pattern mining on attributed interaction streams."""

from .context import AttributeContext, ItemUniverse, closure, extent, intent
from .cores import (
    BiCoreResult,
    CoreSpec,
    apply_core,
    apply_static_core,
    bha_bicore,
    ha_core,
    star_satellite_core,
    star_satellite_split,
    static_ha_core,
    static_star_satellite_core,
)
from .intervals import EMPTY, IntervalSet, coverage_at_least
from .mining import (
    ClosedPatternRecord,
    MinerConfig,
    StaticPatternRecord,
    count_by_intent_size,
    filter_min_intent,
    mine,
    read_patterns,
    static_mine,
    write_patterns,
)
from .selection import (
    SelectionConfig,
    g_beta_select,
    selection_counts,
    temporal_jaccard_distance,
)
from .stream import StaticGraph, StreamGraph, TimeNodeSet, induced_static_graph

__version__ = "0.1.0"

__all__ = [
    "AttributeContext",
    "BiCoreResult",
    "ClosedPatternRecord",
    "CoreSpec",
    "EMPTY",
    "IntervalSet",
    "ItemUniverse",
    "MinerConfig",
    "SelectionConfig",
    "StaticGraph",
    "StaticPatternRecord",
    "StreamGraph",
    "TimeNodeSet",
    "apply_core",
    "apply_static_core",
    "bha_bicore",
    "closure",
    "count_by_intent_size",
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
    "static_ha_core",
    "static_mine",
    "static_star_satellite_core",
    "temporal_jaccard_distance",
    "write_patterns",
]
