"""Core closed pattern mining on attributed interaction streams.

The public names below are resolved lazily (PEP 562): `import
streamcores` loads no submodule, and the first use of a name imports
the module that defines it, so a `select` process never loads the
miner.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the module that defines it
_HOMES = {
    "AttributeContext": "context",
    "ClosedPatternRecord": "patternio",
    "CoreSpec": "cores",
    "EMPTY": "intervals",
    "IntervalSet": "intervals",
    "ItemUniverse": "context",
    "MinerConfig": "mining",
    "PairDistances": "selection",
    "SelectionConfig": "selection",
    "StreamGraph": "stream",
    "TimeNodeSet": "stream",
    "apply_core": "cores",
    "apply_static_core": "cores",
    "bha_bicore": "cores",
    "closure": "context",
    "coverage_at_least": "intervals",
    "extent": "context",
    "filter_min_intent": "mining",
    "g_beta_select": "selection",
    "ha_core": "cores",
    "induced_static_graph": "stream",
    "intent": "context",
    "mine": "mining",
    "read_patterns": "patternio",
    "selection_counts": "selection",
    "star_satellite_core": "cores",
    "star_satellite_split": "cores",
    "temporal_jaccard_distance": "selection",
    "write_patterns": "patternio",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
