"""Small bundled instances used by the tests, the docs and quick demos.

`star_toy_stream` and `bipartite_toy_stream` are hand-reconstructed
encodings of the reference examples the core operators are checked
against; `compare_toy` is a minimal instance where collapsing time
creates one extra closed pattern that never holds at any single moment.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple, Union

from . import dataio
from .context import AttributeContext, ItemUniverse
from .stream import StreamGraph


def triple_context_stream() -> Tuple[StreamGraph, AttributeContext]:
    """Three described nodes present on [0, 1) with no interactions."""
    stream = StreamGraph(
        {},
        presence={"1": [(0, 1)], "2": [(0, 1)], "3": [(0, 1)]},
    )
    universe = ItemUniverse(["a", "b", "c", "d"])
    ctx = AttributeContext(universe, {
        "1": universe.mask_of("abd"),
        "2": universe.mask_of("acd"),
        "3": universe.mask_of("abc"),
    })
    return stream, ctx


def star_toy_stream() -> StreamGraph:
    """Four nodes over [0, 10); b briefly has two simultaneous neighbors twice."""
    return StreamGraph(
        {
            ("a", "b"): [(1, 3), (7, 8)],
            ("b", "d"): [(2, 3)],
            ("b", "c"): [(7, 8)],
        },
        presence={
            "a": [(0, 10)],
            "b": [(0, 4), (5, 10)],
            "c": [(4, 10)],
            "d": [(1, 3)],
        },
    )


def bipartite_toy_stream() -> StreamGraph:
    """Directed two-layer stream; only [3, 5) supports two-sided degree 2.

    w keeps a single out-edge throughout, so it can never reach
    out-degree 2; x is reachable twice before tick 3 but only from
    senders that drop out of the hub side.
    """
    return StreamGraph(
        {
            ("u", "x"): [(1, 5)],
            ("u", "y"): [(3, 6)],
            ("u", "z"): [(3, 5)],
            ("v", "x"): [(3, 5)],
            ("v", "y"): [(2, 5)],
            ("v", "z"): [(3, 7)],
            ("w", "x"): [(1, 4)],
        },
        directed=True,
    )


def compare_toy() -> Tuple[StreamGraph, AttributeContext]:
    """Stream whose time-collapsed graph admits one extra closed pattern.

    u meets x on [0, 1) and y on [1, 2), never both at once, so the
    pattern shared by u, x and y has an empty 2-star-satellite core in
    the stream while {u, x, y} is a perfectly fine core of the collapsed
    graph.
    """
    stream = StreamGraph({
        ("p", "q"): [(0, 2)],
        ("p", "r"): [(0, 2)],
        ("p", "u"): [(0, 2)],
        ("u", "x"): [(0, 1)],
        ("u", "y"): [(1, 2)],
    })
    universe = ItemUniverse(["a", "b", "g", "h"])
    ctx = AttributeContext(universe, {
        "p": universe.mask_of("agh"),
        "q": universe.mask_of("agh"),
        "r": universe.mask_of("agh"),
        "u": universe.mask_of("abh"),
        "x": universe.mask_of("ab"),
        "y": universe.mask_of("ab"),
    })
    return stream, ctx


def write_demo_files(directory: Union[str, Path]) -> dict:
    """Materialize the toys as CSV files; returns the paths by name."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}

    stream, ctx = triple_context_stream()
    paths["context_presence"] = directory / "tiny_presence.csv"
    paths["context_stream"] = directory / "tiny_stream.csv"
    paths["context_attrs"] = directory / "tiny_attrs.csv"
    dataio.write_presence(stream, paths["context_presence"])
    dataio.write_link_stream(stream, paths["context_stream"])  # no interactions: a header
    dataio.write_attributes(ctx, paths["context_attrs"])

    paths["star_stream"] = directory / "star_toy.csv"
    paths["star_presence"] = directory / "star_toy_presence.csv"
    dataio.write_link_stream(star_toy_stream(), paths["star_stream"])
    dataio.write_presence(star_toy_stream(), paths["star_presence"])

    paths["bipartite_stream"] = directory / "bipartite_toy.csv"
    dataio.write_link_stream(bipartite_toy_stream(), paths["bipartite_stream"])

    stream, ctx = compare_toy()
    paths["compare_stream"] = directory / "compare_toy.csv"
    paths["compare_attrs"] = directory / "compare_toy_attrs.csv"
    dataio.write_link_stream(stream, paths["compare_stream"])
    dataio.write_attributes(ctx, paths["compare_attrs"])

    return paths
