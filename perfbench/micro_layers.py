"""Layer micro-timings with pytest-benchmark, on inputs cut from hs-k4 and directed-ha.

run.py runs this file in a child pytest (`-c perfbench/pytest.ini`) and
reports the minimum of each benchmark's rounds. PERFBENCH_SEED picks
the generated inputs and PERFBENCH_WORK is where they are written.
"""

import os
from pathlib import Path

import pytest

import gen
from streamcores import CoreSpec, apply_core, ha_core, intent, star_satellite_core
from streamcores.dataio import read_attributes, read_link_stream
from streamcores.selection import temporal_jaccard_distance

SEED = int(os.environ.get("PERFBENCH_SEED", "1"))
WORK = Path(os.environ.get("PERFBENCH_WORK", ".perfbench_work/micro"))
K4 = CoreSpec.star_satellite(4)


def _load(kind, directed):
    paths = gen.generate(kind, SEED, WORK / kind)
    stream = read_link_stream(str(paths["stream"]), directed=directed)
    return stream, read_attributes(str(paths["attributes"]), stream=stream)


def _restrict(support, ctx, item):
    bit = ctx.universe.bit(item)
    return support.restrict(v for v in support.nodes() if ctx.description(v) & bit)


@pytest.fixture(scope="module")
def hs():
    stream, ctx = _load("hs", False)
    return stream, ctx, apply_core(K4, stream, stream.presence_set())


@pytest.fixture(scope="module")
def directed():
    stream, _ = _load("directed", True)
    return stream


def test_interval_intersect(benchmark, hs):
    stream = hs[0]
    a, b = sorted((stream.presence(v) for v in stream.nodes), key=len)[-2:]
    benchmark(a.intersect, b)


def test_star_sat_root(benchmark, hs):
    stream = hs[0]
    benchmark.pedantic(star_satellite_core, (stream, stream.presence_set(), 4), rounds=3)


def test_ha_root(benchmark, directed):
    benchmark.pedantic(ha_core, (directed, directed.presence_set(), 2, 2), rounds=3)


def test_evaluate(benchmark, hs):
    stream, ctx, root = hs
    item = ctx.universe.items[0]
    benchmark(lambda: apply_core(K4, stream, _restrict(root, ctx, item)))


def test_intent(benchmark, hs):
    _, ctx, root = hs
    benchmark(intent, root, ctx)


def test_jaccard(benchmark, hs):
    stream, ctx, root = hs
    girls = apply_core(K4, stream, _restrict(root, ctx, "G_F"))
    first = apply_core(K4, stream, _restrict(root, ctx, ctx.universe.items[0]))
    benchmark(temporal_jaccard_distance, girls, first)
