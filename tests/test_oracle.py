import random

import pytest

from streamcores import CoreSpec, StreamGraph
from streamcores.toys import triple_context_stream

from helpers import random_context, random_stream
from oracle import (
    SAMPLE_BUDGET,
    brute_core,
    brute_enumerate,
    discretize,
    sample_set,
)


def test_discretize_is_faithful():
    s = StreamGraph({("a", "b"): [(1, 3), (7, 8)]})
    d = discretize(s)
    assert (1, "a") in d.samples and (2, "b") in d.samples
    assert (3, "a") not in d.samples
    assert d.edges_at[7] == (("a", "b"),)
    assert 3 not in d.edges_at


def test_budget_guard():
    s = StreamGraph({("a", "b"): [(0, SAMPLE_BUDGET)]})
    with pytest.raises(ValueError, match="budget"):
        discretize(s)


def test_identity_and_zero_thresholds_are_noops():
    rng = random.Random(1)
    s = random_stream(rng)
    d = discretize(s)
    x = sample_set(s.presence_set())
    assert brute_core(d, x, CoreSpec.identity()) == x
    assert brute_core(d, x, CoreSpec.star_satellite(0)) == x


def test_chain_overlap_core():
    s = StreamGraph({("a", "b"): [(0, 2)], ("b", "c"): [(1, 3)]})
    d = discretize(s)
    got = brute_core(d, sample_set(s.presence_set()), CoreSpec.star_satellite(2))
    assert got == {(1, "a"), (1, "b"), (1, "c")}


def test_output_is_a_fixed_point_of_the_pass():
    from oracle import _star_satellite_pass

    rng = random.Random(2)
    for _ in range(40):
        s = random_stream(rng)
        d = discretize(s)
        k = rng.randint(1, 3)
        core = brute_core(d, sample_set(s.presence_set()), CoreSpec.star_satellite(k))
        assert _star_satellite_pass(d, core, k) == core


def test_enumerate_empty_universe():
    rng = random.Random(3)
    s = random_stream(rng)
    from streamcores import AttributeContext, ItemUniverse
    ctx = AttributeContext(ItemUniverse([]), {})
    d = discretize(s)
    got = brute_enumerate(d, ctx, CoreSpec.identity(), 1)
    assert got == {(0, sample_set(s.presence_set()))}


def test_enumerate_reference_context():
    stream, ctx = triple_context_stream()
    d = discretize(stream)
    got = brute_enumerate(d, ctx, CoreSpec.identity(), 1)
    u = ctx.universe
    by_intent = {u.items_of(mask): frozenset(v for _, v in support) for mask, support in got}
    assert by_intent == {
        ("a",): frozenset("123"),
        ("a", "b"): frozenset("13"),
        ("a", "c"): frozenset("23"),
        ("a", "d"): frozenset("12"),
        ("a", "b", "c"): frozenset("3"),
        ("a", "b", "d"): frozenset("1"),
        ("a", "c", "d"): frozenset("2"),
    }


def test_enumerate_rejects_large_universe():
    from streamcores import AttributeContext, ItemUniverse
    rng = random.Random(4)
    s = random_stream(rng)
    universe = ItemUniverse([f"i{j}" for j in range(13)])
    ctx = AttributeContext(universe, {})
    with pytest.raises(ValueError, match="too large"):
        brute_enumerate(discretize(s), ctx, CoreSpec.identity(), 1)


def test_enumerate_rejects_nonpositive_support():
    rng = random.Random(5)
    s = random_stream(rng)
    ctx = random_context(rng, s)
    with pytest.raises(ValueError):
        brute_enumerate(discretize(s), ctx, CoreSpec.identity(), 0)
