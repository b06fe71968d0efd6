import random

import pytest

from streamcores import (
    AttributeContext,
    IntervalSet,
    ItemUniverse,
    StreamGraph,
    TimeNodeSet,
    apply_core,
)
from streamcores.context import closure, extent, intent
from streamcores.toys import triple_context_stream

from helpers import random_context, random_core_spec, random_stream


class TestItemUniverse:
    def test_masks_and_back(self):
        u = ItemUniverse(["a", "b", "c", "d"])
        assert u.mask_of("bd") == 0b1010
        assert u.items_of(0b1010) == ("b", "d")
        assert u.full_mask == 0b1111
        assert len(u) == 4

    def test_unknown_item(self):
        with pytest.raises(KeyError):
            ItemUniverse(["a"]).bit("zz")

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            ItemUniverse(["a", "a"])


class TestContext:
    def test_description_defaults_to_empty(self):
        u = ItemUniverse(["a"])
        ctx = AttributeContext(u, {"n": u.mask_of("a")})
        assert ctx.description("other") == 0

    def test_rejects_foreign_bits(self):
        u = ItemUniverse(["a"])
        with pytest.raises(ValueError):
            AttributeContext(u, {"n": 0b10})


class TestExtent:
    def test_empty_pattern_is_whole_presence(self):
        stream, ctx = triple_context_stream()
        assert extent(0, ctx, stream) == stream.presence_set()

    def test_single_item(self):
        stream, ctx = triple_context_stream()
        got = extent(ctx.universe.mask_of("a"), ctx, stream)
        assert got.nodes() == ("1", "2", "3")
        assert got.get("1") == IntervalSet.span(0, 1)

    def test_two_items(self):
        stream, ctx = triple_context_stream()
        got = extent(ctx.universe.mask_of("ab"), ctx, stream)
        assert got.nodes() == ("1", "3")

    def test_zero_presence_nodes_never_appear(self):
        u = ItemUniverse(["a"])
        s = StreamGraph({("x", "y"): [(0, 1)]}, presence={"x": [(0, 1)], "y": [(0, 1)], "z": []})
        ctx = AttributeContext(u, {"z": u.mask_of("a")})
        assert "z" not in extent(u.mask_of("a"), ctx, s)


class TestIntent:
    def test_known_intersections(self):
        stream, ctx = triple_context_stream()
        u = ctx.universe
        w = stream.presence_set()
        assert intent(w, ctx) == u.mask_of("a")
        assert intent(w.restrict(["1", "2"]), ctx) == u.mask_of("ad")

    def test_empty_support_gives_full_universe(self):
        _, ctx = triple_context_stream()
        assert intent(TimeNodeSet(), ctx) == ctx.universe.full_mask


class TestClosure:
    def test_with_a_node_dropping_core(self):
        stream, ctx = triple_context_stream()
        u = ctx.universe

        def drop3(x):
            return x.restrict(["1", "2"])

        closed, support = closure(0, ctx, stream, drop3)
        assert closed == u.mask_of("ad")
        assert support == stream.presence_set().restrict(["1", "2"])

    def test_identity_core_with_equal_descriptions(self):
        u = ItemUniverse(["a", "b"])
        s = StreamGraph({("x", "y"): [(0, 3)]})
        ctx = AttributeContext(u, {"x": u.mask_of("ab"), "y": u.mask_of("ab")})
        closed, support = closure(0, ctx, s, lambda x: x)
        assert closed == u.mask_of("ab")
        assert support == s.presence_set()

    def test_idempotent_on_random_instances(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            spec = random_core_spec(rng, directed=False)
            core = lambda x: apply_core(spec, s, x)
            q = rng.getrandbits(len(ctx.universe))
            once, support_once = closure(q, ctx, s, core)
            twice, support_twice = closure(once, ctx, s, core)
            assert once == twice
            assert support_once == support_twice


class TestOperatorLaws:
    def test_extent_is_antitone(self):
        rng = random.Random(6)
        for _ in range(100):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            q = rng.getrandbits(len(ctx.universe))
            bigger = q | rng.getrandbits(len(ctx.universe))
            assert extent(bigger, ctx, s).issubset(extent(q, ctx, s))

    def test_intent_is_antitone(self):
        rng = random.Random(7)
        for _ in range(100):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            from helpers import random_nested_pair
            small, big = random_nested_pair(rng, s.presence_set())
            small_intent = intent(small, ctx)
            big_intent = intent(big, ctx)
            assert big_intent & small_intent == big_intent

    def test_galois_connection_on_full_presences(self):
        # q <= int(X) iff X <= ext(q), for X unions of full node presences
        rng = random.Random(8)
        for _ in range(100):
            s = random_stream(rng)
            ctx = random_context(rng, s)
            w = s.presence_set()
            names = [v for v in s.nodes if v in w]
            picked = [v for v in names if rng.random() < 0.5]
            x = w.restrict(picked)
            q = rng.getrandbits(len(ctx.universe))
            lhs = q & intent(x, ctx) == q
            rhs = x.issubset(extent(q, ctx, s))
            assert lhs == rhs
