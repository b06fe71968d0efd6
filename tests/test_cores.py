import random

import pytest

from streamcores import cores
from streamcores import (
    CoreSpec,
    IntervalSet,
    StreamGraph,
    TimeNodeSet,
    apply_core,
    apply_static_core,
    bha_bicore,
    ha_core,
    induced_static_graph,
    star_satellite_core,
    star_satellite_split,
)
from streamcores.toys import bipartite_toy_stream, compare_toy, star_toy_stream

from helpers import (
    STREAM_KINDS,
    random_core_spec,
    random_mixed_subset,
    random_stream,
    random_subset,
    timenodes_close,
)
from oracle import brute_bicore, brute_core, brute_static_core, discretize, sample_set


class TestCoreSpec:
    def test_parse(self):
        def fields(spec):
            return (spec.kind, spec.k, spec.h, spec.a)

        assert fields(CoreSpec.parse("identity")) == ("identity", 0, 0, 0)
        assert fields(CoreSpec.parse("star-sat:2")) == ("star-sat", 2, 0, 0)
        assert fields(CoreSpec.parse("ha:2,1")) == ("ha", 0, 2, 1)

    @pytest.mark.parametrize("bad", ["", "star-sat", "star-sat:x", "ha:1", "cores:2", "identity:1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            CoreSpec.parse(bad)

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ValueError):
            CoreSpec.star_satellite(-1)


class TestStarSatellite:
    def test_zero_threshold_returns_everything(self):
        s = star_toy_stream()
        w = s.presence_set()
        assert star_satellite_core(s, w, 0) == w

    def test_reference_stream(self):
        # stars on b around its two bursts; a, c, d ride along while
        # their interaction overlaps a star span. The expected values
        # tolerate one tick of slack at span boundaries; the left edge
        # of the first burst needs it, since under half-open semantics
        # b's second neighbor only arrives at tick 2.
        s = star_toy_stream()
        stars, sats = star_satellite_split(s, s.presence_set(), 2)
        want_stars = TimeNodeSet({"b": IntervalSet([(1, 3), (7, 8)])})
        want_sats = TimeNodeSet({
            "a": IntervalSet([(1, 3), (7, 8)]),
            "c": IntervalSet([(7, 8)]),
            "d": IntervalSet([(2, 3)]),
        })
        assert timenodes_close(stars, want_stars, slack=1)
        assert timenodes_close(sats, want_sats, slack=1)
        # the exact values under half-open semantics, frozen from the oracle
        assert stars == TimeNodeSet({"b": IntervalSet([(2, 3), (7, 8)])})
        assert sats == TimeNodeSet({
            "a": IntervalSet([(2, 3), (7, 8)]),
            "c": IntervalSet([(7, 8)]),
            "d": IntervalSet([(2, 3)]),
        })

    def test_chain_overlap(self):
        s = StreamGraph({("a", "b"): [(0, 2)], ("b", "c"): [(1, 3)]})
        got = star_satellite_core(s, s.presence_set(), 2)
        want = TimeNodeSet({v: IntervalSet.span(1, 2) for v in "abc"})
        assert got == want

    def test_restricted_input_set(self):
        s = star_toy_stream()
        wp = s.presence_set().restrict(["a", "b", "d"])
        got = star_satellite_core(s, wp, 2)
        # without c, the second burst has no second neighbor
        assert got == TimeNodeSet({
            "a": IntervalSet([(2, 3)]),
            "b": IntervalSet([(2, 3)]),
            "d": IntervalSet([(2, 3)]),
        })

    def test_rejects_directed(self):
        s = StreamGraph({("a", "b"): [(0, 1)]}, directed=True)
        with pytest.raises(ValueError):
            star_satellite_core(s, s.presence_set(), 1)

    def test_rejects_negative_k(self):
        s = star_toy_stream()
        with pytest.raises(ValueError):
            star_satellite_core(s, s.presence_set(), -1)


class TestHubAuthority:
    def test_zero_thresholds(self):
        s = bipartite_toy_stream()
        w = s.presence_set()
        hubs, authorities = bha_bicore(s, w, w, 0, 0)
        assert hubs == w and authorities == w
        assert ha_core(s, w, 0, 0) == w

    def test_reference_stream(self):
        s = bipartite_toy_stream()
        got = ha_core(s, s.presence_set(), 2, 2)
        want = TimeNodeSet({v: IntervalSet.span(3, 5) for v in "uvxyz"})
        assert got == want
        assert "w" not in got

    def test_reference_sides(self):
        s = bipartite_toy_stream()
        hubs, authorities = bha_bicore(s, s.presence_set(), s.presence_set(), 2, 2)
        assert hubs == TimeNodeSet({v: IntervalSet.span(3, 5) for v in "uv"})
        assert authorities == TimeNodeSet({v: IntervalSet.span(3, 5) for v in "xyz"})

    def test_small_directed_chain(self):
        s = StreamGraph(
            {("u", "v"): [(0, 2)], ("u", "w"): [(0, 2)], ("v", "w"): [(1, 2)]},
            directed=True,
        )
        hubs, authorities = bha_bicore(s, s.presence_set(), s.presence_set(), 2, 1)
        assert hubs == TimeNodeSet({"u": IntervalSet.span(0, 2)})
        assert authorities == TimeNodeSet({
            "v": IntervalSet.span(0, 2), "w": IntervalSet.span(0, 2),
        })

    def test_rejects_undirected(self):
        s = star_toy_stream()
        with pytest.raises(ValueError):
            ha_core(s, s.presence_set(), 1, 1)

    def test_needs_multiple_passes(self):
        # x's early in-degree comes from senders that are never hubs
        from streamcores.intervals import coverage_at_least

        s = bipartite_toy_stream()
        w = s.presence_set()
        first_auth = TimeNodeSet({
            v: coverage_at_least(
                [ivs.intersect(w.get(v)).intersect(w.get(u))
                 for u, ivs in s.in_adjacency(v).items()], 2)
            for v in "xyz"
        })
        assert first_auth.get("x") == IntervalSet.span(1, 5)  # one pass is not enough
        _, authorities = bha_bicore(s, w, w, 2, 2)
        assert authorities.get("x") == IntervalSet.span(3, 5)

    def test_worklist_matches_brute_force_on_larger_streams(self):
        # 8 nodes and up to 40 intervals, so fixed points take several passes
        from oracle import _bha_pass, brute_bicore

        rng = random.Random(110)
        deepest = 0
        for _ in range(80):
            s = random_stream(rng, directed=True, max_nodes=8, max_intervals=40)
            spec = CoreSpec.hub_authority(rng.randint(1, 3), rng.randint(1, 3))
            w = s.presence_set()
            w1, w2 = random_subset(rng, w), random_subset(rng, w)
            d = discretize(s)
            x1, x2 = sample_set(w1), sample_set(w2)
            want = brute_bicore(d, x1, x2, spec.h, spec.a)
            hubs, authorities = bha_bicore(s, w1, w2, spec.h, spec.a)
            assert (sample_set(hubs), sample_set(authorities)) == want
            passes = 1
            while (x1, x2) != want:
                x1, x2 = _bha_pass(d, x1, x2, spec.h, spec.a)
                passes += 1
            deepest = max(deepest, passes)

            x = random_subset(rng, w)
            assert sample_set(ha_core(s, x, spec.h, spec.a)) == brute_core(d, sample_set(x), spec)
            g = induced_static_graph(s)
            nodes = frozenset(v for v in g.nodes if rng.random() < 0.8)
            assert apply_static_core(spec, g, nodes) == brute_static_core(g, nodes, spec)
        assert deepest >= 4


def _anew(w):
    """A TimeNodeSet equal to w whose interval sets are all new objects."""
    return TimeNodeSet({v: IntervalSet(ivs.spans) for v, ivs in w.items()})


class TestRootFastPath:
    """On the stream's own presence set, the cores take each adjacency as it is."""

    @pytest.mark.parametrize("directed,presence", STREAM_KINDS)
    def test_root_equals_an_equal_set_built_anew(self, directed, presence):
        rng = random.Random(120 + directed + 2 * presence)
        for _ in range(100):
            s = random_stream(rng, directed=directed, presence=presence, max_intervals=20)
            root = s.presence_set()
            anew = _anew(root)
            assert anew == root
            assert not any(anew.get(v) is s.presence(v) for v in s.nodes)
            d, samples = discretize(s), sample_set(root)
            if directed:
                h, a = rng.randint(1, 3), rng.randint(1, 3)
                sides = bha_bicore(s, root, root, h, a)
                assert sides == bha_bicore(s, anew, anew, h, a)
                assert tuple(map(sample_set, sides)) == brute_bicore(d, samples, samples, h, a)
            else:
                k = rng.randint(0, 3)
                split = star_satellite_split(s, root, k)
                assert split == star_satellite_split(s, anew, k)
                core = star_satellite_core(s, root, k)
                assert core == star_satellite_core(s, anew, k) == split[0].union(split[1])
                assert sample_set(core) == brute_core(d, samples, CoreSpec.star_satellite(k))

    def test_the_root_takes_each_adjacency_as_it_is(self, monkeypatch):
        clips = []
        clip = cores._clip
        monkeypatch.setattr(cores, "_clip", lambda *spans: clips.append(spans) or clip(*spans))
        s = star_toy_stream()
        root = cores._clipped_pairs(s, s.presence_set())
        assert all(root[v] is s.adjacency(v) for v in s.nodes) and clips == []
        # an equal set built anew clips each pair once, to the same spans
        assert cores._clipped_pairs(s, _anew(s.presence_set())) == root
        assert len(clips) == s.interaction_count()

    def test_coverage_is_looked_up_by_module_name_and_skipped_below_k(self, monkeypatch):
        # b is the only node of the star toy with two neighbours
        counted = []
        coverage = cores.coverage_at_least
        monkeypatch.setattr(cores, "coverage_at_least",
                            lambda sets, k: counted.append(k) or coverage(sets, k))
        s = star_toy_stream()
        star_satellite_core(s, s.presence_set(), 2)
        assert counted == [2]
        b = bipartite_toy_stream()
        bha_bicore(b, b.presence_set(), b.presence_set(), 2, 2)
        assert len(counted) > 1


class TestApplyCore:
    def test_identity(self):
        s = star_toy_stream()
        x = random_subset(random.Random(1), s.presence_set())
        assert apply_core(CoreSpec.identity(), s, x) == x

    def test_dispatch(self):
        s = star_toy_stream()
        w = s.presence_set()
        assert apply_core(CoreSpec.star_satellite(2), s, w) == star_satellite_core(s, w, 2)
        b = bipartite_toy_stream()
        wb = b.presence_set()
        assert apply_core(CoreSpec.hub_authority(2, 2), b, wb) == ha_core(b, wb, 2, 2)

    def test_incompatible_spec(self):
        with pytest.raises(ValueError):
            apply_core(CoreSpec.hub_authority(1, 1), star_toy_stream(),
                       star_toy_stream().presence_set())


class TestInteriorLaws:
    def _instances(self, seed, count, directed, presence=False):
        rng = random.Random(seed)
        for _ in range(count):
            s = random_stream(rng, directed=directed, presence=presence)
            spec = random_core_spec(rng, directed)
            x = random_subset(rng, s.presence_set())
            yield s, spec, x, rng

    @pytest.mark.parametrize("directed", [False, True])
    def test_intensive_idempotent_monotone(self, directed):
        for s, spec, x, rng in self._instances(17 + directed, 120, directed):
            once = apply_core(spec, s, x)
            assert once.issubset(x), "not intensive"
            assert apply_core(spec, s, once) == once, "not idempotent"
            smaller = random_subset(rng, x)
            inner = apply_core(spec, s, smaller)
            assert inner.issubset(once), "not monotone"

    @pytest.mark.parametrize("directed,presence", STREAM_KINDS)
    def test_matches_brute_force(self, directed, presence):
        for s, spec, x, rng in self._instances(31 + directed + 2 * presence, 120, directed,
                                               presence):
            d = discretize(s)
            # random_subset builds new entries, which the core clips; a pair
            # between two of the stream's own presence objects is not clipped
            for y in (x, s.presence_set(), random_mixed_subset(rng, s)):
                assert sample_set(apply_core(spec, s, y)) == brute_core(d, sample_set(y), spec)

    def test_bicore_monotone_componentwise(self):
        rng = random.Random(40)
        for _ in range(60):
            s = random_stream(rng, directed=True)
            w = s.presence_set()
            big1, big2 = random_subset(rng, w), random_subset(rng, w)
            small1, small2 = random_subset(rng, big1), random_subset(rng, big2)
            h, a = rng.randint(0, 2), rng.randint(0, 2)
            inner = bha_bicore(s, small1, small2, h, a)
            outer = bha_bicore(s, big1, big2, h, a)
            for inner_side, outer_side in zip(inner, outer):
                assert inner_side.issubset(outer_side)

    def test_core_members_satisfy_the_property(self):
        # soundness, checked per tick inside the substream the core induces
        rng = random.Random(50)
        for _ in range(60):
            s = random_stream(rng)
            k = rng.randint(1, 3)
            x = random_subset(rng, s.presence_set())
            core = star_satellite_core(s, x, k)
            d = discretize(s)
            samples = sample_set(core)
            from oracle import _star_satellite_pass
            assert _star_satellite_pass(d, samples, k) == samples

    def test_maximality_by_readdition(self):
        # adding back any removed sample breaks the property somewhere
        rng = random.Random(60)
        for _ in range(25):
            s = random_stream(rng, max_tick=8)
            k = rng.randint(1, 3)
            x = s.presence_set()
            core = sample_set(star_satellite_core(s, x, k))
            removed = sample_set(x) - core
            d = discretize(s)
            from oracle import _star_satellite_pass
            for extra in removed:
                candidate = core | {extra}
                assert _star_satellite_pass(d, candidate, k) != candidate

    def test_one_pass_equals_fixed_point(self):
        rng = random.Random(70)
        for _ in range(120):
            s = random_stream(rng)
            k = rng.randint(1, 3)
            x = random_subset(rng, s.presence_set())
            got = sample_set(star_satellite_core(s, x, k))
            assert got == brute_core(discretize(s), sample_set(x), CoreSpec.star_satellite(k))

    def test_breakpoints_confined_to_input_events(self):
        rng = random.Random(80)
        for _ in range(80):
            s = random_stream(rng)
            spec = random_core_spec(rng, directed=False)
            x = random_subset(rng, s.presence_set())
            allowed = set()
            for _, ivs in x.items():
                for a, b in ivs.spans:
                    allowed.update((a, b))
            for _, ivs in s.interaction_items():
                for a, b in ivs.spans:
                    allowed.update((a, b))
            core = apply_core(spec, s, x)
            for _, ivs in core.items():
                for a, b in ivs.spans:
                    assert a in allowed and b in allowed


class TestStaticCores:
    """Static cores: stream cores on the time-collapsed stream."""

    def test_zero_threshold(self):
        g = induced_static_graph(StreamGraph({("a", "b"): [(3, 7)]}))
        assert apply_static_core(CoreSpec.star_satellite(0), g, {"a", "b"}) == {"a", "b"}

    def test_compare_toy_graph(self):
        stream, _ = compare_toy()
        g = induced_static_graph(stream)
        k2 = CoreSpec.star_satellite(2)
        assert apply_static_core(k2, g, set(g.nodes)) == set(g.nodes)
        assert apply_static_core(k2, g, {"u", "x", "y"}) == {"u", "x", "y"}
        assert apply_static_core(k2, g, {"q", "r"}) == set()

    def test_directed_static_ha(self):
        g = induced_static_graph(StreamGraph(
            {("u", "v"): [(0, 2)], ("u", "w"): [(5, 6)], ("v", "w"): [(9, 12)]},
            directed=True,
        ))
        ha = CoreSpec.hub_authority(2, 1)
        assert apply_static_core(ha, g, set(g.nodes)) == {"u", "v", "w"}
        assert apply_static_core(ha, g, {"u", "v"}) == set()

    def test_matches_brute_force(self):
        rng = random.Random(90)
        for trial in range(120):
            directed = bool(trial % 2)
            s = random_stream(rng, directed=directed)
            g = induced_static_graph(s)
            spec = random_core_spec(rng, directed)
            x = frozenset(v for v in g.nodes if rng.random() < 0.7)
            assert apply_static_core(spec, g, x) == brute_static_core(g, x, spec)

    def test_interior_laws(self):
        rng = random.Random(95)
        for trial in range(120):
            directed = bool(trial % 2)
            s = random_stream(rng, directed=directed)
            g = induced_static_graph(s)
            spec = random_core_spec(rng, directed)
            big = frozenset(v for v in g.nodes if rng.random() < 0.8)
            small = frozenset(v for v in big if rng.random() < 0.7)
            once = apply_static_core(spec, g, big)
            assert once <= big
            assert apply_static_core(spec, g, once) == once
            assert apply_static_core(spec, g, small) <= once
