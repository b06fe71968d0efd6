"""Metamorphic tests of the reader and miner on quadruple rows.

Rewriting a row list in a way that keeps every pair's covered ticks
keeps the mined patterns byte for byte: splitting a span into touching
pieces (either orientation of an undirected pair), repeating a row, and
shuffling the rows. Adding a constant to every tick keeps each intent,
measure and node count and shifts each support by that constant.
Multiplying every tick and the support threshold by r keeps each intent
and node count and multiplies each measure and support by r. Renaming
the nodes, in the rows and in the context, renames the nodes of every
support and changes nothing else, even when the new names sort the
other way round. Any permutation of the item universe yields the same
records, in another order and with each intent's items in the new
order. On a directed stream, reversing every row and swapping the hub
and authority thresholds mines the same records in the same order.
"""

import json

from hypothesis import given, settings, strategies as st

from streamcores import AttributeContext, CoreSpec, ItemUniverse, MinerConfig, mine, write_patterns
from streamcores.dataio import read_link_stream

from helpers import permuted_context, write_lines

NODES = "abcde"
PAIRS = [(u, v) for u in NODES for v in NODES if u != v]
ITEMS = ("x", "y", "z")
RENAMED = {v: chr(ord("z") - i) for i, v in enumerate(NODES)}  # a -> z, ..., e -> v


@st.composite
def _runs(draw, directed=st.booleans()):
    """(rows, directed, context, miner config); rows are (b, e, u, v) with u != v."""
    directed = draw(directed)
    row = st.tuples(st.integers(0, 40), st.integers(1, 12), st.sampled_from(PAIRS))
    rows = [(b, b + length, u, v)
            for b, length, (u, v) in draw(st.lists(row, min_size=1, max_size=14))]
    masks = draw(st.lists(st.integers(0, 2 ** len(ITEMS) - 1),
                          min_size=len(NODES), max_size=len(NODES)))
    ctx = AttributeContext(ItemUniverse(ITEMS), dict(zip(NODES, masks)))
    if directed:
        core = CoreSpec.hub_authority(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    else:
        core = CoreSpec.star_satellite(draw(st.integers(0, 3)))
    cfg = MinerConfig(core=draw(st.sampled_from([core, CoreSpec.identity()])),
                      min_support=draw(st.integers(1, 30)))
    return rows, directed, ctx, cfg


def _mined(tmp_path_factory, rows, directed, ctx, cfg, resolution=1) -> bytes:
    folder = tmp_path_factory.mktemp("mined")
    rows_path = write_lines(folder / "rows.txt", [f"{b} {e} {u} {v}" for b, e, u, v in rows])
    stream = read_link_stream(rows_path, fmt="quadruples", directed=directed,
                              resolution=resolution)
    path = folder / "patterns.jsonl"
    write_patterns(mine(stream, ctx, cfg), path)
    return path.read_bytes()


def _parsed(mined: bytes) -> list:
    return [json.loads(line) for line in mined.decode().splitlines()]


def _split(draw, rows, directed):
    """Each row of length two or more, cut at one inner tick or left whole."""
    out = []
    for b, e, u, v in rows:
        if e - b < 2 or not draw(st.booleans()):
            out.append((b, e, u, v))
            continue
        m = draw(st.integers(b + 1, e - 1))
        for lo, hi in ((b, m), (m, e)):
            swap = not directed and draw(st.booleans())
            out.append((lo, hi, v, u) if swap else (lo, hi, u, v))
    return out


def _repeat(draw, rows, directed):
    i = draw(st.integers(0, len(rows) - 1))
    return rows[:i] + [rows[i]] + rows[i:]


def _shuffle(draw, rows, directed):
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(run=_runs(), rewrite=st.sampled_from([_split, _repeat, _shuffle]), data=st.data())
def test_rewrites_that_keep_the_covered_ticks_keep_the_output(
        tmp_path_factory, run, rewrite, data):
    rows, directed, ctx, cfg = run
    rewritten = rewrite(data.draw, rows, directed)
    assert (_mined(tmp_path_factory, rewritten, directed, ctx, cfg)
            == _mined(tmp_path_factory, rows, directed, ctx, cfg))


@settings(max_examples=100, deadline=None)
@given(run=_runs(), shift=st.integers(-1000, 10 ** 12))
def test_a_time_shift_shifts_every_support(tmp_path_factory, run, shift):
    rows, directed, ctx, cfg = run
    moved = [(b + shift, e + shift, u, v) for b, e, u, v in rows]
    want = _parsed(_mined(tmp_path_factory, rows, directed, ctx, cfg))
    for rec in want:
        rec["support"] = {v: [[a + shift, b + shift] for a, b in spans]
                          for v, spans in rec["support"].items()}
    assert _parsed(_mined(tmp_path_factory, moved, directed, ctx, cfg)) == want


@settings(max_examples=100, deadline=None)
@given(run=_runs(), scale=st.integers(2, 7))
def test_scaling_ticks_and_the_threshold_scales_every_measure(tmp_path_factory, run, scale):
    rows, directed, ctx, cfg = run
    want = _parsed(_mined(tmp_path_factory, rows, directed, ctx, cfg))
    for rec in want:
        rec["support"] = {v: [[a * scale, b * scale] for a, b in spans]
                          for v, spans in rec["support"].items()}
        rec["support_measure"] *= scale
    # the rows are read as seconds at `scale` ticks per second
    scaled = MinerConfig(core=cfg.core, min_support=cfg.min_support * scale,
                         min_intent_size=cfg.min_intent_size,
                         support_measure=cfg.support_measure)
    got = _parsed(_mined(tmp_path_factory, rows, directed, ctx, scaled, resolution=scale))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(run=_runs())
def test_renaming_the_nodes_renames_every_support(tmp_path_factory, run):
    rows, directed, ctx, cfg = run
    renamed = [(b, e, RENAMED[u], RENAMED[v]) for b, e, u, v in rows]
    renamed_ctx = AttributeContext(ctx.universe, {RENAMED[v]: ctx.description(v) for v in NODES})
    got = _parsed(_mined(tmp_path_factory, renamed, directed, renamed_ctx, cfg))
    back = {new: old for old, new in RENAMED.items()}
    for rec in got:
        rec["support"] = {back[v]: spans for v, spans in rec["support"].items()}
    assert got == _parsed(_mined(tmp_path_factory, rows, directed, ctx, cfg))


@settings(max_examples=100, deadline=None)
@given(run=_runs(), order=st.permutations(ITEMS))
def test_any_item_order_mines_the_same_records(tmp_path_factory, run, order):
    rows, directed, ctx, cfg = run

    def records(context):
        # the depth-first order of the records and the order of each
        # intent's items follow the universe; the records do not
        out = []
        for rec in _parsed(_mined(tmp_path_factory, rows, directed, context, cfg)):
            rec["intent"].sort()
            out.append(json.dumps(rec, sort_keys=True))
        return sorted(out)

    assert records(permuted_context(ctx, order)) == records(ctx)


@settings(max_examples=150, deadline=None)
@given(run=_runs(directed=st.just(True)))
def test_reversing_a_directed_stream_swaps_hubs_and_authorities(tmp_path_factory, run):
    rows, directed, ctx, cfg = run
    reversed_rows = [(b, e, v, u) for b, e, u, v in rows]
    core = cfg.core
    if core.kind == "ha":  # the identity core has no sides to swap
        core = CoreSpec.hub_authority(core.a, core.h)
    swapped = MinerConfig(core=core, min_support=cfg.min_support,
                          min_intent_size=cfg.min_intent_size,
                          support_measure=cfg.support_measure)
    assert (_mined(tmp_path_factory, reversed_rows, directed, ctx, swapped)
            == _mined(tmp_path_factory, rows, directed, ctx, cfg))
