"""Correctness checks on the outputs of one benchmark run.

`mine_problems` re-derives, without the library, what every mined
record must satisfy: canonical spans, the stated measure and node
count, support inside the nodes' presence, the intent being exactly
the items all support nodes share, the support threshold, and unique
intents. `closure_problems` asks the library whether a sample of
supports is the core of its intent's extent. `select_problems` checks
that the beta = 0 selection keeps every usable record in decreasing
measure. `containment_problems` is the stream-versus-static check (C7):
every stream intent must also be a static intent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Span = Tuple[int, int]


def read_records(path: Path) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_descriptions(path: Path) -> Tuple[List[str], Dict[str, set]]:
    """(item universe in file order, node -> item set) from `node,a;b` rows."""
    universe: List[str] = []
    seen = set()
    desc: Dict[str, set] = {}
    for line in Path(path).read_text().splitlines():
        node, _, tail = line.partition(",")
        items = [w for w in tail.split(";") if w]
        desc[node] = set(items)
        for item in items:
            if item not in seen:
                seen.add(item)
                universe.append(item)
    return universe, desc


def _merge(spans: List[Span]) -> List[Span]:
    spans.sort()
    out: List[Span] = []
    for a, b in spans:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(b, out[-1][1]))
        else:
            out.append((a, b))
    return out


def read_presence(path: Path, delta: int = 20) -> Dict[str, List[Span]]:
    """Default presence: each contact at t covers [t - delta, t) for both ends."""
    spans: Dict[str, List[Span]] = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        t = int(fields[0])
        for v in fields[1:3]:
            spans.setdefault(v, []).append((t - delta, t))
    return {v: _merge(s) for v, s in spans.items()}


def _inside(spans: Sequence[Span], cover: Sequence[Span]) -> bool:
    j = 0
    for a, b in spans:
        while j < len(cover) and cover[j][1] < b:
            j += 1
        if j == len(cover) or cover[j][0] > a:
            return False
    return True


def mine_problems(records: List[dict], stream_path: Path, attributes_path: Path,
                  min_support: int) -> List[str]:
    problems: List[str] = []
    universe, desc = read_descriptions(attributes_path)
    presence = read_presence(stream_path)
    if not records:
        return ["no records: the closure of the whole stream must come first"]
    intents = set()
    for n, rec in enumerate(records):
        where = f"record {n + 1}"
        support = {v: [tuple(s) for s in spans] for v, spans in rec["support"].items()}
        measure = 0
        for v, spans in support.items():
            if not spans or any(a >= b for a, b in spans) or any(
                    spans[i][1] >= spans[i + 1][0] for i in range(len(spans) - 1)):
                problems.append(f"{where}: spans of {v} are not canonical")
            if not _inside(spans, presence.get(v, [])):
                problems.append(f"{where}: support of {v} leaves its presence")
            measure += sum(b - a for a, b in spans)
        if measure != rec["support_measure"] or len(support) != rec["node_count"]:
            problems.append(f"{where}: stated measure or node count is wrong")
        shared = set(universe)
        for v in support:
            shared &= desc.get(v, set())
        if rec["intent"] != [item for item in universe if item in shared]:
            problems.append(f"{where}: intent is not the items its support shares")
        flagged = rec.get("below_min_support", False)
        if flagged != (measure < min_support) or (n and flagged):
            problems.append(f"{where}: support threshold not applied")
        key = tuple(rec["intent"])
        if key in intents:
            problems.append(f"{where}: intent {key} emitted twice")
        intents.add(key)
    return problems


def load(stream_path: Path, attributes_path: Path, directed: bool):
    """The stream and attribute context, read by the library under test."""
    from streamcores.dataio import read_attributes, read_link_stream
    stream = read_link_stream(str(stream_path), directed=directed)
    return stream, read_attributes(str(attributes_path), stream=stream)


def closure_problems(records: List[dict], stream, ctx, core: str,
                     sample: int = 12) -> List[str]:
    """A sample of supports must each be the core of their intent's extent."""
    from streamcores import CoreSpec, IntervalSet, TimeNodeSet, apply_core, extent

    spec = CoreSpec.parse(core)
    step = max(1, len(records) // sample)
    problems = []
    for n in range(0, len(records), step):
        rec = records[n]
        want = TimeNodeSet({v: IntervalSet(tuple(s) for s in spans)
                            for v, spans in rec["support"].items()})
        got = apply_core(spec, stream, extent(ctx.universe.mask_of(rec["intent"]), ctx, stream))
        if got != want:
            problems.append(f"record {n + 1}: support is not the core of its intent's extent")
    return problems


def select_problems(selected: List[dict], mined: List[dict]) -> List[str]:
    usable = sorted(json.dumps(r, sort_keys=True) for r in mined
                    if not r.get("below_min_support"))
    if sorted(json.dumps(r, sort_keys=True) for r in selected) != usable:
        return ["beta = 0 selection did not keep exactly the usable records"]
    measures = [r["support_measure"] for r in selected]
    if measures != sorted(measures, reverse=True):
        return ["selection is not in decreasing support measure"]
    return []


def containment_problems(records: List[dict], stream, ctx, core: str) -> List[str]:
    """Every stream intent must be closed in the time-collapsed graph too.

    An itemset is a static closed pattern when the static core of the
    nodes carrying it is nonempty and those core nodes share exactly
    that itemset; this is the membership test for `static_mine`'s
    output. Running `static_mine` itself on the hs-k4 graph did not
    finish within four minutes.
    """
    from streamcores import CoreSpec, apply_static_core, induced_static_graph

    graph = induced_static_graph(stream)
    spec = CoreSpec.parse(core)
    problems = []
    for rec in records:
        if rec.get("below_min_support"):
            continue
        mask = ctx.universe.mask_of(rec["intent"])
        carriers = [v for v in graph.nodes if ctx.description(v) & mask == mask]
        closed = ctx.universe.full_mask
        support = apply_static_core(spec, graph, carriers)
        for v in support:
            closed &= ctx.description(v)
        if not support or closed != mask:
            problems.append(f"C7: stream intent {rec['intent']} is not a static intent")
    return problems
