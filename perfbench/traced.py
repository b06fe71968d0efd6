"""Run one `streamcores` CLI command with tracing wrappers installed.

Usage: python3 perfbench/traced.py TRACE_OUT streamcores-args...

The wrappers rebind module attributes of the installed package at run
time; the package's source is not edited. Timed wrappers record a span
(name, start, end, parent) per call; counted wrappers only count calls,
because the interval operations are too cheap for a clock read around
each call to mean anything. Spans stay in memory and are written to
TRACE_OUT as JSON when the command ends, and the originals are
restored.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self.notes: Dict[str, Any] = {}
        self.built: List[Any] = []
        self._stack = [-1]
        self._originals: List[Tuple[Any, str, Any]] = []

    def _rebind(self, owner: Any, attr: str, wrap: Callable) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def timed(self, owner: Any, attr: str, name: str,
              after: Optional[Callable[[tuple, Any], None]] = None) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrap(original):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(index)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent)
                if after is not None:
                    after(args, result)
                return result
            return traced
        self._rebind(owner, attr, wrap)

    def counted(self, owner: Any, attr: str, name: str) -> None:
        counts = self.counts

        def wrap(original):
            def counting(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counting
        self._rebind(owner, attr, wrap)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def add_note(self, key: str, value: int) -> None:
        self.notes[key] = self.notes.get(key, 0) + value

    def dump(self, path: str) -> None:
        for stream in self.built:
            self.add_note("pairs", stream.interaction_count())
            self.add_note("spans", sum(len(ivs) for _, ivs in stream.interaction_items()))
        names: Dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows,
                       "counts": dict(self.counts), "notes": self.notes}, handle)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer the benchmark reports."""
    from streamcores import cli, cores, dataio, mining, selection
    from streamcores.intervals import IntervalSet

    def after_ingest(args, result):
        tracer.add_note("rows", len(args[0]))

    def after_build(args, stream):
        # sized after the command ends, so the count is not timed as parsing
        tracer.built.append(stream)

    def after_mine(args, records):
        tracer.add_note("patterns", len(records))
        tracer.notes["max_depth"] = max((rec.depth for rec in records), default=0)

    tracer.timed(dataio, "read_link_stream", "dataio.read")
    tracer.timed(dataio, "ingest_link_stream", "dataio.ingest", after_ingest)
    tracer.timed(dataio, "StreamGraph", "stream.build", after_build)
    tracer.timed(cli, "mine", "mining", after_mine)
    tracer.timed(mining, "apply_core", "cores")
    tracer.timed(mining, "intent", "context.intent")
    tracer.timed(cli, "selection_counts", "selection.sweep")
    tracer.timed(selection, "temporal_jaccard_distance", "selection.jaccard")
    tracer.timed(cli, "write_patterns", "cli.write_patterns")
    tracer.timed(cli, "read_patterns", "cli.read_patterns")
    tracer.counted(cores, "coverage_at_least", "intervals.coverage")
    tracer.counted(IntervalSet, "intersect", "intervals.intersect")
    tracer.counted(IntervalSet, "union", "intervals.union")


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE_OUT streamcores-args...", file=sys.stderr)
        return 2
    from streamcores import cli

    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.restore()
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
