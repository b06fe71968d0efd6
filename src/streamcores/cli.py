"""Command-line front end for reproducible batch runs.

Commands: mine, select, inspect, static-compare. `mine` and `select`
write a manifest next to their output and take --manifest, alone: a
re-run with it reproduces the output byte for byte, and any other run
option given with it is refused. `inspect` and `static-compare` record
no manifest. `RunManifest` holds the default of every option it
records; the parsers set none. Every command checks its options before
it reads a file.

Exit codes: 0 success, 1 input error, 2 configuration error,
3 invariant violation, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from . import dataio
from .context import AttributeContext, ItemUniverse
from .cores import CoreSpec
from .mining import (SUPPORT_MEASURES, MinerConfig, mine, read_patterns, write_patterns,
                     write_static_patterns)
from .selection import (INTEREST_MEASURES, PairDistances, SelectionConfig, g_beta_select,
                        interest_key, selection_counts)
from .stream import induced_static_graph

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class ConfigError(ValueError):
    pass


@dataclass
class RunManifest:
    """Everything needed to reproduce a run."""

    command: str
    stream: Optional[str] = None
    format: str = "auto"
    attributes: Optional[str] = None
    presence: Optional[str] = None
    directed: bool = False
    resolution: int = 1
    delta: float = 20.0
    core: str = "auto"
    min_support: int = 1
    min_intent_size: int = 0
    support_measure: str = "duration"
    item_order: str = "file"
    input: Optional[str] = None
    output: Optional[str] = None
    beta: float = 0.0
    betas: str = "0,0.2,0.4,0.6,0.8"
    g: str = "duration"
    static_min_support: int = 1

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"manifest has unknown fields: {sorted(unknown)}")
        return cls(**data)


def _manifest_from_args(command: str, args: argparse.Namespace) -> RunManifest:
    # the parsers set no defaults: a field is in `args` only when it was given
    given = {f.name: getattr(args, f.name) for f in fields(RunManifest)
             if f.name != "command" and hasattr(args, f.name)}
    if getattr(args, "manifest", None):
        if given:
            options = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(f"--manifest re-runs the recorded options and takes no "
                              f"others, got {options}")
        manifest = RunManifest.load(args.manifest)
        if manifest.command != command:
            raise ConfigError(
                f"manifest was recorded for {manifest.command!r}, not {command!r}"
            )
        return manifest
    return RunManifest(command, **given)


def _item_order(spec: str) -> Callable[[ItemUniverse], Optional[List[str]]]:
    """The item order that `spec` names, as a function of the item universe."""
    if spec == "file":
        return lambda universe: None
    if spec == "name":
        return lambda universe: sorted(universe.items)
    if spec.startswith("seed:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad item order {spec!r}") from None

        def shuffled(universe: ItemUniverse) -> List[str]:
            order = list(universe.items)
            random.Random(seed).shuffle(order)
            return order
        return shuffled
    raise ConfigError(f"bad item order {spec!r} (use file, name or seed:N)")


def _parse_betas(text: str) -> List[float]:
    try:
        values = [float(word) for word in text.split(",") if word.strip()]
    except ValueError:
        raise ConfigError(f"bad beta list {text!r}") from None
    if any(not 0.0 <= b <= 1.0 for b in values):
        raise ConfigError("beta values must lie in [0, 1]")
    return values


def _mining_setup(manifest: RunManifest):
    """(stream, attribute context, miner config) of a mining run.

    Every option is checked before any file is read; only the item
    order waits for the item universe. An "auto" core is resolved in
    `manifest` itself, so that its record names the core that ran.
    """
    if not manifest.stream:
        raise ConfigError("no stream file given")
    # default family follows the stream kind; thresholds stay explicit
    if manifest.core == "auto":
        manifest.core = "ha:2,2" if manifest.directed else "star-sat:2"
    cfg = MinerConfig(
        core=CoreSpec.parse(manifest.core),
        min_support=manifest.min_support,
        min_intent_size=manifest.min_intent_size,
        support_measure=manifest.support_measure,
    )
    cfg.check()
    item_order = _item_order(manifest.item_order)
    if manifest.resolution <= 0:
        raise ConfigError("resolution must be a positive number of ticks per second")
    dataio.extension_ticks(manifest.delta, manifest.resolution, manifest.format)
    presence = None
    if manifest.presence:
        presence = dataio.read_presence(manifest.presence, resolution=manifest.resolution)
    stream = dataio.read_link_stream(
        manifest.stream,
        fmt=manifest.format,
        resolution=manifest.resolution,
        instant_extension_seconds=manifest.delta,
        directed=manifest.directed,
        presence=presence,
    )
    if manifest.attributes:
        ctx = dataio.read_attributes(manifest.attributes, stream=stream)
    else:
        ctx = AttributeContext(ItemUniverse([]), {})
    cfg.item_order = item_order(ctx.universe)
    return stream, ctx, cfg


def cmd_mine(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args("mine", args)
    if not manifest.output:
        raise ConfigError("mine needs --output")
    stream, ctx, cfg = _mining_setup(manifest)

    started = time.perf_counter()
    records = mine(stream, ctx, cfg)
    elapsed = time.perf_counter() - started

    out = Path(manifest.output)
    write_patterns(records, out)
    manifest.write(out.with_name(out.name + ".manifest.json"))

    flagged = sum(1 for rec in records if rec.below_min_support)
    print(f"patterns: {len(records) - flagged}"
          + (f" (+{flagged} below min-support)" if flagged else ""))
    print(f"wall time: {elapsed:.3f}s")
    depths = {}
    for rec in records:
        depths[rec.depth] = depths.get(rec.depth, 0) + 1
    for depth in sorted(depths):
        print(f"depth {depth}: {depths[depth]}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args("select", args)
    if not manifest.input or not manifest.output:
        raise ConfigError("select needs --input and --output")
    # the whole configuration is checked before any file is read or written
    cfg = SelectionConfig(beta=manifest.beta, g=manifest.g)
    betas = _parse_betas(manifest.betas)
    records = read_patterns(manifest.input)
    usable = [rec for rec in records if not rec.below_min_support]
    if len(usable) < len(records):
        log.info("ignoring %d record(s) flagged below min-support", len(records) - len(usable))

    distances = PairDistances(usable)
    kept = g_beta_select(usable, cfg, distances)
    out = Path(manifest.output)
    write_patterns(kept, out)
    manifest.write(out.with_name(out.name + ".manifest.json"))

    print(f"beta={manifest.beta:g}: kept {len(kept)} of {len(usable)}")
    if betas:
        print("sweep:")
        for beta, count in selection_counts(usable, betas, g=manifest.g, distances=distances):
            print(f"  beta={beta:g} kept={count}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args("inspect", args)
    if not manifest.input:
        raise ConfigError("inspect needs --input")
    records = sorted(read_patterns(manifest.input), key=interest_key(manifest.g))
    if args.limit:
        records = records[: args.limit]

    print(f"{'intent':<40} {'nodes':>6} {'duration':>9} {'span':>14}")
    for rec in records:
        intent_text = " ".join(rec.items) or "(empty)"
        spans = [ivs.bounds() for _, ivs in rec.support.items()]
        if spans:
            lo = min(s[0] for s in spans)
            hi = max(s[1] for s in spans)
            span_text = f"[{lo}, {hi})"
        else:
            span_text = "-"
        print(f"{intent_text:<40} {rec.node_count:>6} {rec.support_measure:>9} {span_text:>14}")
    return EXIT_OK


def cmd_static_compare(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args("static-compare", args)
    # checked with the other options, before any file is read
    MinerConfig(min_support=manifest.static_min_support).check()
    stream, ctx, cfg = _mining_setup(manifest)

    stream_records = [rec for rec in mine(stream, ctx, cfg) if not rec.below_min_support]
    # every node of the collapsed stream is present for one tick, so
    # either support measure counts nodes
    static_cfg = MinerConfig(
        core=cfg.core,
        min_support=manifest.static_min_support,
        min_intent_size=cfg.min_intent_size,
        item_order=cfg.item_order,
    )
    static_records = [rec for rec in mine(induced_static_graph(stream), ctx, static_cfg)
                      if not rec.below_min_support]

    if args.stream_output:
        write_patterns(stream_records, args.stream_output)
    if args.static_output:
        write_static_patterns(static_records, args.static_output)

    stream_intents = {rec.items for rec in stream_records}
    static_intents = {rec.items for rec in static_records}
    missing = sorted(stream_intents - static_intents)

    print(f"stream patterns: {len(stream_records)}")
    print(f"static patterns: {len(static_records)}")
    if missing:
        print(f"containment VIOLATED for {len(missing)} intent(s):")
        for items in missing[:10]:
            print("  " + (" ".join(items) or "(empty)"))
        return EXIT_INVARIANT
    print("containment holds: every stream intent is a static intent")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    # no option of a RunManifest field has a default here: RunManifest holds them
    def options() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)

    # each subcommand takes only the options it reads
    rerun = options()  # mine and select, the commands that write a manifest
    rerun.add_argument("--manifest", help="re-run a recorded manifest")

    stream_opts = options()  # mine and static-compare
    stream_opts.add_argument("--resolution", type=int,
                             help=f"ticks per second (default {RunManifest.resolution})")
    stream_opts.add_argument("--delta", type=float,
                             help="instant-contact extension in seconds, a whole number "
                                  f"of ticks (default {RunManifest.delta:g})")
    stream_opts.add_argument("--min-support", type=int, help="minimum core support size")
    stream_opts.add_argument("--min-intent-size", type=int, help="drop patterns with fewer items")
    stream_opts.add_argument("--core",
                             help="core operator: identity, star-sat:K or ha:H,A "
                                  "(default: star-sat:2, or ha:2,2 for directed streams)")
    stream_opts.add_argument("--stream", help="link-stream file")
    stream_opts.add_argument("--format", choices=["auto", *dataio.FORMAT_WIDTHS])
    stream_opts.add_argument("--attributes", help="node attribute file")
    stream_opts.add_argument("--presence", help="explicit presence file")
    stream_opts.add_argument("--directed", action="store_true")
    stream_opts.add_argument("--support-measure", choices=SUPPORT_MEASURES)
    stream_opts.add_argument("--item-order", help="file, name or seed:N")

    patterns_in = options()  # select and inspect
    patterns_in.add_argument("--input", help="mined pattern JSONL")
    patterns_in.add_argument("--g", choices=list(INTEREST_MEASURES))

    parser = argparse.ArgumentParser(
        prog="streamcores",
        description="Mine core closed patterns from attributed interaction streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents, help):
        p = sub.add_parser(name, parents=parents, help=help,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("mine", cmd_mine, [rerun, stream_opts], "enumerate core closed patterns")
    p.add_argument("--output", help="pattern JSONL to write")

    p = command("select", cmd_select, [rerun, patterns_in],
                "greedy diverse-subset selection on mined patterns")
    p.add_argument("--output", help="filtered JSONL to write")
    p.add_argument("--beta", type=float, help="selection distance threshold")
    p.add_argument("--betas", help="comma-separated sweep for the report")

    p = command("inspect", cmd_inspect, [patterns_in], "pretty-print mined patterns")
    p.add_argument("--limit", type=int, default=0, help="show only the first N rows")

    p = command("static-compare", cmd_static_compare, [stream_opts],
                "mine the stream and its induced graph, check containment")
    p.add_argument("--static-min-support", type=int,
                   help="node-count threshold for the static miner")
    p.add_argument("--stream-output", default=None,
                   help="optional JSONL for the stream patterns")
    p.add_argument("--static-output", default=None,
                   help="optional JSONL for the static patterns")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except dataio.ParseError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
