"""Command-line front end for reproducible batch runs.

Commands: mine, select, inspect, static-compare. `mine` and `select`
write a manifest next to their output, with absolute file paths, and
take --manifest, alone: a re-run with it, from any directory,
reproduces the output byte for byte, and any other run option given
with it is refused. A manifest records its command and the
`RunManifest` fields among that command's options, which
`_build_parser` derives from the subparser: 12 for `mine`, 5 for
`select`. A manifest value of the wrong JSON type is a configuration
error. Earlier manifests record every field, and the retired
`item_order` and `static_min_support`: a field the command does not
take is dropped when it holds what they recorded for it, and any other
value is a configuration error naming the field. `inspect` and
`static-compare` record no manifest. `RunManifest` holds the default
of every option it records, and the parsers set none; the options no
manifest records (`--static-min-support`, `--stream-output`,
`--static-output`, `--limit`) have their defaults in the parser.
Every command checks its options before it reads a file, the paths it
will write among them: `--output` and its manifest, `--stream-output`
and `--static-output` must not be a directory, their directory must
exist, and none may resolve to a file the command reads (`--stream`,
`--attributes`, `--presence`, `--input` or `--manifest`) or to another
of its outputs, or the command exits 2 naming the options. The one
input a run may rewrite is the manifest of a `--manifest` re-run, when
it is the manifest next to the output. A star-satellite core on a
directed stream, or a hub-authority core on an undirected one, exits 2
before any read too.
Items are mined in the order they first appear in the attribute file;
there is no item-order option.

`static-compare` mines the stream and its time-collapsed graph
(`induced_static_graph`) and checks that every stream intent is a
static closed pattern: the static core of the intent's carriers is
nonempty and its intent is the stream intent. `--static-min-support`
thins only the static patterns it counts and writes, not that check.
Both of its outputs are pattern files that `select` and `inspect` read;
a static support lies over the collapsed graph's one tick [0, 1), so
its measure is its node count.

Every output and manifest is written as a new file
(`patternio.open_output`): a symlink is written through to its target,
a hard-linked output loses the link, and the old file's mode is not
kept.

A command loads only the modules it runs. This module imports the
pattern-file layer (`patternio`, with `intervals` and `stream`) and the
selector; `mine` and `static-compare` import the link-stream reader,
the miner, the cores and the attribute context when they run
(`_mining_setup`, `mine`), so `select` and `inspect` load none of them.
`logging` is configured for `mine` and `static-compare`; `select`
imports it only to report records flagged below min-support, and
`inspect` never does. The names a tracer rebinds here (`mine`,
`read_patterns`, `write_patterns`, `selection_counts`) are module
globals that the commands call.

The cyclic garbage collector is off while a command runs (`main`
turns it off after parsing the arguments and back on when the command
returns or raises). Reading, mining, selecting and writing build no
reference cycles, so its scans would free nothing; reference counting
frees everything they allocate. `entry`, which runs `main` as a
process, freezes the heap (`gc.freeze`) before it exits, so that the
interpreter's collection at exit skips every object, module objects
included: that scan would free nothing, and skipping it cut the time
after `main` returns from 5.3 to 1.7 ms of a 35 ms `select` process
(`BENCH_19.json`). `main` itself freezes nothing, since tests call it
in process.

Exit codes: 0 success, 1 input error, 2 configuration error,
3 invariant violation, 141 standard output closed by its reader. A data
file that is not UTF-8 text, or a presence file that does not cover the
stream, is an input error; a manifest that is not JSON text, or that
repeats a key, is a configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, get_args, get_type_hints

from .patternio import (FORMAT_WIDTHS, SUPPORT_MEASURES, ParseError, _unique_keys, open_output,
                        read_patterns, write_patterns)
from .selection import (INTEREST_MEASURES, PairDistances, SelectionConfig, g_beta_select,
                        interest_key, selection_counts)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class ConfigError(ValueError):
    pass


# the manifest fields that name a file a run reads
_INPUT_FIELDS = ("stream", "attributes", "presence", "input")

# what earlier manifests recorded for fields that no command takes now
_RETIRED = {"item_order": "file", "static_min_support": 1}

# how a manifest field's type is written in JSON
_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


class RunManifest:
    """Everything needed to reproduce a run.

    The annotated class attributes are the fields, in the order a
    manifest file lists them, with their defaults. A command's fields
    are those among its options (`_build_parser`); an instance holds
    its command, the names of that command's fields and the values it
    was given.
    """

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
    input: Optional[str] = None
    output: Optional[str] = None
    beta: float = 0.0
    betas: str = "0,0.2,0.4,0.6,0.8"
    g: str = "duration"

    def __init__(self, command: str, fields: Sequence[str], **values) -> None:
        # callers pass only field names; a field not given reads its default
        self.command = command
        self.fields = fields
        self.__dict__.update(values)

    def write(self, path: Path) -> None:
        """Record the command and its fields, not the options of other commands."""
        record = {"command": self.command, **{name: getattr(self, name) for name in self.fields}}
        # absolute, so that a re-run from any directory reads and writes the same files
        for name in (*_INPUT_FIELDS, "output"):
            if record.get(name):
                record[name] = os.path.abspath(record[name])
        with open_output(path) as handle:
            handle.write(json.dumps(record, indent=2) + "\n")

    @classmethod
    def load(cls, path: str, command: str, fields: Sequence[str]) -> "RunManifest":
        """The manifest at `path`, recorded for `command`, whose fields are `fields`.

        Each of `fields` it holds must have its JSON type. Manifests of
        earlier versions record every field, and `item_order` and
        `static_min_support`, which no command takes now. A field that
        `command` does not take is dropped when it holds what those
        manifests record for it, its default or its `_RETIRED` value;
        any other value is a run that cannot be reproduced.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"),
                              object_pairs_hook=_unique_keys)
        except ValueError as err:  # not UTF-8, not JSON, or a key repeated
            raise ConfigError(f"--manifest {path}: {err}") from None
        if type(data) is not dict or "command" not in data:
            raise ConfigError("a manifest must be a JSON object with a command field")
        unknown = data.keys() - cls.__annotations__.keys() - _RETIRED.keys()
        if unknown:
            raise ConfigError(f"manifest has unknown fields: {sorted(unknown)}")
        hints = get_type_hints(cls)
        for name in [name for name in ("command", *fields) if name in data]:
            value, kinds = data[name], get_args(hints[name]) or (hints[name],)
            # exact types, so a bool is no number; a float field also takes an integer
            accepted = (*kinds, int) if float in kinds else kinds
            if type(value) not in accepted:
                wanted = " or ".join(_JSON_KINDS[kind] for kind in kinds)
                raise ConfigError(f"manifest field {name} must be {wanted}, got {value!r}")
        if data["command"] != command:
            raise ConfigError(f"manifest was recorded for {data['command']!r}, not {command!r}")
        for name in [name for name in data if name not in ("command", *fields)]:
            value = data.pop(name)
            recorded = _RETIRED[name] if name in _RETIRED else getattr(cls, name)
            if type(value) is not type(recorded) or value != recorded:
                raise ConfigError(f"manifest field {name} is {value!r}, but {command} does "
                                  f"not take it, so the run cannot be reproduced")
        return cls(fields=fields, **data)


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    # the parsers set no defaults: a field is in `args` only when it was given
    given = {name: getattr(args, name) for name in args.fields if hasattr(args, name)}
    if getattr(args, "manifest", None):
        if given:
            options = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ConfigError(f"--manifest re-runs the recorded options and takes no "
                              f"others, got {options}")
        return RunManifest.load(args.manifest, args.command, args.fields)
    return RunManifest(args.command, args.fields, **given)


def _manifest_path(output: str) -> Path:
    out = Path(output)
    return out.with_name(out.name + ".manifest.json")


def _inputs(manifest: RunManifest) -> Dict[str, str]:
    """The real path of each file `manifest`'s run reads, mapped to "<its option> reads"."""
    return {os.path.realpath(path): f"--{name} reads"
            for name in _INPUT_FIELDS if (path := getattr(manifest, name))}


def _check_output(option: str, path: str, taken: Dict[str, str]) -> str:
    """Refuse, naming `option`, an output path that cannot be created; return its real path.

    Its directory must exist, the path must not be a directory, and it
    must not be one of `taken`: the files the command reads (`_inputs`)
    and the outputs it checked before, so that no write replaces a file
    the command reads or writes. A symlink is judged by its target, and
    a symlink loop is refused. Called before any input is read.
    """
    real = os.path.realpath(path)
    if os.path.islink(real):  # realpath stops at the link that closes a loop
        raise ConfigError(f"{option}: cannot write {path}, a symlink loop")
    if real in taken:
        raise ConfigError(f"{option}: cannot write {path}, which {taken[real]}")
    if os.path.isdir(real):
        raise ConfigError(f"{option}: cannot write {path}, a directory")
    if not os.path.isdir(os.path.dirname(real)):
        raise ConfigError(f"{option}: cannot write {path}, its directory does not exist")
    return real


def _check_run_output(manifest: RunManifest, rerun: Optional[str]) -> None:
    """`_check_output` for the --output of mine or select and the manifest next to it.

    `rerun` is the --manifest file, if any: the run rewrites it when it
    is the manifest next to the output, so only --output may not be it.
    """
    taken = _inputs(manifest)
    reread = {os.path.realpath(rerun): "--manifest reads"} if rerun else {}
    # first, so that the manifest path has a file name
    taken[_check_output("--output", manifest.output, {**taken, **reread})] = "--output writes"
    _check_output("--output", str(_manifest_path(manifest.output)), taken)


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

    Every option is checked before any file is read. An "auto" core is
    resolved in `manifest` itself, so that its record names the core
    that ran.
    """
    from . import dataio
    from .context import AttributeContext, ItemUniverse
    from .cores import CoreSpec
    from .mining import MinerConfig
    from .stream import PresenceError

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
    if cfg.core.kind != "identity" and (cfg.core.kind == "ha") != manifest.directed:
        kind = "directed" if cfg.core.kind == "ha" else "undirected"
        raise ConfigError(f"core {manifest.core} is defined on {kind} streams only")
    dataio.extension_ticks(manifest.delta, manifest.resolution, manifest.format)
    presence = None
    if manifest.presence:
        presence = dataio.read_presence(manifest.presence, resolution=manifest.resolution)
    try:
        stream = dataio.read_link_stream(
            manifest.stream,
            fmt=manifest.format,
            resolution=manifest.resolution,
            instant_extension_seconds=manifest.delta,
            directed=manifest.directed,
            presence=presence,
        )
    except PresenceError as err:  # the two files disagree
        raise ParseError(f"{err} in {manifest.stream}", manifest.presence) from None
    if manifest.attributes:
        ctx = dataio.read_attributes(manifest.attributes, stream=stream)
    else:
        ctx = AttributeContext(ItemUniverse([]), {})
    return stream, ctx, cfg


def mine(stream, ctx, cfg):
    """`mining.mine`, imported when a command first mines (module docstring)."""
    from .mining import mine
    return mine(stream, ctx, cfg)


def cmd_mine(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    if not manifest.output:
        raise ConfigError("mine needs --output")
    _check_run_output(manifest, getattr(args, "manifest", None))
    stream, ctx, cfg = _mining_setup(manifest)

    started = time.perf_counter()
    records = mine(stream, ctx, cfg)
    elapsed = time.perf_counter() - started

    write_patterns(records, manifest.output)
    manifest.write(_manifest_path(manifest.output))

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
    manifest = _manifest_from_args(args)
    if not manifest.input or not manifest.output:
        raise ConfigError("select needs --input and --output")
    # the whole configuration is checked before any file is read or written
    cfg = SelectionConfig(beta=manifest.beta, g=manifest.g)
    betas = _parse_betas(manifest.betas)
    _check_run_output(manifest, getattr(args, "manifest", None))
    records = read_patterns(manifest.input)
    usable = [rec for rec in records if not rec.below_min_support]
    if len(usable) < len(records):
        _log_to_stderr().info("ignoring %d record(s) flagged below min-support",
                              len(records) - len(usable))

    distances = PairDistances(usable)
    kept = g_beta_select(usable, cfg, distances)
    write_patterns(kept, manifest.output)
    manifest.write(_manifest_path(manifest.output))

    print(f"beta={manifest.beta:g}: kept {len(kept)} of {len(usable)}")
    if betas:
        print("sweep:")
        for beta, count in selection_counts(usable, betas, g=manifest.g, distances=distances):
            print(f"  beta={beta:g} kept={count}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    if not manifest.input:
        raise ConfigError("inspect needs --input")
    if args.limit < 0:
        raise ConfigError(f"--limit must be 0 (every row) or more, got {args.limit}")
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
    from .context import closure
    from .cores import apply_core
    from .mining import MinerConfig
    from .stream import induced_static_graph

    manifest = _manifest_from_args(args)
    # checked with the other options, before any file is read
    MinerConfig(min_support=args.static_min_support)
    taken = _inputs(manifest)
    for option, path in (("--stream-output", args.stream_output),
                         ("--static-output", args.static_output)):
        if path:
            taken[_check_output(option, path, taken)] = f"{option} writes"
    stream, ctx, cfg = _mining_setup(manifest)

    stream_records = [rec for rec in mine(stream, ctx, cfg) if not rec.below_min_support]
    # every node of the collapsed stream is present for one tick, so
    # either support measure counts nodes
    static_cfg = MinerConfig(
        core=cfg.core,
        min_support=args.static_min_support,
        min_intent_size=cfg.min_intent_size,
    )
    graph = induced_static_graph(stream)
    static_records = [rec for rec in mine(graph, ctx, static_cfg) if not rec.below_min_support]

    if args.stream_output:
        write_patterns(stream_records, args.stream_output)
    if args.static_output:
        write_patterns(static_records, args.static_output)

    # a stream intent is checked by membership, not looked up among the
    # static records, which --static-min-support may have dropped
    static_core = partial(apply_core, cfg.core, graph)
    missing = []
    for rec in stream_records:
        closed, support = closure(rec.mask, ctx, graph, static_core)
        if not support or closed != rec.mask:
            missing.append(rec.items)
    missing.sort()

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
    stream_opts.add_argument("--format", choices=["auto", *FORMAT_WIDTHS])
    stream_opts.add_argument("--attributes", help="node attribute file")
    stream_opts.add_argument("--presence", help="explicit presence file")
    stream_opts.add_argument("--directed", action="store_true")
    stream_opts.add_argument("--support-measure", choices=SUPPORT_MEASURES)

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
    p.add_argument("--limit", type=int, default=0,
                   help="show only the first N rows (default 0: every row)")

    p = command("static-compare", cmd_static_compare, [stream_opts],
                "mine the stream and its induced graph, check containment")
    p.add_argument("--static-min-support", type=int, default=1,
                   help="node-count threshold for the static miner (default 1)")
    p.add_argument("--stream-output", default=None,
                   help="optional JSONL for the stream patterns")
    p.add_argument("--static-output", default=None,
                   help="optional JSONL for the static patterns")

    # a command's manifest fields are the RunManifest fields among its options
    for p in sub.choices.values():
        options = {action.dest for action in p._actions}
        p.set_defaults(fields=tuple(n for n in RunManifest.__annotations__ if n in options))
    return parser


def _log_to_stderr():
    """This module's logger, its INFO records written to stderr as "LEVEL message"."""
    import logging  # only for the commands that log: `select` logs one line at most
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    return logging.getLogger(__name__)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("mine", "static-compare"):  # the miner and the readers log
        _log_to_stderr()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:  # stdout's reader left: `entry` exits 141
        raise
    except (ParseError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as err:  # ConfigError among them
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that left shows here, not at exit
    except BrokenPipeError:
        # the reader closed the pipe (`| head`); point stdout at devnull so
        # that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    gc.freeze()  # the collection at exit would free nothing (module docstring)
    sys.exit(code)


if __name__ == "__main__":
    entry()
