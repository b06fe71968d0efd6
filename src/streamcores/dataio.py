"""Readers and writers for interaction records, presence tables and node attributes.

Record formats (whitespace- or comma-separated, `#` starts a comment):

* triples  `t u v`        -- an instant contact, extended to [t - delta, t)
* quadruples `b e u v`    -- an interaction over [b, e)
* contact rows `t i j Ci Cj` -- tab-separated face-to-face contacts; the
  class columns are ignored by the graph loader and consumed by the
  attribute loader
* presence rows `b e v`   -- node v is present over [b, e)
* attribute rows `node,item1;item2;...`

Timestamps are seconds; they are converted to integer ticks with a
configurable ticks-per-second resolution and must land on the grid.

Every reader here takes a path and its rows from the row reader of
`patternio`, which `patternio.read_patterns` uses too: `_iter_rows`
reads the file's bytes as they are iterated (`_chunks`), decodes them
once (`_decode`, a leading byte-order mark dropped), numbers the lines
in the same pass as `str.splitlines` cuts them, and skips blank and
comment lines (`_numbered`). `ParseError`, `open_output` and the
formats' row widths (`FORMAT_WIDTHS`) live there too, and are imported
here under the same names. The presence and high-school readers split
their rows with `_fields`, which refuses a row of the wrong field
count, or with an empty node name or class, naming its line. A row of the high-school metadata or contacts
table that holds a tab is cut at each tab, so an empty column between
two tabs is seen and refused; every other row is cut at commas, or at
runs of whitespace when it has none.
`read_link_stream` reads the same chunks into one per-pair accumulator
(`_Records`), which `ingest_link_stream` drives and hands to
`StreamGraph`. A chunk is plain when the width is known (from the
format, or for "auto" from the file's first row), it has no `#`, no `,`
and no line break other than `\\n`, and each of its lines holds exactly
that many fields. A plain chunk is parsed whole into columns: one
split, each column a stride slice, each distinct timestamp text parsed
once with `to_ticks`, and its records checked column-wise for an
undirected self-loop or an empty interval.
Every other chunk, and a plain chunk whose checks fail, is parsed row
by row into the same columns, and its first bad row (column count,
timestamp, empty node name, empty interval, undirected self-loop)
raises a ParseError naming its file line: the file is read no further.
Either way each record is appended to its pair's list, both
orientations of an undirected pair in one list: its tick, or its
`(b, e)` for quadruples. Once the file has parsed, each pair's spans
are made once, in any order of its rows: its instants sorted and
extended to `[t - delta, t)`, or its intervals merged, and
`StreamGraph` takes each pair's canonical `IntervalSet` as it is. Each
node name is kept as one string object, and each tick value, span
starts `t - delta` included, as one int object.

Every file the package writes is opened by `open_output`, which makes
the output a new file rather than truncating the old one in place. The
stream and presence writers write a row naming a node whose name holds
whitespace as a comma row. They and the attribute writer refuse a name
that no row can hold, before the file is opened.
"""

from __future__ import annotations

import logging
import operator
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .context import AttributeContext, ItemUniverse
from .intervals import IntervalSet, Span, _merge
from .patternio import (FORMAT_WIDTHS, ParseError, _chunks, _decode, _iter_rows, _numbered,
                        open_output)
from .stream import StreamGraph

log = logging.getLogger(__name__)

# the default limit of Python's own int() on decimal text; it also keeps
# an exponent such as 1e999999999 from building a huge integer
MAX_TIMESTAMP_DIGITS = 4300


def _split(text: str, tabs: bool = False) -> List[str]:
    if tabs and "\t" in text:  # a tab-separated row may hold an empty column
        return [f.strip() for f in text.split("\t")]
    if "," in text:
        return [f.strip() for f in text.split(",")]
    return text.split()


def _fields(path: Union[str, Path], width: int, required: Mapping[int, str],
            at_least: bool = False, tabs: bool = False) -> Iterator[Tuple[str, int, List[str]]]:
    """(source, row, fields) of each row of the file at `path`, split by `_split`.

    With `tabs`, a row that holds a tab is cut at each tab, so that two
    tabs in a row leave an empty column.

    `required` maps a column that may not be empty to what it holds. A
    row of other than `width` fields (of fewer, if `at_least`), or with
    an empty required column, raises a ParseError naming its line: the
    first empty column's `empty <what it holds>`.
    """
    source, rows = _iter_rows(path)
    for row, text in rows:
        fields = _split(text, tabs)
        if len(fields) < width if at_least else len(fields) != width:
            raise ParseError(f"expected {'at least ' if at_least else ''}{width} columns, "
                             f"got {len(fields)}", source, row)
        for i, held in required.items():
            if not fields[i]:
                raise ParseError(f"empty {held}", source, row)
        yield source, row, fields


def to_ticks(value: str | float | int, resolution: int, source: str, row: int) -> int:
    """Convert a timestamp in seconds to integer ticks; must land on the grid.

    The text is parsed exactly, as an integer mantissa and a power of
    ten, so an off-grid value is rejected at any magnitude. Non-finite
    values, values written with more than MAX_TIMESTAMP_DIGITS digits,
    digit-group underscores and non-ASCII digits are rejected too.
    """
    text = value if isinstance(value, str) else str(value)
    # int() and Decimal() would read "+4_0" as 40 and "٣٠" as 30
    if "_" in text or not text.isascii():
        raise ParseError(f"bad timestamp {value!r}", source, row)
    try:
        seconds = int(text)
    except ValueError:
        pass
    else:
        # a product keeps a spare digit in memory, which adds up over many rows
        return seconds if resolution == 1 else seconds * resolution
    # imported here: integer timestamps, the common case, never need it
    from decimal import Decimal, InvalidOperation
    try:
        number = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"bad timestamp {value!r}", source, row) from None
    if not number.is_finite():
        raise ParseError(f"timestamp {value!r} is not finite", source, row)
    sign, digits, exponent = number.as_tuple()
    if max(len(digits), len(digits) + exponent) > MAX_TIMESTAMP_DIGITS:
        raise ParseError(
            f"timestamp {value!r} has more than {MAX_TIMESTAMP_DIGITS} digits", source, row
        )
    scaled = int("".join(map(str, digits))) * resolution
    if exponent >= 0:
        scaled *= 10 ** exponent
    else:
        # a nonzero integer with fewer than k bits is below 10**k
        rest = scaled
        if -exponent <= scaled.bit_length():
            scaled, rest = divmod(scaled, 10 ** -exponent)
        if rest:
            raise ParseError(
                f"timestamp {value!r} is not representable at {resolution} ticks/second",
                source, row,
            )
    return -scaled if sign else scaled


def ingest_link_stream(records: _Records, *,
                       presence: Optional[Mapping[str, IntervalSet]] = None) -> StreamGraph:
    """The stream of the link-stream file that `records` reads (see `read_link_stream`).

    The file is parsed here, its first bad row raised where it is read,
    its pairs' spans gathered by `records`, and the stream built from
    them with the given `presence`. `len(records)` is then the number of
    records read.
    """
    return StreamGraph(records.interactions(), presence=presence, directed=records.directed)


class _Records:
    """The records of a link-stream file, gathered into one per-pair accumulator.

    `interactions()` reads the file a chunk at a time. Either producer,
    `_plain_records` for a plain chunk or `_parse_rows` for any other,
    makes the chunk's columns, and `_gather` appends each record to its
    pair's list; each pair's spans are made from that list once the
    file has parsed (see the module docstring). The first bad row
    raises a ParseError where it is read. `len()` is the number of
    records read.
    """

    def __init__(self, source: str, width: Optional[int], resolution: int, extension: int,
                 directed: bool):
        self.source = source
        self.directed = directed
        self._width = width
        self._resolution = resolution
        self._extension = extension
        self._count = 0
        # by oriented pair: its records' ticks, or their (b, e) for quadruples
        self._values: Dict[Tuple[str, str], list] = {}
        self._names: Dict[str, str] = {}  # one string object per node name
        self._ticks: Dict[str, int] = {}  # one parse per timestamp text
        # one int object per tick value, span starts `t - extension` included
        self._ints: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._count

    def interactions(self) -> Dict[Tuple[str, str], IntervalSet]:
        """Each pair's canonical spans, keyed by the oriented pair, once the file has parsed.

        Each pair's list is replaced by its set, made in one step:
        `_instant_spans` for instants, `_merge` for quadruples.
        """
        source, width, line = self.source, self._width, 0
        for i, raw in enumerate(_chunks(source)):
            chunk = _decode(raw, i == 0, source, line)
            # for "auto", a plain chunk's first line is the file's first row
            plain = _plain_records(chunk, width or len(chunk.partition("\n")[0].split()),
                                   self._resolution, self.directed, self._ticks, self._ints)
            if plain is not None:
                width, count, columns = plain
                line += count  # one record a line
            else:
                rows, line = _numbered(chunk, line)
                width, count, columns = self._parse_rows(rows, width)
            self._count += count
            if columns:
                self._gather(columns)
        self._names, self._ticks = {}, {}  # the caches are done with
        pairs, extension, ints = self._values, self._extension, self._ints
        for key, values in pairs.items():
            pairs[key] = IntervalSet._raw(_merge(values) if width == 4
                                          else _instant_spans(values, extension, ints))
        self._ints = {}
        return pairs

    def _parse_rows(self, rows: Iterator[Tuple[int, str]], width: Optional[int]
                    ) -> Tuple[int, int, List[tuple]]:
        """(width, count, columns) of `rows`, parsed one by one; a bad row raises a ParseError."""
        source, ticks, ints = self.source, self._ticks, self._ints
        records = []
        for row, text in rows:
            fields = _split(text)
            if width is None:  # "auto" takes the width of the first row
                width = len(fields)
                if width not in FORMAT_WIDTHS.values():
                    raise ParseError(f"cannot infer format from {width} columns", source, row)
            if len(fields) != width:
                raise ParseError(f"expected {width} columns, got {len(fields)}", source, row)
            stamps = 2 if width == 4 else 1  # the class columns of the contacts format are skipped
            # exports sit on a time grid, so a timestamp text recurs: parse it once
            for stamp in fields[:stamps]:
                if stamp not in ticks:
                    t = to_ticks(stamp, self._resolution, source, row)
                    ticks[stamp] = ints.setdefault(t, t)
            u, v = fields[stamps], fields[stamps + 1]
            if not u or not v:
                raise ParseError("empty node name", source, row)
            record = (*map(ticks.__getitem__, fields[:stamps]), u, v)
            if stamps == 2 and record[0] >= record[1]:
                raise ParseError(f"empty interval [{record[0]}, {record[1]})", source, row)
            if u == v and not self.directed:
                raise ParseError(f"self-interaction on node {u!r}", source, row)
            records.append(record)
        return width, len(records), list(zip(*records))

    def _gather(self, columns: List[Sequence]) -> None:
        """Append each of a chunk's records, given as columns (`*stamps, us, vs`), to its pair.

        A record's value is its tick, or its `(b, e)` for quadruples.
        """
        *stamps, us, vs = columns
        values_of, names, directed = self._values, self._names, self.directed
        for u, v, value in zip(us, vs, stamps[0] if len(stamps) == 1 else zip(*stamps)):
            key = (u, v) if directed or u < v else (v, u)
            values = values_of.get(key)
            if values is None:
                u, v = key
                values_of[names.setdefault(u, u), names.setdefault(v, v)] = [value]
            else:
                values.append(value)


def _instant_spans(ticks: List[int], extension: int, ints: Dict[int, int]) -> Tuple[Span, ...]:
    """The canonical spans of the instants `ticks`, each extended to `[t - extension, t)`.

    Each span start is taken from `ints`, the one object of its value,
    and added there when it is new.
    """
    ticks.sort()
    spans = []
    e = ticks[0]
    b = e - extension
    b = ints.setdefault(b, b)
    for t in ticks:
        if t - extension > e:
            spans.append((b, e))
            b = t - extension
            b = ints.setdefault(b, b)
        e = t
    spans.append((b, e))
    return tuple(spans)


# a plain chunk has no comment, no comma and, besides "\n", none of the line
# breaks of str.splitlines
_NOT_PLAIN = ("#", ",", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e")
_NOT_PLAIN_BEYOND_ASCII = ("\x85", "\u2028", "\u2029")


def _ticks_of(texts: List[str], ticks: Dict[str, int], ints: Dict[int, int],
              resolution: int) -> List[int]:
    """The ticks of timestamp `texts`, each text not in the `ticks` cache parsed once and added.

    A new text's tick is the object `ints` holds for its value, added there when new.
    Raises the ParseError of `to_ticks` for a text it refuses, naming no line.
    """
    for text in set(texts).difference(ticks):
        t = to_ticks(text, resolution, "", 0)
        ticks[text] = ints.setdefault(t, t)
    return list(map(ticks.__getitem__, texts))


def _plain_records(text: str, width: int, resolution: int, directed: bool, ticks: Dict[str, int],
                   ints: Dict[int, int]) -> Optional[Tuple[int, int, List[list]]]:
    """(width, count, columns) of a plain chunk `text` of `width` fields a line, or None.

    A chunk is plain when it has no `#`, no `,` and no line break other
    than `\\n`, and each of its lines holds exactly `width` whitespace-
    separated fields, so it has no blank line and ends at a `\\n`: its
    rows are then what `_numbered` and `_split` would make of it, one
    record a line. The columns are the records' ticks (one column for
    instants, two for intervals) and their two node names. None, where
    the row path must read the chunk: `width` is not a format's, the
    chunk is not plain, `to_ticks` refuses a timestamp, or the stream
    would refuse a record (an undirected self-loop, an empty interval),
    which the row path then raises at its row. Never raises.
    """
    if (width not in FORMAT_WIDTHS.values() or any(map(text.__contains__, _NOT_PLAIN))
            or not text.isascii() and any(map(text.__contains__, _NOT_PLAIN_BEYOND_ASCII))):
        return None
    count = text.count("\n")
    step = width + 1
    # a "#" token ends each line: there are `count` of them, so each line has
    # `width` fields exactly when every (width + 1)-th token is one
    tokens = text.replace("\n", " # ").split()
    if len(tokens) != count * step or tokens[width::step].count("#") != count:
        return None
    # the class columns of the contacts format are skipped
    *stamps, us, vs = [tokens[i::step] for i in range(4 if width == 4 else 3)]
    del tokens  # freed before the timestamps are parsed
    if not directed and any(map(operator.eq, us, vs)):
        return None
    try:
        stamps = [_ticks_of(texts, ticks, ints, resolution) for texts in stamps]
    except ParseError:
        return None
    if width == 4 and any(map(operator.ge, *stamps)):
        return None
    return width, count, [*stamps, us, vs]


def _check_resolution(resolution: int) -> None:
    if resolution <= 0:
        raise ValueError(f"resolution must be a positive number of ticks per second, "
                         f"got {resolution!r}")


def extension_ticks(seconds: float, resolution: int, fmt: str = "auto") -> int:
    """The instant extension of `read_link_stream` in ticks, checked with the other settings.

    A resolution that is not positive, an unknown format, an extension
    that is not a finite whole number of ticks, or one that is not
    positive where triples may be read is a ValueError: a bad setting,
    not bad input.
    """
    _check_resolution(resolution)
    if fmt != "auto" and fmt not in FORMAT_WIDTHS:
        raise ValueError(f"unknown stream format {fmt!r}")
    if isinstance(seconds, float) and seconds.is_integer() and abs(seconds) < 2 ** 53:
        seconds = int(seconds)  # exact, and the text of an int needs no `decimal` in to_ticks
    try:
        delta = to_ticks(seconds, resolution, "", 0)
    except ParseError:
        raise ValueError(
            f"instant extension {seconds!r} s is not a finite whole "
            f"number of ticks at {resolution} ticks/second"
        ) from None
    if delta <= 0 and fmt != "quadruples":
        raise ValueError("instant extension must be positive")
    return delta


def read_link_stream(
    path: Union[str, Path],
    *,
    fmt: str = "auto",
    resolution: int = 1,
    instant_extension_seconds: float = 20.0,
    directed: bool = False,
    presence: Optional[Mapping[str, IntervalSet]] = None,
) -> StreamGraph:
    """Parse a link-stream file into a StreamGraph.

    `fmt` is one of "auto", "triples", "quadruples", "contacts". The
    contacts format is the tab-separated `t i j Ci Cj` face-to-face
    export; its class columns are skipped here. The instant extension
    must be a whole number of ticks and the resolution positive; anything
    else is a ValueError raised before any row is read (see
    `extension_ticks`). The file's records are gathered pair by pair by
    a `_Records` source, which `ingest_link_stream` parses and turns into
    the stream (see the module docstring).
    """
    delta = extension_ticks(instant_extension_seconds, resolution, fmt)
    records = _Records(str(path), FORMAT_WIDTHS.get(fmt), resolution, delta, directed)
    return ingest_link_stream(records, presence=presence)


def read_presence(path: Union[str, Path], *, resolution: int = 1) -> Dict[str, IntervalSet]:
    """Parse `b e v` presence rows into node -> IntervalSet.

    A resolution that is not positive is a ValueError, raised before any
    row is read.
    """
    _check_resolution(resolution)
    spans: Dict[str, List[Tuple[int, int]]] = {}
    for source, row, (b, e, v) in _fields(path, 3, {2: "node name"}):
        bt = to_ticks(b, resolution, source, row)
        et = to_ticks(e, resolution, source, row)
        if bt >= et:
            raise ParseError(f"empty presence interval [{bt}, {et})", source, row)
        spans.setdefault(str(v), []).append((bt, et))
    return {v: IntervalSet(sp) for v, sp in spans.items()}


def _row_name(name: object, kind: str, separators: str) -> str:
    """The text of `name`, a ValueError naming it if no row can hold it.

    No row holds an empty name, one with a line break or one of
    `separators`, or one with whitespace at either end, which a reader
    strips.
    """
    text = str(name)
    if text.splitlines() != [text] or text.strip() != text or any(map(text.__contains__,
                                                                        separators)):
        raise ValueError(f"{kind} name {name!r} cannot be written to a row")
    return text


def _comma_nodes(nodes: Iterable) -> Set:
    """The nodes whose rows are written as comma rows: those whose names hold whitespace.

    A name that no row can hold is a ValueError naming the node: an
    empty one, one with a comma or a line break, or one with whitespace
    at either end, which a comma row strips.
    """
    commas = set()
    for node in nodes:
        text = _row_name(node, "node", ",")
        if text.split() != [text]:
            commas.add(node)
    return commas


def write_link_stream(stream: StreamGraph, path: Union[str, Path]) -> None:
    """Write canonical quadruple rows `b e u v` in tick units.

    Rows are ordered by pair then interval start, so re-ingesting at
    resolution 1 reproduces the stream. A row naming a node whose name
    holds whitespace is a comma row; a name that no row can hold is a
    ValueError (see `_comma_nodes`), raised before the file is opened.
    """
    commas = _comma_nodes(stream.nodes)
    lines = ["# b e u v (ticks)"]
    for (u, v), ivs in stream.interaction_items():
        sep = "," if u in commas or v in commas else " "
        for a, b in ivs.spans:
            lines.append(f"{a}{sep}{b}{sep}{u}{sep}{v}")
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def write_presence(stream: StreamGraph, path: Union[str, Path]) -> None:
    """Write presence rows `b e v` in tick units, which `read_presence` reads back.

    Node names are written as `write_link_stream` writes them.
    """
    commas = _comma_nodes(stream.nodes)
    lines = ["# b e v (ticks)"]
    for v in stream.nodes:
        sep = "," if v in commas else " "
        for a, b in stream.presence(v).spans:
            lines.append(f"{a}{sep}{b}{sep}{v}")
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def read_attributes(path: Union[str, Path], *,
                    stream: Optional[StreamGraph] = None) -> AttributeContext:
    """Parse `node,item1;item2;...` rows into an attribute context.

    The item universe keeps first-appearance order. With a stream given,
    rows for unknown nodes are kept but flagged, and stream nodes without
    a row get the empty description (also flagged).
    """
    source, rows = _iter_rows(path)
    descriptions: Dict[str, List[str]] = {}
    for row, text in rows:
        head, _, tail = text.partition(",")
        node = head.strip()
        if not node:
            raise ParseError("missing node id", source, row)
        if node in descriptions:
            raise ParseError(f"duplicate description for node {node!r}", source, row)
        descriptions[node] = [w.strip() for w in tail.split(";") if w.strip()]

    if stream is not None:
        extra = sorted(set(descriptions) - set(stream.nodes))
        missing = sorted(set(stream.nodes) - set(descriptions))
        if extra:
            log.warning("attribute rows for %d node(s) absent from the stream: %s",
                        len(extra), ", ".join(extra[:5]))
        if missing:
            log.warning("%d stream node(s) without attributes get the empty description: %s",
                        len(missing), ", ".join(missing[:5]))
    return _context(descriptions)


def _context(descriptions: Mapping[str, Iterable[str]]) -> AttributeContext:
    """Context over the items of `descriptions`, in first-appearance order."""
    universe = ItemUniverse(dict.fromkeys(
        name for names in descriptions.values() for name in names
    ))
    return AttributeContext(
        universe, {v: universe.mask_of(names) for v, names in descriptions.items()}
    )


def write_attributes(ctx: AttributeContext, path: Union[str, Path]) -> None:
    """Write `node,item1;item2;...` rows, which `read_attributes` reads back as `ctx`.

    Nodes are written in sorted order, each with its items in the
    universe's order. A node name that no row can hold (see
    `_comma_nodes`) or that starts with `#` (a comment) or a byte-order
    mark (dropped at the start of a file), and an item name that is
    empty, holds `;`, `,` or a line break, or has whitespace at either
    end, are a ValueError naming the name, raised before the file is
    opened.
    """
    lines = []
    for node in sorted(ctx.nodes()):
        text = _row_name(node, "node", ",")
        if text.startswith(("#", "\ufeff")):
            raise ValueError(f"node name {node!r} cannot be written to a row")
        names = [_row_name(item, "item", ";,")
                 for item in ctx.universe.items_of(ctx.description(node))]
        lines.append(f"{text},{';'.join(names)}")
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def read_highschool_context(
    *,
    metadata: Optional[Union[str, Path]] = None,
    contacts: Optional[Union[str, Path]] = None,
    facebook: Optional[Union[str, Path]] = None,
    declared: Optional[Union[str, Path]] = None,
    diaries: Optional[Union[str, Path]] = None,
    stream: Optional[StreamGraph] = None,
) -> AttributeContext:
    """Assemble student descriptions from the face-to-face study files.

    Produces items `C_<class>` and `G_<gender>` from the metadata table
    (tab-separated `id class gender`), `F_<id>` per Facebook friend,
    `D_<id>` per declared friend, and `M_<id>` per diary contact. Class
    items can also be recovered from the contact rows themselves. A row
    with a wrong field count, an empty node name or an empty class is a
    ParseError naming its line; a metadata or contacts row that holds a
    tab is cut at each tab, so `650\\t\\tF` has an empty class.
    """
    tags: Dict[str, Dict[str, None]] = {}  # each node's items, as an ordered set

    def add(node: str, item: str) -> None:
        tags.setdefault(node, {})[item] = None

    if metadata is not None:
        rows = _fields(metadata, 2, {0: "node name", 1: "class"}, at_least=True, tabs=True)
        for _, _, (node, group, *rest) in rows:
            add(node, f"C_{group}")
            if rest and rest[0] not in ("", "Unknown"):
                add(node, f"G_{rest[0]}")
    if contacts is not None:
        rows = _fields(contacts, 5, {1: "node name", 2: "node name", 3: "class", 4: "class"},
                       tabs=True)
        for _, _, (_, i, j, ci, cj) in rows:
            add(i, f"C_{ci}")
            add(j, f"C_{cj}")
    for prefix, path in (("F", facebook), ("D", declared), ("M", diaries)):
        if path is None:
            continue
        for _, _, (u, v, *_) in _fields(path, 2, {0: "node name", 1: "node name"}, at_least=True):
            add(u, f"{prefix}_{v}")
            if prefix == "F":
                add(v, f"{prefix}_{u}")  # Facebook friendship is mutual

    if stream is not None:
        missing = sorted(set(stream.nodes) - set(tags))
        if missing:
            log.warning("%d stream node(s) without metadata get the empty description",
                        len(missing))
    return _context(tags)
