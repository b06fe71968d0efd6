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

Every file reader, `mining.read_patterns` too, takes a path and its
rows from `_iter_rows`, which reads the file's bytes as they are
iterated (`_chunks`), decodes them once (`_decode`, a leading byte-order
mark dropped), numbers the lines in the same pass as `str.splitlines`
cuts them, and skips blank and comment lines (`_numbered`).
`read_link_stream` reads the same chunks into one per-pair accumulator
(`_Records`), which `ingest_link_stream` drives and hands to
`StreamGraph`; no record outlives its chunk. A chunk is plain when the
width is known (from the format, or for "auto" from the file's first
row), it has no `#`, no `,` and no line break other than `\\n`, and each
of its lines holds exactly that many fields. A plain chunk is parsed
whole into columns: one split, each column a stride slice, each
distinct timestamp text parsed once with `to_ticks`, and its records
checked column-wise for an undirected self-loop or an empty interval.
Every other chunk, and a plain chunk whose checks fail, is parsed row
by row into the same columns, so errors, their lines and their order
are those of a row-by-row reader. Either way the chunk's records are
grouped by pair, both orientations of an undirected pair in one group;
a group's instants become spans `[t - delta, t)`, and its merged spans
are merged into the pair's. A pair whose spans arrive out of time order
across chunks is merged each time its span list has doubled since it
was last in order, and once more when the file ends, so a shuffled
file holds about as many spans per pair as a sorted one; `StreamGraph`
takes each pair's canonical `IntervalSet` as it is. Each node name is
kept as one string object. A row that cannot be parsed (column count,
timestamp, empty node name) raises at once; the first self-loop or
empty interval is raised once the whole file has parsed, so a later
row that cannot be parsed is reported first, as if every row had been
parsed before any record was checked. Errors name the file line.

Every file the package writes is opened by `open_output`, which makes
the output a new file rather than truncating the old one in place. The
stream and presence writers write a row naming a node whose name holds
whitespace as a comma row. They and the attribute writer refuse a name
that no row can hold, before the file is opened.
"""

from __future__ import annotations

import logging
import operator
import os
import stat
from functools import partial
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple,
                    Union)

from .context import AttributeContext, ItemUniverse
from .intervals import IntervalSet, Span, _merge
from .stream import StreamGraph

log = logging.getLogger(__name__)

# columns per row of each link-stream format
FORMAT_WIDTHS = {"triples": 3, "quadruples": 4, "contacts": 5}

_CHUNK_BYTES = 1 << 16

# the default limit of Python's own int() on decimal text; it also keeps
# an exponent such as 1e999999999 from building a huge integer
MAX_TIMESTAMP_DIGITS = 4300


class ParseError(ValueError):
    """Malformed input with file/row context."""

    def __init__(self, message: str, source: str = "", row: int = 0):
        place = f"{source}:{row}" if source and row else source or f"row {row}"
        super().__init__(f"{place}: {message}")
        self.message = message
        self.source = source
        self.row = row


def _iter_rows(path: Union[str, Path]) -> Tuple[str, Iterator[Tuple[int, str]]]:
    """(source, rows): the numbered rows of the file at `path`, blank and `#` lines skipped.

    The file is opened when the rows are first iterated and read by
    `_chunks`, so a chunk never ends inside a line or a character. Each
    chunk is decoded once by `_decode`, a byte-order mark dropped from
    the first, and cut by `_numbered` where `str.splitlines` cuts, so a
    row ends at every line break it knows (`\\r`, `\\v`, `\\f`,
    `\\x1c`-`\\x1e`, `\\x85`, `\\u2028`, `\\u2029` as well as `\\n`) and
    row numbers count them all. A file whose lines end in a lone `\\r`
    has no b"\\n" to end a chunk at, so it is read as one chunk. Bytes
    that are not UTF-8 raise a ParseError naming their line.
    """
    source = str(path)
    return source, _rows(source)


def _rows(source: str) -> Iterator[Tuple[int, str]]:
    line = 0
    for i, chunk in enumerate(_chunks(source)):
        rows, line = _numbered(_decode(chunk, i == 0, source, line), line)
        yield from rows


def _chunks(source: str) -> Iterator[bytes]:
    """The bytes of the file at `source` in pieces of about `_CHUNK_BYTES`, each ending at b"\\n".

    Only the last piece may end elsewhere, at the end of the file.
    """
    with open(source, "rb") as handle:
        for chunk in iter(partial(handle.read, _CHUNK_BYTES), b""):
            if not chunk.endswith(b"\n"):  # the chunk ends inside a line: finish it
                chunk += handle.readline()
            yield chunk


def _decode(chunk: bytes, first: bool, source: str, line: int) -> str:
    """The text of `chunk`, whose first line follows file line `line`.

    A byte-order mark is dropped at the start of the file (the `first`
    chunk) only. Bytes that are not UTF-8 raise a ParseError naming
    their line.
    """
    try:
        return chunk.decode("utf-8-sig" if first else "utf-8")
    except UnicodeDecodeError as err:
        # err.object is the chunk after any byte-order mark; the sentinel ends its last line
        before = err.object[:err.start].decode("utf-8") + "|"
        raise ParseError(
            f"not UTF-8 text: cannot decode byte 0x{err.object[err.start]:02x}",
            source, line + len(before.splitlines())) from None


def _numbered(text: str, line: int) -> Tuple[Iterator[Tuple[int, str]], int]:
    """(rows, last): the rows of `text`, whose first line is file line `line` + 1, and
    the number of its last line.

    Each row is stripped and numbered by its line; blank and `#` lines
    are skipped.
    """
    lines = text.splitlines()
    rows = ((number, row) for number, row in enumerate(map(str.strip, lines), start=line + 1)
            if row and row[0] != "#")
    return rows, line + len(lines)


def _split(text: str) -> List[str]:
    if "," in text:
        return [f.strip() for f in text.split(",")]
    return text.split()


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

    The file is parsed here, its pairs' spans gathered by `records`, and
    the stream built from them with the given `presence`. `len(records)`
    is then the number of records read.
    """
    return StreamGraph(records.interactions(), presence=presence, directed=records.directed)


class _Records:
    """The records of a link-stream file, gathered into one per-pair accumulator.

    `interactions()` reads the file a chunk at a time. Either producer,
    `_plain_records` for a plain chunk or `_parse_rows` for any other,
    makes the chunk's columns, and `_gather` merges them into each
    pair's spans (see the module docstring). A row that cannot be parsed
    raises a ParseError at once; the first self-loop of an undirected
    stream, or empty interval, is raised once the whole file has parsed.
    `len()` is the number of records read.
    """

    def __init__(self, source: str, width: Optional[int], resolution: int, extension: int,
                 directed: bool):
        self.source = source
        self.directed = directed
        self._width = width
        self._resolution = resolution
        self._extension = extension
        self._count = 0
        self._spans: Dict[Tuple[str, str], List[Span]] = {}  # by oriented pair
        # pairs whose spans are out of time order -> their span count when they went out
        self._unsorted: Dict[Tuple[str, str], int] = {}
        self._names: Dict[str, str] = {}  # one string object per node name
        self._ticks: Dict[str, int] = {}  # and one parse per timestamp text

    def __len__(self) -> int:
        return self._count

    def interactions(self) -> Dict[Tuple[str, str], IntervalSet]:
        """Each pair's canonical spans, keyed by the oriented pair, once the file has parsed."""
        source, width, line, refusal = self.source, self._width, 0, None
        for i, raw in enumerate(_chunks(source)):
            chunk = _decode(raw, i == 0, source, line)
            # for "auto", a plain chunk's first line is the file's first row
            plain = _plain_records(chunk, width or len(chunk.partition("\n")[0].split()),
                                   self._resolution, self.directed, self._ticks)
            if plain is not None:
                width, count, columns = plain
                line += count  # one record a line
            else:
                rows, line = _numbered(chunk, line)
                width, count, columns, refused = self._parse_rows(rows, width)
                refusal = refusal or refused
            self._count += count
            if refusal is None and columns:
                self._gather(columns)
        if refusal is not None:
            raise refusal
        spans_of, unsorted = self._spans, self._unsorted
        return {key: IntervalSet._raw(_merge(spans) if key in unsorted else tuple(spans))
                for key, spans in spans_of.items()}

    def _parse_rows(self, rows: Iterator[Tuple[int, str]], width: Optional[int]
                    ) -> Tuple[int, int, List[tuple], Optional[ParseError]]:
        """(width, count, columns, refusal) of `rows`, parsed one by one.

        Raises the ParseError of a row that cannot be parsed. A row the
        stream refuses is left out of the columns, and the first one
        makes the `refusal`.
        """
        source, ticks = self.source, self._ticks
        records = []
        count, refusal = 0, None
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
                    ticks[stamp] = to_ticks(stamp, self._resolution, source, row)
            u, v = fields[stamps], fields[stamps + 1]
            if not u or not v:
                raise ParseError("empty node name", source, row)
            count += 1
            record = (*map(ticks.__getitem__, fields[:stamps]), u, v)
            if stamps == 2 and record[0] >= record[1]:
                refused = f"empty interval [{record[0]}, {record[1]})"
            elif u == v and not self.directed:
                refused = f"self-interaction on node {u!r}"
            else:
                records.append(record)
                continue
            refusal = refusal or ParseError(refused, source, row)
        return width, count, list(zip(*records)), refusal

    def _gather(self, columns: List[Sequence]) -> None:
        """Merge a chunk's records, given as columns (`*stamps, us, vs`), into each pair's spans."""
        *stamps, us, vs = columns
        instants = len(stamps) == 1
        groups: Dict[Tuple[str, str], list] = {}  # by the pair as written
        for key, value in zip(zip(us, vs), stamps[0] if instants else zip(*stamps)):
            group = groups.get(key)
            if group is None:
                groups[key] = [value]
            else:
                group.append(value)
        if not self.directed:  # both orientations of a pair make one group
            for u, v in [key for key in groups if key[0] > key[1]]:
                group = groups.pop((u, v))
                other = groups.get((v, u))
                if other is None:
                    groups[v, u] = group
                else:
                    other += group
        spans_of, unsorted, names = self._spans, self._unsorted, self._names
        for (u, v), group in groups.items():
            new = (_instant_spans(group, self._extension) if instants
                   else list(_merge(group)))
            spans = spans_of.get((u, v))
            if spans is None:
                spans_of[names.setdefault(u, u), names.setdefault(v, v)] = new
                continue
            b, e = spans[-1]
            first_b, first_e = new[0]
            sorted_count = unsorted.get((u, v))
            if sorted_count is not None or first_b < b or first_e < e:
                # the chunk's spans reach back into the pair's: they are merged
                # once the list has doubled since it was last in order, and
                # once more when the file ends
                if sorted_count is None:
                    sorted_count = unsorted[u, v] = len(spans)
                spans += new
                if len(spans) >= 2 * sorted_count:
                    spans[:] = _merge(spans)
                    del unsorted[u, v]
            elif first_b <= e:  # the chunk's first span extends the pair's last one
                spans[-1] = (b, first_e)
                spans += new[1:]
            else:
                spans += new


def _instant_spans(ticks: List[int], extension: int) -> List[Span]:
    """The canonical spans of the instants `ticks`, each extended to `[t - extension, t)`."""
    ticks.sort()
    spans = []
    e = ticks[0]
    b = e - extension
    for t in ticks:
        if t - extension > e:
            spans.append((b, e))
            b = t - extension
        e = t
    spans.append((b, e))
    return spans


# a plain chunk has no comment, no comma and, besides "\n", none of the line
# breaks of str.splitlines
_NOT_PLAIN = ("#", ",", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e")
_NOT_PLAIN_BEYOND_ASCII = ("\x85", "\u2028", "\u2029")


def _ticks_of(texts: List[str], ticks: Dict[str, int], resolution: int) -> List[int]:
    """The ticks of timestamp `texts`, each text not in the `ticks` cache parsed once and added.

    Raises the ParseError of `to_ticks` for a text it refuses, naming no line.
    """
    for text in set(texts).difference(ticks):
        ticks[text] = to_ticks(text, resolution, "", 0)
    return list(map(ticks.__getitem__, texts))


def _plain_records(text: str, width: int, resolution: int, directed: bool,
                   ticks: Dict[str, int]) -> Optional[Tuple[int, int, List[list]]]:
    """(width, count, columns) of a plain chunk `text` of `width` fields a line, or None.

    A chunk is plain when it has no `#`, no `,` and no line break other
    than `\\n`, and each of its lines holds exactly `width` whitespace-
    separated fields, so it has no blank line and ends at a `\\n`: its
    rows are then what `_numbered` and `_split` would make of it, one
    record a line. The columns are the records' ticks (one column for
    instants, two for intervals) and their two node names. None, where
    the row path must read the chunk: `width` is not a format's, the
    chunk is not plain, `to_ticks` refuses a timestamp, or the stream
    would refuse a record (an undirected self-loop, an empty interval).
    Never raises.
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
        stamps = [_ticks_of(texts, ticks, resolution) for texts in stamps]
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
    source, rows = _iter_rows(path)
    spans: Dict[str, List[Tuple[int, int]]] = {}
    for row, text in rows:
        fields = _split(text)
        if len(fields) != 3:
            raise ParseError(f"expected 3 columns, got {len(fields)}", source, row)
        b, e, v = fields
        if not v:
            raise ParseError("empty node name", source, row)
        bt = to_ticks(b, resolution, source, row)
        et = to_ticks(e, resolution, source, row)
        if bt >= et:
            raise ParseError(f"empty presence interval [{bt}, {et})", source, row)
        spans.setdefault(str(v), []).append((bt, et))
    return {v: IntervalSet(sp) for v, sp in spans.items()}


def open_output(path: Union[str, Path]) -> TextIO:
    """`path` opened for writing text, as a new file.

    A symlink is resolved and its target written. An existing regular
    file there is unlinked and a new one created, so the old file's
    mode and any hard link to it are not kept. Truncating in place
    would make a re-run wait: ext4 with its default `auto_da_alloc`
    starts writing a truncated file back when it is closed, and the
    next truncation of that file waits for the writeback. Renaming a
    new file over the old one flushes it just the same. Any other kind
    of entry, such as a FIFO, is opened as it is.
    """
    real = os.path.realpath(path)
    try:
        if stat.S_ISREG(os.lstat(real).st_mode):
            os.unlink(real)
    except FileNotFoundError:
        pass
    return open(real, "w")


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


def _context(descriptions: Dict[str, List[str]]) -> AttributeContext:
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
    items can also be recovered from the contact rows themselves.
    """
    tags: Dict[str, List[str]] = {}

    def add(node: str, item: str) -> None:
        bucket = tags.setdefault(node, [])
        if item not in bucket:
            bucket.append(item)

    if metadata is not None:
        source, rows = _iter_rows(metadata)
        for row, text in rows:
            fields = _split(text)
            if len(fields) < 2:
                raise ParseError(f"expected at least 2 columns, got {len(fields)}", source, row)
            node = fields[0]
            add(node, f"C_{fields[1]}")
            if len(fields) > 2 and fields[2] not in ("", "Unknown"):
                add(node, f"G_{fields[2]}")
    if contacts is not None:
        source, rows = _iter_rows(contacts)
        for row, text in rows:
            fields = _split(text)
            if len(fields) != 5:
                raise ParseError(f"expected 5 columns, got {len(fields)}", source, row)
            _, i, j, ci, cj = fields
            add(i, f"C_{ci}")
            add(j, f"C_{cj}")
    for prefix, path in (("F", facebook), ("D", declared), ("M", diaries)):
        if path is None:
            continue
        source, rows = _iter_rows(path)
        for row, text in rows:
            fields = _split(text)
            if len(fields) < 2:
                raise ParseError(f"expected at least 2 columns, got {len(fields)}", source, row)
            u, v = fields[0], fields[1]
            add(u, f"{prefix}_{v}")
            if prefix == "F":
                add(v, f"{prefix}_{u}")  # Facebook friendship is mutual

    if stream is not None:
        missing = sorted(set(stream.nodes) - set(tags))
        if missing:
            log.warning("%d stream node(s) without metadata get the empty description",
                        len(missing))
    return _context(tags)
