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
iterated, decodes them once (a leading byte-order mark dropped), numbers
the lines in the same pass as `str.splitlines` cuts them, and skips
blank and comment lines. `read_link_stream` hands `ingest_link_stream`
a one-shot iterable of records (`_Records`): each row is split, its
timestamps parsed with `to_ticks` (each distinct text once) and its
node names shared (one object per name, an empty name refused when it
is first seen) only when the ingest asks for the next record, so no
list of the file's records is ever held. The ingest takes any iterable
of records. It checks each record once (width, empty interval,
self-loop, integer ticks; a non-integer tick is a TypeError) and
merges a pair's spans as they arrive: a span that starts inside or at
the end of the pair's last span extends it. It hands the span lists,
keyed by each pair as written, to `StreamGraph`, which orients the
pairs and canonicalises each pair's spans once. Errors name the file
line. A row that cannot be parsed (column count, timestamp, empty node
name) is reported before a record that fails the ingest's checks on an
earlier line, as if every row had been parsed before any record was
checked.

Every file the package writes is opened by `open_output`, which makes
the output a new file rather than truncating the old one in place.
"""

from __future__ import annotations

import logging
import os
import stat
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, NoReturn, Optional, TextIO, Tuple, Union

from .context import AttributeContext, ItemUniverse
from .intervals import IntervalSet, Span
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

    The file is opened when the rows are first iterated and read in
    binary chunks, each finished at a b"\\n", so a chunk never ends inside
    a line or a character. Each chunk is decoded once, a byte-order
    mark dropped from the first, and cut where `str.splitlines` cuts, so
    a row ends at every line break it knows (`\\r`, `\\v`, `\\f`,
    `\\x1c`-`\\x1e`, `\\x85`, `\\u2028`, `\\u2029` as well as `\\n`) and
    row numbers count them all. A file whose lines end in a lone `\\r`
    has no b"\\n" to end a chunk at, so it is read as one chunk. Bytes
    that are not UTF-8 raise a ParseError naming their line.
    """
    source = str(path)
    return source, _rows(source)


def _rows(source: str) -> Iterator[Tuple[int, str]]:
    line = 0
    encoding = "utf-8-sig"  # a byte-order mark is dropped at the start of the file only
    with open(source, "rb") as handle:
        for chunk in iter(partial(handle.read, _CHUNK_BYTES), b""):
            if not chunk.endswith(b"\n"):  # the chunk ends inside a line: finish it
                chunk += handle.readline()
            try:
                lines = chunk.decode(encoding).splitlines()
            except UnicodeDecodeError as err:
                # err.object is the chunk after any byte-order mark; the sentinel ends its last line
                before = err.object[:err.start].decode("utf-8") + "|"
                raise ParseError(
                    f"not UTF-8 text: cannot decode byte 0x{err.object[err.start]:02x}",
                    source, line + len(before.splitlines())) from None
            encoding = "utf-8"
            for line, text in enumerate(lines, start=line + 1):
                text = text.strip()
                if text and text[0] != "#":
                    yield line, text


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


def ingest_link_stream(
    records: Iterable[Tuple],
    instant_extension: int = 20,
    *,
    directed: bool = False,
    presence: Optional[Mapping[str, IntervalSet]] = None,
    source: str = "",
) -> StreamGraph:
    """Build a stream from (t, u, v) triples and/or (b, e, u, v) quadruples.

    `records` is any iterable, read once. Times are integer ticks here;
    anything else is a TypeError. A triple contributes the interval
    [t - instant_extension, t), so back-to-back contacts merge into one
    interval. Quadruples are taken as written. Node names are taken as
    given, not converted to `str`: records naming the node 1 and the
    node "1" raise a TypeError that names the two (StreamGraph cannot
    order them) instead of meeting as one node. Errors name the
    record's position in `records` as its row, or the `line` that
    `records` is on when it keeps one, as the records that
    `read_link_stream` hands over do.
    """
    spans_of: Dict[Tuple, List[Span]] = {}  # by the pair as written
    for i, rec in enumerate(records, start=1):
        if len(rec) == 3:
            e, u, v = rec
            if instant_extension <= 0:
                _refuse("instant records need a positive extension", source, records, i)
            b = e - instant_extension
        elif len(rec) == 4:
            b, e, u, v = rec
            if b >= e:
                _refuse(f"empty interval [{b}, {e})", source, records, i)
        else:
            _refuse(f"expected 3 or 4 fields, got {len(rec)}", source, records, i)
        if u == v and not directed:
            _refuse(f"self-interaction on node {u!r}", source, records, i)
        # checked here, not left to StreamGraph: extending a span below drops endpoints
        if not isinstance(b, int) or not isinstance(e, int):
            raise TypeError(f"interval endpoints must be integers, got ({b!r}, {e!r})")
        key = (u, v)
        spans = spans_of.get(key)
        if spans is None:
            spans_of[key] = [(b, e)]
            continue
        # rows of a pair mostly arrive in time order: a span that starts
        # inside or at the end of the pair's last one extends it
        last_b, last_e = spans[-1]
        if last_b <= b <= last_e:
            if e > last_e:
                spans[-1] = (last_b, e)
        else:
            spans.append((b, e))
    return StreamGraph(spans_of, presence=presence, directed=directed)


def _refuse(message: str, source: str, records: Iterable[Tuple], position: int) -> NoReturn:
    raise ParseError(message, source, getattr(records, "line", position))


class _Records:
    """The records of a link-stream file's rows, parsed as they are iterated.

    One-shot: each iteration goes on where the last one stopped. `line`
    is the file line of the record handed out last, and `len()` the
    number of records read once the rows are used up. A row that cannot
    be parsed raises ParseError and ends the records.
    """

    def __init__(self, rows: Iterator[Tuple[int, str]], width: Optional[int],
                 resolution: int, source: str):
        self.line = 0
        self._count = 0
        self._records = self._parse(rows, width, resolution, source)

    def __iter__(self) -> Iterator[Tuple]:
        return self._records

    def __len__(self) -> int:
        return self._count

    def _parse(self, rows, width, resolution, source) -> Iterator[Tuple]:
        names: Dict[str, str] = {}  # one string object per node name
        ticks: Dict[str, int] = {}  # and per timestamp text
        name = names.get

        def new_name(text: str) -> str:  # only a name's first row pays for its check
            if not text:
                raise ParseError("empty node name", source, self.line)
            names[text] = text
            return text

        count = 0
        for row, text in rows:
            self.line = row
            fields = _split(text)
            if width is None:  # "auto" takes the width of the first row
                width = len(fields)
                if width not in FORMAT_WIDTHS.values():
                    raise ParseError(f"cannot infer format from {width} columns", source, row)
            if len(fields) != width:
                raise ParseError(f"expected {width} columns, got {len(fields)}", source, row)
            # exports sit on a time grid, so a timestamp text recurs: parse it once
            t = ticks.get(fields[0])
            if t is None:
                t = ticks[fields[0]] = to_ticks(fields[0], resolution, source, row)
            count += 1
            if width == 4:
                e = ticks.get(fields[1])
                if e is None:
                    e = ticks[fields[1]] = to_ticks(fields[1], resolution, source, row)
                u, v = fields[2], fields[3]
                yield t, e, name(u) or new_name(u), name(v) or new_name(v)
            else:  # an instant contact; the class columns of the contacts format are skipped
                u, v = fields[1], fields[2]
                yield t, name(u) or new_name(u), name(v) or new_name(v)
        self._count = count


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
    `extension_ticks`).
    """
    delta = extension_ticks(instant_extension_seconds, resolution, fmt)
    source, rows = _iter_rows(path)
    records = _Records(rows, FORMAT_WIDTHS.get(fmt), resolution, source)
    try:
        return ingest_link_stream(records, delta, directed=directed, presence=presence,
                                  source=source)
    except ParseError as err:
        failure = err
    # a row further down that cannot be parsed is reported first
    for _ in records:
        pass
    raise failure


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


def write_link_stream(stream: StreamGraph, path: Union[str, Path]) -> None:
    """Write canonical quadruple rows `b e u v` in tick units.

    Rows are ordered by pair then interval start, so re-ingesting at
    resolution 1 reproduces the stream.
    """
    lines = ["# b e u v (ticks)"]
    for (u, v), ivs in stream.interaction_items():
        for a, b in ivs.spans:
            lines.append(f"{a} {b} {u} {v}")
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def write_presence(stream: StreamGraph, path: Union[str, Path]) -> None:
    lines = ["# b e v (ticks)"]
    for v in stream.nodes:
        for a, b in stream.presence(v).spans:
            lines.append(f"{a} {b} {v}")
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
    lines = []
    for node in sorted(ctx.nodes()):
        names = ctx.universe.items_of(ctx.description(node))
        lines.append(f"{node},{';'.join(names)}")
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
