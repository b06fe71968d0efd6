"""The pattern-file format and the row reader that every file reader uses.

This is the whole file layer that `select` and `inspect` load: it
imports only `intervals` and `stream`, so neither command loads the
miner, the cores, the attribute context, the link-stream reader
(`dataio`) or `logging`.

Every file reader, `read_patterns` among them, takes a path and its
rows from `_iter_rows`, which reads the file's bytes as they are
iterated (`_chunks`), decodes them once (`_decode`, a leading
byte-order mark dropped), numbers the lines in the same pass as
`str.splitlines` cuts them, and skips blank and comment lines
(`_numbered`). `dataio`'s link-stream reader takes the same chunks, and
decodes and cuts them with the same two functions. A malformed row is a
`ParseError` naming its file and line.

A pattern file holds one JSON object per line, one closed pattern
record (`ClosedPatternRecord`) each, written by `write_patterns` and
read back, checked and never repaired, by `read_patterns`. Every file
the package writes is opened by `open_output`, which makes the output
a new file rather than truncating the old one in place.

The option values that the command-line parser offers for the mining
commands live here too (`FORMAT_WIDTHS`, `SUPPORT_MEASURES`), so that
building the parser loads neither `dataio` nor `mining`, which check
them.
"""

from __future__ import annotations

import json
import os
import stat
from functools import partial
from json.encoder import encode_basestring_ascii as _quoted  # json.dumps' string encoder
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple, Union

from .intervals import IntervalSet
from .stream import TimeNodeSet

# columns per row of each link-stream format (`dataio.read_link_stream`)
FORMAT_WIDTHS = {"triples": 3, "quadruples": 4, "contacts": 5}

# what a miner's threshold counts in a support (`mining.MinerConfig`):
# node-ticks, or distinct nodes
SUPPORT_MEASURES = ("duration", "nodes")

# a piece's token strings sit on top of the stream that is being built: in
# 64 KiB pieces, reading the seed-1 hs stream peaks at 4.6 MB traced, not 3.8
_CHUNK_BYTES = 1 << 14


class ParseError(ValueError):
    """Malformed input with file/row context."""

    def __init__(self, message: str, source: str = "", row: int = 0):
        place = f"{source}:{row}" if source and row else source or f"row {row}"
        super().__init__(f"{place}: {message}")
        self.message = message
        self.source = source
        self.row = row


# -- the row reader -----------------------------------------------------------


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


# -- pattern files ------------------------------------------------------------


class ClosedPatternRecord:
    def __init__(self, items: Tuple[str, ...], support: TimeNodeSet, mask: Optional[int] = None,
                 depth: int = 0, below_min_support: bool = False) -> None:
        self.items = items  # universe order
        self.support = support
        self.support_measure = support.measure()  # node-ticks
        self.node_count = support.node_count()
        self.mask = mask  # the intent as a `context.Pattern`; a read record has none
        self.depth = depth
        self.below_min_support = below_min_support


_PATTERN_FIELDS = {"intent", "support", "support_measure", "node_count", "below_min_support"}

# the most spans that one piece of a record's support holds: about 25 KB of text
_PIECE_SPANS = 1024

# `json.dumps` with its default settings but no circular-reference check: a
# support is a dict of tuples of int pairs, acyclic by construction
_dumps = json.JSONEncoder(check_circular=False).encode


def _support_pieces(support: TimeNodeSet) -> Iterator[str]:
    """The JSON text of `support` without its braces, in pieces to be joined by ", ".

    Each piece is the JSON text (`_dumps`) of the next nodes, holding at most
    `_PIECE_SPANS` spans in all, with its braces stripped. A node with
    more spans than that is cut into slices of its span list: its key
    with the first slice, then each later slice without its brackets,
    the last one closing the list.
    """
    piece, room = {}, _PIECE_SPANS
    for v, ivs in support.items():
        spans = ivs.spans
        if len(spans) > room:
            if piece:
                yield _dumps(piece)[1:-1]
                piece, room = {}, _PIECE_SPANS
            if len(spans) > room:
                yield _dumps({v: spans[:_PIECE_SPANS]})[1:-2]
                for i in range(_PIECE_SPANS, len(spans), _PIECE_SPANS):
                    text = _dumps(spans[i:i + _PIECE_SPANS])
                    yield text[1:] if i + _PIECE_SPANS >= len(spans) else text[1:-1]
                continue
        piece[v] = spans  # tuples dump as arrays
        room -= len(spans)
    if piece:
        yield _dumps(piece)[1:-1]


def write_patterns(records: Sequence[ClosedPatternRecord], path: Union[str, Path]) -> None:
    """One JSON object per line, fields in a fixed order, each line break escaped.

    A line holds the bytes of one `json.dumps` of the record's fields,
    but it is written piece by piece: the fixed fields around the
    support, and the support in pieces of at most `_PIECE_SPANS` spans
    (`_support_pieces`), so no whole line is held, however large the
    support. The intent's items are quoted by the string encoder that
    `json.dumps` uses, and the first piece goes out with them, so a
    small record costs one encoder call.
    """
    with open_output(path) as handle:
        write = handle.write
        for rec in records:
            pieces = _support_pieces(rec.support)
            write('{"intent": [%s], "support": {%s' % (", ".join(map(_quoted, rec.items)),
                                                        next(pieces, "")))
            for piece in pieces:
                write(", ")
                write(piece)
            write('}, "support_measure": %d, "node_count": %d%s}\n' % (
                rec.support_measure, rec.node_count,
                ', "below_min_support": true' if rec.below_min_support else ""))


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """The JSON object of `pairs`, the `object_pairs_hook` of every JSON decoder here and in `cli`.

    A repeated key, whose last value `json.loads` alone keeps, is a ValueError naming it.
    """
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _typed(value, kind: type, name: str):
    """`value` itself when its type is exactly `kind` (so a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return value


def _node_support(node: str, spans) -> IntervalSet:
    """One node's span list as `write_patterns` writes it, checked in one pass.

    The spans must be [start, end] integer pairs, nonempty, sorted,
    disjoint and non-touching, and there must be at least one: a list
    that canonicalisation would change is refused, not repaired.
    """
    _typed(spans, list, f"spans of node {node!r}")
    if not spans:
        raise ValueError(f"node {node!r} has no spans")
    out = []
    end = None
    for span in spans:
        if type(span) is not list or len(span) != 2:
            raise ValueError(f"span of node {node!r} must be a [start, end] pair, got {span!r}")
        a, b = span
        if type(a) is not int or type(b) is not int:
            _typed(a, int, "span start")
            _typed(b, int, "span end")
        if a >= b:
            raise ValueError(f"empty span [{a}, {b}) of node {node!r}")
        if end is not None and a <= end:
            raise ValueError(f"span [{a}, {b}) of node {node!r} does not start after "
                             f"the end {end} of the span before it")
        out.append((a, b))
        end = b
    return IntervalSet._raw(tuple(out))


def read_patterns(path: Union[str, Path]) -> List[ClosedPatternRecord]:
    """Records written by `write_patterns`.

    A malformed record, one whose stated `support_measure` or
    `node_count` disagrees with its support, or one with an empty
    support that is not flagged `below_min_support`, raises a
    `ParseError`. Values are checked, never coerced or repaired: an
    intent must be a list of strings, the support an object of canonical
    span lists (see `_node_support`), every number a plain integer, and
    every key one that `write_patterns` writes, none of them repeated in
    its object. Rows are cut as `_iter_rows` cuts any input file; a line
    that is not UTF-8 raises a ParseError.
    """
    records = []
    # one decoder for the file: `json.loads` with a hook builds one per call
    decode = json.JSONDecoder(object_pairs_hook=_unique_keys).decode
    source, rows = _iter_rows(path)
    for i, line in rows:
        try:
            if line[:1] == "\ufeff":  # the check `json.loads` makes and `decode` does not
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj = decode(line)
            unknown = _typed(obj, dict, "record").keys() - _PATTERN_FIELDS
            if unknown:
                raise ValueError(f"unknown fields {sorted(unknown)}")
            items = tuple(_typed(obj["intent"], list, "intent"))
            for item in items:
                _typed(item, str, "intent item")
            if len(set(items)) < len(items):
                raise ValueError(f"intent {list(items)} repeats an item")
            support = TimeNodeSet._raw({
                v: _node_support(v, spans)
                for v, spans in _typed(obj["support"], dict, "support").items()
            })
            measure = _typed(obj["support_measure"], int, "support_measure")
            node_count = _typed(obj["node_count"], int, "node_count")
            rec = ClosedPatternRecord(items, support, below_min_support=_typed(
                obj.get("below_min_support", False), bool, "below_min_support"))
            # mine flags every empty support: min_support is at least 1
            if not support and not rec.below_min_support:
                raise ValueError("an empty support must be flagged below_min_support")
            if measure != rec.support_measure:
                raise ValueError(f"support_measure {measure} but the "
                                 f"support covers {rec.support_measure} node-ticks")
            if node_count != rec.node_count:
                raise ValueError(f"node_count {node_count} but the "
                                 f"support has {rec.node_count} nodes")
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"bad pattern record: {err}", source, i) from None
        records.append(rec)
    return records
