import logging
import os
import re
import stat
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from streamcores import (AttributeContext, IntervalSet, ItemUniverse, MinerConfig, StreamGraph,
                         dataio, mine, write_patterns)
from streamcores.dataio import (
    ParseError,
    read_attributes,
    read_highschool_context,
    read_link_stream,
    read_presence,
    to_ticks,
    write_attributes,
    write_link_stream,
    write_presence,
)
from streamcores.toys import star_toy_stream

import random
from helpers import random_stream, write_lines
from oracle import reference_read_link_stream


class TestIngest:
    """What the reader builds from small files, row for row as the reference builds it."""

    @staticmethod
    def _read(tmp_path, rows, **options):
        path = write_lines(tmp_path / "s.txt", rows)
        got = read_link_stream(path, **options)
        assert _outcome(read_link_stream, path, **options) == _outcome(
            reference_read_link_stream, path, **options)
        return got

    def test_consecutive_instants_merge(self, tmp_path):
        s = self._read(tmp_path, ["20 a b", "40 a b"], fmt="triples")
        assert s.adjacency("a")["b"] == IntervalSet.span(0, 40)

    def test_empty_input(self, tmp_path):
        assert self._read(tmp_path, []).nodes == ()
        assert self._read(tmp_path, ["# only a comment", ""]).nodes == ()

    def test_quadruples_taken_verbatim(self, tmp_path):
        s = self._read(tmp_path, ["1 3 a b", "7 8 a b"])
        assert s.adjacency("a")["b"] == IntervalSet([(1, 3), (7, 8)])

    def test_self_loop_rejected_when_undirected(self, tmp_path):
        with pytest.raises(ParseError, match="s.txt:1: self-interaction on node 'a'"):
            self._read(tmp_path, ["5 a a"], fmt="triples", instant_extension_seconds=5)
        s = self._read(tmp_path, ["0 2 a a"], directed=True)
        assert s.adjacency("a")["a"] == IntervalSet.span(0, 2)

    def test_bad_record_width_reports_row(self, tmp_path):
        with pytest.raises(ParseError, match="s.txt:2: expected 4 columns, got 5"):
            self._read(tmp_path, ["0 2 a b", "1 2 3 a b"])


class TestToTicks:
    def test_integral_seconds(self):
        assert to_ticks("40", 1, "", 1) == 40
        assert to_ticks("2.5", 2, "", 1) == 5

    def test_off_grid_rejected(self):
        with pytest.raises(ParseError, match="not representable"):
            to_ticks("2.3", 2, "", 1)

    @pytest.mark.parametrize("value", [
        "1385982020.5",  # epoch seconds, past where a float tolerance can see half a tick
        "12345678901234567890123456789.5",  # beyond Decimal's 28-digit context
        "1e-999999999",
    ])
    def test_off_grid_rejected_at_any_magnitude(self, value):
        with pytest.raises(ParseError, match="not representable"):
            to_ticks(value, 1, "", 1)

    def test_exact_at_any_magnitude(self):
        assert to_ticks("1385982020", 1, "", 1) == 1385982020
        assert to_ticks("1385982020.5", 2, "", 1) == 2771964041
        assert to_ticks("12345678901234567890123456789.5", 2, "", 1) == (
            24691357802469135780246913579
        )
        assert to_ticks("1.5e1", 1, "", 1) == 15
        assert to_ticks("-2.5", 2, "", 1) == -5
        assert to_ticks("0e-999999999", 1, "", 1) == 0
        assert to_ticks(2.5, 2, "", 1) == 5

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "Infinity", float("nan")],
                             ids=["inf", "-inf", "nan", "Infinity", "float-nan"])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ParseError, match="not finite"):
            to_ticks(value, 1, "", 1)

    @pytest.mark.parametrize("value", ["1e999999999", "1." + "0" * 5000], ids=["exp", "long"])
    def test_too_many_digits_rejected(self, value):
        with pytest.raises(ParseError, match="digits"):
            to_ticks(value, 1, "", 1)

    def test_bad_text_rejected(self):
        # int() and Decimal() accept digit-group underscores and non-ASCII digits
        for value in ["1/2", "+4_0", "\u0663\u0660", "4_0.5", "\u0663\u0660.5", "1_0e1"]:
            with pytest.raises(ParseError, match="bad timestamp"):
                to_ticks(value, 2, "", 1)


class TestReadLinkStream:
    def test_triples_with_comments(self, tmp_path):
        path = write_lines(tmp_path / "s.txt", ["# contacts", "20 a b", "40 a b"])
        s = read_link_stream(path, fmt="triples")
        assert s.adjacency("a")["b"] == IntervalSet.span(0, 40)

    def test_comma_separated(self, tmp_path):
        s = read_link_stream(write_lines(tmp_path / "s.csv", ["1,3,a,b"]), fmt="quadruples")
        assert s.adjacency("a")["b"] == IntervalSet.span(1, 3)

    def test_auto_detects_by_column_count(self, tmp_path):
        quadruples = write_lines(tmp_path / "q.txt", ["1 3 a b"])
        triples = write_lines(tmp_path / "t.txt", ["40 a b"])
        assert read_link_stream(quadruples).adjacency("a")["b"] == IntervalSet.span(1, 3)
        assert read_link_stream(triples).adjacency("a")["b"] == IntervalSet.span(20, 40)

    def test_contact_rows_ignore_class_columns(self, tmp_path):
        path = write_lines(tmp_path / "c.tsv", ["100\t7\t9\t2BIO1\tMP", "120\t7\t9\t2BIO1\tMP"])
        s = read_link_stream(path)
        assert s.adjacency("7")["9"] == IntervalSet.span(80, 120)

    def test_resolution_scales_extension(self, tmp_path):
        s = read_link_stream(write_lines(tmp_path / "s.txt", ["2 a b"]), fmt="triples",
                             resolution=10, instant_extension_seconds=0.5)
        assert s.adjacency("a")["b"] == IntervalSet.span(15, 20)

    @pytest.mark.parametrize("delta", [20.4, float("inf"), float("nan")])
    def test_extension_must_be_whole_ticks(self, tmp_path, delta):
        # a configuration error, not an input error: never ParseError
        with pytest.raises(ValueError, match="instant extension") as err:
            read_link_stream(write_lines(tmp_path / "s.txt", ["40 a b"]),
                             instant_extension_seconds=delta)
        assert not isinstance(err.value, ParseError)

    @pytest.mark.parametrize("read, options", [
        (read_link_stream, {"fmt": "triples"}),
        (read_link_stream, {"fmt": "quadruples"}),
        (reference_read_link_stream, {"fmt": "quadruples"}),
        (read_presence, {}),
    ])
    @pytest.mark.parametrize("resolution", [0, -2])
    def test_resolution_must_be_positive(self, tmp_path, read, options, resolution):
        # a configuration error about the resolution, raised before any row is
        # read: the file does not exist, so reading it would be an OSError
        with pytest.raises(ValueError, match="resolution must be a positive") as err:
            read(tmp_path / "missing.txt", resolution=resolution, **options)
        assert not isinstance(err.value, ParseError)

    def test_malformed_row_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1 3 a b\nbogus row here nope nope nope\n")
        with pytest.raises(ParseError, match="bad.csv:2"):
            read_link_stream(path)

    @pytest.mark.parametrize("read", [read_link_stream, reference_read_link_stream])
    @pytest.mark.parametrize("text, error", [
        ("# t u v\n\n20 a b\n40 a a\n", "bad.txt:4: self-interaction"),
        ("0 5 a b\n# x\n1 1 a b\n", "bad.txt:3: empty interval"),
    ], ids=["selfloop", "empty"])
    def test_ingest_errors_name_the_file_line(self, tmp_path, read, text, error):
        # comment and blank lines before the bad row still count
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=error):
            read(path)

    @pytest.mark.parametrize("read, rows, row", [
        (read_link_stream, ["20,,b", "40,a,b"], 1),
        (reference_read_link_stream, ["20,,b", "40,a,b"], 1),
        (read_link_stream, ["0,5,a,b", "1,6,a,"], 2),
        (reference_read_link_stream, ["0,5,a,b", "1,6,a,"], 2),
        (read_presence, ["0,5,a", "0,5,"], 2),
    ])
    def test_an_empty_node_name_is_refused(self, tmp_path, read, rows, row):
        path = write_lines(tmp_path / "rows.csv", rows)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{row}: empty node name$"):
            read(path)

    def test_wrong_column_count_after_first_row(self, tmp_path):
        with pytest.raises(ParseError, match="s.txt:2: expected 4 columns"):
            read_link_stream(write_lines(tmp_path / "s.txt", ["1 3 a b", "4 a b"]))

    def test_a_file_that_is_not_utf8_is_opened_once(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xef\xbb\xbf0 1 a b\n1 2 \xe2\x80a b\n")
        with mock.patch("builtins.open", wraps=open) as opened:
            with pytest.raises(ParseError, match="bad.txt:2: not UTF-8 text: .* byte 0xe2$"):
                read_link_stream(path)
        assert opened.call_count == 1


def _outcome(read, data, **kwargs):
    """What a reader makes of `data`: the stream's parts, or the error it raises."""
    try:
        s = read(data, **kwargs)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    return dict(s.interaction_items()), {v: s.presence(v) for v in s.nodes}, s.nodes, s.directed


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:  # line breaks as given
        handle.write(text)


# the line breaks of str.splitlines; "\r" and "\r\n" also end a row in text mode
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]

_names = st.sampled_from(["a", "b", "c", "d"])
_grid_stamps = st.integers(-3, 60).map(str)
_odd_stamps = st.sampled_from(["2.5", "3.0", "1e1", "0.05", "+7", "nan", "x", "1_0"])
_separators = st.sampled_from([" ", "\t", "  ", ",", " , "])


@st.composite
def _rows(draw, width=None, stamps=st.one_of(_grid_stamps, _grid_stamps, _odd_stamps)):
    """One row of any kind, or a well-formed row of `width` columns."""
    if width is None:
        kind = draw(st.sampled_from(["triple", "quad", "quad", "contact",
                                     "comment", "blank", "short", "gap"]))
    else:
        kind = {3: "triple", 4: "quad", 5: "contact"}[width]
    if kind == "comment":
        return "# " + draw(st.text("ab ,#", max_size=4))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "gap":  # a comma row with one field empty, a node name at times
        fields = [draw(_grid_stamps), draw(_names), draw(_names)]
        if draw(st.booleans()):  # a quadruple
            fields.insert(1, str(int(fields[0]) + draw(st.integers(1, 12))))
        fields[draw(st.integers(0, len(fields) - 1))] = ""
        return draw(st.sampled_from([",", " , "])).join(fields)
    u = draw(_names)
    v = draw(_names if width is None else _names.filter(lambda v: v != u))
    if kind == "triple":
        fields = [draw(stamps), u, v]
    elif kind == "contact":
        fields = [draw(stamps), u, v, "C1", "C2"]
    elif kind == "short":
        fields = [draw(stamps), u]
    else:
        b = draw(st.integers(0, 50))
        e = b + draw(st.integers(-2, 12) if width is None else st.integers(1, 12))
        fields = [draw(stamps), str(e), u, v] if width is None else [str(b), str(e), u, v]
    return draw(_separators).join(fields)


_FORMATS = {3: "triples", 4: "quadruples", 5: "contacts"}


@st.composite
def _cases(draw):
    """(rows, reader options): mostly well-formed rows of one width, at times one bad row.

    Pairs of a few nodes over a short time, so rows repeat, touch, overlap
    and arrive out of order, in both orientations of a pair.
    """
    width = draw(st.sampled_from([3, 4, 5]))
    if draw(st.integers(0, 4)) == 0:
        lines = draw(st.lists(_rows(), max_size=14))
    else:
        lines = draw(st.lists(_rows(width, _grid_stamps), max_size=40))
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(_rows()))
        # skipped lines shift the line numbers that errors must name
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# x", ""])))
    options = draw(st.fixed_dictionaries({
        "fmt": st.sampled_from(["auto", "auto", _FORMATS[width], _FORMATS[width], "triples"]),
        "resolution": st.sampled_from([1, 1, 2, 10]),
        "instant_extension_seconds": st.sampled_from([20.0, 20, 5, 5, 2.5, 0]),
        "directed": st.booleans(),
        "presence": st.sampled_from([None, None, None,
                                     {v: IntervalSet.span(-1000, 1000) for v in "abc"}]),
    }))
    return lines, options


@st.composite
def _plain_cases(draw):
    """(text, reader options, fault count): rows of one width, each ended by a `\\n`,
    with at most two faults.

    A fault is a row that the reader or the ingest refuses, or that is no
    plain row: a self-loop, an empty interval, a timestamp off the grid or
    not a number (a start or an end), a short row, a field moved to the
    next row, a `#` line, a blank line, a comma row, a `\\v` or `\\u2028`
    inside a row, or no final `\\n`.
    """
    width = draw(st.sampled_from([3, 4, 5]))
    names = draw(st.sampled_from(["abcd", "1234"]))  # numbers, as in the contacts export
    rows = []
    for _ in range(draw(st.integers(1, 60))):
        u, v = draw(st.permutations(names))[:2]
        t = draw(st.integers(-3, 60))
        fields = {3: [t, u, v], 4: [t, t + draw(st.integers(1, 12)), u, v],
                  5: [t, u, v, "C1", "C2"]}[width]
        rows.append(list(map(str, fields)))
    first_name = 2 if width == 4 else 1  # its column
    kinds = ["self-loop", "off-grid", "bad", "short", "field moved", "comment", "blank", "comma",
             "\v", "\u2028", "no final break"] + (["empty", "bad end"] if width == 4 else [])
    faults = draw(st.lists(st.sampled_from(kinds), max_size=2))
    separator = {i: draw(st.sampled_from([" ", "\t", "  ", " \t"])) for i in range(len(rows))}
    inserted = []
    for kind in faults:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if kind == "self-loop":
            row[first_name + 1] = row[first_name]
        elif kind == "empty":
            row[1] = str(int(row[0]) - draw(st.integers(0, 3)))
        elif kind in ("off-grid", "bad"):
            row[0] = "0.05" if kind == "off-grid" else "x"
        elif kind == "bad end":
            row[1] = "y"
        elif kind == "short":
            del row[-1]
        elif kind == "field moved" and i + 1 < len(rows):
            rows[i + 1].append(row.pop())  # a short row, then a long one: the count adds up
        elif kind in ("comment", "blank"):
            inserted.append((i, "# x" if kind == "comment" else draw(st.sampled_from(["", " "]))))
        elif kind in ("comma", "\v", "\u2028"):
            separator[i] = "," if kind == "comma" else kind
    lines = [separator[i].join(row) for i, row in enumerate(rows)]
    for i, line in sorted(inserted, reverse=True):
        lines.insert(i, line)
    text = "".join(line + "\n" for line in lines)
    if "no final break" in faults:
        text = text[:-1]
    options = draw(st.fixed_dictionaries({
        "fmt": st.sampled_from(["auto", _FORMATS[width]]),
        "resolution": st.sampled_from([1, 2, 10]),
        "instant_extension_seconds": st.sampled_from([20, 5]),
        "directed": st.booleans(),
        "presence": st.sampled_from([None, {v: IntervalSet.span(-1000, 1000) for v in names}]),
    }))
    return text, options, len(faults)


def _plain_spy():
    """(plain, spy): `dataio._plain_records`, noting in `plain` whether each chunk was plain."""
    plain = []
    parse = dataio._plain_records

    def spy(*args):
        records = parse(*args)
        plain.append(records is not None)
        return records

    return plain, spy


class TestReadLinkStreamAgainstReference:
    """The streaming reader builds what the row-by-row reference builds, or fails alike."""

    @settings(max_examples=300, deadline=None)
    @given(case=_cases(), breaks=st.lists(st.sampled_from(LINE_BREAKS), min_size=1, max_size=3),
           last_break=st.booleans(), mark=st.booleans(), chunk=st.sampled_from([1, 2, 5, 64]))
    def test_files(self, tmp_path_factory, case, breaks, last_break, mark, chunk):
        lines, options = case
        path = tmp_path_factory.mktemp("streams") / "stream.txt"
        text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
        text = text if last_break else text.rstrip("".join(LINE_BREAKS))
        _write(path, "\ufeff" + text if mark else text)  # a byte-order mark, at times
        # small chunks end inside rows, and each is finished with the rest of its line
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
            got = _outcome(read_link_stream, path, **options)
        assert got == _outcome(reference_read_link_stream, path, **options)

    @settings(max_examples=200, deadline=None)
    @given(case=_plain_cases(), chunk=st.integers(8, 64))
    @example(case=("0 1 a b\n1 y a b\nx 5 a b\n", {"fmt": "quadruples"}, 2), chunk=64)
    @example(case=("0 1 2\n20 1\n40 1 2 3\n", {"fmt": "triples"}, 1), chunk=64)
    def test_plain_chunks(self, tmp_path_factory, case, chunk):
        # chunks of a few rows of one width: most of them are parsed whole, and
        # a faulty one goes down the row path, which names the first bad row
        text, options, faults = case
        path = tmp_path_factory.mktemp("streams") / "stream.txt"
        _write(path, text)
        plain, spy = _plain_spy()
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk), \
                mock.patch.object(dataio, "_plain_records", spy):
            got = _outcome(read_link_stream, path, **options)
        assert got == _outcome(reference_read_link_stream, path, **options)
        if not faults:
            assert plain and all(plain)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_every_splitlines_break_ends_a_row(self, tmp_path, chunk):
        path = tmp_path / "breaks.txt"
        # one row per break; "\v" inside "1 2\va b" makes two short rows, never one
        rows = [f"{i} {i + 1} a b" for i in range(len(LINE_BREAKS))]
        _write(path, "".join(row + brk for row, brk in zip(rows, LINE_BREAKS)))
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
            s = read_link_stream(path)
            assert s.adjacency("a")["b"] == IntervalSet.span(0, len(LINE_BREAKS))
            assert _outcome(read_link_stream, path) == _outcome(reference_read_link_stream, path)
            _write(path, "# x\u2028 0 1 a b\n1 2\va b\n")
            with pytest.raises(ParseError, match=r"breaks.txt:3: expected 4 columns, got 2"):
                read_link_stream(path)
        with pytest.raises(ParseError, match=r"breaks.txt:3: expected 4 columns, got 2"):
            reference_read_link_stream(path)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_a_row_that_spans_several_chunks_keeps_its_text_and_line(self, tmp_path, chunk):
        path = tmp_path / "long.txt"
        long = f"0 1 {'n' * 300} b"
        _write(path, f"# x\r\n{long}\v1 2 c d\r\n{long[::-1]}")
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
            _, rows = dataio._iter_rows(path)
            assert list(rows) == [(2, long), (3, "1 2 c d"), (4, long[::-1])]

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_only_a_byte_order_mark_that_starts_the_file_is_dropped(self, tmp_path, chunk):
        path = tmp_path / "marks.txt"
        _write(path, "\ufeff0 1 a b\n\ufeff1 2 a b\n")
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
            _, rows = dataio._iter_rows(path)
            assert list(rows) == [(1, "0 1 a b"), (2, "\ufeff1 2 a b")]
            # the stream reader keeps it too: "\ufeff1" is no timestamp
            assert _outcome(read_link_stream, path) == _outcome(reference_read_link_stream, path)

    def test_names_and_timestamps_are_shared(self, tmp_path, monkeypatch):
        parsed, built = [], []
        parse, build = dataio.to_ticks, dataio.StreamGraph

        def parse_spy(text, *args):
            parsed.append(text)
            return parse(text, *args)

        def build_spy(interactions, **kwargs):
            built.append(list(interactions))
            return build(interactions, **kwargs)

        monkeypatch.setattr(dataio, "to_ticks", parse_spy)
        monkeypatch.setattr(dataio, "StreamGraph", build_spy)
        path = write_lines(tmp_path / "s.txt", [
            "1385982020 alice bob", "1385982020 bob alice", "1385982040 carol alice"])
        for chunk in (1, 1 << 16):  # row by row, and one plain chunk
            parsed.clear()
            built.clear()
            monkeypatch.setattr(dataio, "_CHUNK_BYTES", chunk)
            read_link_stream(path)
            # each timestamp text parsed once; the extension is the one number
            assert sorted(map(str, parsed)) == ["1385982020", "1385982040", "20"]
            (pairs,) = built
            assert sorted(pairs) == [("alice", "bob"), ("alice", "carol")]
            assert pairs[0][0] is pairs[1][0]  # one string object for "alice"


# (start, length, u, v): a row of either width
_records = st.lists(st.tuples(st.integers(-5, 60), st.integers(1, 12), _names, _names),
                    max_size=40)


class TestRecordSource:
    """The reader hands the ingest one source, whose chunks are gathered pair by pair."""

    @settings(max_examples=150, deadline=None)
    @given(records=_records, width=st.sampled_from([3, 4]), directed=st.booleans(),
           chunk=st.sampled_from([8, 16, 64, 1 << 16]))
    def test_rows_in_any_order_build_the_reference_stream(self, tmp_path_factory, records, width,
                                                          directed, chunk):
        # a pair's rows out of time order, in both orientations and across
        # chunks: the same stream, or the same error on the same line
        rows = [f"{b} {u} {v}" if width == 3 else f"{b} {b + n} {u} {v}" for b, n, u, v in records]
        path = write_lines(tmp_path_factory.mktemp("streams") / "stream.txt", rows)
        options = {"directed": directed, "instant_extension_seconds": 5}
        with mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
            got = _outcome(read_link_stream, path, **options)
        assert got == _outcome(reference_read_link_stream, path, **options)

    @pytest.mark.parametrize("width", [3, 4, 5])
    def test_a_pair_whose_rows_arrive_in_descending_time(self, tmp_path, monkeypatch, width):
        # chunks of a few rows, each taken whole, each starting before the last one's spans
        fields = {3: "{t} {u} {v}", 4: "{t} {e} {u} {v}", 5: "{t}\t{u}\t{v}\tC1\tC2"}[width]
        rows = [fields.format(t=t, e=t + 7, u=u, v=v)
                for t in range(600, 0, -20) for u, v in (("1", "2"), ("3", "1"), ("2", "1"))
                if (t // 20) % 7 or u != "3"]
        path = write_lines(tmp_path / "s.txt", rows)
        plain, spy = _plain_spy()
        monkeypatch.setattr(dataio, "_plain_records", spy)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 48)
        s = read_link_stream(path)
        assert len(plain) > 10 and all(plain)
        assert _outcome(lambda p: s, path) == _outcome(reference_read_link_stream, path)
        assert len(s.adjacency("1")["3"]) > 1  # a gap every seventh row keeps spans apart

    def test_the_quadruples_that_write_link_stream_writes(self, tmp_path, monkeypatch):
        # ordered pair by pair, so a pair's rows start over at each new pair
        rng = random.Random(8)
        plain, spy = _plain_spy()
        monkeypatch.setattr(dataio, "_plain_records", spy)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 16)
        chunks = 0
        for i in range(10):
            directed = bool(i % 2)
            original = random_stream(rng, directed=directed, max_intervals=40, max_tick=60)
            path = tmp_path / f"s{i}.txt"
            write_link_stream(original, path)
            plain.clear()
            s = read_link_stream(path, fmt="quadruples", directed=directed)
            # the header comment is read row by row, every other chunk whole
            assert plain[0] is False and all(plain[1:])
            chunks += len(plain)
            assert _outcome(lambda p: s, path) == _outcome(reference_read_link_stream, path,
                                                           fmt="quadruples", directed=directed)
            assert dict(s.interaction_items()) == dict(original.interaction_items())
        assert chunks > 50

    def test_a_row_shuffled_file_reads_as_the_sorted_one(self, tmp_path, monkeypatch):
        # a contacts export on a 20 s grid over 12 nodes, in time order and shuffled;
        # read in chunks of about 500 bytes, each pair's rows come in no time order
        rng = random.Random(27)
        nodes = [str(n) for n in range(12)]
        rows = []
        for t in range(20, 20 * 600, 20):
            for u, v in {tuple(sorted(rng.sample(nodes, 2))) for _ in range(rng.randint(0, 6))}:
                rows.append(f"{t}\t{u}\t{v}\tC{int(u) % 3}\tC{int(v) % 3}")
        ordered = write_lines(tmp_path / "ordered.tsv", rows)
        rng.shuffle(rows)
        shuffled = write_lines(tmp_path / "shuffled.tsv", rows)
        merges = []
        merge = dataio._merge

        def counted(spans):
            merges.append(len(spans))
            return merge(spans)

        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 500)
        monkeypatch.setattr(dataio, "_merge", counted)
        want = _outcome(read_link_stream, ordered, fmt="contacts")
        assert merges == []  # rows in time order are never merged
        s = read_link_stream(shuffled, fmt="contacts")
        # each out-of-order pair's spans were merged before the end of the file too
        assert len(merges) > 2 * s.interaction_count()
        assert _outcome(lambda p: s, shuffled) == want
        assert want == _outcome(reference_read_link_stream, shuffled, fmt="contacts")

    def test_the_ingest_and_the_stream_are_reached_through_the_module(
            self, tmp_path, monkeypatch):
        path = tmp_path / "stream.txt"
        path.write_text("# t u v\n\n20 a b\n  \n40 a b\n# x\n60 b c\n")
        ingest, build = dataio.ingest_link_stream, dataio.StreamGraph
        seen = []

        def traced_ingest(*args, **kwargs):  # the way a tracer wraps it
            result = ingest(*args, **kwargs)
            seen.append(len(args[0]))  # read once the call has returned
            return result

        def traced_build(*args, **kwargs):
            seen.append("built")
            return build(*args, **kwargs)

        monkeypatch.setattr(dataio, "ingest_link_stream", traced_ingest)
        monkeypatch.setattr(dataio, "StreamGraph", traced_build)
        s = read_link_stream(path)
        # comment and blank lines are no records
        assert seen == ["built", 3]
        assert s.adjacency("a")["b"] == IntervalSet.span(0, 40)

        # chunks of about two rows: those without a comment are parsed whole,
        # the others row by row, and len() counts the records of both
        plain, spy = _plain_spy()
        monkeypatch.setattr(dataio, "_plain_records", spy)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 16)
        lines = [f"{20 * i} a b" if i % 5 else "# x" for i in range(1, 61)]
        seen.clear()
        s = read_link_stream(write_lines(path, lines))
        assert seen == ["built", 48]
        assert plain.count(True) > 5 and plain.count(False) > 5
        assert s.adjacency("a")["b"] == reference_read_link_stream(path).adjacency("a")["b"]

    @pytest.mark.parametrize("read", [read_link_stream, reference_read_link_stream])
    def test_a_later_parse_error_comes_before_an_earlier_ingest_error(self, tmp_path, read):
        path = write_lines(tmp_path / "s.txt", ["20 a a", "# x", "40 a b", "x a b"])
        with pytest.raises(ParseError, match=r"s.txt:4: bad timestamp 'x'"):
            read(path)
        path = write_lines(tmp_path / "s.txt", ["20 a b", "20 a a", "40 a b"])
        with pytest.raises(ParseError, match=r"s.txt:2: self-interaction"):
            read(path)


class TestPresence:
    def test_roundtrip(self, tmp_path):
        s = star_toy_stream()
        path = tmp_path / "presence.csv"
        write_presence(s, path)
        back = read_presence(path)
        assert back == {v: s.presence(v) for v in s.nodes}

    def test_presence_feeds_stream(self, tmp_path):
        path = tmp_path / "presence.csv"
        path.write_text("0 10 a\n0 10 b\n")
        presence = read_presence(path)
        s = read_link_stream(write_lines(tmp_path / "s.txt", ["1 3 a b"]), presence=presence)
        assert s.presence("a") == IntervalSet.span(0, 10)

    def test_empty_interval_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="presence.txt:1: empty presence"):
            read_presence(write_lines(tmp_path / "presence.txt", ["5 5 a"]))


class TestStreamRoundTrip:
    def test_star_toy(self, tmp_path):
        # default-presence round trip: ingest(export(S)) == S
        s = StreamGraph({("a", "b"): [(1, 3), (7, 8)], ("b", "d"): [(2, 3)]})
        path = tmp_path / "stream.csv"
        write_link_stream(s, path)
        back = read_link_stream(path)
        assert dict(back.interaction_items()) == dict(s.interaction_items())
        assert back.presence_set() == s.presence_set()

    def test_random_streams(self, tmp_path):
        rng = random.Random(3)
        for i in range(25):
            s = random_stream(rng, directed=bool(i % 2))
            path = tmp_path / f"s{i}.csv"
            write_link_stream(s, path)
            back = read_link_stream(path, directed=s.directed)
            assert dict(back.interaction_items()) == dict(s.interaction_items())

    def test_a_name_with_whitespace_is_written_as_a_comma_row(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("20,a b,c\n40 c d\n")
        s = read_link_stream(path)
        write_link_stream(s, tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_text() == "# b e u v (ticks)\n0,20,a b,c\n20 40 c d\n"
        back = read_link_stream(tmp_path / "w.txt")
        assert dict(back.interaction_items()) == dict(s.interaction_items())
        write_presence(s, tmp_path / "p.txt")
        assert read_presence(tmp_path / "p.txt") == {v: s.presence(v) for v in s.nodes}

    @pytest.mark.parametrize("writer", [write_link_stream, write_presence])
    @pytest.mark.parametrize("name", ["", "a,b", "a\nb", "a\x85", " a", "a\t"])
    def test_a_name_that_no_row_can_hold_is_refused(self, tmp_path, writer, name):
        s = StreamGraph({(name, "z"): [(0, 5)]})
        with pytest.raises(ValueError, match=f"^node name {re.escape(repr(name))} cannot be"):
            writer(s, tmp_path / "out.txt")
        assert not (tmp_path / "out.txt").exists()


_WRITERS = {
    "link-stream": lambda path: write_link_stream(star_toy_stream(), path),
    "presence": lambda path: write_presence(star_toy_stream(), path),
    "attributes": lambda path: write_attributes(
        AttributeContext(ItemUniverse(["alpha", "beta"]), {"n1": 0b11, "n2": 0}), path),
    "patterns": lambda path: write_patterns(
        mine(star_toy_stream(), AttributeContext(ItemUniverse([]), {}), MinerConfig()), path),
}


class TestOpenOutput:
    """Every writer makes its output a new file instead of truncating the old one."""

    @pytest.mark.parametrize("writer", list(_WRITERS.values()), ids=list(_WRITERS))
    def test_an_existing_output_is_replaced_by_a_new_file(self, tmp_path, writer):
        writer(tmp_path / "fresh")
        want = (tmp_path / "fresh").read_bytes()
        path = tmp_path / "out"
        old = want * 3 + b"# a longer old file\n"
        path.write_bytes(old)
        kept = tmp_path / "kept"
        os.link(path, kept)  # the old file's inode stays allocated under this name
        writer(path)
        assert path.read_bytes() == want
        assert path.stat().st_ino != kept.stat().st_ino
        assert kept.read_bytes() == old  # a hard link to the old output keeps the old bytes

    def test_a_symlinked_output_stays_a_link_and_its_target_is_written(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("# an old file, longer than the new one\n" * 20)
        kept = tmp_path / "kept"
        os.link(target, kept)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_presence(star_toy_stream(), link)
        write_presence(star_toy_stream(), tmp_path / "fresh.csv")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert target.stat().st_ino != kept.stat().st_ino  # the target is new too

    def test_a_fifo_stays_a_fifo_and_its_reader_gets_the_content(self, tmp_path):
        # a FIFO of tmp_path only: a helper that wrongly unlinked it removes nothing else
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        with dataio.open_output(fifo) as handle:
            handle.write("through the pipe\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == ["through the pipe\n"]


# names with a separator, a comment mark, a byte-order mark, whitespace or line breaks
_attribute_names = st.text("ab #;,\t\n\u2028\ufeff", max_size=3)


def _holds(name, separators, row_start=False):
    """Whether a row holds `name` as it is, for a test of the attribute writer."""
    return (name != "" and name == name.strip() and not any(c in name for c in separators)
            and len(name.splitlines()) == 1 and not (row_start and name[0] in "#\ufeff"))


class TestAttributes:
    def test_basic_rows(self, tmp_path):
        ctx = read_attributes(write_lines(tmp_path / "a.csv", ["n1,alpha;beta", "n2,beta", "n3,"]))
        u = ctx.universe
        assert u.items == ("alpha", "beta")
        assert ctx.description("n1") == u.mask_of(["alpha", "beta"])
        assert ctx.description("n3") == 0

    def test_universe_keeps_first_appearance_order(self, tmp_path):
        ctx = read_attributes(write_lines(tmp_path / "a.csv", ["n1,z;a", "n2,m;z"]))
        assert ctx.universe.items == ("z", "a", "m")

    def test_duplicate_node_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="a.csv:2: duplicate description"):
            read_attributes(write_lines(tmp_path / "a.csv", ["n1,alpha", "n1,beta"]))

    def test_mismatch_warnings(self, tmp_path, caplog):
        s = StreamGraph({("a", "b"): [(0, 1)]})
        with caplog.at_level(logging.WARNING):
            ctx = read_attributes(write_lines(tmp_path / "a.csv", ["a,x", "ghost,y"]), stream=s)
        text = caplog.text
        assert "ghost" in text and "b" in text
        assert ctx.description("b") == 0

    def test_roundtrip(self, tmp_path):
        ctx = read_attributes(write_lines(tmp_path / "in.csv", ["n1,alpha;beta", "n2,beta"]))
        path = tmp_path / "attrs.csv"
        write_attributes(ctx, path)
        back = read_attributes(path)
        assert back.description("n1") == back.universe.mask_of(["alpha", "beta"])

    @pytest.mark.parametrize("kind, name", [
        ("item", "x;y"), ("item", "a,b"), ("item", ""), ("item", " x"), ("item", "x\u2028"),
        ("node", " n3"), ("node", "n,3"), ("node", "#n3"), ("node", "\ufeffn3"), ("node", ""),
    ])
    def test_a_name_that_no_row_can_hold_is_refused(self, tmp_path, kind, name):
        items = [name, "z"] if kind == "item" else ["z"]
        node = name if kind == "node" else "n1"
        ctx = AttributeContext(ItemUniverse(items), {node: 0b11 if kind == "item" else 1, "n2": 0})
        with pytest.raises(ValueError, match=f"^{kind} name {re.escape(repr(name))} cannot be"):
            write_attributes(ctx, tmp_path / "a.csv")
        assert not (tmp_path / "a.csv").exists()

    @settings(max_examples=300, deadline=None)
    @given(items=st.lists(_attribute_names, unique=True, max_size=5),
           held=st.dictionaries(_attribute_names, st.sets(st.integers(0, 4)), max_size=5))
    def test_a_context_reads_back_as_written(self, tmp_path_factory, items, held):
        universe = ItemUniverse(items)
        ctx = AttributeContext(universe, {
            node: universe.mask_of([items[i] for i in indices if i < len(items)])
            for node, indices in held.items()})
        path = tmp_path_factory.mktemp("attributes") / "a.csv"
        written = {node: set(universe.items_of(ctx.description(node))) for node in ctx.nodes()}
        bad = [repr(node) for node in written if not _holds(node, ",", row_start=True)]
        bad += [repr(item) for names in written.values() for item in names
                if not _holds(item, ";,")]
        try:
            write_attributes(ctx, path)
        except ValueError as err:
            # refused only for a name that no row can hold, and named
            refused = re.match(r"^(?:node|item) name (.*) cannot be written to a row$", str(err))
            assert refused and refused.group(1) in bad
            assert not path.exists()
            return
        assert not bad
        back = read_attributes(path)
        assert {node: set(back.universe.items_of(back.description(node)))
                for node in back.nodes()} == written


class TestHighschoolAdapter:
    def test_items_from_all_sources(self, tmp_path):
        ctx = read_highschool_context(
            metadata=write_lines(tmp_path / "metadata.txt", ["650\t2BIO1\tF", "27\tMP\tM"]),
            facebook=write_lines(tmp_path / "facebook.txt", ["650 27"]),
            declared=write_lines(tmp_path / "declared.txt", ["650 27"]),
            diaries=write_lines(tmp_path / "diaries.txt", ["27 650"]),
        )
        u = ctx.universe
        assert set(u.items_of(ctx.description("650"))) == {"C_2BIO1", "G_F", "F_27", "D_27"}
        # Facebook friendship is symmetric, declarations are not
        assert set(u.items_of(ctx.description("27"))) == {"C_MP", "G_M", "F_650", "M_650"}

    def test_classes_from_contact_rows(self, tmp_path):
        contacts = write_lines(tmp_path / "contacts.tsv", ["100\t7\t9\t2BIO1\tMP"])
        ctx = read_highschool_context(contacts=contacts)
        assert ctx.universe.items_of(ctx.description("7")) == ("C_2BIO1",)
        assert ctx.universe.items_of(ctx.description("9")) == ("C_MP",)

    def test_unknown_gender_skipped(self, tmp_path):
        metadata = write_lines(tmp_path / "metadata.txt", ["650\t2BIO1\tUnknown"])
        ctx = read_highschool_context(metadata=metadata)
        assert ctx.universe.items_of(ctx.description("650")) == ("C_2BIO1",)

    @pytest.mark.parametrize("source,prefix", [("facebook", "F"), ("declared", "D"),
                                               ("diaries", "M")])
    def test_friendship_rows_need_at_least_two_columns(self, tmp_path, source, prefix):
        path = write_lines(tmp_path / "friends.txt", ["650 27", "650"])
        with pytest.raises(ParseError, match="friends.txt:2: expected at least 2 columns, got 1"):
            read_highschool_context(**{source: path})
        # extra columns are accepted and ignored
        ctx = read_highschool_context(**{source: write_lines(path, ["650 27 1"])})
        assert ctx.universe.items_of(ctx.description("650")) == (f"{prefix}_27",)
