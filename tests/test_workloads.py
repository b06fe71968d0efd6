"""The benchmark workloads' outputs and the reader at workload scale, checked in process.

For every workload of `perfbench/run.py` at seeds 1 and 97, the inputs
are generated with `perfbench/gen.py`, `mine` and then `select` run
through `cli.main`, and the sha256 of both outputs is compared with
`perfbench/reference.json`. The benchmark's own gate checks the same
digests in fresh processes; this one runs with the local test suite.
The same runs' `select` report must list, for each default beta, the
number of records `oracle.reference_select` keeps, and the mined
records must pass `oracle.certify`, the completeness certificate,
which sees one record dropped from hs-k2-wide's.

On directed-ha's inputs, every hub-authority bi-core that `mine` runs,
the root's included, returns the sides of the oracle's double-clip
worklist (`oracle.reference_bicore`), the seed-1 mine stays within its
counts of coverage sweeps and interval meets, and reversing every row
swaps the hubs and the authorities of the root bi-core. On the hs
inputs, reversing each attribute row's items changes the mined bytes
but not the records, every timestamp shifted by a constant mines the
same records with every support shifted, and every timestamp written
in seconds divided by 10 and read at `--resolution 10 --delta 2` mines
the same bytes.

The seed-1 hs stream is read within a traced-memory bound. The seed-1
contacts export (ingest-xl's input, 189k rows) is read within another,
with one int object per tick value, and so is a copy of it with its
rows shuffled; ingest-xl's whole `mine` command runs within a third.
The README's hs327 recipe runs on it and finds the README's pattern
counts. Copies of it that the reader takes down its other paths (row by
row, some chunks row by row and the others whole, out of time order, as
quadruples) mine the bytes the export mines, and copies with a
self-loop or a byte that is not UTF-8 past the first chunk
(`patternio._CHUNK_BYTES`, 16 KiB) are refused naming their line, and a
copy with a self-loop in its first chunk and such a byte after it is
refused naming the self-loop's. Nothing under `perfbench/` is written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from oracle import certify, reference_bicore, reference_select
from streamcores import CoreSpec, MinerConfig, cli, cores, dataio, patternio, read_patterns
from streamcores.dataio import (
    ParseError,
    read_attributes,
    read_highschool_context,
    read_link_stream,
    write_attributes,
    write_link_stream,
)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (1, 97)


def _load_run():
    """perfbench/run.py as a module; the sys.path entries it adds for its imports are undone."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


RUN = _load_run()
GEN = RUN.gen  # perfbench/gen.py, as run.py imports it
DIGESTS = json.loads((BENCH / "reference.json").read_text())["digests"]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workload_run(tmp_path_factory):
    """(inputs, mined file, selected file, select's report) of a workload at a seed.

    Each workload runs once at each seed, whichever tests read it.
    """
    runs = {}

    def get(name, seed):
        if (name, seed) not in runs:
            workload = RUN.WORKLOADS[name]
            directory = tmp_path_factory.mktemp(f"{name}-{seed}")
            inputs = GEN.generate(workload.kind, seed, directory / "inputs")
            mined, selected = directory / "mined.jsonl", directory / "selected.jsonl"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(workload.mine_args(inputs, mined)) == 0
            with contextlib.redirect_stdout(io.StringIO()) as report:
                assert cli.main(["select", "--input", str(mined), "--output", str(selected)]) == 0
            runs[name, seed] = inputs, mined, selected, report.getvalue()
        return runs[name, seed]

    return get


def _mining_setup(name, inputs):
    """(stream, attribute context, miner config) that the workload's `mine` reads and runs."""
    workload = RUN.WORKLOADS[name]
    stream = read_link_stream(inputs["stream"], fmt=workload.fmt, directed=workload.directed)
    ctx = read_attributes(inputs["attributes"], stream=stream)
    return stream, ctx, MinerConfig(core=CoreSpec.parse(workload.core),
                                    min_support=workload.min_support)


WORKLOAD_RUNS = [pytest.param(name, seed, id=f"{name}-{seed}")
                 for name in sorted(RUN.WORKLOADS) for seed in SEEDS]


@pytest.mark.parametrize("name,seed", WORKLOAD_RUNS)
def test_outputs_match_the_reference_digests(name, seed, workload_run):
    _, mined, selected, _ = workload_run(name, seed)
    want = DIGESTS[name][str(seed)]
    assert {"mine": _sha(mined), "select": _sha(selected)} == want


@pytest.mark.parametrize("name,seed", WORKLOAD_RUNS)
def test_the_sweep_report_counts_what_the_reference_selection_keeps(name, seed, workload_run):
    _, mined, _, report = workload_run(name, seed)
    usable = [rec for rec in read_patterns(mined) if not rec.below_min_support]
    beta, betas = cli.RunManifest.beta, [float(b) for b in cli.RunManifest.betas.split(",")]
    kept = {b: len(reference_select(usable, b)) for b in {beta, *betas}}
    if (name, seed) == ("hs-k2-wide", 1):
        assert [kept[b] for b in betas] == [199, 189, 140, 108, 63]
    assert report.splitlines() == [
        f"beta={beta:g}: kept {kept[beta]} of {len(usable)}", "sweep:",
        *(f"  beta={b:g} kept={kept[b]}" for b in betas)]


@pytest.mark.parametrize("name,seed", WORKLOAD_RUNS)
def test_the_mined_records_pass_the_completeness_certificate(name, seed, workload_run):
    inputs, mined, _, _ = workload_run(name, seed)
    records = read_patterns(mined)
    assert records
    assert certify(records, *_mining_setup(name, inputs)) == []


def test_the_certificate_sees_a_dropped_record(workload_run):
    inputs, mined, _, _ = workload_run("hs-k2-wide", 1)
    records = read_patterns(mined)
    setup = _mining_setup("hs-k2-wide", inputs)
    for dropped in (1, len(records) // 2, len(records) - 1):
        problems = certify(records[:dropped] + records[dropped + 1:], *setup)
        assert problems
        assert all(str(records[dropped].items) in problem for problem in problems)


def _records(path):
    """The records of a pattern file, each with its intent sorted, in sorted order."""
    out = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["intent"].sort()
        out.append(json.dumps(record, sort_keys=True))
    return sorted(out)


def _mine_hs(stream, attributes, output, *options):
    """`mine` at hs-k2-wide's core and threshold; the output path."""
    assert cli.main(["mine", "--stream", str(stream), "--attributes", str(attributes),
                     "--core", "star-sat:2", "--min-support", "900", *options,
                     "--output", str(output)]) == 0
    return output


@pytest.fixture(scope="module")
def hs_inputs(tmp_path_factory):
    """The seed-1 hs inputs, their stream's (time, pair) rows and the file `_mine_hs` mines."""
    inputs = GEN.generate("hs", 1, tmp_path_factory.mktemp("hs"))
    rows = [line.split(" ", 1) for line in inputs["stream"].read_text().splitlines()]
    mined = _mine_hs(inputs["stream"], inputs["attributes"], inputs["stream"].with_name("o.jsonl"))
    return inputs, rows, mined


def test_item_order_changes_the_order_of_the_records_and_nothing_else(hs_inputs, tmp_path,
                                                                        capsys):
    # items are mined in the order they first appear in the attribute file;
    # reversing each row's items changes that order
    inputs, _, plain = hs_inputs
    rows = (line.split(",", 1) for line in inputs["attributes"].read_text().splitlines())
    flipped = tmp_path / "reversed.csv"
    flipped.write_text("".join(f"{node},{';'.join(reversed(items.split(';')))}\n"
                               for node, items in rows))
    other = _mine_hs(inputs["stream"], flipped, tmp_path / "reversed.jsonl")
    capsys.readouterr()
    assert plain.read_bytes() != other.read_bytes()
    assert len(_records(plain)) > 1
    assert _records(plain) == _records(other)


def test_a_time_shift_in_the_file_shifts_every_support(hs_inputs, tmp_path, capsys):
    shift = 365 * 86_400 + 7  # off the rows' 20 s grid
    inputs, rows, plain = hs_inputs
    moved = tmp_path / "moved.txt"
    moved.write_text("".join(f"{int(t) + shift} {pair}\n" for t, pair in rows))
    got = _mine_hs(moved, inputs["attributes"], tmp_path / "moved.jsonl")
    capsys.readouterr()
    want = [json.loads(line) for line in plain.read_text().splitlines()]
    for record in want:
        record["support"] = {v: [[a + shift, b + shift] for a, b in spans]
                             for v, spans in record["support"].items()}
    assert len(want) > 1
    assert [json.loads(line) for line in got.read_text().splitlines()] == want


def test_tenths_of_a_second_at_resolution_10_mine_the_same_bytes(hs_inputs, tmp_path, capsys):
    # every timestamp t is written as t/10 with one decimal place; at 10 ticks per
    # second it is read as t again, and a 2 s extension is the default 20 ticks
    inputs, rows, plain = hs_inputs
    tenths = tmp_path / "tenths.txt"
    tenths.write_text("".join(f"{int(t) // 10}.{int(t) % 10} {pair}\n" for t, pair in rows))
    got = _mine_hs(tenths, inputs["attributes"], tmp_path / "tenths.jsonl",
                   "--resolution", "10", "--delta", "2")
    capsys.readouterr()
    assert got.read_bytes() == plain.read_bytes()


def _directed_inputs(seed, path):
    return GEN.generate(RUN.WORKLOADS["directed-ha"].kind, seed, path)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_bicore_of_the_directed_mine_matches_the_double_clip_worklist(
        seed, tmp_path, monkeypatch, capsys):
    calls = []
    bicore = cores.bha_bicore
    inputs = _directed_inputs(seed, tmp_path / "inputs")
    with monkeypatch.context() as patch:
        patch.setattr(cores, "bha_bicore", lambda *args: calls.append(args) or bicore(*args))
        assert cli.main(RUN.WORKLOADS["directed-ha"].mine_args(inputs, tmp_path / "out")) == 0
    capsys.readouterr()
    stream, root, _, _, _ = calls[0]
    assert all(root.get(v) is stream.presence(v) for v in stream.nodes)
    assert len(calls) > 1
    for args in calls:
        assert bicore(*args) == reference_bicore(*args)


def test_the_directed_mine_stays_within_its_sweeps_and_meets(tmp_path, monkeypatch, capsys):
    # 994 coverage sweeps and 5,962 meets at seed 1; the double-clip
    # worklist made 1,142 sweeps and 13,657 meets (a three-way clip is up to two)
    counts = {"sweeps": 0, "meets": 0}

    def counted(name, function):
        def call(*args):
            counts[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(cores, "coverage_at_least", counted("sweeps", cores.coverage_at_least))
    monkeypatch.setattr(cores, "_meet", counted("meets", cores._meet))
    inputs = _directed_inputs(1, tmp_path / "inputs")
    assert cli.main(RUN.WORKLOADS["directed-ha"].mine_args(inputs, tmp_path / "mined.jsonl")) == 0
    capsys.readouterr()
    assert counts["sweeps"] <= 1_000
    assert counts["meets"] <= 6_500


@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_the_directed_stream_swaps_hubs_and_authorities(seed, tmp_path):
    inputs = _directed_inputs(seed, tmp_path)
    flipped = tmp_path / "reversed.txt"
    flipped.write_text("".join(f"{t} {v} {u}\n" for t, u, v in
                               map(str.split, inputs["stream"].read_text().splitlines())))
    sides = {}
    for path, (h, a) in ((inputs["stream"], (2, 3)), (flipped, (3, 2))):
        stream = read_link_stream(path, directed=True)
        root = stream.presence_set()
        sides[path] = cores.bha_bicore(stream, root, root, h, a)
    hubs, authorities = sides[inputs["stream"]]
    assert hubs and authorities and hubs != authorities
    assert sides[flipped] == (authorities, hubs)


@pytest.fixture(scope="module")
def contacts(tmp_path_factory):
    """The seed-1 contacts export and its attribute file, as `gen.py contacts 1` writes them."""
    return GEN.generate("contacts", 1, tmp_path_factory.mktemp("contacts"))


def test_equal_ticks_of_the_export_are_one_object(contacts):
    stream = read_link_stream(contacts["stream"], fmt="contacts")
    ends = [t for _, ivs in stream.interaction_items() for span in ivs.spans for t in span]
    ends += [t for v in stream.nodes for span in stream.presence(v).spans for t in span]
    # one object per value: a reader that makes each span start anew holds 52,376 for 8,681
    assert len(set(map(id, ends))) == len(set(ends))


def _traced_peak(function):
    """(value, peak): what `function()` returns and the traced peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        return function(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_the_hs_stream_stays_under_its_traced_peak(hs_inputs):
    inputs, _, _ = hs_inputs
    _, peak = _traced_peak(lambda: read_link_stream(inputs["stream"]))
    # about 3.2 MB after the fixture's mine, 3.5 MB in a process that has read
    # nothing else, of which the built stream holds 2.8 MB; 3.8-3.9 MB when
    # each chunk's records were grouped and merged into their pairs' spans,
    # 4.6 MB when the stream was also built from gathered copies of its pairs
    # and spans, and the file read in 64 KiB pieces
    assert peak <= 3.6e6


def test_reading_the_export_stays_under_its_traced_peak(contacts):
    _, peak = _traced_peak(lambda: read_link_stream(contacts["stream"], fmt="contacts"))
    # about 5.6 MB after other reads, 5.9 MB in a process that has read nothing
    # else, of which the built stream holds 5.2 MB; 5.9-6.0 MB when each
    # chunk's records were grouped and merged into their pairs' spans, 6.75 MB
    # when the stream was also built from gathered copies of its pairs and
    # spans, and the file read in 64 KiB pieces; 13 MB with a new int per span
    # start and the scratch lists held to the end
    assert peak <= 6.2e6


def test_reading_the_shuffled_export_stays_under_the_export_s_traced_peak(contacts, tmp_path):
    path = tmp_path / "shuffled.tsv"
    path.write_text(_shuffled(contacts["stream"].read_text().splitlines(keepends=True)))
    _, peak = _traced_peak(lambda: read_link_stream(path, fmt="contacts"))
    # the sorted export's figures: every pair's ticks are kept until the file
    # ends, in time order or not; 9.4-9.5 MB when each chunk's spans were
    # merged into the pair's once its list had doubled
    assert peak <= 6.2e6


def test_mining_the_export_stays_under_its_traced_peak(contacts, tmp_path, capsys):
    args = RUN.WORKLOADS["ingest-xl"].mine_args(contacts, tmp_path / "mined.jsonl")
    code, peak = _traced_peak(lambda: cli.main(args))
    capsys.readouterr()
    assert code == 0
    # about 5.65 MB after other runs, at the reader, and 5.9 MB in a process
    # that has run nothing else; 5.9 MB after other runs, at the writer, when
    # a support was written in pieces of 4,096 spans; 6.0 MB when each chunk's
    # records were grouped and merged into their pairs' spans; 6.8 MB when
    # the stream was also built from gathered copies of its pairs and spans,
    # and the file read in 64 KiB pieces; 8.7-9.1 MB when the root record's
    # line (1,015,212 characters) is dumped whole
    assert peak <= 6.7e6


def _mine_error(path, capsys):
    """(exit code, stderr) of mining `path` as a contacts export."""
    code = cli.main(["mine", "--stream", str(path), "--format", "contacts", "--core", "identity",
                     "--min-support", "600", "--output", str(path.with_suffix(".jsonl"))])
    return code, capsys.readouterr().err


def test_a_self_loop_past_the_first_chunk_is_named_at_its_line(contacts, tmp_path, capsys):
    # a comment line near the top, and a self-loop on the export's line 5000,
    # now file line 5001
    lines = contacts["stream"].read_text().splitlines(keepends=True)
    t, u, _, *rest = lines[4999].split("\t")
    lines[4999] = "\t".join([t, u, u, *rest])
    lines.insert(1, "# a comment line the error must count\n")
    path = tmp_path / "contacts.tsv"
    path.write_text("".join(lines))
    assert len("".join(lines[:5000]).encode()) > patternio._CHUNK_BYTES
    code, err = _mine_error(path, capsys)
    assert code == 1
    assert "contacts.tsv:5001: self-interaction" in err


def test_a_byte_that_is_not_utf8_past_the_first_chunk_is_named_at_its_line(contacts, tmp_path,
                                                                           capsys):
    data = contacts["stream"].read_bytes()
    lines = data.splitlines(keepends=True)
    head = b"".join(lines[:4999])
    assert len(head) > patternio._CHUNK_BYTES
    path = tmp_path / "contacts.tsv"
    path.write_bytes(head + b"\xff" + data[len(head):])
    code, err = _mine_error(path, capsys)
    assert code == 1
    assert "contacts.tsv:5000: not UTF-8 text" in err


def test_a_self_loop_is_named_before_a_later_byte_that_is_not_utf8(contacts, tmp_path, capsys):
    # a self-loop on line 200, in the first chunk, and a byte that is not
    # UTF-8 on line 5000, in a later one: the reader stops at the self-loop
    data = contacts["stream"].read_bytes()
    lines = data.splitlines(keepends=True)
    t, u, _, *rest = lines[199].split(b"\t")
    lines[199] = b"\t".join([t, u, u, *rest])
    assert len(b"".join(lines[:200])) < patternio._CHUNK_BYTES < len(b"".join(lines[:4999]))
    lines[4999] = b"\xff" + lines[4999]
    path = tmp_path / "contacts.tsv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=r"contacts.tsv:200: self-interaction"):
        read_link_stream(path, fmt="contacts")
    code, err = _mine_error(path, capsys)
    assert code == 1
    assert "contacts.tsv:200: self-interaction" in err

def _mine(stream, fmt, attributes, output):
    """The bytes that star-sat:4 at support 600 mines from `stream`."""
    assert cli.main(["mine", "--stream", str(stream), "--format", fmt,
                     "--attributes", str(attributes), "--core", "star-sat:4",
                     "--min-support", "600", "--output", str(output)]) == 0
    return output.read_bytes()


def _commented(lines):
    return "".join(("# a comment line\n" if i % 3000 == 0 else "") + line
                   for i, line in enumerate(lines, start=1))


def _shuffled(lines):
    random.Random(0).shuffle(lines)
    return "".join(lines)


def _rows(text):
    """The data rows of `text`, sorted, without line ends, comments or a byte-order mark."""
    return sorted(line for line in text.lstrip("\ufeff").splitlines() if line[:1] != "#")


# each copy of the export's text, made from its lines with their line ends
COPIES = {
    "crlf": lambda lines: "".join(line[:-1] + "\r\n" for line in lines),
    "comments": _commented,  # a `#` line every 3,000 rows: those chunks are read row by row
    "unended": lambda lines: "".join(lines)[:-1],
    "bom": lambda lines: "\ufeff" + "".join(lines),
    "shuffled": _shuffled,  # each pair's rows in no time order
}


@pytest.fixture(scope="module")
def mined_export(contacts, tmp_path_factory):
    """The bytes that the export itself mines."""
    return _mine(contacts["stream"], "contacts", contacts["attributes"],
                 tmp_path_factory.mktemp("mined") / "export.jsonl")


def test_the_readme_hs327_recipe_finds_the_readme_counts(contacts, mined_export, tmp_path,
                                                         capsys):
    # class-only attributes written from the contact rows, then mine and select
    attributes = tmp_path / "hs-attributes.csv"
    write_attributes(read_highschool_context(contacts=contacts["stream"]), attributes)
    mined = tmp_path / "hs.jsonl"
    _mine(contacts["stream"], "contacts", attributes, mined)
    diverse = tmp_path / "hs-diverse.jsonl"
    assert cli.main(["select", "--input", str(mined), "--beta", "0.4",
                     "--output", str(diverse)]) == 0
    capsys.readouterr()
    assert len(mined.read_text().splitlines()) == 10
    assert 0 < len(diverse.read_text().splitlines()) <= 10
    # the generator's own attributes.csv adds gender and friend items
    assert len(mined_export.splitlines()) == 21


@pytest.mark.parametrize("copy", sorted(COPIES))
def test_a_copy_of_the_export_mines_its_bytes(copy, contacts, mined_export, tmp_path,
                                              monkeypatch):
    text = contacts["stream"].read_text()
    lines = text.splitlines(keepends=True)
    changed = COPIES[copy](list(lines))
    assert changed != text
    assert _rows(changed) == _rows(text)
    assert changed.count("# a comment line") == (len(lines) // 3000 if copy == "comments" else 0)
    path = tmp_path / "contacts.tsv"
    path.write_bytes(changed.encode())
    plain = []  # for each chunk, what `_plain_records` made of it: None when read row by row
    plain_records = dataio._plain_records

    def spied(*args):
        plain.append(plain_records(*args))
        return plain[-1]

    monkeypatch.setattr(dataio, "_plain_records", spied)
    assert _mine(path, "contacts", contacts["attributes"], tmp_path / "copy.jsonl") == mined_export
    if copy == "comments":  # the chunks with a `#` line are read row by row, the others whole
        assert None in plain and any(plain)


def test_the_quadruples_of_the_export_mine_its_bytes(contacts, mined_export, tmp_path):
    # write_link_stream writes the pairs one after another, each in time order
    path = tmp_path / "contacts.txt"
    write_link_stream(read_link_stream(contacts["stream"], fmt="contacts"), path)
    assert _mine(path, "quadruples", contacts["attributes"], tmp_path / "copy.jsonl") == mined_export
