import gc
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from streamcores import read_patterns, selection, star_satellite_core, write_patterns
from streamcores.cli import main
from streamcores.toys import star_toy_stream, write_demo_files

from helpers import read_in_chunks
from oracle import reference_select


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return write_demo_files(tmp_path_factory.mktemp("demo"))


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("command,option", [
    (["mine", "--stream", "s.csv", "--output", "out.jsonl"], ["--beta", "0.4"]),
    (["select", "--input", "in.jsonl", "--output", "out.jsonl"], ["--core", "identity"]),
    (["inspect", "--input", "in.jsonl"], ["--min-support", "2"]),
    # only mine and select write a manifest, so only they re-run one
    (["inspect", "--input", "in.jsonl"], ["--manifest", "m.json"]),
    (["static-compare", "--stream", "s.csv"], ["--manifest", "m.json"]),
    # items are mined in attribute-file order only
    (["mine", "--stream", "s.csv", "--output", "out.jsonl"], ["--item-order", "name"]),
])
def test_option_of_another_subcommand_is_refused(capsys, command, option):
    # each subcommand accepts only the options it reads
    with pytest.raises(SystemExit) as err:
        run(*command, *option)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


_BAD_MINING_OPTIONS = [
    ["--min-support", "0"], ["--min-intent-size", "-1"], ["--delta", "20.4"],
    ["--core", "star-sat:two"],
    # a core of the other stream kind
    ["--core", "ha:2,2"], ["--core", "star-sat:2", "--directed"],
    # quadruples take no instant extension, so only the resolution check sees it
    ["--resolution", "0", "--format", "quadruples"],
]


@pytest.mark.parametrize("command,option", [
    pytest.param(command, option, id=f"{command[0]} {' '.join(option)}")
    for command, options in [
        (["mine", "--output", "out.jsonl"], _BAD_MINING_OPTIONS),
        (["static-compare"], [*_BAD_MINING_OPTIONS, ["--static-min-support", "0"]]),
    ]
    for option in options
])
def test_every_mining_option_is_checked_before_any_file_is_read(
        tmp_path, monkeypatch, capsys, command, option):
    monkeypatch.chdir(tmp_path)
    # neither file exists, so reading one would be an input error (exit 1)
    assert run(*command, "--stream", "nope.csv", "--presence", "nope.txt", *option) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command,option,named", [
    pytest.param(command, option, option[0], id=f"{command[0]} {' '.join(option)}")
    for command, options in [
        (["mine", "--stream", "s.csv"],
         [["--output", "missing/out.jsonl"], ["--output", "."], ["--output", "taken.jsonl"],
          ["--output", "loop"]]),
        (["select", "--input", "in.jsonl"],
         [["--output", "missing/out.jsonl"], ["--output", "."], ["--output", "taken.jsonl"],
          ["--output", "loop"]]),
        (["static-compare", "--stream", "s.csv"],
         [["--stream-output", "missing/s.jsonl"], ["--stream-output", "."],
          ["--static-output", "missing/s.jsonl"], ["--static-output", "."],
          ["--stream-output", "loop"], ["--static-output", "loop"]]),
    ]
    for option in options
] + [
    # a re-run checks the output its manifest records
    pytest.param(["mine"], ["--manifest", "mine.json"], "--output", id="mine --manifest"),
    pytest.param(["select"], ["--manifest", "select.json"], "--output", id="select --manifest"),
])
def test_an_output_that_cannot_be_written_is_refused_before_any_file_is_read(
        tmp_path, monkeypatch, capsys, command, option, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken.jsonl.manifest.json").mkdir()  # where taken.jsonl's manifest would go
    (tmp_path / "loop").symlink_to("loop")
    for name, fields in [("mine", {"stream": "s.csv"}), ("select", {"input": "in.jsonl"})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"command": name, "output": "missing/out.jsonl", **fields}))
    # no input exists, so reading one would be an input error (exit 1)
    assert run(*command, *option) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and named in err


_TINY = ["--stream", "tiny_stream.csv", "--presence", "tiny_presence.csv",
         "--attributes", "tiny_attrs.csv", "--core", "identity"]


@pytest.mark.parametrize("argv,named,victim", [
    pytest.param(argv, named, victim, id=id_)
    for id_, argv, named, victim in [
        ("mine over its stream", ["mine", *_TINY, "--output", "tiny_stream.csv"],
         ("--output", "--stream"), "tiny_stream.csv"),
        ("mine over its presence", ["mine", *_TINY, "--output", "tiny_presence.csv"],
         ("--output", "--presence"), "tiny_presence.csv"),
        ("mine over its attributes", ["mine", *_TINY, "--output", "tiny_attrs.csv"],
         ("--output", "--attributes"), "tiny_attrs.csv"),
        ("mine through a symlink", ["mine", *_TINY, "--output", "link.jsonl"],
         ("--output", "--stream"), "tiny_stream.csv"),
        ("mine's manifest over its stream",
         ["mine", *_TINY[2:], "--stream", "out.jsonl.manifest.json", "--output", "out.jsonl"],
         ("--output", "--stream"), "out.jsonl.manifest.json"),
        ("mine --manifest over its stream", ["mine", "--manifest", "mine.json"],
         ("--output", "--stream"), "tiny_stream.csv"),
        ("select over its input",
         ["select", "--input", "patterns.jsonl", "--output", "patterns.jsonl"],
         ("--output", "--input"), "patterns.jsonl"),
        ("select --manifest over its input", ["select", "--manifest", "select.json"],
         ("--output", "--input"), "patterns.jsonl"),
        ("select over its --manifest", ["select", "--manifest", "own.json"],
         ("--output", "--manifest"), "own.json"),
        ("static-compare over its stream",
         ["static-compare", *_TINY, "--stream-output", "tiny_stream.csv"],
         ("--stream-output", "--stream"), "tiny_stream.csv"),
        ("static-compare over its attributes",
         ["static-compare", *_TINY, "--static-output", "./tiny_attrs.csv"],
         ("--static-output", "--attributes"), "tiny_attrs.csv"),
    ]
])
def test_an_output_that_is_an_input_is_refused_before_any_file_is_read(
        tmp_path, monkeypatch, capsys, argv, named, victim):
    monkeypatch.chdir(tmp_path)
    write_demo_files(tmp_path)
    assert run("mine", *_TINY, "--output", "patterns.jsonl") == 0
    (tmp_path / "out.jsonl.manifest.json").write_bytes((tmp_path / "tiny_stream.csv").read_bytes())
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "tiny_stream.csv")
    for name, manifest in [
        ("mine", {"command": "mine", "stream": "tiny_stream.csv", "output": "tiny_stream.csv"}),
        ("select", {"command": "select", "input": "patterns.jsonl", "output": "patterns.jsonl"}),
        ("own", {"command": "select", "input": "patterns.jsonl", "output": "own.json"}),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps(manifest))
    before = (tmp_path / victim).read_bytes()
    capsys.readouterr()
    assert run(*argv) == 2
    output, source = named
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {output}: cannot write ")
    assert err.endswith(f", which {source} reads\n")
    assert (tmp_path / victim).read_bytes() == before


def _files(directory):
    """Each entry of `directory` with whether it is a symlink and its bytes."""
    return {p.name: (p.is_symlink(), p.read_bytes()) for p in directory.iterdir()}


@pytest.mark.parametrize("argv,link,named", [
    pytest.param(argv, link, named, id=id_)
    for id_, argv, link, named in [
        ("static-compare to one file twice",
         ["static-compare", *_TINY, "--stream-output", "o.jsonl", "--static-output", "o.jsonl"],
         None, ("--static-output", "--stream-output")),
        ("static-compare through a symlink",
         ["static-compare", *_TINY, "--stream-output", "o.jsonl", "--static-output", "l.jsonl"],
         "l.jsonl", ("--static-output", "--stream-output")),
        ("mine's manifest a symlink to its output",
         ["mine", *_TINY, "--output", "o.jsonl"], "o.jsonl.manifest.json", ("--output", "--output")),
        ("select's manifest a symlink to its output",
         ["select", "--input", "in.jsonl", "--output", "o.jsonl"], "o.jsonl.manifest.json",
         ("--output", "--output")),
    ]
])
def test_two_outputs_that_are_one_file_are_refused_before_any_file_is_read(
        tmp_path, monkeypatch, capsys, argv, link, named):
    monkeypatch.chdir(tmp_path)
    write_demo_files(tmp_path)
    (tmp_path / "o.jsonl").write_text("old bytes\n")
    if link:
        (tmp_path / link).symlink_to(tmp_path / "o.jsonl")
    before = _files(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 2
    later, earlier = named
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {later}: cannot write ")
    assert err.endswith(f", which {earlier} writes\n")
    assert _files(tmp_path) == before


# 10,000 rows of about 10 characters: the bad byte lies past the reader's
# first chunk (`patternio._CHUNK_BYTES`)
_LONG_STREAM = "".join(f"{20 * i} a b\n" for i in range(1, 10_001)).encode()


@pytest.mark.parametrize("argv,data,line,chunk", [
    pytest.param(argv, data, line, chunk, id=id_)
    for id_, argv, data, line, chunk in [
        ("mine --stream", ["mine", "--stream", "bad", "--output", "o.jsonl"],
         _LONG_STREAM + b"200020 a \xffb\n", 10_001, None),
        ("mine --attributes",
         ["mine", *_TINY[:4], "--attributes", "bad", "--core", "identity", "--output", "o.jsonl"],
         b"a,x\vb,y\r\r\nc,z;\xff\r\n", 4, None),  # \v, a lone \r and \r\n all end a line
        # the bad byte's offset is taken after the byte-order mark, not in the raw bytes
        ("mine --attributes after a byte-order mark",
         ["mine", *_TINY[:4], "--attributes", "bad", "--core", "identity", "--output", "o.jsonl"],
         b"\xef\xbb\xbfa,x\nb,\xff\n", 2, None),
        # 4-byte chunks: the bad byte is in the rest of its line that finishes the third
        ("mine --stream in a chunk's finished line",
         ["mine", "--stream", "bad", "--output", "o.jsonl"],
         b"# x\n20 a b\n40 a \xffb\n", 3, 4),
        ("mine --presence",
         ["mine", "--stream", "tiny_stream.csv", "--presence", "bad", "--output", "o.jsonl"],
         b"# b e v\n0 5 a\n0 5 \xe2\x80b\n", 3, None),
        ("select --input", ["select", "--input", "bad", "--output", "o.jsonl"], None, 8, None),
        ("inspect --input", ["inspect", "--input", "bad"], None, 8, None),
        # a pattern file is cut as a data file is: \x85 ends a line there too
        ("select --input after U+0085", ["select", "--input", "bad", "--output", "o.jsonl"],
         b'{"intent": ["\xc2\x85"], "support": {}, "support_measure": 0, "node_count": 0, '
         b'"below_min_support": true}\n\xff\n', 3, None),
    ]
])
def test_a_data_file_that_is_not_utf8_is_an_input_error_naming_its_line(
        tmp_path, monkeypatch, capsys, argv, data, line, chunk):
    monkeypatch.chdir(tmp_path)
    write_demo_files(tmp_path)
    if data is None:  # seven mined records, then a bad line
        assert run("mine", *_TINY, "--output", "patterns.jsonl") == 0
        data = (tmp_path / "patterns.jsonl").read_bytes() + b'{"intent": ["\xff"]}\n'
    (tmp_path / "bad").write_bytes(data)
    capsys.readouterr()
    if chunk is None:
        assert run(*argv) == 1
    else:
        with read_in_chunks(chunk) as taken:
            assert run(*argv) == 1
        assert len(taken) == 3  # the bad byte is in the third chunk
    assert capsys.readouterr().err.startswith(f"input error: bad:{line}: not UTF-8 text")
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("text,detail", [
    (b'{"command": "mine", "stream": "\xff"}', ""), (b'{"command": ', ""),
    # json.loads alone would keep the last value
    (b'{"command": "mine", "stream": "s.csv", "min_support": 9, "min_support": 2}',
     "repeated key 'min_support'\n"),
])
def test_a_manifest_that_is_not_json_text_is_a_config_error_naming_it(tmp_path, capsys, text,
                                                                        detail):
    path = tmp_path / "bad.manifest.json"
    path.write_bytes(text)
    assert run("mine", "--manifest", path) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: --manifest {path}: {detail}")


class TestMineCommand:
    def test_reference_context(self, demo, tmp_path, capsys):
        out = tmp_path / "patterns.jsonl"
        code = run(
            "mine",
            "--stream", demo["context_stream"],
            "--presence", demo["context_presence"],
            "--attributes", demo["context_attrs"],
            "--core", "identity",
            "--min-support", 1,
            "--output", out,
        )
        assert code == 0
        records = read_patterns(out)
        assert len(records) == 7
        assert "patterns: 7" in capsys.readouterr().out

    def test_empty_stream_is_a_warning_not_an_error(self, tmp_path, capsys, caplog):
        stream = tmp_path / "empty.csv"
        stream.write_text("# nothing here\n")
        out = tmp_path / "patterns.jsonl"
        code = run("mine", "--stream", stream, "--output", out)
        assert code == 0
        assert read_patterns(out) == []
        assert "patterns: 0" in capsys.readouterr().out

    def test_star_toy_root_support_is_the_core(self, demo, tmp_path):
        out = tmp_path / "patterns.jsonl"
        code = run(
            "mine",
            "--stream", demo["star_stream"],
            "--presence", demo["star_presence"],
            "--core", "star-sat:2",
            "--output", out,
        )
        assert code == 0
        records = read_patterns(out)
        assert len(records) == 1
        stream = star_toy_stream()
        want = star_satellite_core(stream, stream.presence_set(), 2)
        assert records[0].support == want

    @pytest.mark.parametrize("marked", ["stream", "presence", "attributes"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, marked):
        files = {"stream": "0 2 a b\n1 3 a c\n1 2 b c\n", "presence": "0 3 a\n0 3 b\n1 3 c\n",
                 "attributes": "a,x;y\nb,x\nc,x;z\n"}
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            directory = tmp_path / f"bom{len(bom)}"
            directory.mkdir()
            argv = []
            for name, text in files.items():
                (directory / name).write_bytes((bom if name == marked else b"") + text.encode())
                argv += [f"--{name}", directory / name]
            assert run("mine", *argv, "--core", "star-sat:1", "--output",
                       directory / "patterns.jsonl") == 0
            outputs.append((directory / "patterns.jsonl").read_bytes())
        assert outputs[1] == outputs[0]
        assert read_patterns(tmp_path / "bom3" / "patterns.jsonl")[0].items == ("x",)

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code = run("mine", "--stream", tmp_path / "nope.csv",
                   "--output", tmp_path / "out.jsonl")
        assert code == 1

    def test_bad_core_spec_is_a_config_error(self, demo, tmp_path):
        code = run("mine", "--stream", demo["star_stream"],
                   "--core", "star-sat:two", "--output", tmp_path / "out.jsonl")
        assert code == 2

    def test_malformed_stream_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1 2 3 4 5 6\n")
        code = run("mine", "--stream", bad, "--output", tmp_path / "out.jsonl")
        assert code == 1

    def test_presence_that_does_not_cover_the_stream_is_an_input_error(self, tmp_path, capsys):
        stream, presence = tmp_path / "q.csv", tmp_path / "p.csv"
        stream.write_text("1 9 a b\n")
        presence.write_text("0 5 a\n0 5 b\n")
        code = run("mine", "--stream", stream, "--presence", presence, "--core", "identity",
                   "--output", tmp_path / "o.jsonl")
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: {presence}: presence of node 'a' does not cover its "
            f"interaction intervals in {stream}\n")
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("delta", ["20.4", "inf", "nan"])
    def test_delta_off_the_tick_grid_is_a_config_error(self, tmp_path, capsys, delta):
        stream = tmp_path / "s.csv"
        stream.write_text("20 a b\n40 a b\n")
        code = run("mine", "--stream", stream, "--delta", delta,
                   "--output", tmp_path / "out.jsonl")
        assert code == 2
        assert "instant extension" in capsys.readouterr().err

    @pytest.mark.parametrize("stamp", ["inf", "nan"])
    def test_non_finite_timestamp_is_an_input_error(self, tmp_path, capsys, stamp):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"20 a b\n{stamp} a b\n")
        code = run("mine", "--stream", bad, "--output", tmp_path / "out.jsonl")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "bad.csv:2" in err
        assert "Traceback" not in err

    def test_manifest_rerun_is_byte_identical(self, demo, tmp_path):
        first = tmp_path / "first.jsonl"
        code = run(
            "mine",
            "--stream", demo["compare_stream"],
            "--attributes", demo["compare_attrs"],
            "--core", "star-sat:2",
            "--output", first,
        )
        assert code == 0
        manifest_path = tmp_path / "first.jsonl.manifest.json"
        assert manifest_path.exists()

        # point the recorded manifest at a second output file
        manifest = json.loads(manifest_path.read_text())
        second = tmp_path / "second.jsonl"
        manifest["output"] = str(second)
        rerun_manifest = tmp_path / "rerun.manifest.json"
        rerun_manifest.write_text(json.dumps(manifest))

        assert run("mine", "--manifest", rerun_manifest) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_manifest_rerun_over_its_own_output_is_byte_identical(self, demo, tmp_path):
        out = tmp_path / "patterns.jsonl"
        assert run("mine", "--stream", demo["compare_stream"], "--attributes",
                   demo["compare_attrs"], "--core", "star-sat:2", "--output", out) == 0
        manifest = tmp_path / "patterns.jsonl.manifest.json"
        mined, recorded = out.read_bytes(), manifest.read_bytes()
        assert run("mine", "--manifest", manifest) == 0
        assert out.read_bytes() == mined
        assert manifest.read_bytes() == recorded

    def test_manifest_rerun_from_another_directory_is_byte_identical(self, tmp_path,
                                                                       monkeypatch):
        # the manifests record absolute paths; the other directory holds files of the
        # same names that a relative path would read instead
        here, there = tmp_path / "here", tmp_path / "there"
        write_demo_files(here)
        decoy = write_demo_files(there)
        decoy["compare_stream"].write_bytes(decoy["star_stream"].read_bytes())
        monkeypatch.chdir(here)
        assert run("mine", "--stream", "compare_toy.csv", "--attributes", "compare_toy_attrs.csv",
                   "--core", "star-sat:2", "--output", "mined.jsonl") == 0
        assert run("select", "--input", "mined.jsonl", "--beta", 0.4,
                   "--output", "selected.jsonl") == 0
        names = ["mined.jsonl", "mined.jsonl.manifest.json",
                 "selected.jsonl", "selected.jsonl.manifest.json"]
        first = {name: (here / name).read_bytes() for name in names}
        (there / "mined.jsonl").write_bytes(b"")  # what a relative --input would read
        monkeypatch.chdir(there)
        assert run("mine", "--manifest", "../here/mined.jsonl.manifest.json") == 0
        assert run("select", "--manifest", "../here/selected.jsonl.manifest.json") == 0
        assert {name: (here / name).read_bytes() for name in names} == first
        assert (there / "mined.jsonl").read_bytes() == b""
        assert not (there / "selected.jsonl").exists()

    @pytest.mark.parametrize("order, code", [("file", 0), ("name", 2), ("seed:5", 2)])
    def test_manifest_with_an_item_order(self, demo, tmp_path, capsys, order, code):
        # earlier versions recorded the item order, "file" unless another was asked for;
        # only a "file" run can be reproduced
        first = tmp_path / "first.jsonl"
        assert run("mine", "--stream", demo["compare_stream"],
                   "--attributes", demo["compare_attrs"], "--output", first) == 0
        manifest = json.loads((tmp_path / "first.jsonl.manifest.json").read_text())
        second = tmp_path / "second.jsonl"
        manifest.update(item_order=order, output=str(second))
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run("mine", "--manifest", old) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "item_order" in err
            assert not second.exists()
        else:
            assert second.read_bytes() == first.read_bytes()

    def test_default_core_follows_stream_kind(self, demo, tmp_path):
        out = tmp_path / "out.jsonl"
        assert run("mine", "--stream", demo["star_stream"],
                   "--presence", demo["star_presence"], "--output", out) == 0
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["core"] == "star-sat:2"

        out2 = tmp_path / "out2.jsonl"
        assert run("mine", "--stream", demo["bipartite_stream"], "--directed",
                   "--output", out2) == 0
        manifest = json.loads((tmp_path / "out2.jsonl.manifest.json").read_text())
        assert manifest["core"] == "ha:2,2"

    def test_manifest_refuses_other_run_options(self, demo, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert run("mine", "--stream", demo["star_stream"], "--output", out) == 0
        mined = out.read_bytes()
        capsys.readouterr()
        other = tmp_path / "other.jsonl"
        code = run("mine", "--manifest", tmp_path / "out.jsonl.manifest.json",
                   "--output", other, "--min-support", 99)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "--output" in err and "--min-support" in err
        assert not other.exists()
        assert out.read_bytes() == mined

    def test_manifest_command_mismatch(self, demo, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert run("mine", "--stream", demo["star_stream"], "--output", out) == 0
        manifest = tmp_path / "out.jsonl.manifest.json"
        # the earlier layout also holds select's fields, each with a value select takes
        earlier = tmp_path / "earlier.manifest.json"
        earlier.write_text(json.dumps({**_EARLIER_LAYOUT, **json.loads(manifest.read_text())}))
        capsys.readouterr()
        for path in (manifest, earlier):
            assert run("select", "--manifest", path) == 2
            assert capsys.readouterr().err == (
                "configuration error: manifest was recorded for 'mine', not 'select'\n")


@pytest.mark.parametrize("command, field, value, code", [
    ("mine", "min_support", "2000", 2),
    ("mine", "directed", "yes", 2),
    ("mine", "directed", 1, 2),
    ("mine", "resolution", True, 2),
    ("mine", "resolution", 1.0, 2),
    ("mine", "delta", False, 2),
    ("mine", "core", None, 2),
    ("mine", "stream", 5, 2),
    ("mine", "command", ["mine"], 2),
    ("select", "beta", "0.4", 2),
    ("select", "output", ["x.jsonl"], 2),
    # a float field takes any JSON number, an optional field null
    ("mine", "delta", 20, 0),
    ("mine", "attributes", None, 0),
    ("select", "beta", 0, 0),
])
def test_manifest_values_must_have_their_json_type(
        demo, tmp_path, capsys, command, field, value, code):
    mined = tmp_path / "mined.jsonl"
    assert run("mine", "--stream", demo["context_stream"], "--presence",
               demo["context_presence"], "--attributes", demo["context_attrs"],
               "--core", "identity", "--output", mined) == 0
    if command == "select":
        assert run("select", "--input", mined, "--output", tmp_path / "selected.jsonl") == 0
    recorded = tmp_path / ("selected.jsonl" if command == "select" else "mined.jsonl")
    manifest = json.loads(recorded.with_name(recorded.name + ".manifest.json").read_text())
    manifest.update({"output": str(tmp_path / "rerun.jsonl"), field: value})
    path = tmp_path / "edited.manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(command, "--manifest", path) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"configuration error: manifest field {field} must be")
        assert not (tmp_path / "rerun.jsonl").exists()
    else:
        assert (tmp_path / "rerun.jsonl").exists()


def test_manifest_with_an_unknown_field_is_a_config_error_naming_it(tmp_path, capsys):
    path = tmp_path / "typo.manifest.json"
    path.write_text(json.dumps({"command": "mine", "stream": "s.csv", "min_suport": 2,
                                "output": str(tmp_path / "out.jsonl")}))
    # refused before the stream is read: it does not exist
    assert run("mine", "--manifest", path) == 2
    assert capsys.readouterr().err == (
        "configuration error: manifest has unknown fields: ['min_suport']\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("text", ["[]", "{}", '"mine"'])
def test_manifest_must_be_an_object_with_a_command(tmp_path, capsys, text):
    path = tmp_path / "bad.manifest.json"
    path.write_text(text)
    assert run("mine", "--manifest", path) == 2
    assert "must be a JSON object with a command field" in capsys.readouterr().err


# every field of a manifest as earlier versions wrote it, with the value it
# recorded when the command did not take the option
_EARLIER_LAYOUT = {
    "command": None, "stream": None, "format": "auto", "attributes": None, "presence": None,
    "directed": False, "resolution": 1, "delta": 20.0, "core": "auto", "min_support": 1,
    "min_intent_size": 0, "support_measure": "duration", "input": None, "output": None,
    "beta": 0.0, "betas": "0,0.2,0.4,0.6,0.8", "g": "duration", "static_min_support": 1,
}


class TestManifestFields:
    """A manifest records its command's options; an earlier one re-runs when it says the same."""

    @pytest.fixture()
    def recorded(self, demo, tmp_path, capsys):
        """{command: (its output's bytes, its manifest, what it printed)} of a mine and a select."""
        mined, selected = tmp_path / "mined.jsonl", tmp_path / "selected.jsonl"
        runs = {}
        for argv in (["mine", "--stream", demo["compare_stream"], "--attributes",
                      demo["compare_attrs"], "--core", "star-sat:2", "--output", mined],
                     ["select", "--input", mined, "--beta", 0.4, "--output", selected]):
            assert run(*argv) == 0
            out = Path(argv[-1])
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            runs[argv[0]] = out.read_bytes(), manifest, capsys.readouterr().out
        return runs

    def test_a_manifest_holds_its_command_and_the_fields_of_its_options(self, recorded):
        assert list(recorded["mine"][1]) == [
            "command", "stream", "format", "attributes", "presence", "directed", "resolution",
            "delta", "core", "min_support", "min_intent_size", "support_measure", "output"]
        assert list(recorded["select"][1]) == [
            "command", "input", "output", "beta", "betas", "g"]

    @pytest.mark.parametrize("item_order", [None, "file"])
    @pytest.mark.parametrize("command", ["mine", "select"])
    def test_a_manifest_of_the_earlier_layout_re_runs_byte_for_byte(
            self, recorded, tmp_path, capsys, command, item_order):
        output, manifest, printed = recorded[command]
        again = tmp_path / "again.jsonl"
        earlier = {**_EARLIER_LAYOUT, **manifest, "output": str(again)}
        if item_order:
            earlier["item_order"] = item_order
        path = tmp_path / "earlier.manifest.json"
        path.write_text(json.dumps(earlier))
        assert run(command, "--manifest", path) == 0
        assert again.read_bytes() == output
        if command == "select":
            assert capsys.readouterr().out == printed

    @pytest.mark.parametrize("command,field,value", [
        ("select", "core", "ha:1,1"),
        ("select", "min_support", 5),
        ("select", "static_min_support", 7),
        ("select", "directed", 0),  # not the false it recorded
        ("select", "item_order", "name"),
        ("mine", "beta", 0.9),
        ("mine", "input", "/nonexistent"),
        ("mine", "item_order", "name"),
    ])
    def test_a_field_the_command_does_not_take_must_hold_its_recorded_value(
            self, recorded, tmp_path, capsys, command, field, value):
        out = tmp_path / "again.jsonl"
        # neither input exists, so reading one would be an input error (exit 1)
        missing = str(tmp_path / "missing")
        earlier = {**_EARLIER_LAYOUT, **recorded[command][1], "output": str(out), field: value}
        earlier["stream" if command == "mine" else "input"] = missing
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(earlier))
        assert run(command, "--manifest", path) == 2
        assert capsys.readouterr().err == (
            f"configuration error: manifest field {field} is {value!r}, but {command} does not "
            f"take it, so the run cannot be reproduced\n")
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()


class TestSelectCommand:
    @pytest.fixture()
    def mined(self, demo, tmp_path):
        out = tmp_path / "patterns.jsonl"
        assert run(
            "mine",
            "--stream", demo["context_stream"],
            "--presence", demo["context_presence"],
            "--attributes", demo["context_attrs"],
            "--core", "identity",
            "--output", out,
        ) == 0
        return out

    def test_beta_zero_keeps_all(self, mined, tmp_path, capsys):
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", mined, "--beta", 0, "--output", out) == 0
        assert len(read_patterns(out)) == 7
        assert "kept 7 of 7" in capsys.readouterr().out

    def test_beta_one_with_overlapping_supports(self, mined, tmp_path):
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", mined, "--beta", 1, "--output", out) == 0
        kept = read_patterns(out)
        # every support shares node-ticks with the top one here
        assert len(kept) == 1
        assert kept[0].items == ("a",)

    def test_sweep_is_reported_and_monotone(self, mined, tmp_path, capsys):
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", mined, "--beta", 0.4,
                   "--betas", "0,0.2,0.4,0.6,0.8", "--output", out) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "beta=" in l and "kept=" in l]
        counts = [int(l.rsplit("kept=", 1)[1]) for l in lines]
        assert len(counts) == 5
        # pinned for this fixed demo input as a regression check, not as a
        # property of the method: a greedy β-scan need not be monotone
        assert counts == sorted(counts, reverse=True)

    def test_missing_input(self, tmp_path):
        assert run("select", "--input", tmp_path / "nope.jsonl",
                   "--output", tmp_path / "o.jsonl") == 1

    @pytest.mark.parametrize("edit", [
        lambda row: row.update(support_measure=5),
        lambda row: row.update(node_count=999),
        lambda row: row.pop("support"),
        lambda row: row.update(intent="ab"),
        lambda row: row.update(support={v: [[a, b + 0.5] for a, b in spans]
                                        for v, spans in row["support"].items()}),
        lambda row: row.update(support_measure=float(row["support_measure"])),
        lambda row: row.update(node_count=float(row["node_count"])),
        lambda row: row["support"].update({v: spans[:1] + spans
                                           for v, spans in row["support"].items()}),
        lambda row: row["support"].update({v: [[spans[0][0]] * 2]
                                           for v, spans in row["support"].items()}),
        lambda row: row["support"].update({v: [] for v in row["support"]}),
        # mine flags every empty support, as its min_support is at least 1
        lambda row: row.update(support={}, support_measure=0, node_count=0),
        # json.loads alone would keep the last value of a repeated key: the record's own
        lambda row: json.dumps(row).replace(
            '"support": {', '"support": {%s: [[0, 9]], ' % json.dumps(next(iter(row["support"])))),
        lambda row: json.dumps(row).replace('"intent": ', '"intent": ["x"], "intent": '),
    ], ids=["forged-measure", "forged-node-count", "no-support", "string-intent",
            "fractional-span", "float-measure", "float-node-count", "overlapping-spans",
            "empty-span", "no-spans", "unflagged-empty-support", "repeated-node",
            "repeated-intent"])
    def test_bad_record_is_an_input_error(self, mined, tmp_path, capsys, edit):
        lines = mined.read_text().splitlines()
        row = json.loads(lines[0])
        text = edit(row)  # the edited line, from an edit that writes it itself
        lines[0] = text if type(text) is str else json.dumps(row)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", bad, "--output", out) == 1
        assert f"{bad}:1: bad pattern record" in capsys.readouterr().err
        assert not out.exists()
        assert run("inspect", "--input", bad) == 1

    @pytest.mark.parametrize("option", [["--betas", "0,x"], ["--betas", "0,2"], ["--beta", "2"]])
    def test_configuration_is_checked_before_any_file_is_touched(
            self, mined, tmp_path, capsys, option):
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", mined, "--output", out, *option) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.out == ""
        assert not out.exists()
        assert not (tmp_path / "selected.jsonl.manifest.json").exists()

    def test_manifest_refuses_other_run_options(self, mined, tmp_path, capsys):
        out = tmp_path / "selected.jsonl"
        assert run("select", "--input", mined, "--beta", 0, "--output", out) == 0
        selected = out.read_bytes()
        capsys.readouterr()
        code = run("select", "--manifest", tmp_path / "selected.jsonl.manifest.json",
                   "--beta", 1)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "--beta" in err
        assert out.read_bytes() == selected

    def test_each_distinct_pair_is_measured_once(self, mined, tmp_path, monkeypatch):
        original = selection.temporal_jaccard_distance
        calls = []

        def counting(wi, wj, *rest):
            calls.append(frozenset((id(wi), id(wj))))
            return original(wi, wj, *rest)

        monkeypatch.setattr(selection, "temporal_jaccard_distance", counting)
        assert run("select", "--input", mined, "--beta", 0.4,
                   "--betas", "0,0.2,0.4,0.6,0.8,1", "--output", tmp_path / "s.jsonl") == 0
        assert calls
        assert len(calls) == len(set(calls))
        assert len(calls) <= 7 * 6 // 2

    @pytest.mark.parametrize("beta,scans", [(0.4, 5), (0.3, 6)])
    def test_each_distinct_beta_is_scanned_once_in_one_interest_order(
            self, mined, tmp_path, capsys, monkeypatch, beta, scans):
        calls = {"scans": 0, "orders": 0}

        def counted(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        monkeypatch.setattr(selection, "_scan", counted("scans", selection._scan))
        monkeypatch.setattr(selection, "interest_key",
                            counted("orders", selection.interest_key))
        betas = [0, 0.2, 0.4, 0.6, 0.8]
        out = tmp_path / "s.jsonl"
        assert run("select", "--input", mined, "--beta", beta,
                   "--betas", ",".join(map(str, betas)), "--output", out) == 0
        assert calls == {"scans": scans, "orders": 1}
        records = read_patterns(mined)
        want = tmp_path / "want.jsonl"
        write_patterns(reference_select(records, beta), want)
        assert out.read_bytes() == want.read_bytes()
        assert capsys.readouterr().out == (
            f"beta={beta:g}: kept {len(reference_select(records, beta))} of {len(records)}\n"
            "sweep:\n" + "".join(f"  beta={b:g} kept={len(reference_select(records, b))}\n"
                                 for b in betas))

    def test_a_reader_that_leaves_early_ends_it_with_exit_141(self, mined, tmp_path):
        # the sweep report outgrows a pipe's buffer, so select is still
        # writing when the reader closes its end
        env = dict(os.environ, PYTHONPATH=str(Path(selection.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "streamcores.cli", "select", "--input", str(mined),
             "--betas", ",".join(["1"] * 10000), "--output", str(tmp_path / "s.jsonl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline() == b"beta=0: kept 7 of 7\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""


def test_commands_leave_no_reference_cycles_of_their_own(demo, tmp_path):
    # main keeps the cyclic collector off while a command runs, so what the
    # data path allocates must be freed by reference counting alone. The
    # parser leaves the same cycles whatever the input: a toy and a larger
    # stream must leave as many unreachable objects, command by command
    rng = random.Random(7)
    nodes = [f"n{i:02d}" for i in range(40)]
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{20 * (t // 3)} {' '.join(rng.sample(nodes, 2))}\n"
                           for t in range(3, 1500)))
    big_attrs = tmp_path / "big_attrs.csv"
    items = [f"i{j}" for j in range(6)]
    big_attrs.write_text("".join(f"{v},{';'.join(rng.sample(items, 3))}\n" for v in nodes))

    def cycles_left(stream, attributes, min_support):
        out, selected = tmp_path / "patterns.jsonl", tmp_path / "selected.jsonl"
        found = []
        for argv in (["mine", "--stream", stream, "--attributes", attributes,
                      "--core", "star-sat:2", "--min-support", min_support, "--output", out],
                     ["select", "--input", out, "--beta", 0.4, "--output", selected]):
            gc.collect()
            assert run(*argv) == 0
            assert gc.isenabled()
            found.append(gc.collect())
        assert len(read_patterns(out)) > 1
        return found

    toy = cycles_left(demo["compare_stream"], demo["compare_attrs"], 1)
    assert cycles_left(big, big_attrs, 50) == toy


def _python(args, cwd="."):
    """A fresh interpreter on `args`, importing this package, with its output piped."""
    env = dict(os.environ, PYTHONPATH=str(Path(selection.__file__).parents[1]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def _cli_process(argv, cwd):
    return _python(["-m", "streamcores.cli", *argv], cwd)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_decimal():
    # every CLI process pays for what it imports; what `site` loaded before does not count
    done = _python(["-c", "import sys; before = set(sys.modules); import streamcores.cli; "
                          "print(*sorted(set(sys.modules) - before))"])
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "streamcores.cli" in loaded
    assert not {"dataclasses", "inspect", "decimal"} & set(loaded)


@pytest.mark.parametrize("options,decimal", [
    ([], False),  # the default --delta 20 is a whole number of seconds
    (["--delta", 0.5, "--resolution", 2], True),
])
def test_mine_loads_decimal_only_for_a_delta_that_is_not_an_integer(tmp_path, options, decimal):
    write_demo_files(tmp_path)
    argv = ["mine", "--stream", "compare_toy.csv", "--output", "o.jsonl", *map(str, options)]
    done = _python(["-c", f"import sys; from streamcores import cli; code = cli.main({argv!r}); "
                          "print(code, 'decimal' in sys.modules)"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 {decimal}"


_DEMO_COMMANDS = {
    "mine": ["mine", "--stream", "compare_toy.csv", "--attributes", "compare_toy_attrs.csv",
             "--core", "star-sat:2", "--output", "patterns.jsonl"],
    "select": ["select", "--input", "patterns.jsonl", "--beta", "0.4",
               "--output", "selected.jsonl"],
    "inspect": ["inspect", "--input", "patterns.jsonl"],
    "static-compare": ["static-compare", "--stream", "compare_toy.csv",
                       "--attributes", "compare_toy_attrs.csv", "--core", "star-sat:2"],
}


@pytest.fixture(scope="module")
def loaded_by_command(tmp_path_factory):
    """Each command on the demo files, in order, each in a fresh process that calls
    `main`: the command -> the modules loaded when it returned, `site`'s excepted."""
    cwd = write_demo_files(tmp_path_factory.mktemp("demo"))["compare_stream"].parent
    loaded = {}
    for command, argv in _DEMO_COMMANDS.items():
        done = _python(["-c", "import sys; before = set(sys.modules); "
                              f"from streamcores.cli import main; code = main({argv!r}); "
                              "print(code, *sorted(set(sys.modules) - before))"], cwd)
        assert done.returncode == 0, done.stderr
        code, *modules = done.stdout.splitlines()[-1].split()
        assert code == "0", done.stdout
        loaded[command] = set(modules)
    assert not any(rec.below_min_support for rec in read_patterns(cwd / "patterns.jsonl"))
    return loaded


def test_every_package_module_is_one_a_command_runs(loaded_by_command):
    # code only the tests use, the oracle among it, lives under tests/; `toys`
    # writes the demo files the README runs
    package = Path(selection.__file__).parent
    modules = {f"streamcores.{path.stem}" for path in package.glob("*.py")}
    ran = set().union(*loaded_by_command.values())
    assert modules - {"streamcores.__init__"} == {
        m for m in ran if m.startswith("streamcores.")} | {"streamcores.toys"}


def test_select_and_inspect_load_no_miner_no_stream_reader_and_no_logging(loaded_by_command):
    mining = {"logging", "streamcores.mining", "streamcores.cores", "streamcores.context",
              "streamcores.dataio"}
    # on a pattern file without a flagged record, which select would log
    for command in ("select", "inspect"):
        assert "streamcores.patternio" in loaded_by_command[command]
        assert not mining & loaded_by_command[command], command
    for command in ("mine", "static-compare"):
        assert mining <= loaded_by_command[command], command


def test_select_reports_the_records_flagged_below_min_support(tmp_path):
    # a threshold above the root's support: the one record, the root, is
    # flagged, as in the ingest-xl benchmark
    write_demo_files(tmp_path)
    mined = _cli_process(["mine", "--stream", "compare_toy.csv", "--core", "identity",
                          "--min-support", "100000", "--output", "patterns.jsonl"], tmp_path)
    assert mined.returncode == 0, mined.stderr
    assert mined.stdout.startswith("patterns: 0 (+1 below min-support)\n")
    done = _cli_process(["select", "--input", "patterns.jsonl", "--output", "selected.jsonl"],
                        tmp_path)
    assert done.returncode == 0
    assert done.stderr == "INFO ignoring 1 record(s) flagged below min-support\n"
    assert done.stdout == ("beta=0: kept 0 of 0\nsweep:\n  beta=0 kept=0\n  beta=0.2 kept=0\n"
                           "  beta=0.4 kept=0\n  beta=0.6 kept=0\n  beta=0.8 kept=0\n")
    assert (tmp_path / "selected.jsonl").read_bytes() == b""


def test_tracing_finds_every_layer_the_benchmark_reports(tmp_path):
    # perfbench/traced.py rebinds module globals of the package, cli.mine,
    # cli.read_patterns, cli.write_patterns and cli.selection_counts among them;
    # a span or note it loses is a benchmark metric that cannot be read
    traced = Path(__file__).parents[1] / "perfbench" / "traced.py"
    write_demo_files(tmp_path)
    traces = {}
    for command in ("mine", "select"):
        done = _python([traced, f"{command}.trace.json", *_DEMO_COMMANDS[command]], tmp_path)
        assert done.returncode == 0, done.stderr
        traces[command] = json.loads((tmp_path / f"{command}.trace.json").read_text())
    mined, selected = traces["mine"], traces["select"]
    assert {"dataio.read", "dataio.ingest", "stream.build", "mining", "cores",
            "context.intent", "cli.write_patterns"} <= set(mined["names"])
    assert {"cli.read_patterns", "cli.write_patterns", "selection.sweep"} <= set(
        selected["names"])
    assert mined["counts"]["intervals.coverage"] > 0
    assert mined["notes"]["rows"] > 0
    assert mined["notes"]["patterns"] == len(read_patterns(tmp_path / "patterns.jsonl")) > 1
    assert mined["notes"]["max_depth"] > 0


def test_importing_the_package_loads_no_module_of_it():
    done = _python(["-c", "import sys, streamcores; "
                          "print(*(m for m in sys.modules if m.startswith('streamcores')))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["streamcores"]


def test_every_public_name_is_its_defining_modules_object():
    import streamcores
    assert set(streamcores.__all__) <= set(dir(streamcores))
    for name in streamcores.__all__:
        value = getattr(streamcores, name)
        # the module of a class or function, or of the class of EMPTY
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("streamcores.")
        assert getattr(home, name) is value
    with pytest.raises(AttributeError, match="'streamcores' has no attribute 'no_such_name'"):
        streamcores.no_such_name


@pytest.mark.parametrize("stem", sorted(path.stem for path in
                                        Path(selection.__file__).parent.glob("*.py")))
def test_every_annotation_in_the_package_resolves(stem):
    # an annotation names only what its module binds, so the type hints of every
    # function, method and class it defines resolve
    module = importlib.import_module("streamcores" if stem == "__init__" else f"streamcores.{stem}")
    failed, checked = [], 0
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        for member in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if inspect.isfunction(member) or isinstance(member, type):
                checked += 1
                try:
                    typing.get_type_hints(member)
                except NameError as err:
                    failed.append(f"{member.__qualname__}: {err}")
    assert checked or stem == "__init__"
    assert failed == []


class TestProcessExit:
    """`entry` freezes the heap before the interpreter exits; the process loses nothing."""

    MINE = ["mine", "--stream", "compare_toy.csv", "--attributes", "compare_toy_attrs.csv",
            "--core", "star-sat:2", "--output", "patterns.jsonl"]
    SELECT = ["select", "--input", "patterns.jsonl", "--beta", 0.4, "--output", "selected.jsonl"]
    OUTPUTS = ["patterns.jsonl", "patterns.jsonl.manifest.json",
               "selected.jsonl", "selected.jsonl.manifest.json"]

    def test_processes_write_and_print_what_main_does(self, tmp_path, monkeypatch, capsys):
        in_process, processes = tmp_path / "main", tmp_path / "processes"
        write_demo_files(in_process)
        write_demo_files(processes)
        monkeypatch.chdir(in_process)
        printed = []
        for argv in (self.MINE, self.SELECT):
            assert run(*argv) == 0
            printed.append(capsys.readouterr().out)
        for argv, want in zip((self.MINE, self.SELECT), printed):
            done = _cli_process(argv, processes)
            assert done.returncode == 0, done.stderr
            # mine's wall time is the one line that may differ
            assert ([line for line in done.stdout.splitlines() if not line.startswith("wall")]
                    == [line for line in want.splitlines() if not line.startswith("wall")])
        sweep = [line for line in done.stdout.splitlines() if line.startswith("  beta=")]
        assert [line.split(" kept=")[0] for line in sweep] == [
            f"  beta={beta}" for beta in ("0", "0.2", "0.4", "0.6", "0.8")]
        for name in self.OUTPUTS:
            # a manifest records absolute paths, in its own run's directory
            got = (processes / name).read_text().replace(str(processes.resolve()),
                                                         str(in_process.resolve()))
            assert got == (in_process / name).read_text(), name

    @pytest.mark.parametrize("argv,code,line", [
        (["mine", "--stream", "missing.csv", "--output", "out.jsonl"], 1,
         "input error: [Errno 2] No such file or directory: 'missing.csv'"),
        # an input path under a regular file
        *[(argv, 1, "input error: [Errno 20] Not a directory: 'compare_toy.csv/x'") for argv in [
            ["mine", "--stream", "compare_toy.csv/x", "--output", "out.jsonl"],
            ["mine", "--stream", "compare_toy.csv", "--attributes", "compare_toy.csv/x",
             "--output", "out.jsonl"],
            ["mine", "--stream", "compare_toy.csv", "--presence", "compare_toy.csv/x",
             "--output", "out.jsonl"],
            ["select", "--input", "compare_toy.csv/x", "--output", "out.jsonl"],
        ]],
        (["mine", "--stream", "compare_toy.csv", "--min-support", 0, "--output", "out.jsonl"], 2,
         "configuration error: minimum support must be positive"),
        # a required option left out
        (["mine", "--output", "out.jsonl"], 2, "configuration error: no stream file given"),
        (["mine", "--stream", "compare_toy.csv"], 2, "configuration error: mine needs --output"),
        *[(argv, 2, "configuration error: select needs --input and --output") for argv in [
            ["select", "--input", "compare_toy.csv"], ["select", "--output", "out.jsonl"]]],
        (["inspect"], 2, "configuration error: inspect needs --input"),
        # a name longer than a directory entry can be
        *[(argv, 1, f"input error: [Errno 36] File name too long: '{'s' * 300}'") for argv in [
            ["mine", "--stream", "s" * 300, "--output", "out.jsonl"],
            ["select", "--input", "s" * 300, "--output", "out.jsonl"],
        ]],
    ])
    def test_errors_keep_their_exit_code_and_message(self, tmp_path, argv, code, line):
        write_demo_files(tmp_path)
        done = _cli_process(argv, tmp_path)
        assert done.returncode == code
        assert done.stderr.splitlines() == [line]
        assert not (tmp_path / "out.jsonl").exists()

    def test_a_symlink_loop_is_an_input_error(self, tmp_path):
        write_demo_files(tmp_path)
        (tmp_path / "loop").symlink_to("loop")
        done = _cli_process(["mine", "--stream", "loop", "--output", "out.jsonl"], tmp_path)
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "input error: [Errno 40] Too many levels of symbolic links: 'loop'"]
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("collecting", [True, False])
    def test_main_freezes_nothing_and_restores_the_collector(
            self, tmp_path, monkeypatch, collecting):
        write_demo_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        # the interpreter may start with objects frozen (375 on CPython 3.12.1)
        frozen = gc.get_freeze_count()
        (gc.enable if collecting else gc.disable)()
        try:
            for argv in (self.MINE, self.SELECT):
                assert run(*argv) == 0
                assert gc.get_freeze_count() == frozen
                assert gc.isenabled() is collecting
        finally:
            gc.enable()


class TestInspectCommand:
    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "patterns.jsonl"
        path.write_text("")
        assert run("inspect", "--input", path) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # header only

    def test_reference_rows_sorted_by_measure(self, demo, tmp_path, capsys):
        out = tmp_path / "patterns.jsonl"
        run(
            "mine",
            "--stream", demo["context_stream"],
            "--presence", demo["context_presence"],
            "--attributes", demo["context_attrs"],
            "--core", "identity",
            "--output", out,
        )
        capsys.readouterr()
        assert run("inspect", "--input", out) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        durations = [int(line.split()[-3]) for line in lines[1:]]  # span is two tokens
        assert durations == sorted(durations, reverse=True)
        assert lines[1].split()[0] == "a"  # max support first

    def test_limit(self, demo, tmp_path, capsys):
        out = tmp_path / "patterns.jsonl"
        run(
            "mine",
            "--stream", demo["context_stream"],
            "--presence", demo["context_presence"],
            "--attributes", demo["context_attrs"],
            "--core", "identity",
            "--output", out,
        )
        capsys.readouterr()
        assert run("inspect", "--input", out, "--limit", 2) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_a_flagged_empty_support_has_no_span(self, tmp_path, capsys):
        path = tmp_path / "patterns.jsonl"
        path.write_text('{"intent": ["a"], "support": {}, "support_measure": 0, '
                        '"node_count": 0, "below_min_support": true}\n')
        assert run("inspect", "--input", path) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["a", "0", "0", "-"]

    def test_negative_limit_is_a_config_error(self, tmp_path, capsys):
        # checked before the input is read: the file does not exist
        assert run("inspect", "--input", tmp_path / "nope.jsonl", "--limit", -15) == 2
        out, err = capsys.readouterr()
        assert err.startswith("configuration error:") and "--limit" in err
        assert not out


class TestStaticCompareCommand:
    def test_compare_toy(self, demo, capsys):
        code = run(
            "static-compare",
            "--stream", demo["compare_stream"],
            "--attributes", demo["compare_attrs"],
            "--core", "star-sat:2",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream patterns: 3" in out
        assert "static patterns: 4" in out
        assert "containment holds" in out

    def test_isolated_present_nodes_are_static_nodes(self, demo, capsys):
        # the reference context has presence and no links: every node is isolated
        code = run(
            "static-compare",
            "--stream", demo["context_stream"],
            "--presence", demo["context_presence"],
            "--attributes", demo["context_attrs"],
            "--core", "identity",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stream patterns: 7" in out
        assert "static patterns: 7" in out
        assert "containment holds" in out

    def test_simultaneous_stream_counts_match(self, tmp_path, capsys):
        from streamcores import dataio
        from helpers import simultaneous_toy
        stream, ctx = simultaneous_toy()
        spath = tmp_path / "sim.csv"
        apath = tmp_path / "sim_attrs.csv"
        dataio.write_link_stream(stream, spath)
        dataio.write_attributes(ctx, apath)
        code = run("static-compare", "--stream", spath, "--attributes", apath,
                   "--core", "star-sat:2")
        assert code == 0
        out = capsys.readouterr().out
        assert "stream patterns: 3" in out
        assert "static patterns: 3" in out

    def test_outputs_written_when_asked(self, demo, tmp_path):
        stream_out = tmp_path / "stream.jsonl"
        static_out = tmp_path / "static.jsonl"
        code = run(
            "static-compare",
            "--stream", demo["compare_stream"],
            "--attributes", demo["compare_attrs"],
            "--core", "star-sat:2",
            "--stream-output", stream_out,
            "--static-output", static_out,
        )
        assert code == 0
        assert len(read_patterns(stream_out)) == 3
        assert len(read_patterns(static_out)) == 4

    def test_static_output_is_a_pattern_file(self, demo, tmp_path, capsys):
        static_out = tmp_path / "static.jsonl"
        assert run("static-compare", "--stream", demo["compare_stream"],
                   "--attributes", demo["compare_attrs"], "--static-output", static_out) == 0
        capsys.readouterr()
        assert run("select", "--input", static_out, "--output", tmp_path / "s.jsonl") == 0
        assert "beta=0: kept 4 of 4" in capsys.readouterr().out
        assert run("inspect", "--input", static_out) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_static_min_support_does_not_decide_containment(self, demo, capsys):
        # the static support of "a g h" has 3 nodes, so the threshold drops
        # that static pattern; the stream intent is still a static intent
        code = run("static-compare", "--stream", demo["compare_stream"],
                   "--attributes", demo["compare_attrs"], "--core", "star-sat:2",
                   "--static-min-support", 4)
        out = capsys.readouterr().out
        assert code == 0
        assert "static patterns: 2" in out
        assert "containment holds" in out

    def test_a_stream_intent_that_is_no_static_intent_is_a_violation(
            self, demo, monkeypatch, capsys):
        from streamcores import StreamGraph, stream
        # a collapsed graph without its pairs: no static 2-star-satellite core is left;
        # static-compare imports induced_static_graph from its module when it runs
        monkeypatch.setattr(stream, "induced_static_graph", lambda s: StreamGraph(
            {}, presence={v: [(0, 1)] for v in s.nodes}))
        code = run("static-compare", "--stream", demo["compare_stream"],
                   "--attributes", demo["compare_attrs"], "--core", "star-sat:2")
        out = capsys.readouterr().out
        assert code == 3
        assert "containment VIOLATED for 3 intent(s):\n  a\n  a g h\n  a h\n" in out

    def test_static_output_golden(self, demo, tmp_path):
        static_out = tmp_path / "static.jsonl"
        code = run(
            "static-compare",
            "--stream", demo["compare_stream"],
            "--attributes", demo["compare_attrs"],
            "--core", "star-sat:2",
            "--static-output", static_out,
        )
        assert code == 0
        tick = "[[0, 1]]"
        assert static_out.read_text() == (
            f'{{"intent": ["a"], "support": {{"p": {tick}, "q": {tick}, "r": {tick}, '
            f'"u": {tick}, "x": {tick}, "y": {tick}}}, "support_measure": 6, "node_count": 6}}\n'
            f'{{"intent": ["a", "g", "h"], "support": {{"p": {tick}, "q": {tick}, "r": {tick}}}, '
            f'"support_measure": 3, "node_count": 3}}\n'
            f'{{"intent": ["a", "h"], "support": {{"p": {tick}, "q": {tick}, "r": {tick}, '
            f'"u": {tick}}}, "support_measure": 4, "node_count": 4}}\n'
            f'{{"intent": ["a", "b"], "support": {{"u": {tick}, "x": {tick}, "y": {tick}}}, '
            f'"support_measure": 3, "node_count": 3}}\n'
        )
