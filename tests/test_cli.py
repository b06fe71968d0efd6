import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from streamcores import read_patterns, selection, star_satellite_core
from streamcores.cli import main
from streamcores.toys import star_toy_stream, write_demo_files


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
])
def test_option_of_another_subcommand_is_refused(capsys, command, option):
    # each subcommand accepts only the options it reads
    with pytest.raises(SystemExit) as err:
        run(*command, *option)
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


_BAD_MINING_OPTIONS = [
    ["--item-order", "bogus"], ["--item-order", "seed:x"], ["--min-support", "0"],
    ["--min-intent-size", "-1"], ["--delta", "20.4"], ["--core", "star-sat:two"],
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
            "--item-order", "seed:5",
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

    def test_manifest_command_mismatch(self, demo, tmp_path):
        out = tmp_path / "out.jsonl"
        assert run("mine", "--stream", demo["star_stream"], "--output", out) == 0
        code = run("select", "--manifest", tmp_path / "out.jsonl.manifest.json")
        assert code == 2


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
    ], ids=["forged-measure", "forged-node-count", "no-support", "string-intent",
            "fractional-span", "float-measure", "float-node-count", "overlapping-spans",
            "empty-span", "no-spans", "unflagged-empty-support"])
    def test_bad_record_is_an_input_error(self, mined, tmp_path, capsys, edit):
        lines = mined.read_text().splitlines()
        row = json.loads(lines[0])
        edit(row)
        lines[0] = json.dumps(row)
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
        from streamcores.toys import simultaneous_toy
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
        assert len(static_out.read_text().splitlines()) == 4

    def test_static_output_is_not_a_pattern_file(self, demo, tmp_path, capsys):
        static_out = tmp_path / "static.jsonl"
        assert run("static-compare", "--stream", demo["compare_stream"],
                   "--attributes", demo["compare_attrs"], "--static-output", static_out) == 0
        capsys.readouterr()
        assert run("select", "--input", static_out, "--output", tmp_path / "s.jsonl") == 1
        assert f"{static_out}:1: bad pattern record: support must be of type dict" in (
            capsys.readouterr().err)
        assert run("inspect", "--input", static_out) == 1

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
        assert static_out.read_text() == (
            '{"intent": ["a"], "support": ["p", "q", "r", "u", "x", "y"], "node_count": 6}\n'
            '{"intent": ["a", "g", "h"], "support": ["p", "q", "r"], "node_count": 3}\n'
            '{"intent": ["a", "h"], "support": ["p", "q", "r", "u"], "node_count": 4}\n'
            '{"intent": ["a", "b"], "support": ["u", "x", "y"], "node_count": 3}\n'
        )
