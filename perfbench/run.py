"""Benchmark of the streamcores mine -> select pipeline.

    python3 perfbench/run.py --workload hs-k4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness --seeds 1-5 --seconds 20
    python3 perfbench/run.py --record 0-20

One run generates the workload's inputs from the seed, then runs the
CLI as users run it (`streamcores mine`, then `streamcores select`),
each in a fresh process, one job at a time (a closed loop with one
client), until --seconds have passed. Every process runs on one
pinned CPU, and its wall time is scaled to a reference CPU speed by a
calibration job run between slices of it (see calibrate.py). It checks
every output and prints each metric by name with its unit; the last
line is one JSON object. With --trace 1 it instead runs one traced
mine and one traced select (see traced.py), the layer micro-timings
(micro_layers.py) and reports the per-layer metrics. See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

sys.path[:0] = [str(BENCH), str(SRC)]
import checks  # noqa: E402
from calibrate import SLICE_S, pin_to_one_cpu, timed_call  # noqa: E402
import gen  # noqa: E402

CLI = "import sys; from streamcores.cli import entry; sys.argv[0] = 'streamcores'; entry()"
SETUP_MIN_REPEATS = 3  # set-up repeats until it has taken SETUP_BUDGET_S in total
SETUP_MAX_REPEATS = 10
SETUP_BUDGET_S = 1.0
MIN_SAMPLES = 3
SELECT_BUDGET_S = 1.2  # a cheap select is repeated, up to SELECT_MAX_REPEATS, per mine
SELECT_MAX_REPEATS = 6
MEASURE_CAP_S = 110  # keeps a run inside its 180 s limit whatever --seconds says
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str  # generator input set, see gen.py
    core: str
    min_support: int
    directed: bool = False
    fmt: str = "auto"

    def mine_args(self, inputs: Dict[str, Path], output: Path) -> List[str]:
        args = ["mine", "--stream", str(inputs["stream"]), "--attributes",
                str(inputs["attributes"]), "--format", self.fmt, "--core", self.core,
                "--min-support", str(self.min_support), "--output", str(output)]
        return args + (["--directed"] if self.directed else [])


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "hs-k4": Workload("hs", "star-sat:4", 600),
    "hs-k2-wide": Workload("hs", "star-sat:2", 900),
    # a support above the root's measure: only the root's candidates are evaluated
    "ingest-xl": Workload("contacts", "identity", 10 ** 9, fmt="contacts"),
    "directed-ha": Workload("directed", "ha:2,2", 2000, directed=True),
}


class Run:
    """Child processes, their samples and the gate results of one invocation."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.reference = _reference_digests(name, seed)
        self.cpu = pin_to_one_cpu()
        self.walls: Dict[str, List[float]] = {}  # unscaled seconds, printed next to the metrics

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)  # hash-order dependence must show
        env["PYTHONPATH"] = str(SRC)
        env["STREAMCORES_THREADS"] = "1"
        return env

    def child(self, argv: List[str], log: str, metric: str,
              slice_s: float = SLICE_S) -> Tuple[int, float, float]:
        """Run argv to completion; (exit code, scaled seconds, peak RSS in MB)."""
        launcher = [sys.executable, str(BENCH / "launch.py"), str(CHILD_TIMEOUT_S),
                    str(slice_s), str(self.dir / log)]
        done = subprocess.run(launcher + argv, cwd=ROOT, env=self.env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S + 10)
        if done.returncode != 0:
            return done.returncode, 0.0, 0.0
        got = json.loads(done.stdout)
        self.walls.setdefault(metric, []).append(got["wall_s"])
        return got["code"], got["scaled_s"], got["peak_rss_mb"]

    def cli(self, args: List[str], log: str, metric: str, traced: Optional[Path] = None):
        if traced is None:
            return self.child([sys.executable, "-c", CLI] + args, log, metric)
        # one slice: a stop inside a traced call would count in its span
        return self.child([sys.executable, str(BENCH / "traced.py"), str(traced)] + args,
                          log, metric, slice_s=CHILD_TIMEOUT_S)

    def gate(self, step: str, code: int, output: Path, label: str) -> bool:
        """Count one attempted CLI call and whether its output passes the gate."""
        self.attempted += 1
        why = None
        if code != 0:
            why = f"exit code {code}"
        else:
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
            first = self.digests.setdefault(step, digest)
            if digest != first:
                why = "output differs from the first process's output"
            elif self.reference and digest != self.reference[step]:
                why = "output differs from the reference digest"
        if why:
            self.failed += 1
            self.problems.append(f"{label}: {why}")
        return why is None

    def generate(self) -> Tuple[Dict[str, Path], List[float]]:
        """Write the inputs several times over; (paths, scaled seconds of each)."""
        times: List[float] = []
        digests = set()
        while len(times) < SETUP_MIN_REPEATS or (
                sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS):
            paths, wall, scaled = timed_call(
                lambda: gen.generate(self.workload.kind, self.seed, self.dir / "inputs"))
            self.walls.setdefault("setup_s", []).append(wall)
            times.append(scaled)
            digests.add(tuple(_sha(p) for p in paths.values()))
        if len(digests) != 1:
            self.problems.append("generator wrote different files for one seed")
        return paths, times

    def validate(self, inputs: Dict[str, Path], mined: Path, selected: Path) -> None:
        wl = self.workload
        records = checks.read_records(mined)
        self.problems += checks.mine_problems(
            records, inputs["stream"], inputs["attributes"], wl.min_support)
        self.problems += checks.select_problems(checks.read_records(selected), records)
        if self.problems:
            return
        stream, ctx = checks.load(inputs["stream"], inputs["attributes"], wl.directed)
        self.problems += checks.closure_problems(records, stream, ctx, wl.core)
        if self.name == "hs-k4":
            self.problems += checks.containment_problems(records, stream, ctx, wl.core)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference_digests(name: str, seed: int) -> Optional[Dict[str, str]]:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["digests"].get(name, {}).get(str(seed))


def _median_metric(values: List[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def run_end_to_end(run: Run, seconds: float, min_samples: int = MIN_SAMPLES) -> Dict[str, dict]:
    inputs, setup_s = run.generate()
    mine_s, select_s, rss = [], [], []
    first: Optional[Tuple[Path, Path]] = None
    started = time.perf_counter()
    i = 0
    while True:
        mined, selected = run.dir / f"mined{i}.jsonl", run.dir / f"selected{i}.jsonl"
        code, wall, peak = run.cli(run.workload.mine_args(inputs, mined), f"mine{i}.log",
                                   "mine_s")
        if run.gate("mine", code, mined, f"mine {i}"):
            mine_s.append(wall)
            rss.append(peak)
            spent = 0.0
            for j in range(SELECT_MAX_REPEATS):
                code, wall, _ = run.cli(["select", "--input", str(mined), "--output",
                                         str(selected)], f"select{i}.{j}.log", "select_s")
                if not run.gate("select", code, selected, f"select {i}.{j}"):
                    break
                select_s.append(wall)
                if first is None:
                    first = (mined, selected)
                spent += wall
                if spent >= SELECT_BUDGET_S:
                    break
        if first != (mined, selected):
            for path in (mined, selected):
                path.unlink(missing_ok=True)
        i += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds and i >= min_samples):
            break
    if first is None or not select_s:
        raise SystemExit(f"{run.name}: no successful run; {run.problems[:3]}")
    run.validate(inputs, *first)
    for name, values in (("mine_s", mine_s), ("select_s", select_s),
                         ("mine_peak_rss_mb", rss), ("setup_s", setup_s)):
        print(f"samples {name} n={len(values)} " + " ".join(f"{v:.4g}" for v in values))
    for name, values in run.walls.items():
        print(f"unscaled {name} median {statistics.median(values):.4g} s")
    print(f"pinned to cpu {run.cpu}")
    return {
        "mine_s": _median_metric(mine_s, "s"),
        "select_s": _median_metric(select_s, "s"),
        "mine_peak_rss_mb": _median_metric(rss, "MB"),
        "setup_s": _median_metric(setup_s, "s"),
    }


# -- traced run -----------------------------------------------------------------


def _load_trace(path: Path) -> Tuple[List[tuple], dict, dict]:
    data = json.loads(path.read_text())
    names = data["names"]
    spans = [(names[n], start, end, parent) for n, start, end, parent in data["spans"]]
    return spans, data["counts"], data["notes"]


def _span_sums(spans: List[tuple]) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
    """Per name: total duration, call count, and time covered by direct children."""
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    covered: Dict[str, float] = {}
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            pname = spans[parent][0]
            covered[pname] = covered.get(pname, 0.0) + end - start
    return total, calls, covered


def layer_metrics(mine_trace: Path, select_trace: Path, output_bytes: int,
                  overhead_s: float, micro: Dict[str, float]) -> Dict[str, dict]:
    spans, counts, notes = _load_trace(mine_trace)
    total, calls, covered = _span_sums(spans)
    sel_spans, _, _ = _load_trace(select_trace)
    sel_total, sel_calls, _ = _span_sums(sel_spans)

    core_calls = calls.get("cores", 0)
    intents = calls.get("context.intent", 0)
    candidates = core_calls - 1  # one core call is the root's closure
    emitted = notes["patterns"] - 1  # the root record is always emitted
    support_pruned = candidates - (intents - 1)
    jaccard = sel_calls.get("selection.jaccard", 0)
    stream_build = total.get("stream.build", 0.0)
    values = {
        "dataio.parse_self_s": (total["dataio.read"] - stream_build, "s"),
        "dataio.rows": (notes["rows"], "count"),
        "stream.build_s": (stream_build, "s"),
        "stream.pairs": (notes["pairs"], "count"),
        "stream.spans": (notes["spans"], "count"),
        "cores.calls": (core_calls, "count"),
        "cores.s": (total.get("cores", 0.0), "s"),
        "cores.us_per_call": (1e6 * total.get("cores", 0.0) / max(core_calls, 1), "us"),
        "intervals.intersect.calls": (counts.get("intervals.intersect", 0), "count"),
        "intervals.union.calls": (counts.get("intervals.union", 0), "count"),
        "intervals.coverage.calls": (counts.get("intervals.coverage", 0), "count"),
        "context.intent.calls": (intents, "count"),
        "context.intent.s": (total.get("context.intent", 0.0), "s"),
        "mining.s": (total["mining"], "s"),
        "mining.self_s": (total["mining"] - covered.get("mining", 0.0), "s"),
        "mining.candidates": (candidates, "count"),
        "mining.support_pruned": (support_pruned, "count"),
        "mining.canonicity_pruned": (candidates - support_pruned - emitted, "count"),
        "mining.patterns": (notes["patterns"], "count"),
        "mining.useful_ratio": (emitted / max(candidates, 1), "ratio"),
        "mining.max_depth": (notes["max_depth"], "count"),
        "selection.sweep_s": (sel_total.get("selection.sweep", 0.0), "s"),
        "selection.jaccard.calls": (jaccard, "count"),
        "selection.jaccard_us_per_call": (
            1e6 * sel_total.get("selection.jaccard", 0.0) / max(jaccard, 1), "us"),
        "cli.write_patterns_s": (total["cli.write_patterns"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "cli.read_patterns_s": (sel_total["cli.read_patterns"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for name, value in micro.items():
        values[name] = (value, "ms" if name.endswith("_ms") else "us")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


MICRO = {  # pytest-benchmark test -> (metric, seconds -> unit factor)
    "test_interval_intersect": ("micro.interval_intersect_us", 1e6),
    "test_star_sat_root": ("micro.star_sat_root_ms", 1e3),
    "test_ha_root": ("micro.ha_root_ms", 1e3),
    "test_evaluate": ("micro.evaluate_ms", 1e3),
    "test_intent": ("micro.intent_us", 1e6),
    "test_jaccard": ("micro.jaccard_us", 1e6),
}


def run_micro(run: Run) -> Dict[str, float]:
    """Min-of-N layer timings from pytest-benchmark, in the metric's unit."""
    report = run.dir / "micro.json"
    env = run.env()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PERFBENCH_SEED"] = str(run.seed)
    env["PERFBENCH_WORK"] = str(run.dir / "micro")
    argv = [sys.executable, "-m", "pytest", str(BENCH / "micro_layers.py"), "-q",
            "-c", str(BENCH / "pytest.ini"), f"--benchmark-json={report}",
            f"--benchmark-storage=file://{run.dir / 'benchmarks'}",
            "--benchmark-min-rounds=5", "--benchmark-max-time=0.2",
            "--benchmark-warmup=off"]
    run.attempted += 1
    with open(run.dir / "micro.log", "w") as out:
        code = subprocess.run(argv, cwd=ROOT, env=env, stdout=out,
                              stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S).returncode
    if code != 0:
        run.failed += 1
        run.problems.append(f"micro-timings: pytest exit code {code}")
        return {}
    found = {}
    for bench in json.loads(report.read_text())["benchmarks"]:
        metric, factor = MICRO[bench["name"]]
        found[metric] = bench["stats"]["min"] * factor
    return found


def run_traced(run: Run, seconds: float) -> Dict[str, dict]:
    inputs, _ = run.generate()
    started = time.perf_counter()
    plain, traced = run.dir / "plain.jsonl", run.dir / "traced.jsonl"
    mine_trace, select_trace = run.dir / "mine.trace.json", run.dir / "select.trace.json"

    code, traced_wall, _ = run.cli(run.workload.mine_args(inputs, traced), "tmine.log",
                                   "traced mine", traced=mine_trace)
    run.gate("mine", code, traced, "traced mine")
    code, _, _ = run.cli(["select", "--input", str(traced), "--output",
                          str(run.dir / "tselected.jsonl")], "tselect.log", "traced select",
                         traced=select_trace)
    run.gate("select", code, run.dir / "tselected.jsonl", "traced select")

    # untraced mines for the overhead; the gate compares them with the traced output
    untraced = []
    while not untraced or (time.perf_counter() - started < seconds and len(untraced) < 5):
        code, wall, _ = run.cli(run.workload.mine_args(inputs, plain), "mine.log", "mine_s")
        if run.gate("mine", code, plain, f"untraced mine {len(untraced)}"):
            untraced.append(wall)
        if len(untraced) + run.failed > 8:
            break
    if not untraced or run.failed:
        raise SystemExit(f"{run.name}: traced run failed; {run.problems[:3]}")
    overhead = traced_wall - statistics.median(untraced)
    micro = run_micro(run)
    return layer_metrics(mine_trace, select_trace, traced.stat().st_size, overhead, micro)


# -- entry points -----------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "streamcores" / "cli.py").is_file():
        print(f"no streamcores sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(name, seed)
    try:
        metrics = run_traced(run, seconds) if trace else run_end_to_end(run, seconds)
    finally:
        run.close()
    wanted = [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    for problem in run.problems:
        print(f"FAIL {problem}")
    print(f"workload {name} seed {seed} threads 1 attempted {run.attempted} failed {run.failed}")
    print(f"failed_share {run.failed / max(run.attempted, 1):.4f} share")
    for metric in wanted:
        if metric in metrics:
            print(f"{metric} {metrics[metric]['value']:.6g} {metrics[metric]['unit']}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: metrics[m] for m in wanted if m in metrics},
    }
    print(json.dumps(result))
    return 0


def _seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def machine_info() -> str:
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as handle:
        load = " ".join(handle.read().split()[:3])
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, cpu {cpu}, "
            f"load average {load}; CPU frequency and core isolation not controlled")


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(names: List[str], seeds: List[int], seconds: int) -> int:
    """Run every workload on every seed twice over; compare the two medians."""
    print(machine_info())
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    passes: List[Dict[Tuple[str, str], List[float]]] = []
    failed = attempted = 0
    for number in (1, 2):
        values: Dict[Tuple[str, str], List[float]] = {}
        for name in names:
            for seed in seeds:
                argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=200)
                if done.returncode != 0:
                    print(f"pass {number} {name} seed {seed}: exit {done.returncode}")
                    failed += 1
                    continue
                result = json.loads(done.stdout.strip().splitlines()[-1])
                attempted += result["attempted"]
                failed += result["failed"] + (not result["correct"])
                for metric, got in result["metrics"].items():
                    values.setdefault((name, metric), []).append(got["value"])
                print(f"pass {number} {name} seed {seed}: " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
        passes.append(values)
    print(f"failed_share {failed / max(attempted, 1):.4f} ({failed} of {attempted})")
    print(f"{'workload':<12} {'metric':<18} {'median 1':>10} {'median 2':>10} "
          f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}  verdict")
    agree = True
    for (name, metric), first in passes[0].items():
        second = passes[1].get((name, metric), [])
        if not second:
            continue
        m1, m2 = statistics.median(first), statistics.median(second)
        s1, s2 = _spread(first), _spread(second)
        bound = bounds[metric]
        ok = abs(m2 - m1) <= bound * m1 and (metric == "setup_s" or max(s1, s2) <= bound)
        agree &= ok
        print(f"{name:<12} {metric:<18} {m1:>10.4g} {m2:>10.4g} {s1:>9.3f} {s2:>9.3f} "
              f"{bound:>6}  {'agree' if ok else 'DISAGREE'}")
    return 0 if agree and not failed else 1


def record(seeds: List[int]) -> int:
    """Write reference.json: output digests of the current code for these seeds."""
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    digests = data.setdefault("digests", {})
    for name in WORKLOADS:
        for seed in seeds:
            run = Run(name, seed)
            run.reference = None
            try:
                run_end_to_end(run, 0, min_samples=1)
            finally:
                run.close()
            if run.problems:
                print(f"{name} seed {seed}: {run.problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = run.digests
            print(f"{name} seed {seed}: {run.digests['mine'][:12]}", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run every workload on --seeds twice and compare medians")
    parser.add_argument("--seeds", default="", help="seed list such as 1-5,9")
    parser.add_argument("--record", metavar="SEEDS",
                        help="write the output digests of these seeds to reference.json")
    args = parser.parse_args(argv)
    if args.record:
        return record(_seeds(args.record))
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(names, _seeds(args.seeds or "1-10"),
                          int(args.seconds or benchmark_spec()["run_seconds"]))
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
