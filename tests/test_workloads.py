"""The benchmark workloads' mined and selected bytes, checked in process.

For every workload of `perfbench/run.py` at seeds 1 and 97, the inputs
are generated with `perfbench/gen.py`, `mine` and then `select` run
through `cli.main`, and the sha256 of both outputs is compared with
`perfbench/reference.json`. The benchmark's own gate checks the same
digests in fresh processes; this one runs with the local test suite.
Nothing under `perfbench/` is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from streamcores import cli

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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_outputs_match_the_reference_digests(name, seed, tmp_path, capsys):
    workload = RUN.WORKLOADS[name]
    inputs = GEN.generate(workload.kind, seed, tmp_path / "inputs")
    mined, selected = tmp_path / "mined.jsonl", tmp_path / "selected.jsonl"
    assert cli.main(workload.mine_args(inputs, mined)) == 0
    assert cli.main(["select", "--input", str(mined), "--output", str(selected)]) == 0
    capsys.readouterr()  # select's sweep report
    want = DIGESTS[name][str(seed)]
    assert {"mine": _sha(mined), "select": _sha(selected)} == want
