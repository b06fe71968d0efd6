"""Time jobs at a reference CPU speed, whatever speed the host gives now.

On a shared host the speed one process gets swings by more than half,
in phases of a fraction of a second to minutes, with CPU time equal to
wall time (another tenant on the same physical core, not scheduling).
So run.py pins itself, and with it every process it starts, to one CPU,
and every timed job is scaled by a calibration: a fixed pure-Python job
that never touches the streamcores package, so a change to the program
moves the scaled time exactly as it moves the wall time.

A child process runs in slices of SLICE_S. After each slice it is
stopped (SIGSTOP), the calibration runs on the CPU it left, and it is
continued (SIGCONT). Each slice's wall time is multiplied by
REFERENCE_S over the mean of the calibrations before and after it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import time
from typing import IO, List, Tuple

PASSES = 10
REFERENCE_S = 0.025  # scaled times are seconds at the speed where one calibration takes this
SLICE_S = 0.1


def _one_pass() -> int:
    """Sort, merge and intersect span lists and count into a dict, as the miner does."""
    spans = sorted((i * 7 % 1000, i * 7 % 1000 + 1 + i % 13) for i in range(1200))
    merged: List[tuple] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    other = [(start + 3, end + 5) for start, end in merged]
    i = j = 0
    common = []
    while i < len(merged) and j < len(other):
        lo, hi = max(merged[i][0], other[j][0]), min(merged[i][1], other[j][1])
        if lo < hi:
            common.append((lo, hi))
        if merged[i][1] < other[j][1]:
            i += 1
        else:
            j += 1
    counts: dict = {}
    for k in range(3000):
        key = frozenset((k % 37, k % 11))
        counts[key] = counts.get(key, 0) + len(common)
    return len(counts) + sum(end - start for start, end in common)


def calibration_s() -> float:
    started = time.perf_counter()
    for _ in range(PASSES):
        _one_pass()
    return time.perf_counter() - started


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts from now on, to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed_call(job) -> Tuple[object, float, float]:
    """Run job() in this process; (its result, wall seconds, scaled seconds)."""
    before = calibration_s()
    started = time.perf_counter()
    result = job()
    wall = time.perf_counter() - started
    return result, wall, wall * REFERENCE_S / ((before + calibration_s()) / 2)


def run_sliced(command: List[str], out: IO, timeout_s: float, slice_s: float = SLICE_S):
    """Run command to completion in stopped-and-continued slices of slice_s.

    Returns (exit code, wall seconds, scaled seconds, resource usage);
    the wall seconds count only the time the child was running. A child
    still running timeout_s after its start is killed, and so is one
    left behind by an error here.
    """
    last = calibration_s()
    wall = scaled = 0.0
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    status = None
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        while True:
            resumed = time.perf_counter()
            if not poller.poll(slice_s * 1000):
                os.kill(proc.pid, signal.SIGSTOP)
            ran = time.perf_counter() - resumed
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            after = calibration_s()
            wall += ran
            scaled += ran * REFERENCE_S / ((last + after) / 2)
            last = after
            if not os.WIFSTOPPED(status):
                break
            if time.perf_counter() - started > timeout_s:
                break
            os.kill(proc.pid, signal.SIGCONT)
    finally:
        os.close(pidfd)
        if status is None or os.WIFSTOPPED(status):
            os.kill(proc.pid, signal.SIGKILL)  # ends a stopped process too
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, scaled, usage
