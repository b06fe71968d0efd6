"""Run one command in calibrated slices; print its exit code, times and peak RSS as JSON.

Usage: python3 perfbench/launch.py TIMEOUT_S SLICE_S LOG command...

run.py starts every timed process through this small launcher, for two
reasons. The launcher scales the child's wall time to the reference CPU
speed by calibrating between slices (see calibrate.py), in a process of
its own whose memory is small. And on Linux a child's ru_maxrss also
counts the peak RSS of the process it was spawned from, so a child
spawned straight from the harness, which holds the generated inputs in
memory, would report the harness's memory instead of its own. The
launcher's own peak is far below any CLI run's.
"""

import json
import sys

from calibrate import run_sliced


def main(argv):
    timeout, slice_s, log, command = float(argv[0]), float(argv[1]), argv[2], argv[3:]
    with open(log, "w") as out:
        code, wall, scaled, usage = run_sliced(command, out, timeout, slice_s)
    print(json.dumps({"code": code, "wall_s": wall, "scaled_s": scaled,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main(sys.argv[1:])
