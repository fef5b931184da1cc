"""Run ``python -m numelast ARGS...`` with its output sent to OUTPUT, and write
its wall time, peak RSS, exit code and the machine's speed read before and
while it ran, as JSON, to REPORT.

    python3 -S perfbench/launch.py REPORT OUTPUT ARGS...

run.py starts the CLI through this small interpreter because a child's peak
RSS also counts the memory of the process that spawned it.  The launcher and
the CLI are pinned to one CPU, as the two CPUs of a shared machine change
speed independently, and the launcher wakes every speed.EVERY_S to read that
CPU's speed while the CLI runs, taking about 5% of the CPU from it.  The
output goes to a file, so no other process works while the CLI runs.
"""

import json
import os
import select
import sys
import time

import speed

WARM_UP_READINGS = 3


def main() -> None:
    report, output, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in range(WARM_UP_READINGS):  # a fresh interpreter's first loops run slow
        speed.reading()
    readings = [speed.reading()]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "numelast", *args], os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, output, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)],
    )
    exited = os.pidfd_open(pid)
    while not select.select([exited], [], [], speed.EVERY_S)[0]:
        readings.append(speed.reading())
    wall = time.perf_counter() - start
    _, status, usage = os.wait4(pid, 0)
    os.close(exited)
    with open(report, "w") as handle:
        json.dump({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
                   "exit_code": os.waitstatus_to_exitcode(status), "speed": readings}, handle)


if __name__ == "__main__":
    main()
