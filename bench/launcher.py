"""Spawns the benchmark's child processes from a small interpreter.

Linux carries a process's peak RSS across fork and exec, so a child's
``ru_maxrss`` is at least the peak of the process that spawned it. The
benchmark process holds the generated log and the output checks; spawning
from here, an interpreter that imports almost nothing, keeps each child's
``ru_maxrss`` its own.

Protocol: one JSON request per input line, ``{"argv", "sink", "env",
"cwd", "timeout"}``; one JSON reply per output line, ``{"returncode",
"wall_s", "cpu_s", "maxrss_kib"}``. The launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["sink"], "wb") as sink:
        start = perf_counter()
        proc = subprocess.Popen(
            request["argv"],
            stdout=sink,
            stderr=subprocess.STDOUT,
            env=request["env"],
            cwd=request["cwd"],
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
