"""Child-process launcher: runs one command at a time and reports its wall
time, CPU time and peak RSS (from ``os.wait4``).

When a process execs, Linux folds the resident size of the memory it leaves
behind into its peak-RSS record. A child started straight from the benchmark
(which holds the generated inputs, and in traced runs a whole parsed table)
would therefore report the benchmark's peak instead of its own. Children are
started from this small process instead, which imports nothing heavy.

Run as a script it serves jobs: one JSON line per job on stdin, one JSON line
per result on stdout, until stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter

CHILD_TIMEOUT_S = 120.0


def run(cmd: list[str], env: dict, cwd: str, stdout_path: str, stderr_path: str) -> dict:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
    }


class Launcher:
    """A launcher process, for use in a ``with`` block."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def run(self, cmd: list[str], env: dict, cwd, stdout_path, stderr_path) -> dict:
        job = [cmd, env, str(cwd), str(stdout_path), str(stderr_path)]
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    serve()
