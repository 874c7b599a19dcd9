"""Run a command and record its wall time and its own peak RSS.

Usage: python3 bench/spawn.py RESULT.json PROGRAM ARGS...

Linux carries the peak RSS of the process that execs into a new program
over to the new program's ``ru_maxrss``.  A direct child of the benchmark
would therefore report the benchmark's own peak whenever that is higher.
Spawned from this small process instead, the command reports only its
own.  The command inherits stdin, stdout and stderr; its pid is written to
RESULT.json.pid as soon as it starts, and the exit code is passed on.
"""

import json
import os
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    with open(out + ".pid", "w", encoding="utf-8") as fh:
        fh.write(str(pid))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": code}, fh)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
