"""Starts the benchmark's cold processes from a process that stays small.

On Linux a child started with vfork or posix_spawn, as ``subprocess`` starts
it, has its ``ru_maxrss`` raised at exec to the high-water resident set of
the process that started it.  The client grows as it holds samples and
parses large outputs, so a child it started would report the client's peak
rather than its own.  This process holds no outputs and stays near its
start-up size, below that of any ``python -m mayacal`` call.

Start it with the environment and working directory the children need.  It
answers one JSON line per request line::

    {"args": [...], "cap_s": s, "out": path, "err": path}

by running ``sys.executable`` with ``args``, its stdout and stderr written to
the two files, killed at ``cap_s`` seconds, and replying
``{"elapsed_s", "rc", "capped", "maxrss_kib"}``.  It exits when its input
ends.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time


def run(args: list[str], cap_s: float, out: str, err: str) -> dict:
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out_fh, stderr=err_fh)
        pidfd = os.pidfd_open(proc.pid)
        capped = False
        try:
            capped = not select.select([pidfd], [], [], cap_s)[0]
        finally:
            os.close(pidfd)
            if capped or sys.exc_info()[0] is not None:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"elapsed_s": elapsed, "rc": proc.returncode, "capped": capped, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        msg = json.loads(line)
        reply = run(msg["args"], msg["cap_s"], msg["out"], msg["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
