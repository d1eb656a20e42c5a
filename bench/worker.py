"""Serves the benchmark's timed requests in one warm process.

run.py starts this process before it imports numpy. The peak resident set
the kernel reports for a process includes the memory of the process it was
forked from, so forking from the small run.py keeps ``maxrss_kb`` the
worker's own.

The first line on stdout, once ``ossp.cli`` is imported, is
{"setup_cpu_s", "ready_t"}: the CPU seconds from the start of this process to
a ready CLI (a cold set-up) and the monotonic time it was ready. Then one JSON
request per line on stdin, {"argv": [...]} for ``ossp.cli.main`` or
{"lib": {...}} for ``libcall.conditional_mc``, and one JSON reply per line on
stdout, {"rc", "stderr", "cpu_s", "t0", "t1", "result", "maxrss_kb"}. ``rc``
is the exit code a ``python -m ossp.cli`` process would end with, ``cpu_s``
the CPU time of the request alone and [t0, t1] the monotonic times it ran
between. Exits at the end of stdin.
"""

from __future__ import annotations

import time

import ossp.cli

SETUP_CPU_S = time.process_time()  # CPU time since this process started
READY_T = time.monotonic()

import contextlib  # noqa: E402  (after the set-up is measured)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import libcall  # noqa: E402


def run_request(req: dict) -> tuple:
    """Run one request in this process: (exit code, stderr, result, CPU seconds).

    The exit code is the one a ``python -m ossp.cli`` process would end with;
    the result is the library call's, None for a CLI request.
    """
    err = io.StringIO()
    rc, result = 0, None
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if "lib" in req:
                result = libcall.conditional_mc(**req["lib"])
            else:
                rc = ossp.cli.main(req["argv"])
    except SystemExit as exc:  # argparse refuses arguments this way
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # noqa: BLE001  the interpreter would print it and exit 1
        rc = 1
        err.write(traceback.format_exc())
    cpu_s = time.process_time() - t0 if result is None else result["cpu_s"]
    return rc, err.getvalue(), result, cpu_s


def serve(req: dict) -> dict:
    t0 = time.monotonic()
    rc, stderr, result, cpu_s = run_request(req)
    return {"rc": rc, "stderr": stderr, "cpu_s": cpu_s, "t0": t0, "t1": time.monotonic(),
            "result": result, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out = sys.stdout
    out.write(json.dumps({"setup_cpu_s": SETUP_CPU_S, "ready_t": READY_T}) + "\n")
    out.flush()
    for line in sys.stdin:
        out.write(json.dumps(serve(json.loads(line))) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
