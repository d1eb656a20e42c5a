"""Samples the speed the shared host gives the CPU the benchmark runs on.

run.py pins itself, this process and the worker to one CPU. Every PERIOD_S
this process runs a fixed chunk of plain-Python and numpy/scipy work (none of
it ossp code, so no change to the program moves it) and appends one line
``<monotonic time> <CPU seconds of the chunk>`` to the file named by its
argument. A chunk interrupts the worker for about a millisecond; the worker's
CPU time does not count it. The chunk's CPU time moves only with the speed of
the host at that moment, and run.py scales each request's CPU time by the
chunks run while it ran. Prints ``ready`` once sampling has begun; runs until
it is terminated or its parent exits.

    python3 bench/probe.py .bench_out/probe.txt
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.special import gammaln

PERIOD_S = 0.02
_X = np.linspace(1.0, 50.0, 2000)


def chunk() -> None:
    s = 0
    for i in range(9_000):
        s += i * i
    for _ in range(30):
        gammaln(_X).sum()
        np.cumsum(_X)


def main() -> int:
    chunk()  # the first call pays one-time numpy/scipy set-up
    parent = os.getppid()
    ready = False
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        while os.getppid() == parent:
            t0 = time.monotonic()
            c0 = time.process_time()
            chunk()
            cpu = time.process_time() - c0
            fh.write(f"{(t0 + time.monotonic()) / 2!r} {cpu!r}\n")
            fh.flush()
            if not ready:
                print("ready", flush=True)
                ready = True
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
