"""The benchmark's library call: one ossp.conditional_mc in the shape of the
test-suite oracles, timed around the call alone.

worker.py and the traced run call it in process, with ``src`` on sys.path.
"""

from __future__ import annotations

import time
from collections import Counter


def conditional_mc(n, m, alpha, theta, k, m1, replicates, seed) -> dict:
    """Run the call; return its CPU time, attempt counts and outcome cells.

    A cell is (K_m^(n), W_1, A_1, W_2, A_2) with its number of accepted runs.
    """
    import ossp

    t0 = time.process_time()
    res = ossp.conditional_mc(n, m, ossp.PypParams(alpha, theta), replicates, seed, k=k, m1=m1)
    cpu = time.process_time() - t0
    cells = Counter(zip(res.kmn.tolist(), res.w1.tolist(), res.a1.astype(int).tolist(),
                        res.w2.tolist(), res.a2.astype(int).tolist()))
    return {"cpu_s": cpu, "attempts": res.attempts, "raw_accepted": res.raw_accepted,
            "accepted": res.accepted, "cells": sorted(cells.items())}

