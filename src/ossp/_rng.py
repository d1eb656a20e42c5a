"""Counter-based random streams, splittable by integer lanes."""

from __future__ import annotations

import numpy as np


def rng_from(seed) -> np.random.Generator:
    """Philox generator keyed by an integer seed or a (seed, *lanes) tuple.

    Distinct lane tuples give independent streams, so replicate r of study d
    can use ``rng_from((seed, d, r))`` and run on any worker in any order.
    """
    if isinstance(seed, (tuple, list)):
        entropy, lanes = int(seed[0]), tuple(int(s) for s in seed[1:])
    else:
        entropy, lanes = int(seed), ()
    ss = np.random.SeedSequence(entropy, spawn_key=lanes)
    return np.random.Generator(np.random.Philox(ss))
