"""The benchmark's own exact ordered Pitman-Yor sampler.

It is kept apart from ``ossp.simulate`` so that the benchmark inputs stay the
same when the program's sampler changes its draws. A draw has two stages:

1. a classical Chinese restaurant process over n customers, where joining
   an existing table costs O(1) expected time: pick the table of a uniformly
   chosen earlier customer and accept it with probability (m_c - alpha)/m_c;
2. one oldest-first ordering pass over the k tables: among the remaining
   tables, table i takes the next (older) slot with probability
   (theta*m_i + alpha*(r - m_i)) / (r*(theta + alpha*(l - 1))), r being the
   remaining customers and l the remaining tables.

The pair has the law of the ordered CRP: the classical EPPF times the
ordering law given the block sizes is the ordered EPPF.
"""

from __future__ import annotations

import numpy as np


def draw(n: int, alpha: float, theta: float, rng: np.random.Generator):
    """One ordered sample of size n.

    Returns (assign, order): assign[t] is the table of customer t (tables
    numbered by arrival), order[c] the 0-based order rank of table c
    (0 = oldest, the largest weight).
    """
    if n < 1 or not 0.0 <= alpha < 1.0 or not theta > 0.0:
        raise ValueError(f"bad arguments n={n}, alpha={alpha}, theta={theta}")
    u = rng.random(4 * n + 16)
    pos = 0

    def uniform():
        nonlocal u, pos
        if pos == len(u):
            u, pos = rng.random(len(u)), 0
        pos += 1
        return u[pos - 1]

    assign = []
    sizes = []
    for t in range(n):
        if uniform() * (theta + t) < theta + alpha * len(sizes):
            assign.append(len(sizes))
            sizes.append(1)
            continue
        while True:
            c = assign[int(uniform() * t)]
            if uniform() * sizes[c] < sizes[c] - alpha:
                break
        assign.append(c)
        sizes[c] += 1

    m = np.asarray(sizes, dtype=np.float64)
    left = np.arange(len(sizes))
    order = np.empty(len(sizes), dtype=np.int64)
    r = float(n)
    for rank in range(len(sizes)):
        w = theta * m[left] + alpha * (r - m[left])
        cum = np.cumsum(w)
        j = min(int(np.searchsorted(cum, uniform() * cum[-1], side="right")), len(left) - 1)
        c = left[j]
        order[c] = rank
        r -= m[c]
        left = np.delete(left, j)
    return np.asarray(assign, dtype=np.int64), order


def records(assign: np.ndarray, order: np.ndarray) -> list:
    """weight,species records in arrival order; order rank j gets weight k - j."""
    k = len(order)
    return [(float(k - order[c]), f"s{c}") for c in assign]


def write_csv(recs, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("weight,species\n")
        fh.writelines(f"{w!r},{s}\n" for w, s in recs)


def ordered_freqs(assign: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Frequencies of the tables ranked oldest first."""
    sizes = np.bincount(assign, minlength=len(order))
    out = np.empty(len(order), dtype=np.int64)
    out[order] = sizes
    return out


def prefix_k_m1(assign: np.ndarray, order: np.ndarray, grid) -> tuple:
    """K and the order-1 frequency on the first g records, for each g in grid."""
    ks, m1s = [], []
    for g in grid:
        head = assign[:g]
        present = np.unique(head)
        oldest = present[np.argmin(order[present])]
        ks.append(len(present))
        m1s.append(int(np.count_nonzero(head == oldest)))
    return ks, m1s
