"""Reference computations for the benchmark's output checks.

Each is derived here from the ordered Pitman-Yor law, apart from the
program's code, and each is tested against exact values in test_bench.py.
Notation: alpha in [0, 1), theta > 0; the ordered EPPF of the frequencies
(m_1, ..., m_k), order 1 oldest, is

    p(m) = prod_j (theta*m_j + alpha*r_{j+1}) / r_j * (1-alpha)_(m_j - 1) / (theta)_(n),

with r_j = m_j + ... + m_k. The factor j = 1 splits off, so the order-1 block
is independent of the ordered partition of the rest, which is again ordered
PYP(alpha, theta). That gives the first-order laws below.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln


# ---------------------------------------------------------------------------
# classical and ordered EPPF
# ---------------------------------------------------------------------------


def _lrise(a: float, r: int) -> float:
    return math.lgamma(a + r) - math.lgamma(a)


def log_eppf(freqs, alpha: float, theta: float) -> float:
    n, k = sum(freqs), len(freqs)
    acc = sum(math.log(theta + i * alpha) for i in range(k)) - _lrise(theta, n)
    return acc + sum(_lrise(1.0 - alpha, f - 1) for f in freqs)


def log_ordered_eppf(freqs, alpha: float, theta: float) -> float:
    r = sum(freqs)
    acc = -_lrise(theta, r)
    for f in freqs:
        acc += math.log(theta * f + alpha * (r - f)) - math.log(r) + _lrise(1.0 - alpha, f - 1)
        r -= f
    return acc


def ordered_eppf_exact(freqs, alpha, theta) -> Fraction:
    """The ordered EPPF in exact rational arithmetic."""
    alpha, theta = Fraction(alpha), Fraction(theta)
    r = sum(freqs)
    p = Fraction(1)
    for i in range(r):
        p /= theta + i
    for f in freqs:
        p *= (theta * f + alpha * (r - f)) / r
        for i in range(f - 1):
            p *= 1 - alpha + i
        r -= f
    return p


# ---------------------------------------------------------------------------
# species counts
# ---------------------------------------------------------------------------


def expected_k(n: int, alpha: float, theta: float, k0: float = 0.0, n0: int = 0) -> np.ndarray:
    """E[K_{n0+i} | K_{n0} = k0] for i = 0..n by the stable recurrence.

    Customer n0+i opens a table with probability (theta + alpha*K)/(theta + n0 + i),
    which is linear in K, so E_{i+1} = E_i + (theta + alpha*E_i)/(theta + n0 + i).
    """
    out = np.empty(n + 1)
    e = float(k0)
    out[0] = e
    for i in range(n):
        e += (theta + alpha * e) / (theta + n0 + i)
        out[i + 1] = e
    return out


def k_laws(nmax: int, alpha: float, theta: float):
    """Yield (j, Pr[K_j = k] for k = 0..nmax) for j = 0..nmax by the forward Markov chain."""
    p = np.zeros(nmax + 2)
    p[0] = 1.0
    k = np.arange(nmax + 2, dtype=np.float64)
    for j in range(nmax + 1):
        yield j, p[:nmax + 1]
        new = p * (theta + alpha * k) / (theta + j)
        p = p - new
        p[1:] += new[:-1]


def k_law(n: int, alpha: float, theta: float) -> np.ndarray:
    for j, p in k_laws(n, alpha, theta):
        if j == n:
            return p.copy()


def prob_oldest_curve(n: int, alpha: float, theta: float) -> np.ndarray:
    """P_n(i) = (alpha*n + i*(theta - alpha))/n * E[1/(theta + alpha*K_{n-i})], i = 0..n.

    The expectation is taken against the law of K_j from its forward chain;
    entry 0 is nan.
    """
    inv = 1.0 / (theta + alpha * np.arange(n + 1, dtype=np.float64))
    e = np.empty(n)
    for j, p in k_laws(n - 1, alpha, theta):
        e[j] = float(p @ inv[:n])
    i = np.arange(1, n + 1, dtype=np.float64)
    out = np.full(n + 1, np.nan)
    out[1:] = (alpha * n + i * (theta - alpha)) / n * e[n - np.arange(1, n + 1)]
    return out


# ---------------------------------------------------------------------------
# first-order frequency laws by summation
# ---------------------------------------------------------------------------


def _log_first_block(big_n: int, w: np.ndarray, alpha: float, theta: float) -> np.ndarray:
    """log Pr[a given w-subset of [N] is the order-1 block] (the j = 1 factor)."""
    return (np.log(alpha * (big_n - w) + theta * w) - math.log(big_n)
            + gammaln(w - alpha) - gammaln(1.0 - alpha)
            - gammaln(theta + big_n) + gammaln(theta + big_n - w))


def _log_choose(n: int, j: np.ndarray) -> np.ndarray:
    return gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)


def m1_law(n: int, alpha: float, theta: float) -> np.ndarray:
    """Pr[M_{1,n} = w] for w = 0..n (entry 0 is 0)."""
    w = np.arange(1, n + 1, dtype=np.float64)
    out = np.zeros(n + 1)
    out[1:] = np.exp(_log_choose(n, w) + _log_first_block(n, w, alpha, theta))
    return out


def posterior_w1_law(n: int, m1: int, m: int, alpha: float, theta: float):
    """Law of W_1 after m more draws, given size n with order-1 frequency m1.

    Returns (new, old) over w = 0..m1+m: new[w] = Pr[A_1, W_1 = w] (a new
    species takes order 1 with w of the m new draws), old[w] = Pr[B_1, W_1 = w]
    (the old order-1 species keeps it with w - m1 of the new draws).
    """
    big_n = n + m
    new = np.zeros(m1 + m + 1)
    old = np.zeros(m1 + m + 1)
    if m > 0:
        w = np.arange(1, m + 1, dtype=np.float64)
        new[1:m + 1] = np.exp(_log_choose(m, w) + _log_first_block(big_n, w, alpha, theta))
    j = np.arange(0, m + 1, dtype=np.float64)
    log_old = (_log_choose(m, j) + _log_first_block(big_n, m1 + j, alpha, theta)
               - _log_first_block(n, np.array([float(m1)]), alpha, theta))
    old[m1:] = np.exp(log_old)
    return new, old


def posterior_w1_mean(n: int, m1: int, m: int, alpha: float, theta: float) -> tuple:
    """(E[W_1], Pr[A_1]) by summation of posterior_w1_law."""
    new, old = posterior_w1_law(n, m1, m, alpha, theta)
    w = np.arange(len(new), dtype=np.float64)
    return float(w @ (new + old)), float(new.sum())


def quantile_range(law: np.ndarray, tail: float) -> tuple:
    """Smallest interval [lo, hi] of the support leaving at most tail/2 on each side."""
    cdf = np.cumsum(law)
    lo = int(np.searchsorted(cdf, tail / 2, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - tail / 2, side="left"))
    return lo, min(hi, len(law) - 1)


# ---------------------------------------------------------------------------
# exact sequential laws (ordered CRP steps as ordered EPPF ratios)
# ---------------------------------------------------------------------------


def ordered_moves(freqs, alpha, theta):
    """Next-customer moves from an ordered state, in exact arithmetic.

    Yields (kind, j, prob): kind "old" joins the block of order j, kind "new"
    opens a block at order j (0-based, j = k is the youngest). Each prob is
    the ordered EPPF ratio for one labelled extension; they sum to 1.
    """
    freqs = tuple(freqs)
    base = ordered_eppf_exact(freqs, alpha, theta)
    for j in range(len(freqs)):
        nxt = freqs[:j] + (freqs[j] + 1,) + freqs[j + 1:]
        yield "old", j, ordered_eppf_exact(nxt, alpha, theta) / base
    for j in range(len(freqs) + 1):
        nxt = freqs[:j] + (1,) + freqs[j:]
        yield "new", j, ordered_eppf_exact(nxt, alpha, theta) / base


def continuation_law(freqs, m: int, alpha, theta) -> dict:
    """Exact law of (K_m^(n), W_1, A_1, W_2, A_2) after m steps from an ordered state.

    By enumeration of every path; W_2 = A_2 = 0 when a single species remains.
    """
    law = {}

    def walk(state, steps, prob):
        if steps == 0:
            kmn = sum(1 for _, new in state if new)
            w2, a2 = (state[1][0], int(state[1][1])) if len(state) > 1 else (0, 0)
            key = (kmn, state[0][0], int(state[0][1]), w2, a2)
            law[key] = law.get(key, Fraction(0)) + prob
            return
        for kind, j, p in ordered_moves([f for f, _ in state], alpha, theta):
            if kind == "old":
                nxt = state[:j] + [(state[j][0] + 1, state[j][1])] + state[j + 1:]
            else:
                nxt = state[:j] + [(1, True)] + state[j:]
            walk(nxt, steps - 1, prob * p)

    walk([(f, False) for f in freqs], m, Fraction(1))
    return law


def compositions(n: int):
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, cur = [], 1
        for cut in cuts:
            if cut:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield tuple(parts)


def ordering_law(n: int, alpha: float, theta: float) -> dict:
    """Exact law of the order a new species takes after n draws.

    For each k: (Pr[K_n = k], E[q | K_n = k], Var[q | K_n = k]) where q[j],
    j = 1..k+1, is the chance that a new species takes order j given that
    the next draw is new. Key 0 holds (1, E[q], Var[q]) over all k, with q
    padded by zeros to length n+2.
    """
    acc = {}
    for comp in compositions(n):
        k = len(comp)
        p = math.exp(math.lgamma(n + 1) - sum(math.lgamma(f + 1) for f in comp)
                     + log_ordered_eppf(comp, alpha, theta))
        q = np.zeros(n + 2)
        for j in range(k + 1):
            q[j + 1] = math.exp(log_ordered_eppf(comp[:j] + (1,) + comp[j:], alpha, theta)
                                - log_ordered_eppf(comp, alpha, theta))
        q /= q.sum()
        for key in (k, 0):
            w, s1, s2 = acc.get(key, (0.0, 0.0, 0.0))
            acc[key] = (w + p, s1 + p * q, s2 + p * q * q)
    out = {}
    for key, (w, s1, s2) in acc.items():
        mean = s1 / w
        out[key] = (w, mean, np.maximum(s2 / w - mean * mean, 0.0))
    return out
