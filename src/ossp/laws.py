"""Exact prior laws: EPPF, ordered EPPF, species counts, order-1 probability,
and the joint law of the first r order frequencies.

The laws of the first r order frequencies, here and in `posterior`, are
built from one factor. With r_j = m_j + ... + m_k the ordered EPPF is
prod_j (theta m_j + alpha r_{j+1}) / r_j * (1-alpha)_(m_j - 1) / (theta)_(n),
and its factor j = 1 splits off: given the order-1 block, the rest of the
partition is again ordered PYP(alpha, theta). So a given w-subset of N points
is the order-1 block with probability
(alpha (N-w) + theta w) / N * (1-alpha)_(w-1) / (theta+N-w)_(w)
(`_log_first_block`); the first r order frequencies are a multinomial times r
such blocks, each split off what the blocks before it left, and the posterior
laws are the same product at the enlarged size n+m. The law of K_n
(`_log_dist_Kn`) and the expected number of new species
(`_expected_new_species`) are likewise written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from . import _kernels
from .partition import PypParams
from .specialfn import (
    log_gen_factorial_scaled_row,
    log_noncentral_gf_scaled_row,
    log_rising,
)

NEG_INF = -math.inf


def _check_composition(freqs) -> tuple:
    freqs = tuple(int(f) for f in freqs)
    if not freqs or any(f < 1 for f in freqs):
        raise ValueError(f"need a composition of positive parts, got {freqs}")
    return freqs


def log_eppf(freqs: Sequence[int], params: PypParams) -> float:
    """log probability of an unordered partition with block sizes `freqs`."""
    freqs = _check_composition(freqs)
    a, t = params.alpha, params.theta
    n, k = sum(freqs), len(freqs)
    acc = -log_rising(t, n)
    for i in range(k):
        acc += math.log(t + i * a)
    for f in freqs:
        acc += log_rising(1.0 - a, f - 1)
    return acc


def log_ordered_eppf(freqs: Sequence[int], params: PypParams) -> float:
    """log probability of an ordered partition with frequencies (m_1, ..., m_k),
    order 1 carrying the largest weight."""
    freqs = _check_composition(freqs)
    a, t = params.alpha, params.theta
    n = sum(freqs)
    acc = -log_rising(t, n)
    tail = n
    for f in freqs:
        tail_next = tail - f
        acc += math.log(t * f + a * tail_next) - math.log(tail)
        acc += log_rising(1.0 - a, f - 1)
        tail = tail_next
    return acc


def _log_dist_Kn(n: int, params: PypParams) -> np.ndarray:
    """log Pr[K_n = k] for k = 0..n; n = 0 gives [0.0] (K_0 = 0 surely)."""
    a, t = params.alpha, params.theta
    row = log_gen_factorial_scaled_row(n, a)
    i = np.arange(n, dtype=np.float64)
    logpref = np.concatenate(([0.0], np.cumsum(np.log(t + a * i))))
    return logpref + row - log_rising(t, n)


def dist_Kn(n: int, params: PypParams) -> np.ndarray:
    """Pr[K_n = k] for k = 0..n (entry 0 is 0); sums to 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = np.exp(_log_dist_Kn(n, params))
    out[0] = 0.0
    return out


def dist_Kmn(m: int, n: int, k: int, params: PypParams) -> np.ndarray:
    """Pr[K_m^(n) = s | K_n = k] for s = 0..m; point mass at 0 when m = 0."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m == 0:
        return np.ones(1)
    a, t = params.alpha, params.theta
    gamma = -n + k * a
    row = log_noncentral_gf_scaled_row(m, a, gamma)
    i = np.arange(m, dtype=np.float64)
    logpref = np.concatenate(([0.0], np.cumsum(np.log(t + (k + i) * a))))
    return np.exp(logpref + row - log_rising(t + n, m))


def _expected_new_species(m: int, n: int, k: int, params: PypParams) -> float:
    """E[K_m^(n) | K_n = k] = (k + theta/alpha) ((theta+n+alpha)_(m)/(theta+n)_(m) - 1).

    The log of the ratio is summed as log1p terms, so the closed form keeps
    its accuracy as alpha -> 0; alpha = 0 is the harmonic sum. n = k = 0
    gives E[K_m].
    """
    if m == 0:
        return 0.0
    a, t = params.alpha, params.theta
    i = np.arange(m, dtype=np.float64)
    if a == 0.0:
        return float((t / (t + n + i)).sum())
    return (k + t / a) * math.expm1(float(np.log1p(a / (t + n + i)).sum()))


def expected_Kn(n: int, params: PypParams) -> float:
    """E[K_n] in closed form (harmonic sum at alpha = 0)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _expected_new_species(n, 0, 0, params)


def expected_Kmn(m: int, n: int, k: int, params: PypParams) -> float:
    """E[K_m^(n) | K_n = k] in closed form."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _expected_new_species(m, n, k, params)


def prob_oldest(i: int, n: int, params: PypParams) -> float:
    """Probability that a species of frequency i in a sample of n has order 1.

    Exact branches: i/n at alpha = 0 and 1 at i = n. Otherwise the
    expectation over K_{n-i} is summed exactly against dist_Kn.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    a, t = params.alpha, params.theta
    if a == 0.0:
        return i / n
    if i == n:
        return 1.0
    pk = dist_Kn(n - i, params)
    k = np.arange(1, n - i + 1, dtype=np.float64)
    e = float(pk[1:] @ (1.0 / (t + a * k)))
    return (a * n + i * (t - a)) / n * e


def prob_oldest_curve(n: int, params: PypParams) -> np.ndarray:
    """prob_oldest(i, n) for i = 0..n in one sweep (entry 0 is nan)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, t = params.alpha, params.theta
    out = np.empty(n + 1)
    out[0] = np.nan
    if a == 0.0:
        out[1:] = np.arange(1, n + 1) / n
        return out
    e = _kernels.oldest_inv_moments(n - 1, a, t)  # E[1/(t + a K_j)], j = 0..n-1
    i = np.arange(1, n, dtype=np.float64)
    out[1:n] = (a * n + i * (t - a)) / n * e[n - 1:0:-1]
    out[n] = 1.0
    return out


def _check_prefix(n: int, prefix) -> tuple:
    prefix = tuple(int(v) for v in prefix)
    if not prefix or any(v < 1 for v in prefix):
        raise ValueError(f"prefix parts must be >= 1, got {prefix}")
    if sum(prefix) > n:
        raise ValueError(f"prefix {prefix} exceeds n={n}")
    return prefix


def _log_multinomial(n: int, parts) -> float:
    acc = math.lgamma(n + 1)
    for p in parts:
        acc -= math.lgamma(p + 1)
    return acc


def _log_choose(n, j):
    """log binomial coefficient, vectorised over j."""
    return gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)


def _log_first_block(N: int, w, alpha: float, theta: float):
    """log Pr[a given w-subset of N points is the order-1 block], vectorised over w."""
    return (np.log(alpha * (N - w) + theta * w) - math.log(N)
            - (gammaln(theta + N) - gammaln(theta + N - w))
            + gammaln(w - alpha) - gammaln(1.0 - alpha))


def _log_blocks(N: int, prefix, params: PypParams) -> float:
    """log Pr[the given subsets of sizes prefix are the blocks of orders 1..r of
    N points]: each block is split off the points the blocks before it left."""
    acc = 0.0
    for w in prefix:
        acc += _log_first_block(N, w, params.alpha, params.theta)
        N -= w
    return float(acc)


def log_prior_first_r(n: int, r: int, prefix: Sequence[int], params: PypParams) -> float:
    """log Pr[M_{1,n} = m_1, ..., M_{r,n} = m_r, K_n >= r].

    Admissibility enforced: each m_j >= 1 and their sum <= n (the tighter
    bound involving k applies only to the conditional law).
    """
    prefix = _check_prefix(n, prefix)
    if len(prefix) != r:
        raise ValueError(f"prefix length {len(prefix)} != r={r}")
    return _log_multinomial(n, prefix + (n - sum(prefix),)) + _log_blocks(n, prefix, params)


def log_prior_first_r_given_k(n: int, r: int, prefix: Sequence[int], k: int,
                              params: PypParams) -> float:
    """log Pr[M_{1,n} = m_1, ..., M_{r,n} = m_r | K_n = k].

    The n - M points outside the first r blocks form an ordered PYP(alpha,
    theta) partition, which must hold the other k - r species.
    """
    prefix = _check_prefix(n, prefix)
    if len(prefix) != r:
        raise ValueError(f"prefix length {len(prefix)} != r={r}")
    if not r <= k <= n:
        raise ValueError(f"need r <= k <= n, got r={r}, k={k}, n={n}")
    M = sum(prefix)
    if k - r > n - M:
        return NEG_INF  # not enough residual observations for k-r more species
    return float(log_prior_first_r(n, r, prefix, params)
                 + _log_dist_Kn(n - M, params)[k - r] - _log_dist_Kn(n, params)[k])


@dataclass(frozen=True, eq=False)
class PriorFirstR:
    """Joint law of the first r order frequencies: log masses by prefix tuple."""

    n: int
    r: int
    masses: dict

    def total_mass(self) -> float:
        return float(sum(math.exp(v) for v in self.masses.values()))


def prior_first_r_table(n: int, r: int, params: PypParams) -> PriorFirstR:
    """All admissible prefixes (m_1, ..., m_r) with their log prior masses.

    The table sums to Pr[K_n >= r]; exponential in r, intended for small r.
    """
    masses = {}

    def rec(prefix, remaining):
        if len(prefix) == r:
            masses[prefix] = log_prior_first_r(n, r, prefix, params)
            return
        slots_left = r - len(prefix) - 1
        for m in range(1, remaining - slots_left + 1):
            rec(prefix + (m,), remaining - m)

    rec((), n)
    return PriorFirstR(n, r, masses)
