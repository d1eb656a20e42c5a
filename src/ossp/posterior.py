"""Posterior laws of the first r order frequencies in the enlarged sample.

Conditioning is on (K_n = k, ordered frequencies m) of the observed sample;
the laws themselves depend only on (n, m, and the first-r prefix), which is
asserted by tests. A_r is the event that orders 1..r of the enlarged sample
are new species, B_r that they are old.

Each law is the prior law of the first r order frequencies at the enlarged
size n+m, built from the order-1 block factor in `laws` (see its module
docstring); the B_r branch divides out the same blocks at size n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .laws import (_check_prefix, _log_blocks, _log_choose, _log_first_block,
                   _log_multinomial, expected_Kmn)
from .partition import PypParams
from .specialfn import log_rising

NEG_INF = -math.inf


def log_posterior_first_r_new(n: int, m: int, k: int, r: int,
                              w_prefix: Sequence[int], params: PypParams) -> float:
    """log Pr[A_r, W_1 = w_1, ..., W_r = w_r, K_m^(n) >= r | K_n = k, M = m].

    Structurally the prior first-r law with n+m in place of n, but with
    the multinomial taken over the m new observations only.
    """
    w = _check_prefix(m, w_prefix)
    if len(w) != r:
        raise ValueError(f"w_prefix length {len(w)} != r={r}")
    return _log_multinomial(m, w + (m - sum(w),)) + _log_blocks(n + m, w, params)


def log_posterior_first_r_old(n: int, m: int, k: int, r: int,
                              m_prefix: Sequence[int], w_increments: Sequence[int],
                              params: PypParams) -> float:
    """log Pr[B_r, W_j = m_j + w_j for j <= r | K_n = k, M = m], w_j >= 0."""
    mp = _check_prefix(n, m_prefix)
    if len(mp) != r:
        raise ValueError(f"m_prefix length {len(mp)} != r={r}")
    if not 1 <= r <= k:
        raise ValueError(f"need 1 <= r <= k, got r={r}, k={k}")
    w = tuple(int(v) for v in w_increments)
    if len(w) != r or any(v < 0 for v in w):
        raise ValueError(f"w_increments must be r nonnegative integers, got {w}")
    if sum(w) > m:
        raise ValueError(f"increments {w} exceed m={m}")
    wm = tuple(wi + mi for wi, mi in zip(w, mp))
    return (_log_multinomial(m, w + (m - sum(w),))
            + _log_blocks(n + m, wm, params) - _log_blocks(n, mp, params))


@dataclass(frozen=True, eq=False)
class PosteriorW1:
    """Posterior law of the order-1 frequency W_1 in the enlarged sample.

    Dense arrays over the support w = 1..m1+m: new_mass carries the A_1
    branch (nonzero on 1..m), old_mass the B_1 branch (nonzero on
    m1..m1+m); where the branches overlap the marginal adds them.
    """

    n: int
    m: int
    m1: int
    support: np.ndarray
    new_mass: np.ndarray
    old_mass: np.ndarray

    @property
    def marginal(self) -> np.ndarray:
        return self.new_mass + self.old_mass

    @property
    def prob_a1(self) -> float:
        return float(self.new_mass.sum())

    @property
    def prob_b1(self) -> float:
        return float(self.old_mass.sum())


def posterior_W1(n: int, m: int, k: int, m1: int, params: PypParams) -> PosteriorW1:
    """Assemble the full posterior of W_1 on the union support."""
    if not 1 <= m1 <= n:
        raise ValueError(f"need 1 <= m1 <= n, got m1={m1}, n={n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    a, t = params.alpha, params.theta
    support = np.arange(1, m1 + m + 1)
    new_mass = np.zeros(m1 + m)
    old_mass = np.zeros(m1 + m)
    if m == 0:
        old_mass[m1 - 1] = 1.0
        return PosteriorW1(n, m, m1, support, new_mass, old_mass)

    w = np.arange(1, m + 1, dtype=np.float64)
    new_mass[:m] = np.exp(_log_choose(m, w) + _log_first_block(n + m, w, a, t))
    j = np.arange(0, m + 1, dtype=np.float64)  # increment over m1
    old_mass[m1 - 1:] = np.exp(_log_choose(m, j) + _log_first_block(n + m, m1 + j, a, t)
                               - _log_first_block(n, m1, a, t))
    return PosteriorW1(n, m, m1, support, new_mass, old_mass)


@dataclass(frozen=True)
class W1Moments:
    """Posterior mean of W_1 with its A_1/B_1 decomposition."""

    mean: float
    partial_a1: float     # E[W_1 1_{A_1} | data]
    partial_b1: float     # E[W_1 1_{B_1} | data]
    prob_a1: float
    prob_b1: float
    mean_given_a1: float  # nan when Pr[A_1] = 0
    mean_given_b1: float


def expected_W1_parts(n: int, m: int, k: int, m1: int, params: PypParams) -> W1Moments:
    """Closed-form posterior mean of W_1 and its event decomposition."""
    if not 1 <= m1 <= n:
        raise ValueError(f"need 1 <= m1 <= n, got m1={m1}, n={n}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return W1Moments(float(m1), 0.0, float(m1), 0.0, 1.0, math.nan, float(m1))
    a, t = params.alpha, params.theta
    prob_a1, prob_b1 = prob_A1_B1(n, m, params)
    partial_a1 = m / n * (t + n * a) / (t + n + 1 - a) * prob_b1
    c = ((a * (n + m - m1) + t * m1) * (m1 + m * (m1 - a) / (t + n - a))
         + (m * (t - a) * (m1 - a) / (t + n - a))
         * ((m1 + 1) + (m - 1) * (m1 + 1 - a) / (t + n + 1 - a)))
    ratio_b = math.exp(log_rising(t + n - a, m) - log_rising(t + n, m))
    partial_b1 = n / (n + m) * ratio_b * c / (a * (n - m1) + t * m1)
    mean = partial_a1 + partial_b1
    mean_a1 = partial_a1 / prob_a1 if prob_a1 > 0.0 else math.nan
    mean_b1 = partial_b1 / prob_b1 if prob_b1 > 0.0 else math.nan
    return W1Moments(mean, partial_a1, partial_b1, prob_a1, prob_b1, mean_a1, mean_b1)


def expected_W1(n: int, m: int, k: int, m1: int, params: PypParams) -> float:
    """Posterior mean of the order-1 frequency in the enlarged sample."""
    return expected_W1_parts(n, m, k, m1, params).mean


def prob_A1_B1(n: int, m: int, params: PypParams) -> tuple:
    """(Pr[A_1 | data], Pr[B_1 | data]); independent of k and the frequencies."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m == 0:
        return 0.0, 1.0
    a, t = params.alpha, params.theta
    pb1 = n / (n + m) * math.exp(log_rising(t + n + 1 - a, m) - log_rising(t + n, m))
    return 1.0 - pb1, pb1


def predict_K(n: int, k: int, m: int, params: PypParams) -> float:
    """Posterior mean of K_{n+m}: k plus the expected number of new species."""
    return k + expected_Kmn(m, n, k, params)
