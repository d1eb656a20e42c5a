"""Independent verification engines: exhaustive enumeration over small
ordered partitions and conditional Monte Carlo by acceptance-rejection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from ._rng import rng_from
from .partition import PypParams
from .laws import log_ordered_eppf

ENUMERATION_CAP = 9
EXACT_ORDERING_CAP = 12
_CHUNK = 8192  # attempts per mc_chunk call; fixes how the uniform stream is cut


class CapExceeded(ValueError):
    """Requested enumeration size exceeds the hard cap."""


class AcceptanceTooLow(RuntimeError):
    """Conditional MC acceptance rate below 1e-4: infeasible test configuration."""


def compositions(n: int) -> Iterator[tuple]:
    """All 2^(n-1) compositions of n, as tuples of positive parts."""
    for mask in range(2 ** (n - 1)):
        parts = []
        cur = 1
        for b in range(n - 1):
            if mask >> b & 1:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield tuple(parts)


def multinomial(n: int, parts: Sequence[int]) -> int:
    v = math.factorial(n)
    for p in parts:
        v //= math.factorial(p)
    return v


def enumerate_ordered_partitions(n: int) -> Iterator[tuple]:
    """Yield (composition, multiplicity) over all ordered set partitions of [n].

    The multiplicity counts labeled configurations sharing the frequency
    vector, so sum(mult * exp(log_ordered_eppf(comp))) = 1 for any valid
    parameters. Capped at n <= 9.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    for comp in compositions(n):
        yield comp, multinomial(n, comp)


def ordered_total_mass(n: int, params: PypParams) -> float:
    """sum over ordered set partitions of the ordered EPPF (should be 1)."""
    return float(sum(mult * math.exp(log_ordered_eppf(comp, params))
                     for comp, mult in enumerate_ordered_partitions(n)))


def exact_ordering_distribution(n: int, params: PypParams) -> dict:
    """Exact law of the order taken by a new species, given K_n = k.

    Enumerates every composition, weighting by its probability; the value at
    key k is a vector over orders j = 1..k+1 (index 0 unused). Key 0 holds
    the marginal over k. Enumeration only, capped at n <= 12.
    """
    if n > EXACT_ORDERING_CAP:
        raise CapExceeded(f"n={n} exceeds the exact-ordering cap {EXACT_ORDERING_CAP}")
    acc: dict = {}
    wsum: dict = {}
    marginal = np.zeros(n + 2)
    qbuf = np.empty(n + 1)
    a, t = params.alpha, params.theta
    for comp in compositions(n):
        k = len(comp)
        p = multinomial(n, comp) * math.exp(log_ordered_eppf(comp, params))
        freqs = np.asarray(comp, dtype=np.int64)
        _kernels.ocrp_qnew(freqs, k, a, t, qbuf)
        q = qbuf[:k + 1] / qbuf[:k + 1].sum()
        if k not in acc:
            acc[k] = np.zeros(k + 2)
            wsum[k] = 0.0
        acc[k][1:] += p * q
        wsum[k] += p
        marginal[1:k + 2] += p * q
    out = {k: acc[k] / wsum[k] for k in acc}
    out[0] = marginal
    return out


@dataclass(frozen=True, eq=False)
class ConditionalMC:
    """Accepted-run tallies from conditional simulation of the ordered CRP.

    Cell helpers report binomial standard errors sqrt(p(1-p)/N); the fixed
    3-SE test tolerance gives deterministic pass/fail under a fixed seed.
    """

    n: int
    m: int
    params: PypParams
    accepted: int       # tallied runs (= requested replicates)
    raw_accepted: int   # all acceptances seen, including chunk overshoot
    attempts: int
    kmn: np.ndarray
    w1: np.ndarray
    a1: np.ndarray
    w2: np.ndarray  # enlarged order-2 frequency, 0 when K_{n+m} = 1
    a2: np.ndarray

    @property
    def accept_rate(self) -> float:
        return self.raw_accepted / self.attempts

    def _cells(self, values: np.ndarray):
        support, counts = np.unique(values, return_counts=True)
        p = counts / self.accepted
        se = np.sqrt(p * (1.0 - p) / self.accepted)
        return support, p, se

    def w1_cells(self):
        return self._cells(self.w1)

    def kmn_cells(self):
        return self._cells(self.kmn)

    def event_prob(self, mask: np.ndarray):
        """Empirical probability of an event over accepted runs, with SE."""
        p = float(np.mean(mask))
        return p, math.sqrt(p * (1.0 - p) / self.accepted)

    def prob_a1(self):
        return self.event_prob(self.a1)

    def mean_w1(self):
        mu = float(self.w1.mean())
        return mu, float(self.w1.std(ddof=1) / math.sqrt(self.accepted))


def conditional_mc(n: int, m: int, params: PypParams, replicates: int, seed,
                   k: int = None, m1: int = None, freqs: Sequence[int] = None) -> ConditionalMC:
    """Acceptance-rejection sampler conditioned on size-n statistics.

    Runs the ordered CRP to size n, accepts runs matching the condition
    (full ordered frequency vector via `freqs`, else K_n = k and/or
    M_1 = m1), continues m steps, and tallies (K_m^(n), W_1, A_1) over
    `replicates` accepted runs. Raises AcceptanceTooLow once 2e5 attempts
    put the rate below 1e-4.
    """
    if n < 1 or m < 0 or replicates < 1:
        raise ValueError("need n >= 1, m >= 0, replicates >= 1")
    cond_freqs = np.asarray([] if freqs is None else list(freqs), dtype=np.int64)
    if cond_freqs.size and cond_freqs.sum() != n:
        raise ValueError(f"conditioning freqs {freqs} do not sum to n={n}")
    cond_k = -1 if k is None else int(k)
    cond_m1 = -1 if m1 is None else int(m1)
    a, t = params.alpha, params.theta
    buf_f = np.zeros(n + m, dtype=np.int64)
    buf_i = np.zeros(n + m, dtype=np.int64)
    buf_a = np.zeros(n + m, dtype=np.int64)
    out_kmn = np.empty(_CHUNK, dtype=np.int64)
    out_w1 = np.empty(_CHUNK, dtype=np.int64)
    out_a1 = np.empty(_CHUNK, dtype=np.int64)
    out_w2 = np.empty(_CHUNK, dtype=np.int64)
    out_a2 = np.empty(_CHUNK, dtype=np.int64)
    kmn, w1, a1, w2, a2 = [], [], [], [], []
    accepted = 0
    raw_accepted = 0
    attempts = 0
    rng = rng_from(seed)
    while accepted < replicates:
        U = rng.random((_CHUNK, n + m))
        got = int(_kernels.mc_chunk(U, a, t, n, m, cond_k, cond_m1, cond_freqs,
                                    buf_f, buf_i, buf_a, out_kmn, out_w1, out_a1,
                                    out_w2, out_a2))
        attempts += _CHUNK
        raw_accepted += got
        take = min(got, replicates - accepted)
        kmn.append(out_kmn[:take].copy())
        w1.append(out_w1[:take].copy())
        a1.append(out_a1[:take].copy())
        w2.append(out_w2[:take].copy())
        a2.append(out_a2[:take].copy())
        accepted += take
        if attempts >= 200_000 and raw_accepted / attempts < 1e-4:
            raise AcceptanceTooLow(
                f"acceptance rate {raw_accepted / attempts:.2e} after {attempts} attempts")
    return ConditionalMC(n, m, params, accepted, raw_accepted, attempts,
                         np.concatenate(kmn), np.concatenate(w1),
                         np.concatenate(a1).astype(bool),
                         np.concatenate(w2), np.concatenate(a2).astype(bool))
