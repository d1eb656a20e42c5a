"""Generative sampling: classical and ordered Chinese Restaurant Processes,
plus the misspecified generators used in the synthetic studies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import rng_from
from .partition import ObservedSample, OrderedPartition, PypParams, reduce_records


def _freqs_of(partition) -> tuple:
    if partition is None:
        return ()
    if isinstance(partition, OrderedPartition):
        return partition.freqs
    return tuple(int(f) for f in partition)


def ordered_step_probs(partition, params: PypParams):
    """Next-customer law at the current ordered state.

    Returns (new_probs, old_probs): new_probs[j] is the chance the customer
    opens a table of order j+1 (length k+1), old_probs[j] the chance it
    joins the existing table of order j+1 (length k). Running prefix
    products are carried in log space and exponentiated at the end.
    """
    freqs = _freqs_of(partition)
    a, t = params.alpha, params.theta
    k = len(freqs)
    n = sum(freqs)
    log_new = np.empty(k + 1)
    log_old = np.empty(k)
    log_tot = math.log(t + n)
    log_prod = 0.0
    rj = n
    for j in range(k):
        log_new[j] = math.log(t + a * rj) - math.log1p(rj) - log_tot + log_prod
        mj = freqs[j]
        rj1 = rj - mj
        base = a * rj1 + t * mj
        log_old[j] = (math.log(rj) + math.log(mj - a) + math.log(base + t)
                      - math.log1p(rj) - log_tot - math.log(base) + log_prod)
        log_prod += math.log(rj) + math.log(base + a) - math.log1p(rj) - math.log(base)
        rj = rj1
    log_new[k] = math.log(t) - log_tot + log_prod  # r_{k+1} = 0
    return np.exp(log_new), np.exp(log_old)


def unordered_step_probs(freqs, params: PypParams):
    """Classical CRP next-customer law: (p_new, per-table probabilities)."""
    freqs = _freqs_of(freqs)
    a, t = params.alpha, params.theta
    k = len(freqs)
    n = sum(freqs)
    p_new = (t + k * a) / (t + n)
    p_old = (np.asarray(freqs, dtype=np.float64) - a) / (t + n)
    return p_new, p_old


def simulate(n: int, params: PypParams, seed) -> ObservedSample:
    """Draw an ordered sample of size n; weights are rank-consistent integers
    (order j gets weight k+1-j), since only ranks matter downstream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = rng_from(seed).random(n)
    freqs = np.zeros(n, dtype=np.int64)
    ids = np.zeros(n, dtype=np.int64)
    assign = np.zeros(n, dtype=np.int64)
    k, _ = _kernels.ocrp_steps(u, params.alpha, params.theta, freqs, ids, 0, 0, assign, 0)
    order_of = np.empty(k, dtype=np.int64)
    order_of[ids[:k]] = np.arange(k)
    records = [(float(k - order_of[c]), f"s{c}") for c in assign]
    return reduce_records(records)


@dataclass(frozen=True, eq=False)
class ContinuationStats:
    """Summary of an m-step ordered-CRP continuation from a size-n state."""

    k_initial: int
    k_total: int
    k_new: int
    w1: int        # frequency of the order-1 species in the enlarged sample
    a1: bool       # order-1 species arose during the continuation
    freqs: tuple   # enlarged ordered frequencies


def continue_ocrp(partition, m: int, params: PypParams, seed) -> ContinuationStats:
    """Run m further ordered-CRP steps from the given partition state."""
    freqs0 = _freqs_of(partition)
    k0 = len(freqs0)
    if k0 < 1:
        raise ValueError("continuation needs a nonempty starting partition")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    cap = k0 + m
    freqs = np.zeros(cap, dtype=np.int64)
    ids = np.zeros(cap, dtype=np.int64)
    freqs[:k0] = freqs0
    ids[:k0] = np.arange(k0)
    assign = np.zeros(max(m, 1), dtype=np.int64)
    u = rng_from(seed).random(m)
    k, _ = _kernels.ocrp_steps(u, params.alpha, params.theta, freqs, ids, k0, k0, assign, 0)
    return ContinuationStats(
        k_initial=k0,
        k_total=int(k),
        k_new=int(k - k0),
        w1=int(freqs[0]),
        a1=bool(ids[0] >= k0),
        freqs=tuple(int(f) for f in freqs[:k]),
    )


@dataclass(frozen=True, eq=False)
class OrderingDistribution:
    """Monte Carlo law of the order taken by a new species after n samples.

    prob[k, j] estimates Pr[new species gets order j | K_n = k] for
    j = 1..k+1; marginal[j] averages over K_n by visitation. Unvisited k
    rows are reported in zero_visit_ks rather than failing.
    """

    n: int
    replicates: int
    counts: np.ndarray
    prob: np.ndarray
    se: np.ndarray
    marginal: np.ndarray
    marginal_se: np.ndarray
    zero_visit_ks: tuple


def ordering_distribution(n: int, params: PypParams, replicates: int, seed,
                          chunk: int = 4096) -> OrderingDistribution:
    """Estimate the new-species order law by simulating `replicates` runs."""
    if n < 1 or replicates < 1:
        raise ValueError("need n >= 1 and replicates >= 1")
    a, t = params.alpha, params.theta
    sums = np.zeros((n + 1, n + 2))
    sumsq = np.zeros((n + 1, n + 2))
    counts = np.zeros(n + 1, dtype=np.int64)
    freqs = np.zeros(n, dtype=np.int64)
    ids = np.zeros(n, dtype=np.int64)
    assign = np.zeros(n, dtype=np.int64)
    qbuf = np.empty(n + 1)
    rng = rng_from(seed)
    done = 0
    while done < replicates:
        b = min(chunk, replicates - done)
        U = rng.random((b, n))
        for row in U:
            k, _ = _kernels.ocrp_steps(row, a, t, freqs, ids, 0, 0, assign, 0)
            _kernels.ocrp_qnew(freqs, k, a, t, qbuf)
            q = qbuf[:k + 1] / qbuf[:k + 1].sum()
            sums[k, 1:k + 2] += q
            sumsq[k, 1:k + 2] += q * q
            counts[k] += 1
        done += b
    prob = np.full((n + 1, n + 2), np.nan)
    se = np.full((n + 1, n + 2), np.nan)
    visited = counts > 0
    prob[visited] = sums[visited] / counts[visited, None]
    var = np.maximum(sumsq[visited] / counts[visited, None] - prob[visited] ** 2, 0.0)
    se[visited] = np.sqrt(var / counts[visited, None])
    marginal = sums[1:].sum(axis=0) / replicates
    mvar = np.maximum(sumsq[1:].sum(axis=0) / replicates - marginal ** 2, 0.0)
    marginal_se = np.sqrt(mvar / replicates)
    zero = tuple(int(k) for k in range(1, n + 1) if counts[k] == 0)
    return OrderingDistribution(n, replicates, counts, prob, se,
                                marginal, marginal_se, zero)


# ---------------------------------------------------------------------------
# misspecified generators (synthetic study, adverse regimes)
# ---------------------------------------------------------------------------

CLUSTERINGS = ("dp", "pyp", "zipf")
ORDERINGS = ("alpha_stable", "arrival_weighted")


@dataclass(frozen=True)
class MisspecConfig:
    """Crossed generator choice: clustering distribution x ordering rule.

    alpha is accepted for the alpha_stable ordering but cancels in the
    normalized theta->0 insertion law; it only matters for pyp clustering.
    """

    clustering: str
    ordering: str
    theta: float = 1.0
    alpha: float = 0.5
    zipf_s: float = 2.0

    def __post_init__(self):
        if self.clustering not in CLUSTERINGS:
            raise ValueError(f"clustering must be one of {CLUSTERINGS}")
        if self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS}")
        if self.clustering == "zipf" and not self.zipf_s > 1.0:
            raise ValueError(f"zipf exponent must be > 1, got {self.zipf_s}")
        if self.clustering in ("dp", "pyp") and not self.theta > 0.0:
            raise ValueError(f"theta must be > 0, got {self.theta}")
        if self.clustering == "pyp" and not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")


class MisspecProcess:
    """Sequential misspecified generator with resumable state.

    Cluster ids are assigned in arrival order; each extend() consumes its
    own stream, so a prefix can be replayed and continued under several
    independent continuation seeds.
    """

    def __init__(self, config: MisspecConfig):
        self.config = config
        self.assign = np.zeros(0, dtype=np.int64)
        self.sizes = np.zeros(0, dtype=np.int64)
        self.k = 0
        self.n = 0
        self._zipf_label = {}
        # ordering state
        self._ord_freqs = np.zeros(0, dtype=np.int64)
        self._ord_ids = np.zeros(0, dtype=np.int64)
        self._ord_of = np.zeros(0, dtype=np.int64)
        self._weights = []  # arrival_weighted: one weight per cluster

    def _grow(self, steps: int):
        self.assign = np.concatenate([self.assign, np.zeros(steps, dtype=np.int64)])
        self.sizes = np.concatenate([self.sizes, np.zeros(steps, dtype=np.int64)])
        self._ord_freqs = np.concatenate([self._ord_freqs, np.zeros(steps, dtype=np.int64)])
        self._ord_ids = np.concatenate([self._ord_ids, np.zeros(steps, dtype=np.int64)])
        self._ord_of = np.concatenate([self._ord_of, np.zeros(steps, dtype=np.int64)])

    def extend(self, steps: int, seed) -> None:
        """Generate `steps` more observations."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return
        cfg = self.config
        rng = rng_from(seed)
        self._grow(steps)
        t0, k0 = self.n, self.k
        if cfg.clustering == "zipf":
            vals = rng.zipf(cfg.zipf_s, size=steps)
            for t, v in enumerate(vals):
                v = int(v)
                c = self._zipf_label.setdefault(v, len(self._zipf_label))
                self.assign[t0 + t] = c
                if c == self.k:
                    self.k += 1
                self.sizes[c] += 1
        else:
            a = cfg.alpha if cfg.clustering == "pyp" else 0.0
            u = rng.random(steps)
            self.k = int(_kernels.crp_steps(u, a, cfg.theta, self.sizes,
                                            self.assign, self.k, self.n, t0))
        self.n += steps
        new_clusters = self.k - k0
        if cfg.ordering == "alpha_stable":
            u_ord = rng.random(steps)
            _kernels.stable_order_steps(self.assign[t0:self.n], u_ord,
                                        self._ord_freqs, self._ord_ids,
                                        self._ord_of, k0)
        else:
            means = np.arange(k0 + 1, self.k + 1, dtype=np.float64)
            if new_clusters > 0:
                self._weights.extend(rng.exponential(scale=means).tolist())

    def order_of_clusters(self) -> np.ndarray:
        """0-based order rank per cluster id (0 = oldest)."""
        if self.config.ordering == "alpha_stable":
            return self._ord_of[:self.k].copy()
        w = np.asarray(self._weights)
        rank = np.empty(self.k, dtype=np.int64)
        rank[np.argsort(w, kind="stable")] = np.arange(self.k)
        return rank

    def to_sample(self) -> ObservedSample:
        """Records with rank-consistent weights for the current state."""
        rank = self.order_of_clusters()
        records = [(float(self.k - rank[c]), f"c{c}") for c in self.assign[:self.n]]
        return reduce_records(records)

    def stats_since(self, n_before: int, k_before: int) -> ContinuationStats:
        """Continuation summary relative to an earlier (n, k) snapshot."""
        rank = self.order_of_clusters()
        oldest = int(np.argmin(rank))
        return ContinuationStats(
            k_initial=k_before,
            k_total=self.k,
            k_new=self.k - k_before,
            w1=int(self.sizes[oldest]),
            a1=bool(oldest >= k_before),
            freqs=tuple(int(self.sizes[c]) for c in np.argsort(rank)),
        )


def misspec_simulate(n: int, config: MisspecConfig, seed) -> ObservedSample:
    """One misspecified dataset of size n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    proc = MisspecProcess(config)
    proc.extend(n, seed)
    return proc.to_sample()
