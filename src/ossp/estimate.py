"""Empirical-Bayes estimation of (alpha, theta).

Five methods: maximum likelihood under the exchangeable EPPF (stdPYP), the
ordered EPPF (ordPYP), the ordered DP (ordDP, alpha fixed at 0), and least
squares matching prefix curves of the species count (lsK) or of the first
order frequency (lsX1). All searches are deterministic: a fixed coarse grid
followed by derivative-free refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .laws import _log_choose, _log_first_block, expected_Kn, log_eppf, log_ordered_eppf
from .partition import ObservedSample, PypParams, prefix_stats

METHOD_NAMES = ("stdPYP", "ordPYP", "ordDP", "lsK", "lsX1")

ALPHA_MAX = 1.0 - 1e-6
THETA_MIN = 1e-8
THETA_MAX = 1e6
_LOGT_LO = math.log(THETA_MIN)
_LOGT_HI = math.log(THETA_MAX)
_ALPHA_GRID = np.linspace(0.0, ALPHA_MAX, 17)
_THETA_GRID = 10.0 ** np.linspace(-3.0, 6.0, 19)
_FLAT_EPS = 1e-12
DEFAULT_GRID_D = 20


class DegenerateSample(ValueError):
    """Sample too small to fit (n < 2 for the likelihood methods)."""


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters with the achieved objective and search diagnostics.

    status is "ok", "boundary" (search box edge reached, estimate not
    interior), or "flat" (objective constant; conventional point returned).
    The objective is the maximized log likelihood, or the negated least
    squares discrepancy for lsK/lsX1.
    """

    method: str
    params: PypParams
    objective: float
    status: str
    evaluations: int

    @property
    def converged(self) -> bool:
        return self.status != "boundary"


def _golden_max(fn, lo: float, hi: float, iters: int = 60):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def _status_for(alpha: float, theta: float) -> str:
    if alpha >= ALPHA_MAX - 1e-5:
        return "boundary"
    if theta <= 2.0 * THETA_MIN or theta >= 0.9 * THETA_MAX:
        return "boundary"
    return "ok"


def _maximize(objective):
    """Two-stage deterministic maximizer over [0, ALPHA_MAX] x [THETA_MIN, THETA_MAX].

    Coarse grid, then Nelder-Mead in (logit alpha, log theta) from the best
    grid point, plus a golden-section sweep along the alpha = 0 edge (the DP
    ridge is a domain boundary the transform cannot reach).
    """
    evals = 0

    def f(alpha, theta):
        nonlocal evals
        evals += 1
        return objective(alpha, theta)

    vals = np.array([[f(a, t) for t in _THETA_GRID] for a in _ALPHA_GRID])
    if vals.max() - vals.min() < _FLAT_EPS:
        return 0.0, 1.0, float(vals[0, 0]), evals, "flat"
    ia, it = np.unravel_index(np.argmax(vals), vals.shape)
    best = (float(_ALPHA_GRID[ia]), float(_THETA_GRID[it]), float(vals[ia, it]))

    # alpha = 0 edge
    t0, v0 = _golden_max(lambda y: f(0.0, math.exp(y)), _LOGT_LO, _LOGT_HI)
    if v0 > best[2]:
        best = (0.0, math.exp(t0), v0)

    a_start = min(max(best[0], 1e-3), ALPHA_MAX - 1e-3)
    x0 = math.log(a_start / (ALPHA_MAX - a_start))
    y0 = math.log(min(max(best[1], THETA_MIN), THETA_MAX))

    def neg(xy):
        alpha = ALPHA_MAX / (1.0 + math.exp(-xy[0]))
        theta = math.exp(min(max(xy[1], _LOGT_LO), _LOGT_HI))
        return -f(alpha, theta)

    res = minimize(neg, np.array([x0, y0]), method="Nelder-Mead",
                   options={"maxiter": 400, "xatol": 1e-7, "fatol": 1e-11})
    a_hat = ALPHA_MAX / (1.0 + math.exp(-res.x[0]))
    t_hat = math.exp(min(max(res.x[1], _LOGT_LO), _LOGT_HI))
    v_hat = -res.fun
    if v_hat > best[2]:
        best = (a_hat, t_hat, v_hat)
    alpha, theta, value = best
    theta = min(max(theta, THETA_MIN), THETA_MAX)
    return alpha, theta, value, evals, _status_for(alpha, theta)


def _maximize_theta_only(objective):
    """Golden-section over log theta with flat detection (for ordDP)."""
    evals = 0

    def f(y):
        nonlocal evals
        evals += 1
        return objective(math.exp(y))

    probes = [f(y) for y in (_LOGT_LO, 0.0, _LOGT_HI)]
    if max(probes) - min(probes) < _FLAT_EPS:
        return 1.0, probes[1], evals, "flat"
    y, v = _golden_max(f, _LOGT_LO, _LOGT_HI)
    theta = math.exp(y)
    status = "boundary" if (theta <= 2.0 * THETA_MIN or theta >= 0.9 * THETA_MAX) else "ok"
    return theta, v, evals, status


def expected_M1(n: int, params: PypParams) -> float:
    """E[M_{1,n}] by exact summation of the first-order frequency law."""
    w = np.arange(1, n + 1, dtype=np.float64)
    logp = _log_choose(n, w) + _log_first_block(n, w, params.alpha, params.theta)
    return float(w @ np.exp(logp))


def fit_mle_std(sample: ObservedSample) -> FitResult:
    """Maximize the exchangeable EPPF of the observed frequencies."""
    if sample.n < 2:
        raise DegenerateSample(f"need n >= 2, got n={sample.n}")
    freqs = sample.partition.freqs
    a, t, v, ev, status = _maximize(lambda al, th: log_eppf(freqs, PypParams(al, th)))
    return FitResult("stdPYP", PypParams(a, t), v, status, ev)


def fit_mle_ordered(sample: ObservedSample) -> FitResult:
    """Maximize the ordered EPPF of the weight-ordered frequencies."""
    freqs = sample.partition.freqs
    a, t, v, ev, status = _maximize(lambda al, th: log_ordered_eppf(freqs, PypParams(al, th)))
    return FitResult("ordPYP", PypParams(a, t), v, status, ev)


def fit_mle_ordered_dp(sample: ObservedSample) -> FitResult:
    """Ordered-DP likelihood: alpha = 0, theta by golden section (theta = 1 when flat)."""
    freqs = sample.partition.freqs
    t, v, ev, status = _maximize_theta_only(lambda th: log_ordered_eppf(freqs, PypParams(0.0, th)))
    return FitResult("ordDP", PypParams(0.0, t), v, status, ev)


def _ls_fit(method: str, sample: ObservedSample, d: int, moment_fn) -> FitResult:
    stats = prefix_stats(sample, min(d, sample.n))
    grid = stats.grid
    observed = stats.k_at if method == "lsK" else stats.m1_at

    def objective(alpha, theta):
        p = PypParams(alpha, theta)
        return -sum((moment_fn(ni, p) - oi) ** 2 for ni, oi in zip(grid, observed))

    a, t, v, ev, status = _maximize(objective)
    return FitResult(method, PypParams(a, t), v, status, ev)


def fit_lsK(sample: ObservedSample, d: int = DEFAULT_GRID_D) -> FitResult:
    """Least squares on the species-count curve over the prefix grid."""
    return _ls_fit("lsK", sample, d, expected_Kn)


def fit_lsX1(sample: ObservedSample, d: int = DEFAULT_GRID_D) -> FitResult:
    """Least squares on the first-order-frequency curve over the prefix grid."""
    return _ls_fit("lsX1", sample, d, expected_M1)


def fit(method: str, sample: ObservedSample, d: int = DEFAULT_GRID_D) -> FitResult:
    """Dispatch one of the five methods by name."""
    if method == "stdPYP":
        return fit_mle_std(sample)
    if method == "ordPYP":
        return fit_mle_ordered(sample)
    if method == "ordDP":
        return fit_mle_ordered_dp(sample)
    if method == "lsK":
        return fit_lsK(sample, d)
    if method == "lsX1":
        return fit_lsX1(sample, d)
    raise ValueError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")


def fit_all(sample: ObservedSample, d: int = DEFAULT_GRID_D) -> list:
    return [fit(m, sample, d) for m in METHOD_NAMES]
