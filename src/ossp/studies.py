"""Study pipelines behind the CLI: synthetic prediction error tables, the
new-species ordering distribution, order-1 probability curves, and
train/test cross-validation on real data."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ._rng import rng_from
from .estimate import DEFAULT_GRID_D, METHOD_NAMES, fit
from .laws import prob_oldest_curve
from .ocrp import (
    MisspecConfig,
    MisspecProcess,
    continue_ocrp,
    ordering_distribution,
    simulate,
)
from .partition import ObservedSample, PypParams, reduce_records
from .posterior import expected_W1_parts, predict_K

QUANTITIES = ("K", "W1", "W1|A1", "W1|B1")


def max_workers() -> int:
    env = os.environ.get("OSSP_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(os.cpu_count() or 1, 8)


def _parallel_map(fn, args_list):
    """Index-ordered map over a thread pool (deterministic assembly)."""
    workers = max_workers()
    if workers == 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _predictions(sample: ObservedSample, fits, m: int) -> dict:
    n, k, m1 = sample.n, sample.k, sample.m1
    out = {}
    for fr in fits:
        mom = expected_W1_parts(n, m, k, m1, fr.params)
        out[fr.method] = {
            "K": predict_K(n, k, m, fr.params),
            "W1": mom.mean,
            "W1|A1": mom.mean_given_a1,
            "W1|B1": mom.mean_given_b1,
            "prob_A1": mom.prob_a1,
        }
    return out


def _ape(pred: float, true: float) -> float:
    if true == 0 or math.isnan(pred):
        return math.nan
    return abs(pred - true) / true


def _median(vals) -> float:
    vals = [v for v in vals if not math.isnan(v)]
    return float(np.median(vals)) if vals else math.nan


def _error_rows(tag_cols: dict, sample, fits, truths, m: int) -> list:
    """Median APE per (method, quantity) across continuation truths."""
    preds = _predictions(sample, fits, m)
    rows = []
    for fr in fits:
        p = preds[fr.method]
        per_q = {q: [] for q in QUANTITIES}
        for tr in truths:
            per_q["K"].append(_ape(p["K"], tr.k_total))
            per_q["W1"].append(_ape(p["W1"], tr.w1))
            if tr.a1:
                per_q["W1|A1"].append(_ape(p["W1|A1"], tr.w1))
            else:
                per_q["W1|B1"].append(_ape(p["W1|B1"], tr.w1))
        for q in QUANTITIES:
            rows.append({**tag_cols, "method": fr.method, "quantity": q,
                         "median_ape": _median(per_q[q])})
    return rows


def synthetic_correct(seed: int, datasets: int = 10, continuations: int = 5,
                      n: int = 100, m: int = 500, grid_d: int = DEFAULT_GRID_D) -> list:
    """Prediction error study with the model correctly specified."""

    def one(d: int) -> list:
        rng = rng_from((seed, d, 0))
        true = PypParams(float(rng.uniform(0.0, 0.75)),
                         float(10.0 ** rng.uniform(-1.0, 2.0)))
        sample = simulate(n, true, (seed, d, 1))
        fits = [fit(meth, sample, grid_d) for meth in METHOD_NAMES]
        truths = [continue_ocrp(sample.partition, m, true, (seed, d, 2, c))
                  for c in range(continuations)]
        tags = {"dataset": d, "n": n, "m": m,
                "alpha_true": true.alpha, "theta_true": true.theta}
        return _error_rows(tags, sample, fits, truths, m)

    rows = []
    for chunk in _parallel_map(one, list(range(datasets))):
        rows.extend(chunk)
    return rows


def _misspec_draw_config(clustering: str, ordering: str, rng) -> MisspecConfig:
    if clustering == "dp":
        return MisspecConfig("dp", ordering, theta=float(10.0 ** rng.uniform(-0.3, 1.7)))
    if clustering == "pyp":
        return MisspecConfig("pyp", ordering,
                             alpha=float(rng.uniform(0.1, 0.7)),
                             theta=float(10.0 ** rng.uniform(-1.0, 1.0)))
    return MisspecConfig("zipf", ordering, zipf_s=float(rng.uniform(1.5, 3.0)))


def synthetic_misspec(seed: int, datasets: int = 10, continuations: int = 5,
                      n: int = 100, m: int = 500, grid_d: int = DEFAULT_GRID_D) -> list:
    """Prediction error study under crossed misspecified generators."""
    combos = [(c, o) for c in ("dp", "pyp", "zipf")
              for o in ("alpha_stable", "arrival_weighted")]

    def one(job) -> list:
        ci, (clustering, ordering), d = job
        rng = rng_from((seed, ci, d, 0))
        config = _misspec_draw_config(clustering, ordering, rng)
        base = MisspecProcess(config)
        base.extend(n, (seed, ci, d, 1))
        sample = base.to_sample()
        fits = [fit(meth, sample, grid_d) for meth in METHOD_NAMES]
        truths = []
        for c in range(continuations):
            proc = MisspecProcess(config)
            proc.extend(n, (seed, ci, d, 1))  # replay the shared prefix
            proc.extend(m, (seed, ci, d, 2, c))
            truths.append(proc.stats_since(n, base.k))
        tags = {"dataset": d, "n": n, "m": m,
                "clustering": clustering, "ordering": ordering}
        return _error_rows(tags, sample, fits, truths, m)

    jobs = [(ci, combo, d) for ci, combo in enumerate(combos) for d in range(datasets)]
    rows = []
    for chunk in _parallel_map(one, jobs):
        rows.extend(chunk)
    return rows


def ordering_dist_table(seed: int, n: int = 10, alpha: float = 0.5,
                        theta: float = 1.0, replicates: int = 20000) -> list:
    """Long-format rows of the new-species order law; kn = 0 is the marginal."""
    dist = ordering_distribution(n, PypParams(alpha, theta), replicates, seed)
    rows = []
    for j in range(1, n + 2):
        rows.append({"kn": 0, "order": j, "prob": dist.marginal[j],
                     "se": dist.marginal_se[j], "count": dist.replicates})
    for k in range(1, n + 1):
        if dist.counts[k] == 0:
            continue
        for j in range(1, k + 2):
            rows.append({"kn": k, "order": j, "prob": dist.prob[k, j],
                         "se": dist.se[k, j], "count": int(dist.counts[k])})
    return rows


def prob_oldest_table(n: int = 1000,
                      alphas: Sequence[float] = (0.25, 0.5, 0.75),
                      thetas: Sequence[float] = (1.0, 10.0, 100.0, 500.0)) -> list:
    """P_n(i; alpha, theta) curves on the requested parameter grid."""
    rows = []
    for a in alphas:
        for t in thetas:
            curve = prob_oldest_curve(n, PypParams(a, t))
            for i in range(1, n + 1):
                rows.append({"alpha": a, "theta": t, "i": i, "prob": curve[i]})
    return rows


def crossval(records, splits: int, train_frac: float, seed: int,
             curve_points: int = 20, grid_d: int = DEFAULT_GRID_D) -> list:
    """Random train/test splits: per-split errors plus prediction-curve bands.

    Rows tagged record="error" carry the final-m percentage error per method
    and quantity; record="band" rows carry the 2.5/50/97.5 percent empirical
    quantiles of the predicted curves across splits at each partial size.
    """
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    if not 0.0 <= train_frac <= 1.0:  # also refuses nan
        raise ValueError(f"train_frac must be in [0, 1], got {train_frac}")
    records = list(records)
    total = len(records)
    n_train = int(round(train_frac * total))
    if n_train < 2:
        raise ValueError(f"train split too small: {n_train} records")
    m = total - n_train
    grid = sorted({int(round(v)) for v in np.linspace(0.0, m, max(curve_points, 2))})

    def one(s: int):
        rng = rng_from((seed, s))
        perm = rng.permutation(total)
        train_idx = np.sort(perm[:n_train])  # keep record order within the train set
        test_idx = perm[n_train:]            # prediction horizon in shuffled order
        train = [records[i] for i in train_idx]
        test = [records[i] for i in test_idx]
        sample = reduce_records(train)
        fits = [fit(meth, sample, min(grid_d, sample.n)) for meth in METHOD_NAMES]
        observed = {}
        for mp in grid:
            part = reduce_records(train + test[:mp]).partition
            observed[mp] = (part.k, part.freqs[0])
        curves = {}
        for fr in fits:
            ks, w1s = [], []
            for mp in grid:
                mom = expected_W1_parts(sample.n, mp, sample.k, sample.m1, fr.params)
                ks.append(predict_K(sample.n, sample.k, mp, fr.params))
                w1s.append(mom.mean)
            curves[fr.method] = (ks, w1s)
        return observed, curves

    results = _parallel_map(one, list(range(splits)))
    rows = []
    m_final = grid[-1]
    for s, (observed, curves) in enumerate(results):
        k_obs, w1_obs = observed[m_final]
        for meth in METHOD_NAMES:
            ks, w1s = curves[meth]
            rows.append({"record": "error", "split": s, "method": meth, "quantity": "K",
                         "m_partial": m_final, "observed": k_obs, "predicted": ks[-1],
                         "pct_error": _ape(ks[-1], k_obs)})
            rows.append({"record": "error", "split": s, "method": meth, "quantity": "W1",
                         "m_partial": m_final, "observed": w1_obs, "predicted": w1s[-1],
                         "pct_error": _ape(w1s[-1], w1_obs)})
    for meth in METHOD_NAMES:
        for qi, qname in ((0, "K"), (1, "W1")):
            for gi, mp in enumerate(grid):
                vals = np.array([results[s][1][meth][qi][gi] for s in range(splits)])
                q025, q500, q975 = np.quantile(vals, [0.025, 0.5, 0.975])
                rows.append({"record": "band", "method": meth, "quantity": qname,
                             "m_partial": mp, "q025": q025, "q500": q500, "q975": q975})
    return rows
