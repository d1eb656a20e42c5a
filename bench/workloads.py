"""The benchmark's workloads: their inputs, their operations and the checks
made on every output.

Every workload runs every end-to-end operation, so that each prints every
end-to-end metric. What sets a workload apart is which operations run at full
size; the rest run at a small size, kept cheap so that a run holds many rounds.

* sample-large: fit, predict, crossval and probability-oldest on a CSV of
  5000 records. It also sends five malformed requests, which the CLI should
  refuse with exit code 2 and a one-line message.
* study-small: the samplers. simulate -n 2000, the two synthetic studies, the
  ordering-dist study and one conditional Monte Carlo call in the shape of
  the test-suite oracles.

Round r of a run draws its inputs from (seed, r): a run's medians are taken
over several inputs, so they depend little on which seed the run was given.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom

import gen
import reference as ref

ALPHA, THETA = 0.5, 20.0          # generating parameters of the CSV inputs
SIM_ALPHA, SIM_THETA = 0.0, 50.0  # parameters of the simulate command
ORD_ALPHA, ORD_THETA = 0.5, 1.0   # parameters of the ordering-dist study
K_BAND = 0.02                     # CSV inputs keep K_n within 2% of E[K_n]
MC_SHAPE = dict(n=5, m=3, alpha=0.5, theta=1.0, k=2, m1=3)
Z = 5.0                           # tolerance for Monte Carlo means, in exact standard errors
P_MIN = 1e-9                      # tolerance for Monte Carlo counts: two-sided binomial p-value
TAIL = 1e-6                       # simulate: K_n and M_1 inside the central 1 - TAIL

SIZES = {
    # operation: (small size, full size, workloads that run the full size)
    "csv_n": (300, 5000, ("sample-large",)),
    "predict_m": (1000, 100000, ("sample-large",)),
    "crossval_splits": (2, 2, ("sample-large",)),
    "simulate_n": (600, 2000, ("study-small",)),
    # (datasets, n, m, continuations). One continuation of m = 100: the cost of
    # a continuation grows with the species count, which the study draws
    # afresh per dataset, so long continuations make a run's time hinge on
    # which datasets it drew
    "correct": ((2, 20, 20, 1), (5, 100, 100, 1), ("study-small",)),
    "misspec": ((1, 10, 10, 1), (1, 100, 100, 1), ("study-small",)),
    "ordering": ((6, 2000), (10, 5000), ("study-small",)),
    # 500 accepted runs take about three chunks of 8192 attempts: with one
    # chunk (about 200 accepted) the binomial spread of the acceptances alone
    # was 7% of a round's accepted-per-second
    "mc_replicates": (500, 1000, ("study-small",)),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    _require(abs(got - want) <= rel * abs(want) + abs_tol,
             f"{what}: got {got!r}, reference {want!r}")


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Op:
    """One request: CLI arguments (or a library call) and the check of its output."""

    metric: str | None               # end-to-end metric it times; None when untimed
    argv: list | None = None         # ossp.cli arguments
    lib: dict | None = None          # library call, see libcall.py
    check: object = None             # check(output) -> None, raises CheckFailed
    out: str | None = None           # file the command writes
    malformed: bool = False          # must be refused with exit code 2


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    ocrp_steps: int = 0              # ocrp_steps calls implied by the inputs, per round
    crp_steps: int = 0               # crp_steps calls implied by the inputs, per round


def _size(key: str, workload: str):
    small, full, where = SIZES[key]
    return full if workload in where else small


def _draw_csv(n: int, stream: tuple):
    """An ordered-PYP(ALPHA, THETA) sample with K_n within K_BAND of its mean.

    Conditioning on K_n keeps the O(k) cost of each likelihood evaluation the
    same from seed to seed. Draw j uses the numpy stream (*stream, j).
    """
    mean_k = ref.expected_k(n, ALPHA, THETA)[-1]
    for j in range(1000):
        assign, order = gen.draw(n, ALPHA, THETA, np.random.default_rng([*stream, j]))
        if abs(len(order) - mean_k) <= K_BAND * mean_k:
            return assign, order
    raise RuntimeError("no draw within the K_n band")


class CsvInput:
    """A generated CSV with the statistics the checks need."""

    def __init__(self, path, n: int, stream: tuple):
        self.path = str(path)
        self.assign, self.order = _draw_csv(n, stream)
        gen.write_csv(gen.records(self.assign, self.order), self.path)
        self.n = n
        self.freqs = gen.ordered_freqs(self.assign, self.order)
        self.k = len(self.freqs)
        self.m1 = int(self.freqs[0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _prefix_grid(n: int, d: int) -> list:
    # the equally spaced prefix grid of the least-squares fits, as documented
    return sorted({max(1, int(round(i * n / d))) for i in range(1, d + 1)})


def check_fit(data: CsvInput, state: dict, check_lsk: bool):
    grid = _prefix_grid(data.n, min(20, data.n))
    k_at, m1_at = gen.prefix_k_m1(data.assign, data.order, grid)
    freqs = [int(f) for f in data.freqs]
    ll_true_std = ref.log_eppf(freqs, ALPHA, THETA)
    ll_true_ord = ref.log_ordered_eppf(freqs, ALPHA, THETA)

    def check(path):
        with open(path, encoding="utf-8") as fh:
            fits = {f["method"]: f for f in json.load(fh)}
        _require(set(fits) == {"stdPYP", "ordPYP", "ordDP", "lsK", "lsX1"},
                 f"fit methods {sorted(fits)}")
        std, ordp = fits["stdPYP"], fits["ordPYP"]
        state["ordPYP"] = (ordp["alpha"], ordp["theta"])
        ll = ref.log_eppf(freqs, std["alpha"], std["theta"])
        _close(std["objective"], ll, 1e-9, "stdPYP objective", 1e-9)
        _require(std["objective"] >= ll_true_std - 1e-9 * abs(ll_true_std),
                 "stdPYP objective below the likelihood at the generating params")
        ll = ref.log_ordered_eppf(freqs, ordp["alpha"], ordp["theta"])
        _close(ordp["objective"], ll, 1e-9, "ordPYP objective", 1e-9)
        _require(ordp["objective"] >= ll_true_ord - 1e-9 * abs(ll_true_ord),
                 "ordPYP objective below the likelihood at the generating params")
        dp = fits["ordDP"]
        _close(dp["objective"], ref.log_ordered_eppf(freqs, 0.0, dp["theta"]), 1e-9,
               "ordDP objective", 1e-9)
        if check_lsk:
            ls = fits["lsK"]
            ek = ref.expected_k(data.n, ls["alpha"], ls["theta"])[grid]
            resid = ek - np.asarray(k_at)
            # E[K] from two formulas agrees to ~1e-10 relative; allow 1e-7
            tol = 2e-7 * float(np.abs(resid) @ ek) + 1e-9
            _close(ls["objective"], -float(resid @ resid), 0.0, "lsK objective", tol)
        lx = fits["lsX1"]
        em = np.array([ref.m1_law(g, lx["alpha"], lx["theta"]) @ np.arange(g + 1) for g in grid])
        resid = em - np.asarray(m1_at)
        tol = 2e-7 * float(np.abs(resid) @ em) + 1e-9
        _close(lx["objective"], -float(resid @ resid), 0.0, "lsX1 objective", tol)

    return check


def check_predict(data: CsvInput, m: int, state: dict):
    def check(path):
        rows = _read_csv(path)
        ms = [int(r["m_partial"]) for r in rows]
        _require(ms[0] == 0 and ms[-1] == m and ms == sorted(ms), f"predict grid {ms}")
        first = rows[0]
        _require(float(first["pred_K"]) == data.k, f"pred_K at m=0 is {first['pred_K']}")
        _require(float(first["pred_W1"]) == data.m1, f"pred_W1 at m=0 is {first['pred_W1']}")
        pk = [float(r["pred_K"]) for r in rows]
        pa = [float(r["prob_A1"]) for r in rows]
        _require(all(b >= a - 1e-12 for a, b in zip(pk, pk[1:])), "pred_K decreases in m")
        _require(all(b >= a - 1e-12 for a, b in zip(pa, pa[1:])), "prob_A1 decreases in m")
        alpha, theta = state["ordPYP"]
        last = rows[-1]
        want_k = ref.expected_k(m, alpha, theta, k0=data.k, n0=data.n)[-1]
        _close(float(last["pred_K"]), want_k, 1e-8, "pred_K at the largest m")
        want_w1, want_a1 = ref.posterior_w1_mean(data.n, data.m1, m, alpha, theta)
        _close(float(last["pred_W1"]), want_w1, 1e-7, "pred_W1 at the largest m")
        _close(float(last["prob_A1"]), want_a1, 1e-7, "prob_A1 at the largest m", 1e-12)

    return check


def check_crossval(data: CsvInput, splits: int):
    def check(path):
        rows = _read_csv(path)
        errors = [r for r in rows if r["record"] == "error"]
        bands = [r for r in rows if r["record"] == "band"]
        _require(len(errors) == splits * 5 * 2, f"{len(errors)} crossval error rows")
        _require(len(bands) > 0 and len(bands) % 10 == 0, f"{len(bands)} crossval band rows")
        for r in errors:
            want = data.k if r["quantity"] == "K" else data.m1
            _require(int(r["observed"]) == want,
                     f"crossval observed {r['quantity']} {r['observed']}, input has {want}")
        for r in bands:
            q = [float(r[c]) for c in ("q025", "q500", "q975")]
            _require(q[0] <= q[1] <= q[2], f"crossval band not ordered: {q}")

    return check


@functools.lru_cache(maxsize=None)
def _oldest_curve(n: int):
    return ref.prob_oldest_curve(n, ALPHA, THETA)


def check_prob_oldest(n: int):
    curve = _oldest_curve(n)

    def check(path):
        rows = _read_csv(path)
        _require(len(rows) == n, f"{len(rows)} probability-oldest rows, want {n}")
        p = np.array([float(r["prob"]) for r in rows])
        _require(p[-1] == 1.0, f"P_n(n) = {p[-1]}")
        _require(bool(np.all((p >= 0.0) & (p <= 1.0))), "P_n(i) outside [0, 1]")
        for i in sorted({1, n // 4, n // 2, 3 * n // 4, n - 1}):
            _close(float(p[i - 1]), float(curve[i]), 1e-7, f"P_n({i})")

    return check


@functools.lru_cache(maxsize=None)
def _simulate_ranges(n: int):
    return (ref.quantile_range(ref.k_law(n, SIM_ALPHA, SIM_THETA), TAIL),
            ref.quantile_range(ref.m1_law(n, SIM_ALPHA, SIM_THETA), TAIL))


def check_simulate(n: int):
    (k_lo, k_hi), (m_lo, m_hi) = _simulate_ranges(n)

    def check(path):
        rows = _read_csv(path)
        _require(len(rows) == n, f"simulate wrote {len(rows)} records, want {n}")
        weight, count = {}, Counter()
        for r in rows:
            w = float(r["weight"])
            _require(weight.setdefault(r["species"], w) == w,
                     f"species {r['species']} has two weights")
            count[r["species"]] += 1
        k = len(weight)
        _require(sorted(weight.values()) == list(range(1, k + 1)), "weights are not 1..k")
        m1 = count[max(weight, key=weight.get)]
        _require(k_lo <= k <= k_hi, f"K_n = {k} outside [{k_lo}, {k_hi}]")
        _require(m_lo <= m1 <= m_hi, f"M_1 = {m1} outside [{m_lo}, {m_hi}]")

    return check


def check_study(rows_expected: int):
    def check(path):
        rows = _read_csv(path)
        _require(len(rows) == rows_expected, f"{len(rows)} study rows, want {rows_expected}")
        for r in rows:
            if r["quantity"] in ("K", "W1"):
                v = float(r["median_ape"])
                _require(math.isfinite(v) and v >= 0.0, f"{r['quantity']} error {v}")

    return check


def _within(got: float, want: float, se: float, what: str) -> None:
    _require(abs(got - want) <= Z * se + 1e-9,
             f"{what}: {got:.6g} vs exact {want:.6g} (se {se:.3g})")


def _binomial(count: int, trials: int, p: float, what: str) -> None:
    """count is a plausible draw from Binomial(trials, p).

    Exact tails, not a normal approximation: cells with a few expected counts
    are common here, and their tails are far heavier than normal ones.
    """
    tail = min(binom.cdf(count, trials, p), binom.sf(count - 1, trials, p))
    _require(2 * tail >= P_MIN,
             f"{what}: {count} of {trials} vs exact probability {p:.6g} (p-value {2 * tail:.2g})")


def check_ordering(n: int, alpha: float, theta: float, replicates: int):
    law = _ordering_law(n, alpha, theta)

    def check(path):
        rows = _read_csv(path)
        counts = {int(r["kn"]): int(r["count"]) for r in rows if int(r["kn"]) > 0}
        want_rows = (n + 1) + sum(k + 1 for k in counts)
        _require(len(rows) == want_rows, f"{len(rows)} ordering-dist rows, want {want_rows}")
        for k in range(1, n + 1):
            p = law[k][0] if k in law else 0.0
            _binomial(counts.get(k, 0), replicates, p, f"K_n={k}")
        for r in rows:
            k, j = int(r["kn"]), int(r["order"])
            _, mean, var = law[k]
            cnt = replicates if k == 0 else counts[k]
            _within(float(r["prob"]), mean[j], math.sqrt(var[j] / cnt), f"q[{k},{j}]")

    return check


_ordering_law = functools.lru_cache(maxsize=None)(ref.ordering_law)


@functools.lru_cache(maxsize=None)
def mc_law():
    s = MC_SHAPE
    freqs = (s["m1"], s["n"] - s["m1"])  # K_5 = 2 and M_1 = 3 pin the state (3, 2)
    law = ref.continuation_law(freqs, s["m"], s["alpha"], s["theta"])
    return {key: float(p) for key, p in law.items()}


def check_mc(law: dict, replicates: int):
    def check(result):
        _require(result["accepted"] == replicates, f"{result['accepted']} runs tallied")
        cells = {tuple(c): v for c, v in result["cells"]}
        _require(sum(cells.values()) == replicates, "cell counts do not add up")
        _require(set(cells) <= set(law), f"impossible outcomes {set(cells) - set(law)}")
        margins = [("joint", None)] + [(nm, i) for i, nm in
                                       enumerate(("kmn", "w1", "a1", "w2", "a2"))]
        for name, i in margins:
            exact, seen = Counter(), Counter()
            for key, p in law.items():
                exact[key if i is None else key[i]] += p
            for key, c in cells.items():
                seen[key if i is None else key[i]] += c
            for v, p in exact.items():
                _binomial(seen[v], replicates, p, f"conditional_mc {name}={v}")

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(name: str, seed: int, rnd: int, work: str) -> Workload:
    """Generate the inputs of round `rnd` of workload `name` in directory `work`
    and list its operations. The operations and their sizes are the same in
    every round; the inputs come from (seed, rnd)."""
    wl = Workload()
    state: dict = {}
    out = lambda f: os.path.join(work, f)  # noqa: E731

    data = CsvInput(out("sample.csv"), _size("csv_n", name), (seed, rnd, 1))
    seed = seed * 1000 + rnd  # the --seed of every request of the round
    m = _size("predict_m", name)
    splits = _size("crossval_splits", name)
    wl.ops += [
        # lsK on the 300-record input lands at alpha ~ 1e-7 for some seeds, where
        # expected_Kn is inaccurate (a known defect), so its objective is checked
        # on the full-size input only
        Op("fit_s", ["fit", data.path, "--method", "all"],
           check=check_fit(data, state, check_lsk=name == "sample-large"), out=out("fit.json")),
        Op("predict_s", ["predict", data.path, "--m", str(m)],
           check=check_predict(data, m, state), out=out("predict.csv")),
        Op("crossval_s", ["crossval", data.path, "--splits", str(splits), "--seed", str(seed)],
           check=check_crossval(data, splits), out=out("crossval.csv")),
        Op("prob_oldest_s", ["probability-oldest", "--n", str(data.n),
                             "--alphas", str(ALPHA), "--thetas", str(THETA)],
           check=check_prob_oldest(data.n), out=out("oldest.csv")),
    ]

    n_sim = _size("simulate_n", name)
    wl.ops.append(Op("simulate_s", ["simulate", "-n", str(n_sim), "--alpha", str(SIM_ALPHA),
                                    "--theta", str(SIM_THETA), "--seed", str(seed)],
                     check=check_simulate(n_sim), out=out("simulate.csv")))
    wl.ocrp_steps += n_sim

    d, n, mm, c = _size("correct", name)
    wl.ops.append(Op("study_correct_s", ["study", "--kind", "synthetic-correct", "--seed",
                                         str(seed), "--datasets", str(d), "--n", str(n),
                                         "--m", str(mm), "--continuations", str(c)],
                     check=check_study(d * 5 * 4), out=out("correct.csv")))
    wl.ocrp_steps += d * (n + c * mm)

    d, n, mm, c = _size("misspec", name)
    wl.ops.append(Op("study_misspec_s", ["study", "--kind", "synthetic-misspec", "--seed",
                                         str(seed), "--datasets", str(d), "--n", str(n),
                                         "--m", str(mm), "--continuations", str(c)],
                     check=check_study(6 * d * 5 * 4), out=out("misspec.csv")))
    # dp and pyp clusterings (4 of the 6 generator pairs) step the classical CRP:
    # the base prefix, then per continuation a replay of the prefix and m more
    wl.crp_steps += 4 * d * (n + c * (n + mm))

    n_ord, reps = _size("ordering", name)
    wl.ops.append(Op("ordering_dist_s", ["study", "--kind", "ordering-dist", "--seed", str(seed),
                                         "--n-order", str(n_ord), "--alpha", str(ORD_ALPHA),
                                         "--theta", str(ORD_THETA), "--replicates", str(reps)],
                     check=check_ordering(n_ord, ORD_ALPHA, ORD_THETA, reps),
                     out=out("ordering.csv")))
    wl.ocrp_steps += n_ord * reps

    reps = _size("mc_replicates", name)
    wl.ops.append(Op("mc_accepted_per_s", lib=dict(MC_SHAPE, replicates=reps, seed=seed),
                     check=check_mc(mc_law(), reps)))

    if name == "sample-large":
        nan_csv = out("nan.csv")
        with open(nan_csv, "w", encoding="utf-8") as fh:
            fh.write("weight,species\n2.0,a\nnan,b\n1.0,c\n")
        wl.ops += [Op(None, argv, malformed=True) for argv in (
            ["simulate", "-n", "10", "--alpha", "1.5", "--theta", "1"],
            ["simulate", "-n", "0", "--alpha", "0.5", "--theta", "1"],
            ["predict", data.path, "--m", "-5", "--params-from", "explicit",
             "--alpha", "0.5", "--theta", "1"],
            ["study", "--kind", "ordering-dist", "--replicates", "0"],
            ["fit", nan_csv, "--method", "ordDP"],
        )]
    return wl
