"""Per-layer tracing of ossp from outside the program.

install() wraps the public functions of each module in place. The modules
import each other with ``from ... import``, so every module binding of a
function is replaced (cli.fit, studies.reduce_records, estimate.expected_Kn,
...). A wrapper records a span: name, start, end, thread and the parent span
on the same thread, plus counts taken from the arguments or the result.
Spans stay in memory; layer_metrics() turns them into the per-layer metrics
and write_summary() writes the per-name totals when the run ends.

A layer's self time is its spans' time minus the time of their child spans.
mc_chunk keeps its own reference to the step kernel, so Monte Carlo attempts
are counted at mc_chunk and its inner steps are not in kernels.ocrp_steps.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

FIT_METHODS = {  # estimate function -> method name
    "fit_mle_std": "stdPYP",
    "fit_mle_ordered": "ordPYP",
    "fit_mle_ordered_dp": "ordDP",
    "fit_lsK": "lsK",
    "fit_lsX1": "lsX1",
}
# the call each method evaluates once per objective evaluation (per grid point
# for the least-squares methods)
EVAL_CALL = {
    "stdPYP": "laws.log_eppf",
    "ordPYP": "laws.log_ordered_eppf",
    "ordDP": "laws.log_ordered_eppf",
    "lsK": "laws.expected_Kn",
    "lsX1": "estimate.expected_M1",
}
STUDY_KINDS = {
    "synthetic_correct": "synthetic_correct",
    "synthetic_misspec": "synthetic_misspec",
    "ordering_dist_table": "ordering_dist",
    "prob_oldest_table": "prob_oldest",
    "crossval": "crossval",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, thread, parent index, counts]
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, count=None):
        """fn, recording a span per call; count(args, result) -> dict of counts."""
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, threading.get_ident(), stack[-1] if stack else -1, None]
            with lock:
                spans.append(span)
                idx = len(spans) - 1
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced


def _cells(a, r) -> dict:
    n = int(a[0])
    return {"cells": n * (n + 1) // 2}


def _steps(a, r) -> dict:
    return {"steps": int(a[0].shape[0])}


def install() -> Tracer:
    """Import ossp from sys.path and wrap its public functions."""
    import ossp  # noqa: F401  (loads every module)
    from ossp import _kernels, cli, estimate, laws, ocrp, oracle, partition, posterior, studies

    tracer = Tracer()
    modules = [m for k, m in sys.modules.items() if k == "ossp" or k.startswith("ossp.")]

    def swap(module, attr, name, count=None):
        orig = getattr(module, attr)
        new = tracer.wrap(name, orig, count)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    swap(cli, "main", "cli.main")
    swap(partition, "read_records_csv", "partition.read", lambda a, r: {"records": len(r)})
    swap(partition, "reduce_records", "partition.reduce", lambda a, r: {"records": r.n})
    swap(partition, "prefix_stats", "partition.prefix_stats", lambda a, r: {"grid": len(r.grid)})
    swap(partition, "write_records_csv", "partition.write")
    swap(_kernels, "ocrp_steps", "kernels.ocrp_steps", _steps)
    swap(_kernels, "ocrp_qnew", "kernels.ocrp_qnew")
    swap(_kernels, "crp_steps", "kernels.crp_steps", _steps)
    swap(_kernels, "stable_order_steps", "kernels.stable_order_steps")
    swap(_kernels, "mc_chunk", "kernels.mc_chunk",
         lambda a, r: {"attempts": int(a[0].shape[0]), "accepted": int(r)})
    swap(_kernels, "oldest_inv_moments", "kernels.oldest_inv_moments", _cells)
    for attr in ("log_eppf", "log_ordered_eppf", "expected_Kn", "expected_Kmn",
                 "prob_oldest_curve"):
        swap(laws, attr, f"laws.{attr}")
    swap(posterior, "expected_W1_parts", "posterior.expected_W1_parts")
    swap(posterior, "predict_K", "posterior.predict_K")
    for attr in ("simulate", "continue_ocrp", "ordering_distribution"):
        swap(ocrp, attr, f"ocrp.{attr}")
    ocrp.MisspecProcess.extend = tracer.wrap("ocrp.misspec_extend", ocrp.MisspecProcess.extend)
    for attr, method in FIT_METHODS.items():
        swap(estimate, attr, f"estimate.{method}",
             lambda a, r: {"evals": r.evaluations, "not_ok": int(r.status != "ok")})
    swap(estimate, "expected_M1", "estimate.expected_M1")
    swap(oracle, "conditional_mc", "oracle.conditional_mc",
         lambda a, r: {"attempts": r.attempts, "raw_accepted": r.raw_accepted})
    for attr, kind in STUDY_KINDS.items():
        swap(studies, attr, f"studies.{kind}")

    def threads_used(jobs: int) -> int:
        w = studies.max_workers()
        return 1 if w == 1 or jobs <= 1 else w

    orig_map = studies._parallel_map

    def parallel_map(fn, args_list):
        return orig_map(tracer.wrap("studies.job", fn), args_list)

    studies._parallel_map = tracer.wrap(
        "studies.parallel_map", parallel_map,
        lambda a, r: {"jobs": len(a[1]), "threads": threads_used(len(a[1]))})
    return tracer


def import_times(env: dict, cwd) -> dict:
    """Seconds spent importing numpy, scipy and ossp's own modules in a fresh
    interpreter, from ``python -X importtime -c "import ossp.cli"``.

    numpy and scipy are the cumulative times of their outermost imports;
    ossp is the self time of the ossp modules, which excludes both.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ossp.cli"],
                          env=env, cwd=cwd, capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        rows.append((len(raw) - len(raw.lstrip()), raw.strip(), int(self_us), int(cum_us)))
    # importtime prints a module after its nested imports, one level deeper
    parent = [None] * len(rows)
    pending = []
    for i, (depth, _, _, _) in enumerate(rows):
        while pending and rows[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)
    out = {"numpy": 0.0, "scipy": 0.0, "ossp": 0.0}
    for i, (_, name, self_us, cum_us) in enumerate(rows):
        top = name.split(".")[0]
        up = parent[i]
        if top in ("numpy", "scipy") and (up is None or rows[up][1].split(".")[0] != top):
            out[top] += cum_us / 1e6
        elif top == "ossp":
            out["ossp"] += self_us / 1e6
    return out


def _aggregate(spans):
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)
    return dur, [d - c for d, c in zip(dur, child)], by


def layer_metrics(tracer: Tracer, wl, rounds: int, imports: dict):
    """Per-layer metrics per round, and the disagreements between counts
    reached by two independent paths."""
    spans = tracer.spans
    dur, self_t, by = _aggregate(spans)
    problems = []

    def outer(name):  # drop recursive calls (a path argument re-enters with a file)
        return [i for i in by[name] if spans[i][4] < 0 or spans[spans[i][4]][0] != name]

    def secs(name, only=None):
        return sum(dur[i] for i in (by[name] if only is None else only)) / rounds

    def calls(name):
        return len(by[name]) / rounds

    def count(name, key, only=None):  # a call that raised has no counts
        return sum((spans[i][5] or {}).get(key, 0)
                   for i in (by[name] if only is None else only)) / rounds

    def selfs(*names):
        return sum(self_t[i] for name in names for i in by[name]) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["import.numpy_s"] = (imports["numpy"], "s")
    m["import.scipy_s"] = (imports["scipy"], "s")
    m["import.ossp_s"] = (imports["ossp"], "s")
    m["cli.self_s"] = (selfs("cli.main"), "s")

    reads, writes = outer("partition.read"), outer("partition.write")
    m["partition.read_s"] = (secs("partition.read", reads), "s")
    m["partition.records_read"] = (count("partition.read", "records", reads), "count")
    m["partition.reduce_s"] = (secs("partition.reduce"), "s")
    m["partition.reduce_calls"] = (calls("partition.reduce"), "count")
    m["partition.records_reduced"] = (count("partition.reduce", "records"), "count")
    m["partition.prefix_stats_s"] = (secs("partition.prefix_stats"), "s")
    m["partition.write_s"] = (secs("partition.write", writes), "s")

    steps = count("kernels.ocrp_steps", "steps")
    m["kernels.ocrp_steps_s"] = (secs("kernels.ocrp_steps"), "s")
    m["kernels.ocrp_steps"] = (steps, "count")
    m["kernels.ocrp_ns_per_step"] = (ratio(secs("kernels.ocrp_steps") * 1e9, steps), "ns")
    m["kernels.ocrp_qnew_calls"] = (calls("kernels.ocrp_qnew"), "count")
    m["kernels.ocrp_qnew_s"] = (secs("kernels.ocrp_qnew"), "s")
    m["kernels.crp_steps_s"] = (secs("kernels.crp_steps"), "s")
    m["kernels.crp_steps"] = (count("kernels.crp_steps", "steps"), "count")
    m["kernels.stable_order_steps_s"] = (secs("kernels.stable_order_steps"), "s")
    attempts = count("kernels.mc_chunk", "attempts")
    accepted = count("kernels.mc_chunk", "accepted")
    m["kernels.mc_chunk_s"] = (secs("kernels.mc_chunk"), "s")
    m["kernels.mc_attempts"] = (attempts, "count")
    m["kernels.mc_accepted"] = (accepted, "count")
    m["kernels.mc_us_per_attempt"] = (ratio(secs("kernels.mc_chunk") * 1e6, attempts), "us")
    m["kernels.mc_accept_ratio"] = (ratio(accepted, attempts), "ratio")
    m["kernels.oldest_inv_moments_s"] = (secs("kernels.oldest_inv_moments"), "s")
    m["kernels.oldest_inv_moments_cells"] = (count("kernels.oldest_inv_moments", "cells"), "count")

    for name in ("log_eppf", "log_ordered_eppf", "expected_Kn"):
        m[f"laws.{name}_calls"] = (calls(f"laws.{name}"), "count")
        m[f"laws.{name}_s"] = (secs(f"laws.{name}"), "s")
    m["laws.expected_Kmn_s"] = (secs("laws.expected_Kmn"), "s")
    m["laws.prob_oldest_curve_s"] = (secs("laws.prob_oldest_curve"), "s")

    m["posterior.expected_W1_parts_calls"] = (calls("posterior.expected_W1_parts"), "count")
    m["posterior.expected_W1_parts_s"] = (secs("posterior.expected_W1_parts"), "s")
    m["posterior.predict_K_s"] = (secs("posterior.predict_K"), "s")

    ocrp_names = ("ocrp.simulate", "ocrp.continue_ocrp", "ocrp.misspec_extend",
                  "ocrp.ordering_distribution")
    m["ocrp.simulate_s"] = (secs("ocrp.simulate"), "s")
    m["ocrp.continue_ocrp_calls"] = (calls("ocrp.continue_ocrp"), "count")
    m["ocrp.continue_ocrp_s"] = (secs("ocrp.continue_ocrp"), "s")
    m["ocrp.misspec_extend_s"] = (secs("ocrp.misspec_extend"), "s")
    m["ocrp.ordering_distribution_s"] = (secs("ocrp.ordering_distribution"), "s")
    m["ocrp.self_s"] = (selfs(*ocrp_names), "s")

    fit_names = [f"estimate.{meth}" for meth in FIT_METHODS.values()]
    for name in fit_names:
        evals = count(name, "evals")
        m[f"{name}.s"] = (secs(name), "s")
        m[f"{name}.evals"] = (evals, "count")
        m[f"{name}.us_per_eval"] = (ratio(secs(name) * 1e6, evals), "us")
    m["estimate.expected_M1_calls"] = (calls("estimate.expected_M1"), "count")
    m["estimate.expected_M1_s"] = (secs("estimate.expected_M1"), "s")
    m["estimate.self_s"] = (selfs(*fit_names), "s")
    m["estimate.fits_not_ok"] = (sum(count(name, "not_ok") for name in fit_names), "count")

    mc_attempts = count("oracle.conditional_mc", "attempts")
    m["oracle.conditional_mc_s"] = (secs("oracle.conditional_mc"), "s")
    m["oracle.attempts"] = (mc_attempts, "count")
    m["oracle.accept_rate"] = (ratio(count("oracle.conditional_mc", "raw_accepted"),
                                     mc_attempts), "ratio")
    m["oracle.self_s"] = (selfs("oracle.conditional_mc"), "s")

    kinds = [f"studies.{k}" for k in STUDY_KINDS.values()]
    for name in kinds:
        m[f"{name}_s"] = (secs(name), "s")
    maps = by["studies.parallel_map"]
    m["studies.jobs"] = (count("studies.parallel_map", "jobs"), "count")
    m["studies.threads"] = (float(max((spans[i][5]["threads"] for i in maps), default=0)),
                            "count")
    m["studies.self_s"] = (selfs(*kinds, "studies.job"), "s")
    capacity = sum(dur[i] * spans[i][5]["threads"] for i in maps)
    m["studies.parallel_efficiency"] = (ratio(sum(dur[i] for i in by["studies.job"]), capacity),
                                        "ratio")

    # -- counts reached by two paths -------------------------------------------------
    fit_of = [-1] * len(spans)  # nearest enclosing fit span
    for i, s in enumerate(spans):
        if s[0] in fit_names:
            fit_of[i] = i
        elif s[4] >= 0:
            fit_of[i] = fit_of[s[4]]
    inner = defaultdict(Counter)
    grid = {}
    for i, s in enumerate(spans):
        f = fit_of[i]
        if f >= 0 and f != i:
            inner[f][s[0]] += 1
            if s[0] == "partition.prefix_stats":
                grid[f] = s[5]["grid"]
    for f in (i for name in fit_names for i in by[name]):
        method = spans[f][0].split(".", 1)[1]
        evals = spans[f][5]["evals"]
        want = evals * grid.get(f, 1)
        got = inner[f][EVAL_CALL[method]]
        if got != want:
            problems.append(f"{method}: {evals} evaluations but {got} {EVAL_CALL[method]} "
                            f"calls (want {want})")
    for i in by["oracle.conditional_mc"]:
        rows = sum(spans[j][5]["attempts"] for j in by["kernels.mc_chunk"] if spans[j][4] == i)
        if rows != spans[i][5]["attempts"]:
            problems.append(f"conditional_mc reports {spans[i][5]['attempts']} attempts, "
                            f"mc_chunk saw {rows} rows")
    if steps != wl.ocrp_steps:
        problems.append(f"kernels.ocrp_steps {steps} per round, the inputs imply {wl.ocrp_steps}")
    crp = count("kernels.crp_steps", "steps")
    if crp != wl.crp_steps:
        problems.append(f"kernels.crp_steps {crp} per round, the inputs imply {wl.crp_steps}")
    return m, problems


def write_summary(tracer: Tracer, path, rounds: int, round_walls: list) -> None:
    """Per-span-name calls, total and self seconds (per round) as JSON."""
    spans = tracer.spans
    dur, self_t, by = _aggregate(spans)
    names = {name: {"calls": len(idx) / rounds,
                    "total_s": sum(dur[i] for i in idx) / rounds,
                    "self_s": sum(self_t[i] for i in idx) / rounds}
             for name, idx in sorted(by.items())}
    path.write_text(json.dumps({"rounds": rounds, "round_walls": round_walls,
                                "spans": len(spans), "names": names}, indent=1) + "\n",
                    encoding="utf-8")
