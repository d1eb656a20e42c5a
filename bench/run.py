"""Benchmark of ossp, end to end or layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sample-large --seed 1 --seconds 55 --trace 0

Workloads: sample-large, study-small (see workloads.py). The seed
makes every input. A run repeats whole rounds of the workload's operations
while another round still fits into --seconds, then reports medians over its
rounds; round r draws its inputs from (seed, r).

--trace 0 sends every request to one warm worker process (worker.py), which
runs ``ossp.cli.main(argv)`` or the conditional Monte Carlo call and measures
the CPU time of each. The host is shared, and the speed it gives a CPU drifts
by tens of percent within a minute, so each time is scaled to a fixed machine
speed: the benchmark, the worker and a probe process (probe.py) share one
CPU, the probe times a fixed chunk of work (not ossp code) every 20 ms, and a
request's CPU time is multiplied by PROBE_S over the mean chunk time while
it ran. setup_s is the worker's own cold start, up to an imported ossp.cli,
scaled the same way. --trace 1 runs the same rounds in this process with the
public functions of each module wrapped (see tracing.py) and reports the
per-layer metrics instead.

Every output is checked (workloads.py). The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. Result
files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sample-large", "study-small")
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fit_s": "s",
    "predict_s": "s",
    "crossval_s": "s",
    "prob_oldest_s": "s",
    "simulate_s": "s",
    "study_correct_s": "s",
    "study_misspec_s": "s",
    "ordering_dist_s": "s",
    "mc_accepted_per_s": "runs/s",
}
# CPU seconds of one probe.chunk() at the speed every time is scaled to:
# about its typical time on the 2-vCPU Xeon host where the benchmark was written
PROBE_S = 0.0015
PROBE_MIN = 5  # chunks a scale factor rests on at least
# OSSP_THREADS for every run. The host gives a few shared vCPUs; a second
# study thread measured the contention between the two more than the work.
THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OSSP_THREADS"] = str(THREADS)
    return env


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Probe:
    """The process that samples the host's speed (probe.py), and its samples."""

    def __init__(self, path: Path):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(path)],
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"probe exited with code {self.proc.wait()}")
        self.fh = open(path, encoding="utf-8")
        self.times, self.cpus, self.tail = [], [], ""

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_S over the mean chunk time in [t0, t1], or of the PROBE_MIN
        chunks nearest to it if fewer ran then.

        The mean, not the median: a request pays the average slowdown of the
        time it ran, brief stalls included."""
        self.tail += self.fh.read()
        *lines, self.tail = self.tail.split("\n")
        for line in lines:
            t, cpu = line.split()
            self.times.append(float(t))
            self.cpus.append(float(cpu))
        inside = [c for t, c in zip(self.times, self.cpus) if t0 <= t <= t1]
        if len(inside) < PROBE_MIN:
            mid = (t0 + t1) / 2
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            inside = [self.cpus[i] for i in near[:PROBE_MIN]]
        return PROBE_S / statistics.fmean(inside)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.fh.close()


class Worker:
    """The warm process that serves and times every request (worker.py)."""

    def __init__(self, probe: Probe):
        self.probe = probe
        t_start = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)
        hello = self._read()
        self.setup_s = hello["setup_cpu_s"] * probe.scale(t_start, hello["ready_t"])
        self.maxrss_kb = 0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        """Serve one request; its reply gets "seconds", the scaled CPU time."""
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        reply["seconds"] = reply["cpu_s"] * self.probe.scale(reply["t0"], reply["t1"])
        self.maxrss_kb = reply["maxrss_kb"]
        return reply

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _request(op) -> dict:
    if op.lib is not None:
        return {"lib": op.lib}
    return {"argv": op.argv + ([] if op.malformed else ["--out", op.out])}


def _refused(rc, stderr: str) -> bool:
    """The CLI contract for invalid input: exit code 2 and a one-line message."""
    return rc == 2 and len(stderr.strip().splitlines()) == 1


def _account(op, rc, stderr: str, result, seconds, samples, problems: list) -> bool:
    """Check one request's outcome and record its sample; True if it failed."""
    from workloads import CheckFailed

    if op.malformed:
        return not _refused(rc, stderr)
    if rc != 0:
        problems.append(f"{op.metric}: exit {rc}: {stderr[-500:]}")
        return True
    try:
        op.check(result if op.lib is not None else op.out)
    except CheckFailed as exc:
        problems.append(f"{op.metric}: {exc}")
    if samples is not None:
        samples[op.metric].append(result["raw_accepted"] / seconds if op.lib is not None
                                  else seconds)
    return False


def untraced_round(wl, worker: Worker, samples: dict, problems: list) -> tuple:
    """One round through the warm worker; returns (attempted, failed)."""
    failed = 0
    for op in wl.ops:
        rep = worker.request(_request(op))
        failed += _account(op, rep["rc"], rep["stderr"], rep["result"], rep["seconds"],
                           samples, problems)
    return len(wl.ops), failed


def traced_round(wl, problems: list) -> tuple:
    """One round in this process, through the wrapped functions."""
    import worker

    failed = 0
    for op in wl.ops:
        rc, stderr, result, _ = worker.run_request(_request(op))
        failed += _account(op, rc, stderr, result, None, None, problems)
    return len(wl.ops), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that running children are killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ossp" / "cli.py").is_file():
        log(f"error: no ossp sources under {SRC}; run from the root of a checkout")
        return 2

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    probe = worker = None
    try:
        if not args.trace:
            # one CPU for this process and the two it starts, so that the probe
            # measures the speed the worker gets
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            probe = Probe(Path(work) / "probe.txt")
            worker = Worker(probe)  # started before numpy is imported here; see worker.py
        import workloads

        if args.trace:
            import tracing

            sys.path.insert(0, str(SRC))
            os.environ["OSSP_THREADS"] = str(THREADS)
            imports = tracing.import_times(child_env(), ROOT)
            tracer = tracing.install()
        samples = {m: [] for m in UNITS if m not in ("setup_s", "peak_rss_mb")}
        problems, round_walls = [], []
        attempted = failed = 0
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, len(round_walls), work)
            if args.trace:
                a, f = traced_round(wl, problems)
            else:
                a, f = untraced_round(wl, worker, samples, problems)
            attempted += a
            failed += f
            now = time.perf_counter()
            round_walls.append(now - t0)
            if now - t_start + round_walls[-1] > args.seconds:
                break
    finally:
        if worker is not None:
            worker.close()
        if probe is not None:
            probe.close()
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(round_walls)
    if args.trace:
        values, span_problems = tracing.layer_metrics(tracer, wl, rounds, imports)
        problems += span_problems
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        tracing.write_summary(tracer, OUT / f"trace-{args.workload}-seed{args.seed}.json",
                              rounds, round_walls)
    else:
        values = {m: statistics.median(v) for m, v in samples.items() if v}
        values["setup_s"] = worker.setup_s
        values["peak_rss_mb"] = worker.maxrss_kb / 1024.0
        metrics = {m: {"value": values[m], "unit": u} for m, u in UNITS.items() if m in values}
    for p in problems:
        log(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, round_walls=round_walls, problems=problems,
                  samples=None if args.trace else samples)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rounds {rounds} attempted {attempted} failed {failed} correct {not problems}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
