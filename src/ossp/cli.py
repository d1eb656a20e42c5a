"""Command-line front end.

Subcommands: simulate, fit, predict, study, crossval, probability-oldest.
CSV in/out with stable schemas; all randomness flows from --seed, so equal
invocations are byte-identical. OSSP_THREADS caps study parallelism. Exit
codes: 0 success; 2 invalid input (a malformed or missing CSV, or an option
or record value outside its domain), with a one-line ``ossp: ...`` message on
stderr; 3 a degenerate sample (too few records to fit or to split).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import studies
from .estimate import DEFAULT_GRID_D, DegenerateSample, METHOD_NAMES, fit, fit_all
from .partition import (
    MalformedCsv,
    PypParams,
    read_records_csv,
    reduce_records,
    write_records_csv,
)
from .ocrp import simulate
from .posterior import expected_W1_parts, predict_K

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _write_rows(rows, columns, out_path) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_text(text, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float_list(text) -> list:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _fit_to_dict(fr) -> dict:
    return {
        "method": fr.method,
        "alpha": fr.params.alpha,
        "theta": fr.params.theta,
        "objective": fr.objective,
        "status": fr.status,
        "converged": fr.converged,
        "evaluations": fr.evaluations,
    }


def _cmd_simulate(args) -> int:
    sample = simulate(args.n, PypParams(args.alpha, args.theta), args.seed)
    if args.out:
        write_records_csv(sample.records, args.out)
    else:
        write_records_csv(sample.records, sys.stdout)
    return EXIT_OK


def _cmd_fit(args) -> int:
    sample = reduce_records(read_records_csv(args.input))
    if args.method == "all":
        results = fit_all(sample, args.grid_d)
    else:
        results = [fit(args.method, sample, args.grid_d)]
    _write_text(json.dumps([_fit_to_dict(r) for r in results], indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    sample = reduce_records(read_records_csv(args.input))
    if args.params_from == "explicit":
        if args.alpha is None or args.theta is None:
            raise MalformedCsv("--params-from explicit requires --alpha and --theta")
        params = PypParams(args.alpha, args.theta)
    else:
        params = fit(args.method, sample, args.grid_d).params
    n, k, m1 = sample.n, sample.k, sample.m1
    grid = sorted({int(round(v))
                   for v in [args.m * i / max(args.curve_points - 1, 1)
                             for i in range(max(args.curve_points, 2))]})
    rows = []
    for mp in grid:
        mom = expected_W1_parts(n, mp, k, m1, params)
        rows.append({
            "m_partial": mp,
            "pred_K": predict_K(n, k, mp, params),
            "pred_W1": mom.mean,
            "pred_W1_given_A1": mom.mean_given_a1,
            "pred_W1_given_B1": mom.mean_given_b1,
            "prob_A1": mom.prob_a1,
        })
    _write_rows(rows, ["m_partial", "pred_K", "pred_W1", "pred_W1_given_A1",
                       "pred_W1_given_B1", "prob_A1"], args.out)
    return EXIT_OK


def _cmd_study(args) -> int:
    if args.kind == "synthetic-correct":
        rows = studies.synthetic_correct(args.seed, args.datasets, args.continuations,
                                         args.n, args.m, args.grid_d)
        cols = ["dataset", "n", "m", "alpha_true", "theta_true",
                "method", "quantity", "median_ape"]
    elif args.kind == "synthetic-misspec":
        rows = studies.synthetic_misspec(args.seed, args.datasets, args.continuations,
                                         args.n, args.m, args.grid_d)
        cols = ["dataset", "n", "m", "clustering", "ordering",
                "method", "quantity", "median_ape"]
    elif args.kind == "ordering-dist":
        rows = studies.ordering_dist_table(args.seed, args.n_order, args.alpha,
                                           args.theta, args.replicates)
        cols = ["kn", "order", "prob", "se", "count"]
    else:  # prob-oldest
        rows = studies.prob_oldest_table(args.n_oldest, _float_list(args.alphas),
                                         _float_list(args.thetas))
        cols = ["alpha", "theta", "i", "prob"]
    _write_rows(rows, cols, args.out)
    return EXIT_OK


def _cmd_crossval(args) -> int:
    records = read_records_csv(args.input)
    try:
        rows = studies.crossval(records, args.splits, args.train_frac, args.seed,
                                args.curve_points, args.grid_d)
    except ValueError as exc:
        if "train split too small" in str(exc):
            raise DegenerateSample(str(exc)) from exc
        raise
    cols = ["record", "split", "method", "quantity", "m_partial",
            "observed", "predicted", "pct_error", "q025", "q500", "q975"]
    _write_rows(rows, cols, args.out)
    return EXIT_OK


def _cmd_probability_oldest(args) -> int:
    rows = studies.prob_oldest_table(args.n, _float_list(args.alphas),
                                     _float_list(args.thetas))
    _write_rows(rows, ["alpha", "theta", "i", "prob"], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ossp",
                                description="Species sampling with ordering under the "
                                            "ordered Pitman-Yor process.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="draw an ordered sample as weight,species CSV")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(run=_cmd_simulate)

    fp = sub.add_parser("fit", help="estimate (alpha, theta) from a CSV sample")
    fp.add_argument("input")
    fp.add_argument("--method", choices=METHOD_NAMES + ("all",), default="all")
    fp.add_argument("--grid-d", type=int, default=DEFAULT_GRID_D)
    fp.add_argument("--out")
    fp.set_defaults(run=_cmd_fit)

    pp = sub.add_parser("predict", help="posterior-mean predictors over partial sizes")
    pp.add_argument("input")
    pp.add_argument("--m", type=int, required=True)
    pp.add_argument("--params-from", choices=("fit", "explicit"), default="fit")
    pp.add_argument("--method", choices=METHOD_NAMES, default="ordPYP")
    pp.add_argument("--alpha", type=float)
    pp.add_argument("--theta", type=float)
    pp.add_argument("--curve-points", type=int, default=20)
    pp.add_argument("--grid-d", type=int, default=DEFAULT_GRID_D)
    pp.add_argument("--out")
    pp.set_defaults(run=_cmd_predict)

    st = sub.add_parser("study", help="replication studies emitting plot-ready CSV")
    st.add_argument("--kind", required=True,
                    choices=("synthetic-correct", "synthetic-misspec",
                             "ordering-dist", "prob-oldest"))
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--datasets", type=int, default=10)
    st.add_argument("--continuations", type=int, default=5)
    st.add_argument("--n", type=int, default=100)
    st.add_argument("--m", type=int, default=500)
    st.add_argument("--grid-d", type=int, default=DEFAULT_GRID_D)
    st.add_argument("--n-order", type=int, default=10,
                    help="sample size for the ordering-dist study")
    st.add_argument("--alpha", type=float, default=0.5)
    st.add_argument("--theta", type=float, default=1.0)
    st.add_argument("--replicates", type=int, default=20000)
    st.add_argument("--n-oldest", type=int, default=1000,
                    help="sample size for the prob-oldest study")
    st.add_argument("--alphas", default="0.25,0.5,0.75")
    st.add_argument("--thetas", default="1,10,100,500")
    st.add_argument("--out")
    st.set_defaults(run=_cmd_study)

    cv = sub.add_parser("crossval", help="random train/test splits on a CSV sample")
    cv.add_argument("input")
    cv.add_argument("--splits", type=int, default=20)
    cv.add_argument("--train-frac", type=float, default=0.1)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--curve-points", type=int, default=20)
    cv.add_argument("--grid-d", type=int, default=DEFAULT_GRID_D)
    cv.add_argument("--out")
    cv.set_defaults(run=_cmd_crossval)

    po = sub.add_parser("probability-oldest",
                        help="P_n(i; alpha, theta) curves as CSV")
    po.add_argument("--n", type=int, default=1000)
    po.add_argument("--alphas", default="0.25,0.5,0.75")
    po.add_argument("--thetas", default="1,10,100,500")
    po.add_argument("--out")
    po.set_defaults(run=_cmd_probability_oldest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DegenerateSample as exc:  # a ValueError too, so caught first
        print(f"ossp: degenerate sample: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, FileNotFoundError) as exc:
        print(f"ossp: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
