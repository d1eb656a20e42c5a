import csv
import io
import json
import math

import pytest

from ossp import PypParams, expected_W1_parts, predict_K, reduce_records, simulate
from ossp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "s.csv"
    code = main(["simulate", "-n", "150", "--alpha", "0.4", "--theta", "5",
                 "--seed", "3", "--out", str(path)])
    assert code == 0
    return str(path)


def test_simulate_roundtrips_library(sim_csv):
    from ossp import read_records_csv

    lib = simulate(150, PypParams(0.4, 5.0), 3)
    cli = reduce_records(read_records_csv(sim_csv))
    assert cli.partition.freqs == lib.partition.freqs


def test_fit_all_emits_five_results(capsys, sim_csv):
    code, out = run_cli(capsys, "fit", sim_csv, "--method", "all", "--grid-d", "8")
    assert code == 0
    results = json.loads(out)
    assert [r["method"] for r in results] == ["stdPYP", "ordPYP", "ordDP", "lsK", "lsX1"]
    for r in results:
        assert set(r) == {"method", "alpha", "theta", "objective", "status",
                          "converged", "evaluations"}
        assert 0.0 <= r["alpha"] < 1.0 and r["theta"] > 0.0


def test_fit_single_record_orddp_flat(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("weight,species\n1.0,a\n", encoding="utf-8")
    code, out = run_cli(capsys, "fit", str(path), "--method", "ordDP")
    assert code == 0
    r = json.loads(out)[0]
    assert r["theta"] == 1.0
    assert r["status"] == "flat"


def test_fit_single_record_all_is_degenerate(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("weight,species\n1.0,a\n", encoding="utf-8")
    code, _ = run_cli(capsys, "fit", str(path), "--method", "all")
    assert code == 3


def test_fit_malformed_csv(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n", encoding="utf-8")
    code, _ = run_cli(capsys, "fit", str(path))
    assert code == 2


def test_fit_missing_file(capsys):
    code, _ = run_cli(capsys, "fit", "/nonexistent/x.csv")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "-n", "10", "--alpha", "1.5", "--theta", "1"],
    ["simulate", "-n", "0", "--alpha", "0.5", "--theta", "1"],
    ["predict", "{csv}", "--m", "-5", "--params-from", "explicit",
     "--alpha", "0.5", "--theta", "1"],
    ["study", "--kind", "ordering-dist", "--replicates", "0"],
    ["fit", "{nan_csv}", "--method", "ordDP"],
    ["crossval", "{csv}", "--splits", "1", "--train-frac", "1.5"],
    ["crossval", "{csv}", "--splits", "0", "--train-frac", "0.5"],
])
def test_invalid_input_exits_2_with_one_line(capsys, sim_csv, tmp_path, argv):
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("weight,species\n2.0,a\nnan,b\n1.0,c\n", encoding="utf-8")
    argv = [v.format(csv=sim_csv, nan_csv=nan_csv) for v in argv]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("ossp: ")


def test_predict_matches_library(capsys, sim_csv):
    code, out = run_cli(capsys, "predict", sim_csv, "--m", "60", "--curve-points", "4",
                        "--params-from", "explicit", "--alpha", "0.4", "--theta", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["m_partial"] for r in rows] == ["0", "20", "40", "60"]
    sample = simulate(150, PypParams(0.4, 5.0), 3)
    params = PypParams(0.4, 5.0)
    first = rows[0]
    assert float(first["pred_K"]) == sample.k
    assert float(first["pred_W1"]) == sample.partition.freqs[0]
    assert first["pred_W1_given_A1"] == "nan"
    assert float(first["prob_A1"]) == 0.0
    last = rows[-1]
    mom = expected_W1_parts(sample.n, 60, sample.k, sample.m1, params)
    assert float(last["pred_K"]) == pytest.approx(
        predict_K(sample.n, sample.k, 60, params), rel=1e-12)
    assert float(last["pred_W1"]) == pytest.approx(mom.mean, rel=1e-12)
    assert float(last["pred_W1_given_B1"]) == pytest.approx(mom.mean_given_b1, rel=1e-12)


def test_predict_explicit_requires_params(capsys, sim_csv):
    code, _ = run_cli(capsys, "predict", sim_csv, "--m", "10", "--params-from", "explicit")
    assert code == 2


def test_predict_prediction_matches_conditional_mc(capsys, tmp_path):
    # small configuration: the emitted posterior-mean column sits within MC noise
    from ossp import conditional_mc

    params = PypParams(0.5, 1.0)
    records = [(3.0, "a"), (3.0, "a"), (3.0, "a"), (1.0, "b"), (1.0, "b")]
    path = tmp_path / "tiny.csv"
    path.write_text("weight,species\n" + "".join(f"{w},{s}\n" for w, s in records),
                    encoding="utf-8")
    code, out = run_cli(capsys, "predict", str(path), "--m", "3", "--curve-points", "2",
                        "--params-from", "explicit", "--alpha", "0.5", "--theta", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    pred = float(rows[-1]["pred_W1"])
    mc = conditional_mc(5, 3, params, 60_000, 31, freqs=(3, 2))
    mu, se = mc.mean_w1()
    assert abs(pred - mu) <= 3 * se


def test_study_synthetic_correct_smoke(capsys):
    code, out = run_cli(capsys, "study", "--kind", "synthetic-correct", "--seed", "5",
                        "--datasets", "2", "--continuations", "2",
                        "--n", "60", "--m", "60", "--grid-d", "6")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 5 * 4  # datasets x methods x quantities
    assert {r["quantity"] for r in rows} == {"K", "W1", "W1|A1", "W1|B1"}
    k_errors = [float(r["median_ape"]) for r in rows if r["quantity"] == "K"]
    assert all(math.isfinite(v) for v in k_errors)


def test_study_synthetic_misspec_smoke(capsys):
    code, out = run_cli(capsys, "study", "--kind", "synthetic-misspec", "--seed", "5",
                        "--datasets", "1", "--continuations", "2",
                        "--n", "50", "--m", "50", "--grid-d", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6 * 5 * 4  # generator combos x methods x quantities
    combos = {(r["clustering"], r["ordering"]) for r in rows}
    assert len(combos) == 6


def test_study_ordering_dist_flat_at_theta_equals_alpha(capsys):
    code, out = run_cli(capsys, "study", "--kind", "ordering-dist", "--seed", "2",
                        "--n-order", "6", "--alpha", "0.5", "--theta", "0.5",
                        "--replicates", "3000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for k in (2, 4):
        vals = [float(r["prob"]) for r in rows if r["kn"] == str(k)]
        if vals:
            assert vals == pytest.approx([1.0 / (k + 1)] * (k + 1), abs=1e-9)


def test_probability_oldest_dp_line(capsys):
    code, out = run_cli(capsys, "probability-oldest", "--n", "40",
                        "--alphas", "0", "--thetas", "1,10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 40
    for r in rows:
        assert float(r["prob"]) == int(r["i"]) / 40


def test_crossval_full_train_zero_error(capsys, sim_csv):
    code, out = run_cli(capsys, "crossval", sim_csv, "--splits", "2",
                        "--train-frac", "1.0", "--seed", "4", "--grid-d", "5")
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out)) if r["record"] == "error"]
    assert rows
    assert all(float(r["pct_error"]) == 0.0 for r in rows)


def test_crossval_emits_bands(capsys, sim_csv):
    code, out = run_cli(capsys, "crossval", sim_csv, "--splits", "3",
                        "--train-frac", "0.4", "--seed", "4",
                        "--curve-points", "4", "--grid-d", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    errors = [r for r in rows if r["record"] == "error"]
    bands = [r for r in rows if r["record"] == "band"]
    assert len(errors) == 3 * 5 * 2
    assert len(bands) == 5 * 2 * 4
    for r in bands:
        assert float(r["q025"]) <= float(r["q500"]) <= float(r["q975"])


def test_crossval_split_too_small(capsys, sim_csv):
    code, _ = run_cli(capsys, "crossval", sim_csv, "--splits", "2",
                      "--train-frac", "0.001", "--seed", "1")
    assert code == 3


def test_crossval_ranking_tendency(capsys, tmp_path):
    # on model-generated data the K-targeted methods should usually beat
    # lsX1 on K; reported as a warning rather than hard-failed
    import warnings

    path = tmp_path / "model.csv"
    main(["simulate", "-n", "400", "--alpha", "0.3", "--theta", "8",
          "--seed", "12", "--out", str(path)])
    code, out = run_cli(capsys, "crossval", str(path), "--splits", "8",
                        "--train-frac", "0.25", "--seed", "9", "--grid-d", "6")
    assert code == 0
    rows = [r for r in csv.DictReader(io.StringIO(out))
            if r["record"] == "error" and r["quantity"] == "K"]
    med = {}
    for meth in ("lsK", "stdPYP", "lsX1"):
        vals = sorted(float(r["pct_error"]) for r in rows if r["method"] == meth)
        med[meth] = vals[len(vals) // 2]
    if not (med["lsK"] <= med["lsX1"] and med["stdPYP"] <= med["lsX1"]):
        warnings.warn(f"K-error ranking not reproduced on this draw: {med}")
