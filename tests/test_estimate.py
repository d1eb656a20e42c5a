import math
from fractions import Fraction

import numpy as np
import pytest

from ossp import (
    DegenerateSample,
    PypParams,
    expected_Kn,
    expected_M1,
    fit,
    fit_all,
    fit_lsK,
    fit_lsX1,
    fit_mle_ordered,
    fit_mle_ordered_dp,
    fit_mle_std,
    log_eppf,
    log_ordered_eppf,
    log_prior_first_r,
    reduce_records,
    simulate,
)
from ossp.estimate import ALPHA_MAX, _golden_max, THETA_MAX, THETA_MIN
from ossp.partition import prefix_stats

from oracles import compositions, multinomial, ordered_eppf_frac


@pytest.fixture(scope="module")
def sample300():
    return simulate(300, PypParams(0.5, 10.0), 7)


def _validation_grid():
    alphas = np.linspace(0.0, 1.0 - 1e-6, 50)
    thetas = 10.0 ** np.linspace(-3, 6, 50)
    return [(a, t) for a in alphas for t in thetas]


def test_std_mle_dominates_validation_grid(sample300):
    fr = fit_mle_std(sample300)
    freqs = sample300.partition.freqs
    for (a, t) in _validation_grid():
        assert fr.objective >= log_eppf(freqs, PypParams(a, t)) - 1e-9


def test_ordered_mle_dominates_validation_grid(sample300):
    fr = fit_mle_ordered(sample300)
    freqs = sample300.partition.freqs
    for (a, t) in _validation_grid():
        assert fr.objective >= log_ordered_eppf(freqs, PypParams(a, t)) - 1e-9


def test_ls_objectives_dominate_validation_grid(sample300):
    stats = prefix_stats(sample300, 10)
    for maker, fr in ((fit_lsK, fit_lsK(sample300, 10)), (fit_lsX1, fit_lsX1(sample300, 10))):
        observed = stats.k_at if fr.method == "lsK" else stats.m1_at
        moment = expected_Kn if fr.method == "lsK" else expected_M1
        for (a, t) in _validation_grid():
            val = -sum((moment(ni, PypParams(a, t)) - oi) ** 2
                       for ni, oi in zip(stats.grid, observed))
            assert fr.objective >= val - 1e-9


def test_ordpyp_nests_orddp(sample300):
    assert fit_mle_ordered(sample300).objective >= fit_mle_ordered_dp(sample300).objective - 1e-12


def test_orddp_flat_likelihood_convention():
    fr = fit_mle_ordered_dp(reduce_records([(1.0, "a")]))
    assert fr.params.theta == 1.0
    assert fr.status == "flat"
    assert fr.objective == pytest.approx(0.0, abs=1e-14)


def test_orddp_matches_fine_golden_oracle(sample300):
    fr = fit_mle_ordered_dp(sample300)
    freqs = sample300.partition.freqs

    def obj(y):
        return log_ordered_eppf(freqs, PypParams(0.0, math.exp(y)))

    y, _ = _golden_max(obj, math.log(THETA_MIN), math.log(THETA_MAX), iters=200)
    assert fr.params.theta == pytest.approx(math.exp(y), rel=1e-6)


def test_lsk_near_zero_discrepancy_single_point():
    # d=1: any 1 < k < n is matched exactly by some (alpha, theta)
    sample = simulate(120, PypParams(0.4, 3.0), 21)
    assert 1 < sample.k < sample.n
    fr = fit_lsK(sample, 1)
    assert -fr.objective <= 1e-10


def test_all_distinct_sample_hits_alpha_boundary():
    records = [(float(100 - i), f"s{i}") for i in range(25)]
    fr = fit_mle_std(reduce_records(records))
    assert fr.status == "boundary"
    assert fr.params.alpha >= ALPHA_MAX - 1e-4


def test_single_block_sample_drives_theta_to_floor():
    records = [(1.0, "only")] * 40
    fr = fit_mle_std(reduce_records(records))
    assert fr.status == "boundary"
    assert fr.params.alpha <= 1e-6
    assert fr.params.theta <= 10 * THETA_MIN


def test_fit_deterministic(sample300):
    a = fit_mle_ordered(sample300)
    b = fit_mle_ordered(sample300)
    assert a == b


def test_degenerate_sample_rejected():
    with pytest.raises(DegenerateSample):
        fit_mle_std(reduce_records([(1.0, "a")]))


def test_fit_dispatch_and_all(sample300):
    rs = fit_all(sample300, 10)
    assert [r.method for r in rs] == ["stdPYP", "ordPYP", "ordDP", "lsK", "lsX1"]
    with pytest.raises(ValueError):
        fit("nope", sample300)


def test_params_within_domain_or_flagged(sample300):
    for fr in fit_all(sample300, 10):
        assert 0.0 <= fr.params.alpha < 1.0
        assert THETA_MIN <= fr.params.theta <= THETA_MAX
        if not (fr.params.alpha < ALPHA_MAX - 1e-5
                and 2 * THETA_MIN < fr.params.theta < 0.9 * THETA_MAX):
            assert fr.status in ("boundary", "flat")


def test_expected_m1_matches_prior_summation():
    for params in (PypParams(0.0, 1.0), PypParams(0.5, 2.0), PypParams(0.3, 0.7)):
        n = 30
        want = sum(m1 * math.exp(log_prior_first_r(n, 1, (m1,), params))
                   for m1 in range(1, n + 1))
        assert expected_M1(n, params) == pytest.approx(want, rel=1e-11)
        # and, independently of the package, exact rationals for n <= 8
        a, t = Fraction(params.alpha), Fraction(params.theta)
        for n in range(1, 9):
            want = sum(comp[0] * multinomial(n, comp) * ordered_eppf_frac(comp, a, t)
                       for comp in compositions(n))
            assert expected_M1(n, params) == pytest.approx(float(want), rel=1e-12)


def test_calibration_truth_inside_central_band():
    # the true pair sits inside the central 90% band of the estimate
    # distribution produced by the same fitting code
    truth = PypParams(0.5, 10.0)
    reps = 16
    fits = {"stdPYP": [], "ordPYP": [], "lsK": []}
    for r in range(reps):
        sample = simulate(400, truth, (4040, r))
        for meth in fits:
            fits[meth].append(fit(meth, sample, 10).params)
    for meth, estimates in fits.items():
        alphas = sorted(p.alpha for p in estimates)
        thetas = sorted(p.theta for p in estimates)
        lo, hi = int(0.05 * reps), math.ceil(0.95 * reps) - 1
        assert alphas[lo] <= truth.alpha <= alphas[hi], meth
        assert thetas[lo] <= truth.theta <= thetas[hi], meth
