import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ossp import (
    PypParams,
    dist_Kmn,
    dist_Kn,
    expected_Kmn,
    expected_Kn,
    log_eppf,
    log_ordered_eppf,
    log_prior_first_r,
    log_prior_first_r_given_k,
    prior_first_r_table,
    prob_oldest,
    prob_oldest_curve,
)
from ossp import conditional_mc
from ossp._rng import rng_from

from oracles import (
    compositions,
    eppf_frac,
    multinomial,
    ordered_eppf_frac,
    rising_frac,
)


def test_eppf_singleton():
    assert log_eppf((1,), PypParams(0.7, 3.0)) == pytest.approx(0.0, abs=1e-14)


def test_eppf_pair_dp():
    assert log_eppf((2,), PypParams(0.0, 1.0)) == pytest.approx(math.log(0.5), abs=1e-13)


def test_eppf_sums_over_set_partitions():
    # each set partition contributes its symmetric EPPF once: group ordered
    # compositions and divide by k!
    params = PypParams(0.5, 2.0)
    total = sum(multinomial(6, c) * math.exp(log_eppf(c, params)) / math.factorial(len(c))
                for c in compositions(6))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_eppf_matches_exact_rationals():
    a, t = Fraction(1, 4), Fraction(5, 2)
    for c in [(3, 2), (1, 1, 1), (4, 2, 1)]:
        got = math.exp(log_eppf(c, PypParams(float(a), float(t))))
        assert got == pytest.approx(float(eppf_frac(c, a, t)), rel=1e-12)


def test_ordered_eppf_singleton():
    assert log_ordered_eppf((1,), PypParams(0.4, 2.0)) == pytest.approx(0.0, abs=1e-14)


def test_ordered_eppf_two_singletons_dp():
    got = log_ordered_eppf((1, 1), PypParams(0.0, 1.0))
    assert got == pytest.approx(math.log(0.25), abs=1e-13)
    # the two orderings sum to the exchangeable EPPF
    both = 2 * math.exp(got)
    assert both == pytest.approx(math.exp(log_eppf((1, 1), PypParams(0.0, 1.0))), rel=1e-12)


def test_ordered_eppf_matches_exact_rationals():
    a, t = Fraction(2, 5), Fraction(3, 2)
    for c in [(3, 1, 2), (1, 5), (2, 2, 2)]:
        got = math.exp(log_ordered_eppf(c, PypParams(float(a), float(t))))
        assert got == pytest.approx(float(ordered_eppf_frac(c, a, t)), rel=1e-12)


def test_marginality_over_permutations():
    rng = rng_from(314)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        comp = tuple(int(v) for v in rng.integers(1, 6, size=k))
        params = PypParams(float(rng.uniform(0, 0.9)), float(10 ** rng.uniform(-1, 1.5)))
        target = math.exp(log_eppf(comp, params))
        total = sum(math.exp(log_ordered_eppf(p, params))
                    for p in itertools.permutations(comp))
        assert total == pytest.approx(target, rel=1e-10)


def test_dist_kn_point_mass():
    out = dist_Kn(1, PypParams(0.5, 1.0))
    assert out[1] == pytest.approx(1.0, abs=1e-14)


def test_dist_kn_matches_composition_enumeration():
    params = PypParams(0.3, 1.7)
    out = dist_Kn(7, params)
    by_k = np.zeros(8)
    for c in compositions(7):
        by_k[len(c)] += multinomial(7, c) * math.exp(log_ordered_eppf(c, params))
    assert out == pytest.approx(by_k, abs=1e-12)


@pytest.mark.parametrize("n", [1, 10, 50, 200])
def test_dist_kn_normalizes(n, params_grid):
    for params in params_grid:
        assert dist_Kn(n, params).sum() == pytest.approx(1.0, abs=1e-10)


def test_dist_kmn_empty_continuation():
    assert dist_Kmn(0, 5, 2, PypParams(0.5, 1.0)).tolist() == [1.0]


def test_dist_kmn_one_step_dp():
    out = dist_Kmn(1, 5, 3, PypParams(0.0, 2.0))
    assert out[1] == pytest.approx(2.0 / 7.0, rel=1e-13)
    assert out[0] == pytest.approx(5.0 / 7.0, rel=1e-13)


def test_dist_kmn_normalizes(params_grid):
    for params in params_grid:
        for (m, n, k) in [(1, 3, 2), (6, 6, 1), (10, 4, 3), (25, 12, 5)]:
            assert dist_Kmn(m, n, k, params).sum() == pytest.approx(1.0, abs=1e-10)


def test_dist_kmn_matches_conditional_mc():
    params = PypParams(0.5, 1.0)
    m, n, k = 4, 6, 2
    mc = conditional_mc(n, m, params, 50_000, 606, k=k)
    exact = dist_Kmn(m, n, k, params)
    support, phat, se = mc.kmn_cells()
    for s, ph, e in zip(support, phat, se):
        assert abs(ph - exact[s]) <= 3 * e + 1e-12


def test_expected_kn_basics():
    assert expected_Kn(1, PypParams(0.5, 1.0)) == pytest.approx(1.0, rel=1e-14)
    assert expected_Kn(3, PypParams(0.0, 1.0)) == pytest.approx(11.0 / 6.0, rel=1e-14)


def test_expected_kn_vs_summation(params_grid):
    for params in params_grid:
        d = dist_Kn(50, params)
        want = float(np.arange(51) @ d)
        assert expected_Kn(50, params) == pytest.approx(want, rel=1e-9)


def test_expected_kmn_vs_summation(params_grid):
    for params in params_grid:
        for (m, n, k) in [(1, 5, 2), (20, 8, 3), (40, 15, 6)]:
            d = dist_Kmn(m, n, k, params)
            want = float(np.arange(m + 1) @ d)
            assert expected_Kmn(m, n, k, params) == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("a", [1e-14, 1e-12, 1e-10, 1e-6, 1e-2])
def test_expected_k_small_alpha_vs_summation(a):
    # the closed forms must not cancel as alpha -> 0
    params = PypParams(a, 5.0)
    want = float(np.arange(1001) @ dist_Kn(1000, params))
    assert expected_Kn(1000, params) == pytest.approx(want, rel=1e-9)
    for (m, n, k) in [(300, 50, 10), (400, 1, 1)]:
        want = float(np.arange(m + 1) @ dist_Kmn(m, n, k, params))
        assert expected_Kmn(m, n, k, params) == pytest.approx(want, rel=1e-9)


def test_prob_oldest_all_i_at_dp_is_linear():
    for i in (1, 250, 999, 1000):
        assert prob_oldest(i, 1000, PypParams(0.0, 10.0)) == i / 1000


def test_prob_oldest_full_sample_is_one():
    assert prob_oldest(7, 7, PypParams(0.6, 2.5)) == 1.0


def test_prob_oldest_conditional_core_via_enumeration():
    # Pr[a SPECIFIC freq-i block is oldest | partition] = [ti+a(n-i)]/(n(t+aK))
    # follows from the permutation-sum identity; check it against brute force.
    a, t = Fraction(1, 2), Fraction(1)
    i = 3
    for others in [(2,), (1, 1), (2, 2), (3, 1, 1)]:
        n = i + sum(others)
        kk = len(others)
        num = Fraction(0)
        den = Fraction(0)
        blocks = (i,) + others
        for perm in itertools.permutations(range(len(blocks))):
            p = ordered_eppf_frac(tuple(blocks[j] for j in perm), a, t)
            den += p
            if perm[0] == 0:
                num += p
        want = (t * i + a * (n - i)) / (n * (t + a * kk))
        assert num / den == want


def test_prob_oldest_expectation_matches_simulated_kn():
    # dual route for E[1/(theta + alpha K_{n-i})]: triangular recurrence vs
    # the ordered-CRP simulator
    from ossp import _kernels

    i, n = 3, 8
    params = PypParams(0.5, 1.0)
    reps = 60_000
    vals = np.empty(reps)
    freqs = np.zeros(n - i, dtype=np.int64)
    ids = np.zeros(n - i, dtype=np.int64)
    assign = np.zeros(n - i, dtype=np.int64)
    U = rng_from(8686).random((reps, n - i))
    for r in range(reps):
        k, _ = _kernels.ocrp_steps(U[r], params.alpha, params.theta, freqs, ids, 0, 0, assign, 0)
        vals[r] = 1.0 / (params.theta + params.alpha * k)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(reps)
    pref = (params.alpha * n + i * (params.theta - params.alpha)) / n
    assert abs(pref * mc - prob_oldest(i, n, params)) <= 3 * pref * se


def test_prob_oldest_curve_matches_pointwise():
    params = PypParams(0.5, 10.0)
    curve = prob_oldest_curve(40, params)
    for i in (1, 7, 23, 39, 40):
        assert curve[i] == pytest.approx(prob_oldest(i, 40, params), rel=1e-12)
    assert math.isnan(curve[0])


def test_prior_first_r_single_species():
    assert log_prior_first_r(1, 1, (1,), PypParams(0.5, 1.0)) == pytest.approx(0.0, abs=1e-14)


def _eq_old_reference(n, m1, alpha, theta):
    # first-order frequency law, written independently of the package helpers
    return (math.comb(n, m1)
            * (alpha * (n - m1) + theta * m1)
            / (n * float(rising_frac(Fraction(theta + n - m1), m1)))
            * float(rising_frac(Fraction(1 - alpha), m1 - 1)))


def test_prior_first_r1_matches_reference():
    n, alpha, theta = 7, 0.3, 1.5
    params = PypParams(alpha, theta)
    for m1 in range(1, n + 1):
        got = math.exp(log_prior_first_r(n, 1, (m1,), params))
        want = _eq_old_reference(n, m1, Fraction(3, 10), Fraction(3, 2))
        assert got == pytest.approx(float(want), rel=1e-10)


def test_prior_first_r1_normalizes():
    for n in (2, 25, 100):
        for params in (PypParams(0.0, 1.0), PypParams(0.5, 2.0), PypParams(0.8, 0.3)):
            total = sum(math.exp(log_prior_first_r(n, 1, (m1,), params))
                        for m1 in range(1, n + 1))
            assert total == pytest.approx(1.0, abs=1e-10)


def test_prior_first_r2_mass_is_prob_k_at_least_2():
    n = 6
    params = PypParams(0.5, 2.0)
    table = prior_first_r_table(n, 2, params)
    want = float(dist_Kn(n, params)[2:].sum())
    assert table.total_mass() == pytest.approx(want, abs=1e-10)


def test_prior_first_r_admissibility():
    params = PypParams(0.5, 1.0)
    with pytest.raises(ValueError):
        log_prior_first_r(5, 2, (3, 3), params)
    with pytest.raises(ValueError):
        log_prior_first_r(5, 1, (0,), params)
    with pytest.raises(ValueError):
        log_prior_first_r(5, 2, (3,), params)


def test_prior_given_k_all_singletons():
    params = PypParams(0.4, 1.0)
    assert log_prior_first_r_given_k(5, 1, (1,), 5, params) == pytest.approx(0.0, abs=1e-12)


def test_prior_given_k_normalizes():
    params = PypParams(0.5, 1.0)
    total = sum(math.exp(log_prior_first_r_given_k(5, 1, (m1,), 2, params))
                for m1 in range(1, 5))
    assert total == pytest.approx(1.0, abs=1e-10)


def _cond_prior_enum(n, r, prefix, k, a, t):
    num = Fraction(0)
    den = Fraction(0)
    for comp in compositions(n):
        if len(comp) != k:
            continue
        p = multinomial(n, comp) * ordered_eppf_frac(comp, a, t)
        den += p
        if comp[:r] == tuple(prefix):
            num += p
    return num / den


@pytest.mark.parametrize("a,t", [(Fraction(1, 2), Fraction(1)),
                                 (Fraction(0), Fraction(2)),
                                 (Fraction(3, 4), Fraction(1, 2))])
def test_prior_given_k_matches_enumeration(a, t):
    params = PypParams(float(a), float(t))
    cases = [(5, 1, (2,), 2), (6, 2, (2, 1), 3), (6, 1, (3,), 3), (7, 2, (1, 2), 4),
             (8, 3, (2, 1, 3), 4), (8, 2, (3, 1), 5), (8, 1, (8,), 1), (6, 3, (1, 2, 3), 3)]
    for (n, r, prefix, k) in cases:
        got = math.exp(log_prior_first_r_given_k(n, r, prefix, k, params))
        want = float(_cond_prior_enum(n, r, prefix, k, a, t))
        assert got == pytest.approx(want, rel=1e-10)


def test_prior_given_k_impossible_configuration():
    # k - r species cannot fit in the leftover observations
    params = PypParams(0.5, 1.0)
    assert log_prior_first_r_given_k(5, 1, (4,), 3, params) == -math.inf


def test_induction_identity():
    rng = rng_from(11)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        mv = [int(v) for v in rng.integers(1, 7, size=k)]
        a = float(rng.uniform(0, 0.9))
        t = float(10 ** rng.uniform(-1, 1.5))
        total = 0.0
        for perm in itertools.permutations(range(k)):
            prod = 1.0 / t
            for j in range(k):
                tail_next = sum(mv[perm[i]] for i in range(j + 1, k))
                tail = tail_next + mv[perm[j]]
                prod *= (a * tail_next + t * mv[perm[j]]) / tail
            total += prod
        rhs = 1.0
        for i in range(1, k):
            rhs *= t + i * a
        assert total == pytest.approx(rhs, rel=1e-10)
