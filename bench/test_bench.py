"""Tests of the benchmark's own generator and reference computations against
exact values (rational arithmetic and enumeration of ordered partitions).

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import gen
import reference as ref

PARAMS = [(Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(3, 2)),
          (Fraction(1, 4), Fraction(5))]


def multinomial(n, parts) -> int:
    v = math.factorial(n)
    for p in parts:
        v //= math.factorial(p)
    return v


def exact_laws(n, alpha, theta):
    """Laws of K_n and M_{1,n} by enumeration of ordered set partitions of [n]."""
    k_law, m1_law = Counter(), Counter()
    for comp in ref.compositions(n):
        p = multinomial(n, comp) * ref.ordered_eppf_exact(comp, alpha, theta)
        k_law[len(comp)] += p
        m1_law[comp[0]] += p
    return k_law, m1_law


def eppf_exact(freqs, alpha, theta) -> Fraction:
    p = Fraction(1)
    for i in range(len(freqs)):
        p *= theta + i * alpha
    for i in range(sum(freqs)):
        p /= theta + i
    for f in freqs:
        for i in range(f - 1):
            p *= 1 - alpha + i
    return p


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_ordered_eppf_is_a_law_over_the_classical_eppf(alpha, theta):
    for n in range(1, 8):
        total = sum(multinomial(n, c) * ref.ordered_eppf_exact(c, alpha, theta)
                    for c in ref.compositions(n))
        assert total == 1
    for blocks in [(3,), (2, 1), (1, 1, 2), (3, 1, 2), (1, 1, 1, 1)]:
        # every order of the (labelled) blocks is one ordered set partition
        orders = sum(ref.ordered_eppf_exact(perm, alpha, theta) for perm in permutations(blocks))
        assert orders == eppf_exact(blocks, alpha, theta)
    assert ref.log_ordered_eppf((3, 1, 2), float(alpha), float(theta)) == pytest.approx(
        math.log(ref.ordered_eppf_exact((3, 1, 2), alpha, theta)), rel=1e-13)
    assert ref.log_eppf((3, 1, 2), float(alpha), float(theta)) == pytest.approx(
        math.log(eppf_exact((3, 1, 2), alpha, theta)), rel=1e-13)


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_expected_k_and_k_law_match_enumeration(alpha, theta):
    n = 9
    exp = ref.expected_k(n, float(alpha), float(theta))
    for j in range(1, n + 1):
        k_law, _ = exact_laws(j, alpha, theta)
        mean = sum(k * p for k, p in k_law.items())
        assert exp[j] == pytest.approx(float(mean), rel=1e-13)
        chain = ref.k_law(j, float(alpha), float(theta))
        want = [float(k_law.get(k, 0)) for k in range(j + 1)]
        assert chain == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_expected_k_dp_closed_form():
    theta, n = 2.5, 400
    assert ref.expected_k(n, 0.0, theta)[-1] == pytest.approx(
        sum(theta / (theta + i) for i in range(n)), rel=1e-13)


def test_expected_k_after_conditions_on_k():
    # E[K_{n+m} | K_n = k] = k + E[new species]; for m = 1 it is k + (theta + alpha k)/(theta + n)
    a, t, n, k = 0.3, 4.0, 20, 6
    assert ref.expected_k(1, a, t, k0=k, n0=n)[-1] == pytest.approx(k + (t + a * k) / (t + n))


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_m1_law_matches_enumeration(alpha, theta):
    for n in (1, 4, 8):
        _, m1_law = exact_laws(n, alpha, theta)
        got = ref.m1_law(n, float(alpha), float(theta))
        assert got == pytest.approx([float(m1_law.get(w, 0)) for w in range(n + 1)],
                                    rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_posterior_w1_law_matches_path_enumeration(alpha, theta):
    for freqs, m in [((3, 2), 3), ((1, 2, 1), 4), ((2,), 2)]:
        exact = Counter()
        for (_, w1, a1, _, _), p in ref.continuation_law(freqs, m, alpha, theta).items():
            exact[(w1, a1)] += p
        new, old = ref.posterior_w1_law(sum(freqs), freqs[0], m, float(alpha), float(theta))
        for w in range(len(new)):
            assert new[w] == pytest.approx(float(exact.get((w, 1), 0)), rel=1e-12, abs=1e-15)
            assert old[w] == pytest.approx(float(exact.get((w, 0), 0)), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_ordered_moves_open_a_table_at_the_classical_rate(alpha, theta):
    # averaged over the orders of the blocks, a new table opens with the classical
    # CRP probability (theta + alpha k)/(theta + n); given the order it need not
    for blocks in [(1,), (3, 2), (1, 4, 1, 2)]:
        weight = rate = Fraction(0)
        for perm in permutations(blocks):
            moves = list(ref.ordered_moves(perm, alpha, theta))
            assert sum(p for _, _, p in moves) == 1
            p = ref.ordered_eppf_exact(perm, alpha, theta)
            weight += p
            rate += p * sum(q for kind, _, q in moves if kind == "new")
        assert rate / weight == (theta + alpha * len(blocks)) / (theta + sum(blocks))


def test_continuation_law_is_a_law():
    law = ref.continuation_law((3, 2), 3, Fraction(1, 2), Fraction(1))
    assert sum(law.values()) == 1
    assert all(kmn <= 3 and (a1 == 0 or w1 <= 3) for kmn, w1, a1, _, _ in law)


@pytest.mark.parametrize("alpha,theta", PARAMS)
def test_prob_oldest_curve_matches_exact(alpha, theta):
    n = 8
    got = ref.prob_oldest_curve(n, float(alpha), float(theta))
    for i in range(1, n + 1):
        if n - i == 0:
            e = 1 / theta
        else:
            k_law, _ = exact_laws(n - i, alpha, theta)
            e = sum(p / (theta + alpha * k) for k, p in k_law.items())
        want = (alpha * n + i * (theta - alpha)) / n * e
        assert got[i] == pytest.approx(float(want), rel=1e-12)
    assert got[n] == pytest.approx(1.0, rel=1e-15)


def test_ordering_law_closed_form_and_k_law():
    # from (2): a new species goes first with odds (theta + 2 alpha) : (2 theta + alpha)
    a, t = 0.5, 1.0
    law = ref.ordering_law(2, a, t)
    assert law[1][1][1] == pytest.approx((t + 2 * a) / (3 * (t + a)), rel=1e-13)
    law = ref.ordering_law(7, a, t)
    assert [law[k][0] for k in range(1, 8)] == pytest.approx(list(ref.k_law(7, a, t)[1:]),
                                                            rel=1e-12)
    for k in range(1, 8):
        assert law[k][1][1:k + 2].sum() == pytest.approx(1.0, rel=1e-13)
    assert law[0][1].sum() == pytest.approx(1.0, rel=1e-13)


def test_quantile_range():
    law = np.array([0.0, 1e-7, 0.5 - 1e-7, 0.5 - 1e-7, 1e-7])
    assert ref.quantile_range(law, 1e-6) == (2, 3)  # 1e-7 outside on each side
    assert ref.quantile_range(law, 1e-7) == (1, 4)


@pytest.mark.parametrize("alpha,theta", [(Fraction(1, 2), Fraction(1)),
                                         (Fraction(0), Fraction(2))])
def test_generator_matches_exact_laws(alpha, theta):
    n, reps = 6, 20000
    rng = np.random.default_rng(20220314)
    comps = Counter()
    for _ in range(reps):
        assign, order = gen.draw(n, float(alpha), float(theta), rng)
        comps[tuple(gen.ordered_freqs(assign, order))] += 1
    k_seen, m1_seen = Counter(), Counter()
    for c, cnt in comps.items():
        k_seen[len(c)] += cnt
        m1_seen[c[0]] += cnt
    k_law, m1_law = exact_laws(n, alpha, theta)
    cells = [(k_seen, k_law), (m1_seen, m1_law),
             (comps, {c: multinomial(n, c) * ref.ordered_eppf_exact(c, alpha, theta)
                      for c in ref.compositions(n)})]
    for seen, law in cells:
        assert set(seen) <= set(law)
        for key, p in law.items():
            p = float(p)
            z = (seen[key] - reps * p) / math.sqrt(reps * p * (1 - p)) if 0 < p < 1 else 0.0
            assert abs(z) < 4.5, (key, seen[key], reps * p)


def test_generator_is_seeded_and_records_rank_by_order():
    a1, o1 = gen.draw(50, 0.5, 3.0, np.random.default_rng(7))
    a2, o2 = gen.draw(50, 0.5, 3.0, np.random.default_rng(7))
    assert np.array_equal(a1, a2) and np.array_equal(o1, o2)
    recs = gen.records(a1, o1)
    weight = {s: w for w, s in recs}
    assert sorted(weight.values()) == [float(v) for v in range(1, len(o1) + 1)]
    assert len(recs) == 50
    ks, m1s = gen.prefix_k_m1(a1, o1, [50])
    assert ks == [len(o1)] and m1s == [int(gen.ordered_freqs(a1, o1)[0])]
