"""Worst-case multiphoton bound: the closed form against full scans, HiGHS
and an exact ``decimal`` evaluation of a_k / k.

The LP oracle, ``worst_case_lp`` in ``conftest.py``, solves the truncated
mean-constrained LP with ``scipy.optimize.linprog(method="highs")``.
"""

import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import passiveqkd
from passiveqkd import coefficient_a, maximize_ratio

X_STAR = 1.7932821329007610  # the maximizer of g(x) = (1 - e^-x - x e^-x)/x
EPS = sys.float_info.epsilon
# maximize_ratio's docstring: its bound lies at most 19.5 eps above mu times
# the largest computed a_k / k of any k >= k_lo
MARGIN = 1.0 + 20.0 * EPS


def scan_range(eta, k_lo, k_hi):
    # exhaustive argmax of the computed a_k/k over [k_lo, k_hi], ties to the
    # smaller k; the k are floats, exact up to 2^53
    ks = float(k_lo) + np.arange(k_hi - k_lo + 1, dtype=float)
    ratios = coefficient_a(ks, eta) / ks
    i = int(np.argmax(ratios))
    return int(ks[i]), float(ratios[i])


def a_reference(k, eta):
    # direct textbook form; fine at moderate k where cancellation is mild
    return 1.0 - (1.0 - eta) ** k - k * eta * (1.0 - eta) ** (k - 1)


def test_coefficient_a_small_k_closed_form():
    # a_2 = eta^2 exactly
    for eta in (0.01, 0.3, 0.9):
        assert coefficient_a(2, eta) == pytest.approx(eta**2, rel=1e-12)


def test_coefficient_a_matches_reference():
    for eta in (0.05, 0.2, 0.7):
        for k in (2, 5, 17, 100):
            assert coefficient_a(k, eta) == pytest.approx(a_reference(k, eta), rel=1e-11)


def test_coefficient_a_vectorized():
    ks = np.array([2, 3, 10])
    vals = coefficient_a(ks, 0.1)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(0.01, rel=1e-12)
    # an int k runs libm's exp and expm1, an array numpy's: each rounds a
    # term of a_k to within about an ulp, so the two agree to a few ulp of
    # the larger term (3 at most on 240,000 (k, eta) of this spread) though
    # not relative to a_k itself, whose terms cancel at small k eta
    ks = np.unique(np.round(10.0 ** np.linspace(0.31, 7.0, 400))).astype(int)
    for eta in (1e-9, 3e-7, 1e-4, 0.02, 0.45):
        log1m = math.log1p(-eta)
        for k, a in zip(ks.tolist(), coefficient_a(ks, eta)):
            larger = max(-math.expm1(k * log1m), k * eta * math.exp((k - 1.0) * log1m))
            assert abs(coefficient_a(k, eta) - a) <= 4.0 * math.ulp(larger), (k, eta)


def test_coefficient_a_validation():
    with pytest.raises(ValueError):
        coefficient_a(1, 0.1)
    with pytest.raises(ValueError):
        coefficient_a(2, 1.0)
    for flag in (True, False):  # a bool is an int, but no photon count
        with pytest.raises(ValueError, match="k must"):
            coefficient_a(flag, 0.1)


def test_maximize_ratio_reference_point():
    # frozen from an exhaustive scan of a_k / k at eta = 0.001
    res = maximize_ratio(0.001, 100.0)
    assert res.k_star == 1794
    assert res.p_multi_upper == pytest.approx(0.029849164072644, rel=1e-10)
    w0, wk = res.optimal_pnd_weights
    assert w0 + wk == pytest.approx(1.0, abs=1e-12)
    assert wk * res.k_star == pytest.approx(100.0, rel=1e-12)


def test_maximize_ratio_zero_mean():
    res = maximize_ratio(0.5, 0.0)
    assert res.p_multi_upper == 0.0


def assert_covers_scan(eta, mu, ratio):
    # the bound is the scan's maximum raised by at most the margin, and
    # k_star is feasible with a computed ratio within that margin of it
    res = maximize_ratio(eta, mu)
    assert ratio * mu <= res.p_multi_upper <= ratio * mu * MARGIN
    assert res.k_star >= max(2, math.ceil(mu))
    assert ratio <= coefficient_a(res.k_star, eta) / res.k_star * MARGIN


def assert_covers_full_scan(eta, mu):
    # oracle: one exhaustive argmax of the computed a_k/k over the feasible
    # k >= k_lo = max(2, ceil(mu)) up to twice the search range's top,
    # max(k_lo, ceil(20/eta))
    k_lo = max(2, math.ceil(mu))
    _, ratio = scan_range(eta, k_lo, 2 * max(k_lo, math.ceil(20.0 / eta)))
    assert_covers_scan(eta, mu, ratio)


def crossing_etas(k):
    # the adjacent floats around the eta at which a_{k+1}/(k+1) = a_k/k: the
    # computed ratios of k and k + 1 tie or differ by rounding there
    def rising(eta):
        r = coefficient_a(np.array([k, k + 1]), eta) / np.array([k, k + 1])
        return r[1] > r[0]

    lo, hi = 1e-6, 0.9
    while np.nextafter(lo, 1.0) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    return [float(np.nextafter(lo, 0.0)), lo, hi, float(np.nextafter(hi, 1.0))]


def test_maximize_ratio_matches_full_scan_on_random_cases():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        eta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.3))))
        # mostly left of the peak near 1.79/eta, some beyond it
        mu = float(rng.uniform(0.0, 0.5 / eta if rng.random() < 0.8 else 3.0 / eta))
        if rng.random() < 0.5:
            rng.uniform(0.5, 3.0)  # unused: keeps the cases drawn when half had a search cap
        assert_covers_full_scan(eta, mu)


def test_maximize_ratio_matches_full_scan_at_ties():
    for k in (8, 21, 40, 150, 1200, 2500, 10000):
        for eta in crossing_etas(k):
            assert_covers_full_scan(eta, 1.0)


def test_maximize_ratio_matches_full_scan_at_and_past_the_maximizer():
    # a mean at or just past k_star moves the feasibility threshold over the
    # maximum; past 20/eta the whole feasible range falls and k_lo itself wins
    for eta in (0.3, 0.05, 3e-3, 2e-4):
        k_star = maximize_ratio(eta, 1.0).k_star
        for mu in (k_star - 1.0, float(k_star), k_star + 0.5, k_star + 2.0):
            assert_covers_full_scan(eta, mu)
    for eta, mu in ((0.5, 100.0), (0.1, 250.0), (1e-3, 2e4), (0.3, 1e3), (1e-4, 5e5)):
        assert mu * eta >= 20.0
        assert_covers_full_scan(eta, mu)
        assert maximize_ratio(eta, mu).k_star == math.ceil(mu)
    # past int64 and up to the largest float, k_lo is still the answer
    for mu in (1e20, 1e300, 1.7e308):
        assert maximize_ratio(0.25, mu).k_star == math.ceil(mu)


def test_maximize_ratio_matches_scan_on_wide_flat_tops():
    # at k* ~ 1.8/eta (2e7 to 6e8 here) the computed a_k/k is flat to rounding
    # over up to a hundred k; 2e5 steps away the exact ratio is at least 4e-8
    # below its maximum, so a scan of that window finds the computed maximum
    for eta in (1e-7, 3.3e-8, 1.2e-8, 2.9e-9):
        k0 = round(X_STAR / -math.log1p(-eta))
        _, ratio = scan_range(eta, k0 - 200_000, k0 + 200_000)
        assert_covers_scan(eta, 0.1 / eta, ratio)


def test_maximize_ratio_far_beyond_a_full_scan():
    # k* ~ 1.8e12: the closed-form sandwich mu a(k0)/k0 <= p <= mu ell g(x*),
    # with g(x) = (1 - e^-x - x e^-x)/x maximal at x* (e^x = 1 + x + x^2)
    eta, mu = 1e-12, 1e11
    res = maximize_ratio(eta, mu)
    ell = -math.log1p(-eta)
    k0 = round(X_STAR / ell)
    g_star = (-math.expm1(-X_STAR) - X_STAR * math.exp(-X_STAR)) / X_STAR
    assert mu * coefficient_a(k0, eta) / k0 <= res.p_multi_upper <= mu * ell * g_star
    assert abs(res.k_star - k0) <= 5.0 * math.sqrt(EPS) * k0


@pytest.mark.parametrize("eta", [1e-14, 1e-19, 1e-300])
def test_maximize_ratio_returns_between_the_sandwich_sides_at_tiny_eta(eta):
    # k* ~ 1.8/eta passes 2^63 and (at 1e-300) any integer range: the bound
    # lies between mu a(k0)/k0 and mu ell g(x*), which it may pass by the 9 eps
    # margin and rounding
    mu = 0.1 / eta
    res = maximize_ratio(eta, mu)
    ell = -math.log1p(-eta)
    k0 = float(round(X_STAR / ell))
    g_star = (-math.expm1(-X_STAR) - X_STAR * math.exp(-X_STAR)) / X_STAR
    assert mu * coefficient_a(k0, eta) / k0 <= res.p_multi_upper
    assert res.p_multi_upper <= mu * ell * g_star * (1.0 + 16.0 * EPS)
    assert abs(res.k_star / k0 - 1.0) <= 5.0 * math.sqrt(EPS)
    assert res.optimal_pnd_weights == (1.0 - mu / res.k_star, mu / res.k_star)


def test_maximize_ratio_below_the_eta_floor_is_still_an_upper_bound():
    # 20/eta passes the largest float: the search runs at eta = 1e-306, and
    # a_k grows with eta, so its bound holds for the smaller eta
    for eta in (1e-307, 5e-324):
        res = maximize_ratio(eta, 1.0)
        assert res == maximize_ratio(1e-306, 1.0)
        assert res.p_multi_upper >= -math.log1p(-eta) * 0.2984256  # above ell g(x*)


def test_maximize_ratio_cut_scan_covers_the_full_scans_maximum():
    # at eta = 2e-13 the flat top's full scan spans k0 -+ 6.7e5
    eta = 2e-13
    k0 = round(X_STAR / -math.log1p(-eta))
    half = 10 + int(5.0 * math.sqrt(EPS) * k0)
    assert half > 1 << 18
    _, ratio = scan_range(eta, k0 - half, k0 + half)
    assert_covers_scan(eta, 0.1 / eta, ratio)


def exact_max_ratio(eta, k_lo, k_hat):
    # the exact a_k / k, to 60 digits, maximized over k >= k_lo within
    # k_hat -+ (3 + 6 sqrt(eps) k_hat); the maximum must lie inside the window
    h = 3 + int(6.0 * math.sqrt(EPS) * k_hat)
    k0, k1 = max(k_lo, k_hat - h), k_hat + h
    e = decimal.Decimal(eta)
    q = 1 - e
    q_km1 = q ** (k0 - 1)
    ratios = []
    for k in range(k0, k1 + 1):
        ratios.append((1 - q_km1 * q - k * e * q_km1) / k)
        q_km1 *= q
    i = max(range(len(ratios)), key=ratios.__getitem__)
    assert 0 < i < len(ratios) - 1 or (i == 0 and k0 == k_lo)
    return ratios[i]


def test_maximize_ratio_is_at_or_above_the_exact_maximum():
    rng = np.random.default_rng(2026)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for _ in range(2000):
            eta = float(np.exp(rng.uniform(np.log(1e-7), np.log(0.9))))
            mu = float(rng.uniform(0.0, 3.0 / eta))
            res = maximize_ratio(eta, mu)
            exact = exact_max_ratio(eta, max(2, math.ceil(mu)), res.k_star)
            assert decimal.Decimal(res.p_multi_upper) >= decimal.Decimal(mu) * exact, (eta, mu)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_maximize_ratio_memory_is_bounded_at_tiny_eta():
    # the call may raise the child's peak RSS, its VmHWM, by little over its
    # peak after import (a numpy scan of k0 -+ 2^18 ratios added 21 MB).  Its
    # ru_maxrss would carry over the high-water mark of the test process it
    # was forked from.
    env = dict(os.environ, PYTHONPATH=str(Path(passiveqkd.__file__).parents[1]))
    code = (
        "from passiveqkd import maximize_ratio\n"
        "def hwm(): return [int(l.split()[1]) for l in open('/proc/self/status')"
        " if l.startswith('VmHWM')][0]\n"
        "before = hwm(); maximize_ratio(1e-14, 1e13); print(hwm() - before)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * 1024  # kB


def test_maximize_ratio_scales_linearly_in_mu():
    # the optimal k depends only on eta, so the bound is linear in mu
    r1 = maximize_ratio(0.001, 10.0)
    r2 = maximize_ratio(0.001, 20.0)
    assert r1.k_star == r2.k_star
    assert r2.p_multi_upper == pytest.approx(2.0 * r1.p_multi_upper, rel=1e-12)


def test_closed_form_agrees_with_lp(worst_case_lp):
    # mean constraint + normalization: optimum is the two-point distribution
    # on {0, k_star} whenever k_star fits inside the truncation
    eta, mu, n_cols = 0.05, 3.0, 500
    res = maximize_ratio(eta, mu)
    assert res.k_star < n_cols - 1
    value, x = worst_case_lp(eta, mu, n_cols)
    assert value == pytest.approx(res.p_multi_upper, abs=1e-11)
    assert x[res.k_star] == pytest.approx(res.optimal_pnd_weights[1], abs=1e-9)


def test_tiny_lp_single_candidate_column(worst_case_lp):
    # with columns {0, 1, 2} only k = 2 carries objective weight, so the
    # optimum is a_2 * mu / 2 = eta^2 / 2
    value, x = worst_case_lp(0.5, 1.0, 3)
    assert value == pytest.approx(0.125, abs=1e-12)
    assert np.count_nonzero(np.abs(x) > 1e-12) <= 2


def test_lp_vertex_has_at_most_two_nonzeros(worst_case_lp):
    # two equality constraints: a basic solution has at most two basic
    # variables away from zero
    _, x = worst_case_lp(0.05, 3.0, 500)
    assert np.count_nonzero(np.abs(x) > 1e-10) <= 2


def test_lp_optimum_never_below_any_feasible_point():
    # the closed form is the optimum over every source of mean mu; a mixture
    # of two-point sources {0, k} with k >= mu has mean mu, so none may beat it
    rng = np.random.default_rng(3)
    for eta, mu in ((0.05, 3.0), (0.001, 100.0), (0.3, 0.5)):
        res = maximize_ratio(eta, mu)
        tight = mu * coefficient_a(res.k_star, eta) / res.k_star
        assert res.p_multi_upper == pytest.approx(tight, rel=1e-12)
        for _ in range(50):
            ks = rng.integers(max(2, math.ceil(mu)), int(4.0 / eta), size=5)
            p_k = rng.dirichlet(np.ones(5)) * mu / ks  # the rest is vacuum
            assert p_k.sum() <= 1.0 and float(ks @ p_k) == pytest.approx(mu, rel=1e-12)
            assert res.p_multi_upper >= float(coefficient_a(ks, eta) @ p_k) * (1.0 - 1e-12)
