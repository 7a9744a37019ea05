"""Untagged-fraction bounds under Poissonian and Gaussian detection noise."""

import numpy as np
import pytest
from scipy import stats

from passiveqkd import (
    GaussianNoise,
    PoissonNoise,
    ThresholdWindow,
    gaussian_b123,
    poisson_b,
    poisson_bbar,
    poisson_window_mass,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)


def bbar_brute_force(m1, m2, gamma):
    # offsets s = m1 - m of the signal values m = 0..m1-1 below the window:
    # mass(s) = cdf[s + width] - cdf[s - 1]
    cdf = stats.poisson.cdf(np.arange(m2 + 1), gamma)
    return float(np.max(cdf[m2 - m1 + 1 :] - cdf[:m1], initial=0.0))


def test_window_validation():
    with pytest.raises(ValueError):
        ThresholdWindow(5.0, 5.0)
    w = ThresholdWindow(2.5, 7.5)
    assert w.width == pytest.approx(5.0)
    with pytest.raises(ValueError, match="integer"):
        w.as_integers()
    assert ThresholdWindow(2.0, 7.0).as_integers() == (2, 7)


def test_poisson_window_mass_matches_scipy_stats_at_every_edge():
    # real edges, including lower edges <= 0 and whole windows below 0, where
    # pdtr alone would be NaN; scipy.stats is the independent oracle
    rng = np.random.default_rng(9)
    mu = 10.0 ** rng.uniform(-2, 7, 5000)
    lo = mu + rng.uniform(-8, 4, 5000) * np.sqrt(mu) - rng.uniform(0, 20, 5000)
    hi = lo + rng.uniform(0.1, 10, 5000) * np.sqrt(mu)
    lo[:50], hi[:50] = -7.5, -0.5
    oracle = stats.poisson.cdf(np.floor(hi), mu) - stats.poisson.cdf(np.ceil(lo) - 1, mu)
    assert (lo <= 0).sum() > 500
    assert np.array_equal(poisson_window_mass(lo, hi, mu), oracle)
    assert float(poisson_window_mass(-5, 3, 2.0)) == float(stats.poisson.cdf(3, 2.0))


def test_poisson_bbar_matches_brute_force():
    for m1, m2, gamma in [(5, 9, 2.0), (30, 40, 12.0), (3, 50, 20.0), (100, 140, 90.0)]:
        got = poisson_bbar(ThresholdWindow(float(m1), float(m2)), gamma)
        assert got == pytest.approx(bbar_brute_force(m1, m2, gamma), abs=1e-12)


def test_poisson_bbar_zero_threshold():
    # no signal value below m1 = 0 exists, so nothing can leak upward
    assert poisson_bbar(ThresholdWindow(0.0, 10.0), 3.0) == 0.0


def test_poisson_bbar_matches_brute_force_on_random_windows():
    # poisson_bbar evaluates the same masses at a subset of the offsets that
    # contains the exact maximizer, so it may fall short of the scan only by
    # the rounding of masses on the flat top
    rng = np.random.default_rng(11)
    windows = []
    for _ in range(60):
        m1 = int(rng.integers(1, 3000))
        windows.append((m1, m1 + int(rng.integers(1, 800)), float(10 ** rng.uniform(-1, 4))))
    windows.append((2_100_000, 2_105_000, 2.0e6))
    for m1, m2, gamma in windows:
        got = poisson_bbar(ThresholdWindow(float(m1), float(m2)), gamma)
        ref = bbar_brute_force(m1, m2, gamma)
        assert ref - 2 * np.finfo(float).eps <= got <= ref


def test_poisson_bbar_narrow_window_far_out():
    # at m1 = gamma = 1e8 with width 1 the rounded lgamma crossing lands 8
    # offsets from the maximizer; the mass is unimodal in the offset s, so
    # the last 3000 offsets below s = m1 hold the maximum
    m1, gamma = 100_000_000, 1e8
    s = np.arange(m1 - 3000, m1 + 1)
    ref = float(np.max(stats.poisson.cdf(s + 1, gamma) - stats.poisson.cdf(s - 1, gamma)))
    got = poisson_bbar(ThresholdWindow(float(m1), float(m1 + 1)), gamma)
    assert ref - 2 * np.finfo(float).eps <= got <= ref


def test_poisson_bbar_below_cdf():
    w = ThresholdWindow(50.0, 80.0)
    assert poisson_bbar(w, 10.0) <= poisson_b(80, 10.0)


def test_untagged_lower_bound_poisson_clamps():
    w = ThresholdWindow(50.0, 80.0)
    assert untagged_lower_bound_poisson(0.0, w, 10.0).value == 0.0
    assert untagged_lower_bound_poisson(1.0, w, 10.0).value == 1.0


def test_untagged_lower_bound_poisson_degenerate():
    # a window much wider than the noise spread: an offset signal fills it
    # exactly as well as an in-window one, and the bound carries no information
    w = ThresholdWindow(30000.0, 40000.0)
    res = untagged_lower_bound_poisson(0.99, w, 10000.0)
    assert res.degenerate
    assert res.value == 0.0


def test_gaussian_b123_values():
    sigma2 = 4.0
    w = ThresholdWindow(10.0, 16.0)
    b1, b2, b3 = gaussian_b123(w, sigma2)
    assert b1 == pytest.approx(stats.norm.cdf(6.0 / 2.0) - 0.5, abs=1e-14)
    assert b2 == pytest.approx(2.0 * stats.norm.cdf(6.0 / 4.0) - 1.0, abs=1e-14)
    assert b3 == pytest.approx(
        stats.norm.cdf(-0.5) - stats.norm.cdf(-7.0 / 2.0), abs=1e-14
    )
    assert b2 >= b1 >= b3


def test_gaussian_b2_is_empirically_the_in_window_worst_case():
    # b2 caps the hit probability of any in-window signal value; the center
    # attains it, and off-center values stay below
    rng = np.random.default_rng(5)
    sigma2 = 9.0
    w = ThresholdWindow(100.0, 120.0)
    _, b2, _ = gaussian_b123(w, sigma2)
    for m in (100.0, 104.0, 110.0, 117.0, 120.0):
        noise = rng.normal(0.0, 3.0, size=200_000)
        hit = np.mean((m + noise >= w.m1) & (m + noise <= w.m2))
        assert hit <= b2 + 3e-3
    center_hit = np.mean((110.0 + rng.normal(0.0, 3.0, size=200_000) >= w.m1))
    assert center_hit == pytest.approx(1.0, abs=1e-3)  # window is ~3.3 sigma each side


def test_untagged_lower_bound_gaussian_informative():
    sigma2 = 1.0
    w = ThresholdWindow(0.0, 100.0)
    res = untagged_lower_bound_gaussian(0.999, w, sigma2)
    assert not res.degenerate
    # b1 -> 1/2, b2 -> 1 for a wide window, so the bound is ~2 p_l - 1
    assert res.value == pytest.approx(0.998, abs=1e-3)


def test_untagged_lower_bound_gaussian_clamps():
    w = ThresholdWindow(0.0, 100.0)
    assert untagged_lower_bound_gaussian(0.0, w, 1.0).value == 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        PoissonNoise(0.0)
    with pytest.raises(ValueError):
        GaussianNoise(-1.0)


def test_poisson_bound_is_sound_for_known_signals():
    # for explicit signal distributions the bound must sit below the true
    # windowed mass whenever the measured probability is the exact one
    rng = np.random.default_rng(9)
    gamma = 4.0
    w = ThresholdWindow(8.0, 30.0)
    for _ in range(20):
        support = np.arange(40)
        probs = rng.dirichlet(np.ones(40))
        true_mass = probs[8:31].sum()
        # exact window-hit probability of m + Poisson(gamma)
        p_hit = sum(
            p * (stats.poisson.cdf(30 - m, gamma) - stats.poisson.cdf(8 - m - 1, gamma))
            for m, p in zip(support, probs)
        )
        bound = untagged_lower_bound_poisson(p_hit, w, gamma)
        assert bound.value <= true_mass + 1e-10
