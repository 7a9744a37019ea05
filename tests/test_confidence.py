"""Clopper-Pearson interval and the min/max tolerance-interval bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passiveqkd import clopper_pearson, minmax_coverage_lower


def binomial_tail_ge(x, M, p):
    """P(X >= x) for X ~ Binomial(M, p), by exactly rounded direct summation."""
    return math.fsum(math.comb(M, k) * p**k * (1.0 - p) ** (M - k) for k in range(x, M + 1))


def binomial_tail_le(x, M, p):
    return math.fsum(math.comb(M, k) * p**k * (1.0 - p) ** (M - k) for k in range(0, x + 1))


def test_boundary_closed_forms():
    alpha = 0.05
    M = 1000
    assert clopper_pearson(0, M, alpha).lower == 0.0
    assert clopper_pearson(M, M, alpha).upper == 1.0
    # full-success lower bound solves p^M = alpha/2 exactly
    assert clopper_pearson(M, M, alpha).lower == pytest.approx(
        (alpha / 2.0) ** (1.0 / M), abs=1e-12
    )
    assert clopper_pearson(0, M, alpha).upper == pytest.approx(
        1.0 - (alpha / 2.0) ** (1.0 / M), abs=1e-12
    )
    # the auto-minmax pipeline's k' = M case, where p^M = alpha/2 puts the
    # bound a relative 1.5e-7 below 1
    M, alpha = 10**8, 1e-6
    exact = math.exp(math.log(alpha / 2.0) / M)
    assert abs(clopper_pearson(M, M, alpha).lower - exact) <= 2.0 * math.ulp(exact)


def test_bounds_invert_the_binomial_tails():
    # at the returned bounds the corresponding tail equals alpha/2, and
    # moving a bound by 64 ulp either way puts alpha/2 strictly between the
    # two tails, so each bound is accurate relative to its own size
    for M in (1, 2, 5, 12, 20, 30):
        for x in range(M + 1):
            for alpha in (0.1, 0.01, 1e-6, 1e-9):
                half = alpha / 2.0
                res = clopper_pearson(x, M, alpha)
                if x > 0:
                    p, dp = res.lower, 64.0 * math.ulp(res.lower)
                    assert binomial_tail_ge(x, M, p) == pytest.approx(half, abs=1e-10)
                    assert binomial_tail_ge(x, M, p - dp) < half < binomial_tail_ge(x, M, p + dp)
                if x < M:
                    p, dp = res.upper, 64.0 * math.ulp(res.upper)
                    assert binomial_tail_le(x, M, p) == pytest.approx(half, abs=1e-10)
                    assert binomial_tail_le(x, M, p - dp) > half > binomial_tail_le(x, M, p + dp)


def test_large_trial_counts_stay_tractable():
    res = clopper_pearson(99_999_000, 100_000_000, 1e-6)
    assert 0.9999 < res.lower < 0.99999 < res.upper < 1.0


@given(
    M=st.integers(1, 300),
    frac=st.floats(0.0, 1.0),
    alpha=st.floats(0.001, 0.2),
)
@settings(max_examples=60, deadline=None)
def test_interval_brackets_the_point_estimate(M, frac, alpha):
    x = int(round(frac * M))
    res = clopper_pearson(x, M, alpha)
    assert res.lower <= x / M <= res.upper
    assert res.level == pytest.approx(1.0 - alpha)


def test_lower_bound_monotone_in_successes():
    M, alpha = 50, 0.05
    lowers = [clopper_pearson(x, M, alpha).lower for x in range(M + 1)]
    assert all(b >= a for a, b in zip(lowers, lowers[1:]))


def test_coverage_is_conservative():
    # quick version; the acceptance suite runs the full-scale check
    rng = np.random.default_rng(11)
    M, p, alpha = 200, 0.3, 0.05
    xs = rng.binomial(M, p, size=2000)
    covered = sum(
        1 for x in xs if clopper_pearson(int(x), M, alpha).lower <= p <= clopper_pearson(int(x), M, alpha).upper
    )
    se = math.sqrt(alpha * (1.0 - alpha) / 2000)
    assert covered / 2000 >= 1.0 - alpha - 3.0 * se


def test_validation():
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10, 0.05)
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, 0.0)


@pytest.mark.parametrize("M", [2, 3, 10, 1000, 10**8])
@pytest.mark.parametrize("alpha", [0.05, 1e-6])
def test_minmax_coverage_bound_solves_the_beta_tail(M, alpha):
    # coverage U_(M) - U_(1) ~ Beta(M - 1, 2): P(C <= c) = M c^(M-1) - (M-1) c^M
    c = minmax_coverage_lower(M, alpha)
    tail = M * c ** (M - 1) - (M - 1) * c**M
    assert tail == pytest.approx(alpha / 2.0, rel=1e-6)


def test_minmax_coverage_bound_covers_uniform_extremes():
    rng = np.random.default_rng(12)
    M, alpha, n = 50, 0.1, 20_000
    u = rng.random((n, M))
    misses = np.count_nonzero(u.max(axis=1) - u.min(axis=1) < minmax_coverage_lower(M, alpha))
    se = math.sqrt(alpha / 2.0 * (1.0 - alpha / 2.0) / n)
    assert abs(misses / n - alpha / 2.0) < 4.0 * se


def test_minmax_coverage_bound_is_below_clopper_pearson_at_full_count():
    for M in (10, 10**4, 10**8):
        assert minmax_coverage_lower(M, 1e-6) < clopper_pearson(M, M, 1e-6).lower


def test_minmax_coverage_validation():
    with pytest.raises(ValueError, match="at least 2"):
        minmax_coverage_lower(1, 0.05)
    with pytest.raises(ValueError, match="alpha"):
        minmax_coverage_lower(10, 1.0)
