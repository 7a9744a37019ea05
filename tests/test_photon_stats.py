"""Photon-number distributions and Bernoulli thinning."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from passiveqkd import (
    PassiveSchemeParams,
    PhotonNumberDistribution,
    bernoulli_transform,
    multiphoton_probability,
    poisson_pnd,
)
from passiveqkd.photon_stats import _norm_tol, poisson_cut

EPS = np.finfo(float).eps


def brute_force_thin(probs, t):
    """O(n^2) reference implementation straight from the definition."""
    out = np.zeros_like(probs)
    for n, pn in enumerate(probs):
        for m in range(n + 1):
            out[m] += pn * math.comb(n, m) * t**m * (1.0 - t) ** (n - m)
    return out


def truncated_mean(pnd):
    """sum(n * probs[n]) over the stored part of a distribution."""
    return float(np.arange(pnd.probs.size) @ pnd.probs)


def test_poisson_pnd_matches_pmf():
    mu = 3.7
    pnd = poisson_pnd(mu)
    expected = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(10)]
    np.testing.assert_allclose(pnd.probs[:10], expected, rtol=1e-12)
    assert pnd.probs.sum() + pnd.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert truncated_mean(pnd) == pytest.approx(mu, abs=1e-9)


def test_poisson_cut_leaves_a_negligible_tail():
    # the tail past the cut, P(n >= a) with a = cut + 1, is at most
    # p(a) / (1 - mu/(a + 1)), since later terms fall by at least mu/(a + 1),
    # and Stirling's lower bound on a! gives p(a) <= exp(d - a ln(a/mu)) /
    # sqrt(2 pi a) with d = a - mu.  Within one cut the tail grows with mu, so
    # each cut is checked at its largest mean, where mu + 12 sqrt(mu) + 20 = cut.
    # Plain floats throughout: scipy's pdtrc underestimates these tails
    # above mu ~ 1e8 (4e-35 at 1e12, against 1.8e-33)
    worst = 0.0
    for mu in np.logspace(-6, 12, 20001).tolist():
        cut = poisson_cut(mu)
        top = (math.sqrt(cut + 16.0) - 6.0) ** 2
        a, d = cut + 1, cut + 1 - top
        p_a = math.exp(d - a * math.log1p(d / top)) / math.sqrt(2.0 * math.pi * a)
        worst = max(worst, p_a / (1.0 - top / (a + 1)))
    assert 6.6e-33 < worst <= 6.7e-33


def test_thinning_closure_poisson():
    # thinning a Poissonian source is again Poissonian with scaled mean
    mu, t = 8.0, 0.35
    thinned = bernoulli_transform(poisson_pnd(mu), t)
    direct = stats.poisson.pmf(np.arange(thinned.n_max + 1), mu * t)
    np.testing.assert_allclose(thinned.probs, direct, atol=1e-12)


def test_transform_matches_brute_force():
    rng = np.random.default_rng(42)
    probs = rng.random(25)
    probs /= probs.sum()
    pnd = PhotonNumberDistribution(probs)
    for t in (0.1, 0.5, 0.93):
        got = bernoulli_transform(pnd, t)
        np.testing.assert_allclose(got.probs, brute_force_thin(probs, t), atol=1e-13)


def test_transform_matches_binomial_mixture_at_benchmark_size():
    # the monitoring benchmark's explicit source, an equal mixture of
    # Poissons at 0.9 and 1.1 times 1500 (n_max = 2,158), thinned by
    # xi = 0.684, against scipy's binomial pmfs
    mu, t = 1.5e3, 0.9 * 0.76
    low, high = poisson_pnd(0.9 * mu), poisson_pnd(1.1 * mu)
    probs = 0.5 * high.probs
    probs[: low.probs.size] += 0.5 * low.probs
    pnd = PhotonNumberDistribution(probs, 0.5 * (low.tail_mass + high.tail_mass))
    assert pnd.n_max == 2158
    out = bernoulli_transform(pnd, t).probs
    m = np.arange(probs.size)
    expected = np.zeros(probs.size)
    for n in np.flatnonzero(probs):
        expected += probs[n] * stats.binom.pmf(m, n, t)
    assert np.abs(out - expected).max() <= 1e-13
    assert np.all(out >= 0.0)
    assert abs(out.sum() - probs.sum()) <= _norm_tol(probs.size)


def test_transform_edge_cases():
    pnd = PhotonNumberDistribution(np.array([0.2, 0.3, 0.5]))
    full = bernoulli_transform(pnd, 1.0)
    np.testing.assert_array_equal(full.probs, pnd.probs)
    none = bernoulli_transform(pnd, 0.0)
    assert none.probs[0] == pytest.approx(1.0)
    assert none.probs[1:].sum() == 0.0


def test_transform_carries_tail_mass():
    pnd = PhotonNumberDistribution(np.array([0.5, 0.4]), tail_mass=0.1)
    out = bernoulli_transform(pnd, 0.5)
    assert out.tail_mass == pytest.approx(0.1)


@given(
    mu=st.floats(0.1, 20.0),
    t1=st.floats(0.05, 0.95),
    t2=st.floats(0.05, 0.95),
)
@settings(max_examples=30, deadline=None)
def test_transform_composition(mu, t1, t2):
    # thinning by t1 then t2 equals thinning once by t1 * t2
    pnd = poisson_pnd(mu)
    two_step = bernoulli_transform(bernoulli_transform(pnd, t1), t2)
    one_step = bernoulli_transform(pnd, t1 * t2)
    np.testing.assert_allclose(two_step.probs, one_step.probs, atol=1e-10)


@given(t=st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_transform_scales_mean(t):
    pnd = poisson_pnd(5.0)
    thinned = bernoulli_transform(pnd, t)
    assert truncated_mean(thinned) == pytest.approx(t * truncated_mean(pnd), abs=1e-8)


def test_multiphoton_probability_poisson():
    # 1 - e^{-mu}(1 + mu) at mu = 0.1, independently evaluated
    value = multiphoton_probability(poisson_pnd(0.1))
    assert value == pytest.approx(0.004678840160444, abs=1e-12)


def test_multiphoton_probability_counts_tail():
    pnd = PhotonNumberDistribution(np.array([0.6, 0.3]), tail_mass=0.1)
    assert multiphoton_probability(pnd) == pytest.approx(0.1)


def test_distribution_validation():
    with pytest.raises(ValueError, match="non-negative"):
        PhotonNumberDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError, match="not normalized"):
        PhotonNumberDistribution(np.array([0.5, 0.2]))


def test_scheme_params_derived_quantities():
    p = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=1e-6, mu=1e6)
    assert p.xi == pytest.approx(0.684)
    assert p.eta == pytest.approx(1e-7, rel=1e-12)
    assert p.lambda_a == pytest.approx(1e-7 / 0.684, rel=1e-12)


def test_scheme_params_rejects_invalid_attenuator():
    # lam beyond t_B t_D / (1 - t_B) would need gain, not attenuation
    with pytest.raises(ValueError, match="lambda_a"):
        PassiveSchemeParams(t_B=0.3, t_D=0.5, lam=0.9, mu=1.0)


@pytest.mark.parametrize("mu", [1545.0, 5000.0, 1e4, 1e5, 1.462e7])  # the last is Table 2's
def test_poisson_pnd_builds_at_large_means(mu):
    # the normalisation check holds over millions of entries and the stored
    # part keeps the mean
    pnd = poisson_pnd(mu)
    assert truncated_mean(pnd) == pytest.approx(mu, rel=1e-9)


def exact_thin(probs, t):
    """Thinning of float ``probs`` by float ``t``, exactly, as Fractions.

    Both are dyadic rationals, so with t = a/d and p_n = c_n/den the
    polynomial S(z) = sum_n c_n (d - a + a z)^n d^(size-1-n) has integer
    coefficients, built by Horner's rule on Python ints, and out = S/(den
    d^(size-1)).
    """
    a, d = Fraction(t).as_integer_ratio()
    fractions = [Fraction(p) for p in probs]
    den = max(f.denominator for f in fractions)  # all powers of two
    c = [f.numerator * (den // f.denominator) for f in fractions]
    s = [c[-1]]
    for n in range(len(c) - 2, -1, -1):
        shifted = [0] + [a * x for x in s]
        s = [(d - a) * x for x in s] + [0]
        s = [x + y for x, y in zip(s, shifted)]
        s[0] += c[n] * d ** (len(c) - 1 - n)
    scale = den * d ** (len(c) - 1)
    return [Fraction(x, scale) for x in s]


@pytest.mark.parametrize("size", [1, 2, 143, 144, 145, 139])  # B^2 - 1, B^2, B^2 + 1 at B = 12; prime
@pytest.mark.parametrize("t", [0.0, 1.0 / 3.0, 0.684, 1.0])
@pytest.mark.parametrize("scale", [1.0, 2.0**-1060], ids=["normal", "subnormal"])
def test_transform_is_within_its_stated_bound_of_the_exact_thinning(size, t, scale):
    # the docstring's bound: 3 size eps relative per entry, plus 2 size^2
    # 2^-1074 absolute from underflow (the subnormal case, its mass all
    # in the tail); random rational probabilities, some exactly 0
    rng = np.random.default_rng(size)
    weights = rng.integers(0, 1000, size) * (rng.random(size) < 0.9)
    weights[rng.integers(size)] += 1
    probs = weights / weights.sum() * scale
    pnd = PhotonNumberDistribution(probs, tail_mass=0.0 if scale == 1.0 else 1.0)
    got = bernoulli_transform(pnd, t).probs
    assert got.size == size
    rel, absolute = 3 * size * Fraction(EPS), 2 * size**2 * Fraction(2) ** -1074
    for m, (g, want) in enumerate(zip(got.tolist(), exact_thin(probs, t))):
        assert abs(Fraction(g) - want) <= rel * want + absolute, (m, g, float(want))
    if t == 1.0:
        np.testing.assert_array_equal(got, probs)
