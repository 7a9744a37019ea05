"""Monte Carlo monitoring runs: determinism, statistics, pipeline wiring."""

import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from passiveqkd import (
    ExplicitSource,
    GaussianNoise,
    PassiveSchemeParams,
    PhotonNumberDistribution,
    PoissonNoise,
    PoissonianSource,
    RunConfig,
    ThresholdWindow,
    clopper_pearson,
    montecarlo,
    poisson_pnd,
    run,
    run_pipeline,
)
from passiveqkd._special import special
from passiveqkd.photon_stats import poisson_cut

SCHEME = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1000.0)


def make_config(**overrides):
    base = dict(
        M=200_000,
        seed=12345,
        source=PoissonianSource(1000.0),
        scheme=SCHEME,
        noise=None,
        window=ThresholdWindow(600.0, 760.0),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_run_is_deterministic():
    a = run(make_config())
    b = run(make_config())
    assert a == b


def test_run_independent_of_thread_count():
    # blocks own their RNG streams, so any parallel split reduces identically
    config = make_config(M=3_000_000)
    single = run(config, threads=1)
    assert run(config, threads=4) == single
    assert run(config, threads=7) == single


def test_explicit_run_independent_of_thread_count():
    # an explicit source's run is one exact draw, which threads never split
    config = make_config(
        M=2 * 2**20 + 12_345,
        source=ExplicitSource(poisson_pnd(1000.0)),
        noise=GaussianNoise(25.0),
    )
    single = run(config, threads=1)
    assert run(config, threads=4) == single
    assert run(config, threads=7) == single


def test_run_changes_with_seed():
    assert run(make_config()) != run(make_config(seed=54321))


def test_in_window_count_is_plausible():
    # mean monitor count is mu * xi = 684, sd ~ 26; the window covers ~3 sd
    res = run(make_config())
    assert 0.99 < res.k_prime / 200_000 <= 1.0
    tight = run(make_config(window=ThresholdWindow(683.0, 685.0)))
    assert tight.k_prime < res.k_prime


def test_auto_window_counts_everything():
    res = run(make_config(window=None))
    assert res.k_prime == 200_000
    assert res.effective_window.m1 == res.observed_min
    assert res.effective_window.m2 == res.observed_max


def test_poissonian_shortcut_matches_explicit_source():
    # the Poisson-thinning shortcut and explicit per-photon sampling must
    # agree in distribution (same mean and spread, different streams)
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=0.5, mu=50.0)
    shortcut = run(
        RunConfig(
            M=400_000,
            seed=1,
            source=PoissonianSource(50.0),
            scheme=scheme,
            window=ThresholdWindow(30.0, 38.0),
        )
    )
    explicit = run(
        RunConfig(
            M=400_000,
            seed=1,
            source=ExplicitSource(poisson_pnd(50.0)),
            scheme=scheme,
            window=ThresholdWindow(30.0, 38.0),
        )
    )
    p1 = shortcut.k_prime / 400_000
    p2 = explicit.k_prime / 400_000
    assert p1 == pytest.approx(p2, abs=0.005)


def test_noise_widens_observed_range():
    clean = run(make_config(window=None))
    noisy = run(make_config(window=None, noise=GaussianNoise(400.0)))
    assert noisy.observed_max - noisy.observed_min > clean.observed_max - clean.observed_min


def test_gaussian_noise_can_go_negative_overall():
    # tiny signal, huge noise: unclamped m' must reach below zero
    scheme = PassiveSchemeParams(t_B=0.5, t_D=0.5, lam=0.1, mu=1.0)
    res = run(
        RunConfig(
            M=100_000,
            seed=3,
            source=PoissonianSource(1.0),
            scheme=scheme,
            noise=GaussianNoise(100.0),
            window=None,
        )
    )
    assert res.observed_min < 0.0


def test_pipeline_noiseless_equals_clopper_pearson():
    config = make_config()
    res = run(config)
    pipe = run_pipeline(config, alpha=1e-6)
    expected = clopper_pearson(res.k_prime, config.M, 1e-6).lower
    assert pipe.untagged_lower == pytest.approx(expected, abs=1e-15)
    assert pipe.k_prime == res.k_prime
    assert not pipe.degenerate


def test_pipeline_poisson_noise_integerizes_window():
    config = make_config(
        noise=PoissonNoise(5.0), window=ThresholdWindow(600.5, 770.2)
    )
    pipe = run_pipeline(config, alpha=1e-6)
    assert pipe.effective_window.m1 == 600.0
    assert pipe.effective_window.m2 == 771.0


def test_pipeline_gaussian_small_noise_is_informative():
    config = make_config(
        M=1_000_000, noise=GaussianNoise(4.0), window=ThresholdWindow(550.0, 820.0)
    )
    pipe = run_pipeline(config, alpha=1e-6)
    assert not pipe.degenerate
    assert pipe.untagged_lower > 0.99


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(M=0)
    with pytest.raises(ValueError, match="^M must be at least 2 under auto-minmax"):
        make_config(M=1, window=None)
    with pytest.raises(ValueError):
        make_config(seed=-1)
    with pytest.raises(ValueError):
        PoissonianSource(0.0)


@pytest.mark.parametrize(
    "field, value",
    [("M", 2.5), ("M", 1000.0), ("M", True), ("M", "1000"), ("seed", 1.5), ("seed", 7.0),
     ("seed", False)],
)
def test_config_rejects_non_integer_count_or_seed(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        make_config(**{field: value})


def test_config_takes_numpy_integers_as_int():
    config = make_config(M=np.int64(1000), seed=np.uint64(2**63 + 5))
    assert type(config.M) is int and type(config.seed) is int
    assert config == make_config(M=1000, seed=2**63 + 5)


def test_explicit_source_rejects_heavy_tail():
    # Poisson(50) cut at 60 leaves 7.2% in the tail
    n = np.arange(61)
    pnd = PhotonNumberDistribution(stats.poisson.pmf(n, 50.0), stats.poisson.sf(60, 50.0))
    with pytest.raises(ValueError, match="tail"):
        ExplicitSource(pnd)


ORACLE_SCHEME = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=0.5, mu=40.0)
ORACLE_WINDOW = ThresholdWindow(24.0, 32.0)  # about half of m' (mean 27.4 + noise)
SIGNIFICANCE = 1e-3  # per comparison; the seeds are fixed, so the verdict is too


def _exact(config):
    r = run(config)
    return r.k_prime, r.observed_min, r.observed_max


def _draws(source, noise, window, M, n, seed0, draw=_exact):
    """(k', min, max) of n runs on consecutive seeds, one column each."""
    runs = [
        draw(RunConfig(M=M, seed=seed0 + i, source=source, scheme=ORACLE_SCHEME,
                       noise=noise, window=window))
        for i in range(n)
    ]
    return np.array(runs, dtype=float).T


def _same_distribution_p(x, y) -> float:
    """Two-sample p-value: chi-square on the counts of a small discrete
    support, Kolmogorov-Smirnov otherwise (conservative under ties)."""
    values = np.union1d(x, y)
    if values.size <= 10:
        table = [[np.count_nonzero(s == v) for v in values] for s in (x, y)]
        return 1.0 if values.size == 1 else stats.chi2_contingency(table).pvalue
    return stats.ks_2samp(x, y).pvalue


def _oracle_p_values(exact, oracle, noise, M, auto, per_pulse, seed0):
    """p-values of min, max, their range and k' of the exact draw of
    ``exact`` against per-pulse runs of ``oracle``: the extremes under
    auto-minmax (or the fixed window where ties make auto-minmax
    undefined), k' in the fixed window."""
    n = 500
    window = None if auto else ORACLE_WINDOW
    _, lo_e, hi_e = _draws(exact, noise, window, M, n, seed0)
    _, lo_o, hi_o = _draws(oracle, noise, window, M, n, seed0 + 10_000, per_pulse)
    k_e, _, _ = _draws(exact, noise, ORACLE_WINDOW, M, n, seed0 + 20_000)
    k_o, _, _ = _draws(oracle, noise, ORACLE_WINDOW, M, n, seed0 + 30_000, per_pulse)
    if M == 1:
        assert np.array_equal(lo_e, hi_e)
    return {
        "min": _same_distribution_p(lo_e, lo_o),
        "max": _same_distribution_p(hi_e, hi_o),
        "range": _same_distribution_p(hi_e - lo_e, hi_o - lo_o),  # the joint law
        "k'": _same_distribution_p(k_e, k_o),
    }


@pytest.mark.parametrize(
    "noise, M, auto",
    [
        pytest.param(None, 2000, True, id="noiseless"),
        pytest.param(PoissonNoise(3.0), 2000, True, id="poisson"),
        pytest.param(GaussianNoise(4.0), 2000, True, id="gaussian"),
        pytest.param(GaussianNoise(4.0), 1, False, id="gaussian-M1"),
        pytest.param(PoissonNoise(3.0), 2, False, id="poisson-M2"),
    ],
)
def test_exact_draw_matches_per_pulse_oracle(noise, M, auto, per_pulse):
    # a Poissonian source against per-pulse sampling of the same
    # photon-number distribution
    source = PoissonianSource(40.0)
    oracle = ExplicitSource(poisson_pnd(40.0))
    p_values = _oracle_p_values(source, oracle, noise, M, auto, per_pulse, seed0=10_000)
    assert min(p_values.values()) > SIGNIFICANCE, p_values


def _bimodal_pnd(mu_low: float, mu_high: float) -> PhotonNumberDistribution:
    """Equal mixture of Poisson(mu_low) and Poisson(mu_high), mu_low < mu_high."""
    low, high = poisson_pnd(mu_low), poisson_pnd(mu_high)
    probs = 0.5 * high.probs
    probs[: low.probs.size] += 0.5 * low.probs
    return PhotonNumberDistribution(probs, 0.5 * (low.tail_mass + high.tail_mass))


@pytest.mark.parametrize(
    "M, auto", [pytest.param(2000, True, id="auto-M2000"),
                pytest.param(1, False, id="M1"), pytest.param(2, False, id="M2")])
@pytest.mark.parametrize(
    "noise", [pytest.param(None, id="noiseless"), pytest.param(PoissonNoise(3.0), id="poisson"),
              pytest.param(GaussianNoise(4.0), id="gaussian")])
def test_explicit_exact_draw_matches_per_pulse_oracle(noise, M, auto, per_pulse):
    # a non-Poisson source (thinned means 20.5 and 34.2, so m' is bimodal)
    # drawn exactly through its thinned distribution, against per-pulse runs
    source = ExplicitSource(_bimodal_pnd(30.0, 50.0))
    p_values = _oracle_p_values(source, source, noise, M, auto, per_pulse, seed0=110_000)
    assert min(p_values.values()) > SIGNIFICANCE, p_values


def test_equal_explicit_sources_thin_once(monkeypatch):
    # the thinned law is cached by the distribution's content, so a second,
    # separately built but equal source reuses it and draws the same run
    calls = []
    real = montecarlo.bernoulli_transform
    monkeypatch.setattr(
        montecarlo, "bernoulli_transform", lambda *args: calls.append(args) or real(*args)
    )
    montecarlo._thinned.cache_clear()
    runs = [
        _exact(RunConfig(M=2000, seed=7, source=ExplicitSource(_bimodal_pnd(30.0, 50.0)),
                         scheme=ORACLE_SCHEME, noise=PoissonNoise(3.0), window=ORACLE_WINDOW))
        for _ in range(2)
    ]
    assert len(calls) == 1
    assert runs[0] == runs[1]


def test_exact_fixed_window_count_matches_hit_probability():
    # k' of the exact draw is Binomial(M, P_hit) overall: mean and spread
    # over seeds against the Poisson window mass
    M, n = 10_000, 400
    k, _, _ = _draws(PoissonianSource(40.0), None, ORACLE_WINDOW, M, n, seed0=50_000)
    rate = ORACLE_SCHEME.mu * ORACLE_SCHEME.xi
    p_hit = stats.poisson.cdf(32, rate) - stats.poisson.cdf(23, rate)
    sd = np.sqrt(M * p_hit * (1.0 - p_hit))
    assert abs(k.mean() - M * p_hit) < 4.0 * sd / np.sqrt(n)
    assert 0.85 < k.std() / sd < 1.15


def test_auto_minmax_bound_is_sound_without_noise():
    # criterion 6's check on the noiseless pipeline: the window comes from
    # the same pulses it counts, so its reported hit probability must stay
    # below the true window mass in all but alpha of the runs
    mean_m = 1e4
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=mean_m / 0.684)
    alpha, M, n_runs = 0.05, 10_000, 2000
    violations = 0
    for i in range(n_runs):
        config = RunConfig(M=M, seed=5_000_000 + i, source=PoissonianSource(scheme.mu),
                           scheme=scheme, window=None)
        pipe = run_pipeline(config, alpha)
        w = pipe.effective_window
        true_mass = stats.poisson.cdf(w.m2, mean_m) - stats.poisson.cdf(w.m1 - 1.0, mean_m)
        violations += pipe.untagged_lower > true_mass + 1e-12
    assert violations <= alpha * n_runs, f"{violations} of {n_runs} runs overstate the mass"


# --- the quantile contract of one reading's law --------------------------

EPS = np.finfo(float).eps


def _law(source, noise, scheme=ORACLE_SCHEME):
    """The law of one monitor reading; the window is never read."""
    return montecarlo._readings(RunConfig(M=2, seed=0, source=source, scheme=scheme,
                                          noise=noise, window=ORACLE_WINDOW))


def _poissonian(rng, low, high):
    """A Poissonian source whose thinned mean mu xi is log-uniform in [low, high]."""
    rate = 10.0 ** rng.uniform(math.log10(low), math.log10(high))
    scheme = replace(ORACLE_SCHEME, mu=rate / ORACLE_SCHEME.xi)
    return PoissonianSource(scheme.mu), scheme


def _tails(rng):
    """Tail masses from 0 to within 1e-12 of 1, three of them random."""
    return (0.0, 1e-12, *rng.random(3), 1.0 - 1e-12, 1.0 - 1e-13)


def _integer_laws(rng):
    """Readings of a small explicit source (point masses included), without
    noise and with Poisson noise at gamma <= 50, and of a Poissonian source
    with mu xi in [1e-3, 1e12], without noise and with Poisson noise."""
    size, keep = rng.integers(1, 40), rng.random()
    probs = np.where(rng.random(size) < keep, rng.random(size), 0.0)
    probs[rng.integers(size)] += 1.0
    explicit = ExplicitSource(PhotonNumberDistribution(probs / probs.sum()))
    source, scheme = _poissonian(rng, 1e-3, 1e12)
    return [
        _law(explicit, None),
        _law(explicit, PoissonNoise(rng.uniform(1e-3, 50.0))),
        _law(source, None, scheme),
        _law(source, PoissonNoise(10.0 ** rng.uniform(-3, 12)), scheme),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_integer_quantiles_are_the_least_counts_past_their_tails(seed):
    # lower_quantile(a) is the least k with P(m' <= k) >= a, upper_quantile(b)
    # the least k with P(m' > k) <= b; b = 0 asks for the count where the
    # computed upper tail first reads 0, which the bracket must still hold
    rng = np.random.default_rng(seed)
    for law in _integer_laws(rng):
        for p in (*_tails(rng), 1e-300, 5e-324):
            k = law.lower_quantile(p)
            assert k == int(k) >= 0
            assert law.below(k + 1) >= p and (k == 0 or law.below(k) < p), (law.mean, p, k)
            k = law.upper_quantile(p)
            assert k == int(k) >= 0
            assert law.above(k) <= p and (k == 0 or law.above(k - 1) > p), (law.mean, p, k)


@pytest.mark.parametrize("seed", range(8))
def test_gaussian_quantiles_solve_their_tails_within_the_solver_tolerance(seed):
    # the solver stops within 4 eps (|x| + scale) of the root, so the mass
    # changes sides across that distance.  mu xi stops at 1e7: the law's
    # weight array grows as 24 sqrt(mu xi)
    rng = np.random.default_rng(seed)
    source, scheme = _poissonian(rng, 1e-3, 1e7)
    law = _law(source, GaussianNoise(10.0 ** rng.uniform(-3, 8)), scheme)
    assert law.lower_quantile(0.0) == -math.inf and law.below(-math.inf) == 0.0
    assert law.upper_quantile(0.0) == math.inf and law.above(math.inf) == 0.0
    for p in _tails(rng)[1:]:
        x, y = law.lower_quantile(p), law.upper_quantile(p)
        tx, ty = (4.0 * EPS * (abs(v) + law.scale) for v in (x, y))
        assert law.below(x - tx) <= p <= law.below(x + tx), (law.mean, p, x)
        assert law.above(y + ty) <= p <= law.above(y - ty), (law.mean, p, y)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(0, 20), min_size=1, max_size=30).filter(any),
       offset=st.integers(0, 10**6),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(weights=[0, 0, 7], offset=0, p=0.5)  # a point mass: sd = 0
@example(weights=[1, 1], offset=10**6, p=5e-324)
def test_cantelli_bracket_holds_the_quantile_of_any_pmf(weights, offset, p):
    # exact: the pmf's moments and tails in fractions, p as its own float
    total = sum(weights)
    pmf = [(k, Fraction(w, total)) for k, w in enumerate(weights, offset)]
    mean = sum(k * q for k, q in pmf)
    sd = math.sqrt(sum((k - mean) ** 2 * q for k, q in pmf))
    lo, hi = montecarlo._bracket(float(mean), sd, p)
    assert math.isfinite(lo) and math.isfinite(hi)

    def mass(keep):
        return sum(q for k, q in pmf if keep(k))

    assert mass(lambda k: k <= lo) < Fraction(p) < mass(lambda k: k < hi)
    # the bracket of -X, whose ends negated and swapped serve the upper tail
    lo, hi = montecarlo._bracket(-float(mean), sd, p)
    assert mass(lambda k: k >= -lo) < Fraction(p) < mass(lambda k: k > -hi)


# --- the binned Gaussian law ------------------------------------------------

def _binned(law):
    """Whether a Gaussian reading law sums over bins of counts (h > 1)."""
    return len(law._below[1]) > 1


def _reference_poisson_weights(rate):
    """The Gaussian law's counts for a Poisson(rate) count, from max(0,
    floor(rate - 12 sd)) to ``poisson_cut(rate)``, and the normalised pmf at
    them by a plain ratio product outward from the mode: w(m + 1) = w(m)
    rate/(m + 1) and w(m - 1) = w(m) m/rate."""
    first = max(0, math.floor(rate - 12.0 * math.sqrt(rate)))
    counts = np.arange(first, poisson_cut(rate) + 1.0)
    mode = math.floor(rate) - first
    up = np.cumprod(rate / counts[mode + 1:])
    down = np.cumprod(counts[mode:0:-1] / rate)[::-1]
    weights = np.concatenate([down, [1.0], up])
    return counts, weights / math.fsum(weights)


def _direct_sums(law, counts, weights, x):
    """P(m' <= x), P(m' > x) and the density at x summed over every count."""
    z = (x - counts) / law.sigma
    return (math.fsum(weights * special.ndtr(z)), math.fsum(weights * special.ndtr(-z)),
            math.fsum(weights * np.exp(-0.5 * z * z)) / (law.sigma * math.sqrt(2.0 * math.pi)))


def _assert_matches_direct_sums(law, counts, weights, xs):
    # the truncation bound is 5e-19 of each bin's term; rounding z = (x -
    # c)/sigma moves Phi(z) and phi(z) by up to (1 + z^2) eps relative, in
    # the direct sum and the binned one alike
    for x in xs:
        z_max = np.abs(x - counts).max() / law.sigma
        tol = 5e-19 + 8.0 * EPS * (1.0 + z_max**2)
        got = (law.below(x), law.above(x), law._mass_density(x, *law._below)[1])
        for g, want in zip(got, _direct_sums(law, counts, weights, x)):
            assert abs(g - want) <= tol * want, (law.sigma, x, g, want)


@pytest.mark.parametrize("seed", range(6))
def test_binned_gaussian_law_matches_the_direct_sum_over_every_count(seed):
    # sigma^2 in [1e9, 1e12] puts every case on the binned path (h = 31 to
    # 1000, capped at the support), with mu xi in [1e3, 1e8]; x spans both
    # tails out to 30 sd
    rng = np.random.default_rng(1000 + seed)
    source, scheme = _poissonian(rng, 1e3, 1e8)
    law = _law(source, GaussianNoise(10.0 ** rng.uniform(9, 12)), scheme)
    assert _binned(law)
    counts, weights = _reference_poisson_weights(source.mu * scheme.xi)
    u = (-30.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0, 30.0, *rng.uniform(-30, 30, 3))
    _assert_matches_direct_sums(law, counts, weights, [law.mean + law.scale * v for v in u])


def _exact_ratios(rate, mode, picks):
    """{m: w(m)/w(mode)} of Poisson(rate) at the counts ``picks``: the
    product of rate/k over the counts k between, in 40-digit decimal."""
    out, lo, hi = {}, min(picks), max(picks)
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(rate)  # the float's exact value
        for step in (1, -1):
            ratio, m = Decimal(1), mode
            while lo <= m <= hi:
                if m in picks:
                    out[m] = ratio
                ratio = ratio * r / (m + 1) if step == 1 else ratio * m / r
                m += step
    return out


def test_poisson_weights_are_exact_ratio_products_within_their_stated_bound():
    # mode 0 (rates below 1), lower edge 0 (rates near 144), an integer rate
    # (two modes) and log-uniform rates to 1e7: at about 50 counts each,
    # w(m)/w(mode) against its exact product of rate/k, within the stated
    # (3d + 4) eps/2 plus eps for the division here.  The test's own
    # reference weights are held to the same bound, so the direct-sum oracle
    # above does not rest on the code it checks
    rng = np.random.default_rng(29)
    for rate in (0.3, 0.9, 143.2, 144.0, 144.6, 1e5, 1e7, *10.0 ** rng.uniform(0, 7, 4)):
        counts, reference = _reference_poisson_weights(rate)
        first, size, mode = int(counts[0]), counts.size, math.floor(rate)
        picks = {first, mode, min(mode + 1, int(counts[-1])), int(counts[-1]),
                 *np.linspace(first, counts[-1], 40).astype(int).tolist(),
                 *rng.integers(first, counts[-1] + 1, 6).tolist()}
        exact = _exact_ratios(rate, mode, picks)
        built = []
        for sigma2 in (1.0, 1e9, 1e14):  # h = 1, bins of min(31, n) and of min(n, 10^4)
            at, weights = montecarlo._poisson_weights(rate, sigma2)
            assert at == first and weights.size >= size
            weights = weights.T.ravel()
            assert not weights[size:].any()
            built.append(weights[:size])
        for weights in (*built, reference):
            assert abs(math.fsum(weights) - 1.0) <= size * EPS, rate
            for m, want in exact.items():
                d = abs(m - mode)
                got = Decimal(weights[m - first] / weights[mode - first])
                assert abs(got / want - 1) <= (3 * d + 6) * EPS / 2, (rate, m, got, want)


@pytest.mark.parametrize("sigma2", [1e3, 1e9, 1e12])
def test_mass_only_gaussian_tails_match_the_mass_and_density_sum_bit_for_bit(sigma2):
    # below and above skip the density, and with it nothing of the mass
    law = _law(PoissonianSource(1e7 / ORACLE_SCHEME.xi), GaussianNoise(sigma2))
    assert _binned(law) == (sigma2 > 1e3)
    for u in (-math.inf, -40.0, -10.0, -3.0, -0.5, 0.0, 0.5, 3.0, 10.0, 40.0, math.inf):
        x = law.mean + law.scale * u
        assert law.below(x).hex() == law._mass_density(x, *law._below)[0].hex(), x
        assert law.above(x).hex() == law._mass_density(-x, *law._above)[0].hex(), x


@pytest.mark.parametrize("seed", range(6))
def test_binned_gaussian_quantiles_solve_their_tails_within_the_solver_tolerance(seed):
    # the solver's contract of the h = 1 test above, at sigma^2 in [1e9, 1e12]
    rng = np.random.default_rng(2000 + seed)
    source, scheme = _poissonian(rng, 1e3, 1e8)
    law = _law(source, GaussianNoise(10.0 ** rng.uniform(9, 12)), scheme)
    assert _binned(law)
    assert law.lower_quantile(0.0) == -math.inf and law.upper_quantile(0.0) == math.inf
    for p in _tails(rng)[1:]:
        x, y = law.lower_quantile(p), law.upper_quantile(p)
        tx, ty = (4.0 * EPS * (abs(v) + law.scale) for v in (x, y))
        assert law.below(x - tx) <= p <= law.below(x + tx), (law.mean, p, x)
        assert law.above(y + ty) <= p <= law.above(y - ty), (law.mean, p, y)


@pytest.mark.parametrize("sigma2", [1e3, 1e9, 1e12])
def test_gaussian_law_at_infinite_and_huge_readings_is_exact_and_never_nan(sigma2):
    # past |z| = 38.5 phi is 0 while z He_j overflows, so no correction may
    # be formed there; the tails at +-inf stay exactly 0
    law = _law(PoissonianSource(1e7 / ORACLE_SCHEME.xi), GaussianNoise(sigma2))
    assert _binned(law) == (sigma2 > 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert law.below(-math.inf) == 0.0 and law.above(math.inf) == 0.0
        assert law.below(-1e300) == 0.0 and law.above(1e300) == 0.0
        for total in (law.below(math.inf), law.above(-math.inf),
                      law.below(1e300), law.above(-1e300)):
            assert abs(total - 1.0) <= 1e-12
        for x in (-math.inf, -1e300, 1e300, math.inf):
            assert law._mass_density(x, *law._below)[1] == 0.0
        # deep tails send the bisection ~1e160 sd out
        for p in (5e-324, 1e-300):
            assert math.isfinite(law.lower_quantile(p)) and math.isfinite(law.upper_quantile(p))


def test_explicit_gaussian_run_on_the_binned_path_matches_its_oracles(per_pulse):
    # sigma^2 = 1e9: bins of 31 counts over the bimodal source's 155; the
    # law against the direct sum over every count, and the draw against
    # per-pulse runs
    source, noise = ExplicitSource(_bimodal_pnd(30.0, 50.0)), GaussianNoise(1e9)
    law = _law(source, noise)
    assert _binned(law)
    pnd = source.pnd
    counts, weights, _, _ = montecarlo._thinned(pnd.probs.tobytes(), pnd.tail_mass,
                                                ORACLE_SCHEME.xi)
    _assert_matches_direct_sums(law, counts, weights,
                                [law.mean + law.scale * v for v in (-20.0, -5.0, 0.0, 5.0, 20.0)])
    p_values = _oracle_p_values(source, source, noise, 2000, True, per_pulse, seed0=210_000)
    assert min(p_values.values()) > SIGNIFICANCE, p_values


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(-5, 10**6), width=st.integers(1, 10**6), frac=st.floats(0.0, 0.999),
       data=st.data())
def test_least_probes_only_inside_its_bracket_and_finds_the_least_count(lo, width, frac, data):
    # any guess, NaN and infinities included; the gallop from it stays
    # strictly inside (floor(lo), ceil(hi)) and costs about 2 log2 of the
    # guess's distance from the answer
    hi = lo + width
    threshold = data.draw(st.integers(max(0, lo + 1), max(0, hi)))
    guess = data.draw(st.one_of(st.floats(), st.integers(lo - 10, hi + 10).map(float)))
    probes = []

    def pred(k):
        probes.append(k)
        return k >= threshold

    assert montecarlo._least(pred, lo + frac, hi - frac, guess) == threshold
    lo_int, hi_int = max(-1, lo), max(0, hi)
    assert all(lo_int < k < hi_int for k in probes), (probes, lo_int, hi_int)
    distance = abs(threshold - min(hi_int - 1, max(lo_int + 1, guess)))  # from the clipped guess
    assert len(probes) <= 2.0 * math.log2(distance + 1.0) + 3.0, probes
