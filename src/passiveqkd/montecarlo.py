"""Monte Carlo simulation of the two-threshold monitoring experiment.

A run of M pulses reports three numbers: the in-window count k', and the
smallest and largest monitor reading m' (the thresholds under auto-minmax).

**Poissonian sources: one exact draw per run.**  Thinning a Poissonian
source by xi is again Poissonian, so m' has a known distribution F:
Poisson(mu xi), Poisson(mu xi + gamma) with dark counts, or Poisson(mu xi)
convolved with N(0, sigma^2).  The run never simulates the pulses:

* *Order statistics of uniforms.*  The readings are m'_i = F^-1(U_i) for
  iid uniforms U_i, where F^-1(u) = inf{x : F(x) >= u} is the generalized
  inverse.  The smallest of M uniforms is A = 1 - V1^(1/M), and given A the
  other M - 1 are uniform on (A, 1), so the largest is 1 - B with
  B = (1 - A)(1 - V2^(1/(M - 1))), for independent uniforms V1, V2.  B is
  kept as a tail mass and 1 - B is never formed.
* *Monotone inverse.*  F^-1 is non-decreasing, so the extremes of the m'_i
  are the images of the extremes of the U_i: min m' = F^-1(A) and max m' =
  S^-1(B), with S = 1 - F the upper tail.  This holds on a discrete support
  too, ties included.  Poisson quantiles are integer searches on ``pdtr``
  and ``pdtrc``; Gaussian ones solve sum_m Pois(m) Phi((x - m)/sigma) = A
  (or its upper-tail twin = B) by a safeguarded Newton step on the log tail.
* *Conditional uniformity.*  Given A and B, the other M - 2 uniforms are iid
  on (A, 1 - B), and m' lies in the window [m1, m2] exactly when U lies in
  (F(m1-), F(m2)].  So k' is the two extremes' own indicators plus
  Binomial(M - 2, |(A, 1 - B) & (F(m1-), F(m2)]| / (1 - A - B)).  Under
  auto-minmax the window is [min, max] and that is k' = M.

**Explicit sources: per pulse.**  A general photon-number distribution is
sampled pulse by pulse.  Trials are split into fixed-size blocks and every
block gets its own counter-based Philox stream keyed by (seed, block
index), so the outcome is byte-identical however many workers process the
blocks.  It is also the oracle the exact draw is tested against.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtriv, gammaln, ndtr, ndtri, pdtr, pdtrc, pdtrik, xlogy

from .confidence import clopper_pearson, minmax_coverage_lower
from .noise_bounds import (
    GaussianNoise,
    NoiseModel,
    PoissonNoise,
    ThresholdWindow,
    poisson_window_mass,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)
from .photon_stats import PassiveSchemeParams, PhotonNumberDistribution

__all__ = [
    "PoissonianSource",
    "ExplicitSource",
    "RunConfig",
    "RunResult",
    "PipelineResult",
    "run",
    "run_pipeline",
]

_BLOCK = 1 << 20
_KEY_MASK = (1 << 64) - 1
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PoissonianSource:
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class ExplicitSource:
    pnd: PhotonNumberDistribution

    def __post_init__(self):
        if self.pnd.tail_mass > 1e-9:
            raise ValueError("explicit source tail mass too large to sample from")


@dataclass(frozen=True)
class RunConfig:
    M: int
    seed: int
    source: PoissonianSource | ExplicitSource
    scheme: PassiveSchemeParams
    noise: NoiseModel = None
    window: ThresholdWindow | None = None  # None means auto-minmax

    def __post_init__(self):
        for name in ("M", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64)")


@dataclass(frozen=True)
class RunResult:
    k_prime: int
    observed_min: float
    observed_max: float
    effective_window: ThresholdWindow


@dataclass(frozen=True)
class PipelineResult:
    untagged_lower: float
    effective_window: ThresholdWindow
    k_prime: int
    degenerate: bool = False


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed & _KEY_MASK) << 64) | block))


def _least(pred, start: float) -> int:
    """Smallest integer k >= 0 with pred(k), for pred false then true in k.

    Gallops from ``start`` (any guess, NaN included) to a bracket, then
    bisects it.
    """
    hi = max(0, math.ceil(start)) if math.isfinite(start) else 0
    lo, step = hi - 1, 1
    while not pred(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while lo >= 0 and pred(lo):
        hi, lo, step = lo, max(-1, lo - step), 2 * step
    return lo + 1 + bisect_left(range(lo + 1, hi), True, key=pred)


@dataclass(frozen=True)
class _PoissonReadings:
    """m' ~ Poisson(rate): no noise, or dark counts added to the signal."""

    rate: float

    def below(self, x: float) -> float:  # P(m' < x)
        return float(poisson_window_mass(0, math.ceil(x) - 1, self.rate))

    def above(self, x: float) -> float:  # P(m' > x)
        k = math.floor(x)
        return float(pdtrc(k, self.rate)) if k >= 0 else 1.0

    def lower_quantile(self, a: float) -> float:  # inf{m : P(m' <= m) >= a}
        return float(_least(lambda k: pdtr(k, self.rate) >= a, pdtrik(a, self.rate)))

    def upper_quantile(self, b: float) -> float:  # inf{m : P(m' > m) <= b}
        # pdtrc(k, rate) is the chi-square cdf at 2 rate with 2 (k + 1) dof
        start = 0.5 * chdtriv(b, 2.0 * self.rate) - 1.0
        return float(_least(lambda k: pdtrc(k, self.rate) <= b, start))


class _GaussianReadings:
    """m' = m + N(0, sigma^2) with m ~ Poisson(rate), over rate -+ 12 sd."""

    def __init__(self, rate: float, sigma2: float):
        spread = 12.0 * math.sqrt(rate)
        m = np.arange(max(0, math.floor(rate - spread)), math.ceil(rate + spread + 20.0) + 1.0)
        w = np.exp(xlogy(m, rate) - gammaln(m + 1.0) - rate)
        self.counts, self.weights = m, w / w.sum()
        self.sigma, self.scale = math.sqrt(sigma2), math.sqrt(rate + sigma2)
        self.rate = rate

    def below(self, x: float) -> float:
        return self._average(ndtr((x - self.counts) / self.sigma))

    def above(self, x: float) -> float:
        return self._average(ndtr((self.counts - x) / self.sigma))

    def _average(self, values: np.ndarray) -> float:
        """sum_i w_i values_i, overwriting ``values``.

        Not ``weights @ values``: a dot product this long goes to the
        multithreaded BLAS, whose worker thread then spins on another core
        after every call.
        """
        values *= self.weights
        return float(values.sum())

    def lower_quantile(self, a: float) -> float:
        return self._solve(a, self.counts, self.rate)

    def upper_quantile(self, b: float) -> float:
        # P(m' > x) = P(-m' < -x), and -m' is the same mixture around -m
        return -self._solve(b, -self.counts, -self.rate)

    def _solve(self, p: float, centers: np.ndarray, mean: float) -> float:
        """x with sum_i w_i Phi((x - c_i)/sigma) = p: Newton on the log mass.

        Each step keeps a bracket [lo, hi] around the root; a Newton step
        that leaves it is replaced by doubling out of an open bracket or by
        bisecting a closed one.  The log mass is near-concave (the mixture
        of a log-concave pmf with a Gaussian), so from the normal
        approximation Newton needs a few steps.
        """
        if p <= 0.0:
            return -math.inf
        log_p, sigma = math.log(p), self.sigma
        x = mean + self.scale * float(ndtri(p))
        tol = 4.0 * np.finfo(float).eps * (abs(x) + self.scale)
        lo, hi, reach = -math.inf, math.inf, self.scale
        for _ in range(200):
            z = (x - centers) / sigma
            mass = self._average(ndtr(z))
            if mass < p:
                lo = x
            else:
                hi = x
            density = self._average(np.exp(-0.5 * z * z)) / (sigma * _SQRT_2PI)
            step = (log_p - math.log(mass)) * mass / density if mass * density > 0.0 else math.nan
            if abs(step) <= tol:
                return x + step
            x += step
            if not lo < x < hi:
                if math.isinf(lo) or math.isinf(hi):
                    x, reach = (lo + reach if math.isinf(hi) else hi - reach), 2.0 * reach
                else:
                    x = 0.5 * (lo + hi)
                    if hi - lo <= tol:
                        return x
        return x


def _readings(config: RunConfig):
    rate = config.source.mu * config.scheme.xi
    if isinstance(config.noise, GaussianNoise):
        return _GaussianReadings(rate, config.noise.sigma2)
    if isinstance(config.noise, PoissonNoise):
        return _PoissonReadings(rate + config.noise.gamma)
    return _PoissonReadings(rate)


def _exact_run(config: RunConfig) -> tuple[int, float, float]:
    """(k', min, max) of a Poissonian-source run, from its order statistics."""
    readings = _readings(config)
    rng = _block_rng(config.seed, 0)
    M, w = config.M, config.window
    log_v1, log_v2 = np.log1p(-rng.random(2))  # ln V for V uniform on (0, 1]
    a = -math.expm1(log_v1 / M)
    lo = readings.lower_quantile(a)
    if M == 1:
        return (1 if w is None or w.m1 <= lo <= w.m2 else 0), lo, lo
    b = (1.0 - a) * -math.expm1(log_v2 / (M - 1))
    hi = readings.upper_quantile(b)
    if w is None:
        return M, lo, hi
    k = int(w.m1 <= lo <= w.m2) + int(w.m1 <= hi <= w.m2)
    if M > 2:
        inner = 1.0 - a - b
        hit = inner - max(0.0, readings.below(w.m1) - a) - max(0.0, readings.above(w.m2) - b)
        k += int(rng.binomial(M - 2, min(1.0, max(0.0, hit / inner))))
    return k, lo, hi


def _sample_block(config: RunConfig, block: int, size: int):
    """(count in the fixed window, or size under auto-minmax, min, max) of one
    block of an explicit-source run."""
    rng = _block_rng(config.seed, block)
    probs = config.source.pnd.probs
    cdf = np.cumsum(probs / probs.sum())
    n1 = np.searchsorted(cdf, rng.random(size), side="right")
    m = rng.binomial(n1, config.scheme.xi).astype(np.float64)
    if isinstance(config.noise, PoissonNoise):
        m = m + rng.poisson(config.noise.gamma, size=size)
    elif isinstance(config.noise, GaussianNoise):
        # noise left unclamped: negative m' is possible and harmless
        m = m + rng.normal(0.0, np.sqrt(config.noise.sigma2), size=size)
    lo = float(m.min())
    hi = float(m.max())
    if config.window is None:
        return size, lo, hi
    inside = int(np.count_nonzero((m >= config.window.m1) & (m <= config.window.m2)))
    return inside, lo, hi


def _per_pulse_run(config: RunConfig, threads: int) -> tuple[int, float, float]:
    blocks = [
        (i, min(_BLOCK, config.M - i * _BLOCK))
        for i in range((config.M + _BLOCK - 1) // _BLOCK)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda b: _sample_block(config, b[0], b[1]), blocks)
            )
    else:
        parts = [_sample_block(config, b, s) for b, s in blocks]
    return sum(p[0] for p in parts), min(p[1] for p in parts), max(p[2] for p in parts)


def run(config: RunConfig, threads: int = 1) -> RunResult:
    """Simulate M pulses; deterministic for a given (config, seed).

    With ``window=None`` the observed min and max become the thresholds, so
    every trial is in-window by construction (k' = M).  A Poissonian source
    is one exact draw; ``threads`` splits the per-pulse blocks of an
    explicit source and does not change the result.
    """
    if isinstance(config.source, PoissonianSource):
        k, lo, hi = _exact_run(config)
    else:
        k, lo, hi = _per_pulse_run(config, threads)
    window = config.window if config.window is not None else ThresholdWindow(lo, hi)
    return RunResult(k_prime=k, observed_min=lo, observed_max=hi, effective_window=window)


def run_pipeline(config: RunConfig, alpha: float, threads: int = 1) -> PipelineResult:
    """End-to-end lower bound on the untagged fraction.

    Runs the simulation, turns the in-window count into an exact lower
    confidence bound on the window-hit probability, and converts it into a
    bound on the windowed signal mass using the configured noise model.
    In the noiseless case the confidence bound is the answer directly.
    Under auto-minmax the window comes from the same pulses it counts
    (k' = M), so the hit probability is bounded as the coverage of a
    tolerance interval (Wilks), not by Clopper-Pearson at k' = M.
    """
    res = run(config, threads=threads)
    if config.window is None:
        p_lower = minmax_coverage_lower(config.M, alpha)
    else:
        p_lower = clopper_pearson(res.k_prime, config.M, alpha).lower
    w = res.effective_window
    if config.noise is None:
        return PipelineResult(p_lower, w, res.k_prime)
    if isinstance(config.noise, PoissonNoise):
        w_int = ThresholdWindow(max(0.0, np.floor(w.m1)), np.ceil(w.m2))
        bound = untagged_lower_bound_poisson(p_lower, w_int, config.noise.gamma)
        return PipelineResult(bound.value, w_int, res.k_prime, bound.degenerate)
    bound = untagged_lower_bound_gaussian(p_lower, w, config.noise.sigma2)
    return PipelineResult(bound.value, w, res.k_prime, bound.degenerate)
