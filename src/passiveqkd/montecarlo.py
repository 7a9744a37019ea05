"""Monte Carlo simulation of the two-threshold monitoring experiment.

A run of M pulses reports three numbers: the in-window count k', and the
smallest and largest monitor reading m' (the thresholds under auto-minmax).

Every run is one exact draw.  Only the distribution F of a single
monitor reading m' enters, and the run never simulates the pulses:

* *The reading's law.*  Thinning a Poissonian source by xi is again
  Poissonian, so m' is Poisson(mu xi), Poisson(mu xi + gamma) with dark
  counts, or Poisson(mu xi) convolved with N(0, sigma^2).  An explicit
  photon-number distribution thins to ``bernoulli_transform(pnd, xi)``,
  normalised by its sum (the source is conditioned on n <= n_max), and m'
  is that pmf, its mixture sum_j w_j Poisson(m' - j; gamma) with dark
  counts, or its mixture of N(j, sigma^2).
* *Order statistics of uniforms.*  The readings are m'_i = F^-1(U_i) for
  iid uniforms U_i, where F^-1(u) = inf{x : F(x) >= u} is the generalized
  inverse.  The smallest of M uniforms is A = 1 - V1^(1/M), and given A the
  other M - 1 are uniform on (A, 1), so the largest is 1 - B with
  B = (1 - A)(1 - V2^(1/(M - 1))), for independent uniforms V1, V2.  B is
  kept as a tail mass and 1 - B is never formed.
* *Monotone inverse.*  F^-1 is non-decreasing, so the extremes of the m'_i
  are the images of the extremes of the U_i: min m' = F^-1(A) and max m' =
  S^-1(B), with S = 1 - F the upper tail.  This holds on a discrete support
  too, ties included.  Both searches start from Cantelli's bracket: a
  reading of mean mu and standard deviation s has P(m' - mu <= -t) <=
  s^2/(s^2 + t^2), and the same above, so its A-quantile lies in (mu -
  2 s/sqrt(A) - 1, mu + 2 s sqrt(A/(1 - A)) + 1] at any mean (B's is the
  mirror image).  Integer readings bisect it on ``pdtr`` and ``pdtrc``
  (their mixtures for an explicit source, whose upper tails are summed as
  tails, never as 1 - F); Gaussian ones solve sum_j w_j Phi((x - j)/sigma)
  = A (or its upper-tail twin = B) by a Newton step on the log tail that
  falls back to bisecting it.  That sum is taken over bins of h = floor(
  sigma/1000) consecutive counts once h reaches 16, each bin by a Taylor
  series in its first 8 moments with a stated truncation bound, so an
  evaluation costs the number of bins rather than the 24 sqrt(mu xi) counts.
  A Poissonian source's weights come from the ratio recurrence w(m + 1) =
  w(m) mu xi/(m + 1), with no exp or log-gamma, one vectorised step per row
  of a blocks array that has at most sqrt(24 sqrt(mu xi)) rows: at mu xi =
  1e7 and sigma^2 = 1e9 the weights and the moments take about 0.55 ms and
  a run about 1.3 ms (2-core x86_64).
* *Conditional uniformity.*  Given A and B, the other M - 2 uniforms are iid
  on (A, 1 - B), and m' lies in the window [m1, m2] exactly when U lies in
  (F(m1-), F(m2)].  So k' is the two extremes' own indicators plus
  Binomial(M - 2, |(A, 1 - B) & (F(m1-), F(m2)]| / (1 - A - B)).  Under
  auto-minmax the window is [min, max] and that is k' = M.

A per-pulse simulation in the tests is the oracle for the draw.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._special import special
from .confidence import clopper_pearson, minmax_coverage_lower
from .noise_bounds import (
    GaussianNoise,
    NoiseModel,
    PoissonNoise,
    ThresholdWindow,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)
from .photon_stats import (
    PassiveSchemeParams,
    PhotonNumberDistribution,
    bernoulli_transform,
    poisson_cut,
)

__all__ = [
    "PoissonianSource",
    "ExplicitSource",
    "RunConfig",
    "RunResult",
    "PipelineResult",
    "run",
    "run_pipeline",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PoissonianSource:
    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")


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
        if self.M < 2 and self.window is None:
            raise ValueError("M must be at least 2 under auto-minmax, whose window "
                             "is the smallest and largest of the readings")
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


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed << 64))


def _bracket(mean: float, sd: float, p: float) -> tuple[float, float]:
    """Finite (lo, hi) with P(X <= lo) < p < P(X < hi) for every X of this
    mean and standard deviation and every p in (0, 1).

    Cantelli's one-sided inequality bounds each tail at distance t from the
    mean by sd^2 / (sd^2 + t^2).  So the mass at or below lo, t = 2 sd/sqrt(p)
    + 1 under the mean, is under p/4, and the mass at or above hi, t = 2 sd
    sqrt(p/(1 - p)) + 1 over it, under (1 - p)/(1 + 3p): the factor 2 leaves
    room for rounding and the 1 covers sd = 0.  A p of 0 or 1 is taken as
    the nearest float inside (0, 1), so the ends stay finite.  The bound is
    symmetric, so the upper tail mass b has the mirror bracket: negate
    ``_bracket(-mean, sd, b)`` and swap its ends.
    """
    p = min(max(p, math.ulp(0.0)), 1.0 - 2.0**-53)
    return mean - 2.0 * sd / math.sqrt(p) - 1.0, mean + 2.0 * sd * math.sqrt(p / (1.0 - p)) + 1.0


def _least(pred, lo: float, hi: float, guess: float) -> int:
    """Smallest integer k >= 0 with pred(k), for pred false then true in k,
    false at every k <= ``lo`` and true at ``hi``.

    Probes ``guess`` (any float, clipped into the bracket) first, gallops
    away from it by doubling steps until pred flips, then bisects: every
    probe lies strictly inside (lo, hi), and a guess d counts off costs
    about 2 log2(d) probes.  Python ints hold any float's integer part.
    """
    lo, hi = max(-1, math.floor(lo)), max(0, math.ceil(hi))
    if hi - lo > 1:
        k, step = math.floor(min(hi - 1, max(lo + 1, guess))), 1  # NaN clips to lo + 1
        up = not pred(k)
        while True:
            lo, hi = (k, hi) if up else (lo, k)
            k = min(k + step, hi - 1) if up else max(k - step, lo + 1)
            if not lo < k < hi:
                break
            if pred(k) == up:  # flipped: k closes the bracket on the far side
                lo, hi = (lo, k) if up else (k, hi)
                break
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _weighted_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """sum_i w_i values_i, overwriting ``values``.

    Not ``weights @ values``: a dot product this long goes to the
    multithreaded BLAS, whose worker thread then spins on another core
    after every call.
    """
    values *= weights
    return float(values.sum())


class _MixtureReadings:
    """m' = n + d: n = 0, 1, ... with probabilities ``weights``, d ~ Poisson(gamma).

    P(m' <= k) = sum_j w_j pdtr(k - j, gamma) and P(m' > k) = sum_{j <= k}
    w_j pdtrc(k - j, gamma) + sum_{j > k} w_j, the last term a reverse
    cumulative sum.  With gamma = 0 (no dark counts) pdtr(k, 0) = 1 and
    pdtrc(k, 0) = 0, so these are the pmf's own CDF and upper tail; with
    the single weight w_0 = 1 they are Poisson(gamma)'s.

    ``mean`` and ``var`` must be the weights' true mean and variance: the
    quantile searches bracket m' by Cantelli's inequality at mean + gamma
    and var + gamma, so a wrong moment can leave the answer outside.
    """

    def __init__(self, weights: np.ndarray, gamma: float, mean: float, var: float):
        self.weights, self.gamma = weights, gamma
        self.counts = np.arange(weights.size, dtype=float)
        self.beyond = np.append(np.cumsum(weights[:0:-1])[::-1], 0.0)  # sum_{j > k} w_j
        self.total = float(weights.sum())  # what the CDF sums to once every pdtr is 1
        self.mean, self.sd = mean + gamma, math.sqrt(var + gamma)

    def below(self, x: float) -> float:  # P(m' < x) = P(m' <= k)
        k = math.ceil(x) - 1
        if k < 0:
            return 0.0
        n = min(k + 1, self.weights.size)
        return _weighted_sum(special.pdtr(k - self.counts[:n], self.gamma), self.weights[:n])

    def above(self, x: float) -> float:  # P(m' > x) = P(m' > k)
        k = math.floor(x)
        if k < 0:
            return self.total
        n = min(k + 1, self.weights.size)
        head = _weighted_sum(special.pdtrc(k - self.counts[:n], self.gamma), self.weights[:n])
        return head + (float(self.beyond[k]) if k < self.weights.size else 0.0)

    def lower_quantile(self, a: float) -> float:  # inf{m : P(m' <= m) >= a}
        a = min(a, self.total)
        guess = self.mean + self.sd * float(special.ndtri(a))
        return float(_least(lambda k: self.below(k + 1) >= a,
                            *_bracket(self.mean, self.sd, a), guess))

    def upper_quantile(self, b: float) -> float:  # inf{m : P(m' > m) <= b}
        lo, hi = _bracket(-self.mean, self.sd, b)
        guess = self.mean - self.sd * float(special.ndtri(b))
        return float(_least(lambda k: self.above(k) <= b, -hi, -lo, guess))


class _GaussianReadings:
    """m' = m + N(0, sigma^2), m a count from ``first`` up with probabilities
    ``weights``: an (h, bins) array whose column k holds the weights of the
    h counts from first + k h, zero past the support.

    The law is summed over these bins, h from ``_bin_width``: floor(sigma /
    1000) where that is at least 16 (capped at the support's size, so the
    bins never outgrow the weights) and 1 otherwise.  Bin k, centred at c_k,
    keeps the scaled moments M_jk = sum_i w_i (d_i/sigma)^j / j! for j < J =
    8, d_i a count's offset from c_k.  With z_k = (x - c_k)/sigma, Taylor's
    theorem in d_i/sigma gives

        P(m' <= x) = sum_k M_0k Phi(z_k) - phi(z_k) sum_{j >= 1} M_jk He_{j-1}(z_k)
        density    = (1/sigma) sum_k phi(z_k) sum_{j >= 0} M_jk He_j(z_k),

    He the probabilists' Hermite polynomials.  As |d_i| < h/2, the mass's
    remainder in bin k is at most M_0k (h/2sigma)^J / J! max |He_{J-1}| phi
    over the bin.  By the Mills ratio Phi(z) >= phi(z) |z|/(1 + z^2), that
    is under 5e-19 of the bin's own term M_0k Phi(z_k) for |z_k| <= 38.5 at
    h <= sigma/1000, and the density's remainder, with He_J, is under 5e-19
    of M_0k phi(z_k).  Past |z| = 38.5 phi underflows, so the corrections
    are added only where phi > 0: z He overflows there, inf * 0 never forms,
    and the mass at -inf (+inf) stays exactly 0 (the total).  The upper tail
    is the same sum for -m', the bins mirrored with their odd moments
    negated.  At h = 1 only M_0 = w is kept (all other moments are 0), so
    the sums are the direct ones over every count.

    ``mean`` and ``var`` must be m's true mean and variance: the solver
    brackets m' by Cantelli's inequality at mean and var + sigma^2.
    """

    def __init__(self, first: float, weights: np.ndarray, mean: float, var: float,
                 sigma2: float):
        self.mean, self.sigma = mean, math.sqrt(sigma2)
        self.scale = math.sqrt(var + sigma2)
        h, bins = weights.shape
        centres = first + (h - 1) / 2.0 + h * np.arange(bins, dtype=float)
        if h == 1:
            moments = weights
        else:
            offsets = (np.arange(h) - (h - 1) / 2.0) / self.sigma
            power, moments = np.ones(h), np.empty((8, bins))
            for j in range(8):
                # no BLAS, as in _weighted_sum
                moments[j] = np.einsum("ik,i->k", weights, power)
                power = power * offsets / (j + 1)
        mirror = (-1.0) ** np.arange(len(moments))[:, np.newaxis]
        self._below, self._above = (centres, moments), (-centres, moments * mirror)

    def below(self, x: float) -> float:
        return self._mass_density(x, *self._below, density=False)[0]

    def above(self, x: float) -> float:
        # P(m' > x) = P(-m' < -x), and -m' is the same mixture around -m
        return self._mass_density(-x, *self._above, density=False)[0]

    def lower_quantile(self, a: float) -> float:
        return self._solve(a, self._below, self.mean)

    def upper_quantile(self, b: float) -> float:
        return -self._solve(b, self._above, -self.mean)

    def _mass_density(self, x: float, centres: np.ndarray, moments: np.ndarray,
                      density: bool = True):
        """The binned sums above at x: P(m' <= x) and its density, or None
        for the density unless ``density``.  Leaving the density out skips
        no operation of the mass, so the mass is the same float either way.
        """
        z = (x - centres) / self.sigma
        mass = _weighted_sum(special.ndtr(z), moments[0])
        if len(moments) == 1 and not density:
            return mass, None
        with np.errstate(over="ignore"):  # a z^2 past the float range has exp(-inf) = 0
            phi = -0.5 * z
            phi *= z
            np.exp(phi, out=phi)  # in place: a fresh buffer measured ~10% slower at 76k counts
            per_phi = moments[0]  # the density's weight on each phi(z_k)
            live = np.flatnonzero(phi) if len(moments) > 1 else ()
            if len(live):
                live = slice(live[0], live[-1] + 1)  # one run of bins: phi is unimodal in k
                z, he_prev, he = z[live], 1.0, z[live]  # He_0 and He_1
                mass_series, per_phi = moments[1, live], moments[0].copy()
                density_series = mass_series * he
                for j in range(2, len(moments)):
                    he_prev, he = he, z * he - (j - 1) * he_prev
                    mass_series = mass_series + moments[j, live] * he_prev
                    if density:
                        density_series += moments[j, live] * he
                mass -= _weighted_sum(mass_series, phi[live]) / _SQRT_2PI
                per_phi[live] += density_series
            if not density:
                return mass, None
            density = _weighted_sum(phi, per_phi) / (self.sigma * _SQRT_2PI)
        return mass, density

    def _solve(self, p: float, side, mean: float) -> float:
        """x with P(m' <= x) = p on ``side``'s bins: Newton on the log mass.

        Each step narrows a bracket [lo, hi] around the root, which starts
        as ``_bracket``'s; a Newton step that leaves it is replaced by
        bisecting it.  The log mass is near-concave (the mixture of a
        log-concave pmf with a Gaussian), so from the normal approximation
        Newton needs a few steps.
        """
        if p <= 0.0:
            return -math.inf
        log_p = math.log(p)
        x = mean + self.scale * float(special.ndtri(p))
        tol = 4.0 * np.finfo(float).eps * (abs(x) + self.scale)
        lo, hi = _bracket(mean, self.scale, p)
        for _ in range(200):
            mass, density = self._mass_density(x, *side)
            if mass < p:
                lo = x
            else:
                hi = x
            step = (log_p - math.log(mass)) * mass / density if mass * density > 0.0 else math.nan
            if abs(step) <= tol:
                return x + step
            x += step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if hi - lo <= tol:
                    return x
        return x


def _bin_width(size: int, sigma2: float) -> int:
    """Counts h per bin of ``_GaussianReadings`` over ``size`` counts at
    noise variance ``sigma2``: floor(sigma/1000), capped at ``size``, where
    that is at least 16, and 1 otherwise."""
    h = min(size, math.floor(math.sqrt(sigma2) / 1000.0))
    return h if h >= 16 else 1


def _grouped(weights: np.ndarray, h: int) -> np.ndarray:
    """``weights`` as an (h, bins) array: column k holds weights k h to
    k h + h - 1, zero past the end (a view where h divides the size)."""
    pad = -weights.size % h
    if pad:
        weights = np.concatenate((weights, np.zeros(pad)))
    return weights.reshape(-1, h).T


def _poisson_weights(rate: float, sigma2: float) -> tuple[float, np.ndarray]:
    """(first, weights) of ``_GaussianReadings`` for a Poisson(rate) count
    under noise variance ``sigma2``: the normalised pmf at the counts from
    first = max(0, floor(rate - 12 sqrt(rate))) to ``poisson_cut(rate)``.

    The pmf comes from the ratio recurrence w(m + 1) = w(m) rate/(m + 1),
    with no exp or log-gamma, in blocks of W consecutive counts held as a
    (W, blocks) array: W = h where the law bins and h <= isqrt(n) for the n
    counts, so the array is the bins themselves, and W = isqrt(n) otherwise,
    the weights then regrouped in count order; so the loop has at most
    isqrt(n) rows.  Every block starts at 1, row i + 1 is row i times
    rate/count, one divide and one multiply across all blocks, and the last
    block's entries past the cut are zeroed.  Row W is each block's ratio to
    the next, and their cumulative product each block's anchor, w(its first
    count)/w(first).  The sum normalises, which cancels the absolute scale.

    Error: two weights d counts apart carry 2 rounding factors 1 + delta,
    |delta| <= eps/2, per step between them, one per block boundary between
    them (c <= d), and one each for the anchor's product and the normalising
    divide.  So their ratio is within (2d + c + 4) eps/2 <= (3d + 4) eps/2
    of the exact one, to first order in eps, and the weights sum to 1
    within n eps.  Against 40-digit products the largest error measured at
    12 rates from 0.3 to 1e7 was 1.5e-14 (rate 1e7), where the cancelling
    exp(m ln rate - lnGamma(m + 1) - rate) of ``poisson_pmf`` gives ratios
    up to 4.4e-8 off.

    Range: every row and anchor is a ratio w(m)/w(m') of two counts m' <= m
    of the support.  None overflows: the largest, w(mode)/w(first), is about
    e^72 (12 sd) and at most about e^rate where first is 0 (rate <= 144).
    The smallest, w(cut)/w(mode), is above e^-90 for rate >= 1 and about
    e^-335 at 1e-6; only rates below 1e-13 take it out of the normal range,
    where w(mode) = w(0) ~ 1 and the top counts' exact weights are as small.
    """
    first = max(0, math.floor(rate - 12.0 * math.sqrt(rate)))
    size = poisson_cut(rate) + 1 - first
    h = _bin_width(size, sigma2)
    width = h if 1 < h <= math.isqrt(size) else math.isqrt(size)
    blocks = -(-size // width)
    w = np.empty((width + 1, blocks))
    w[0] = 1.0
    count, ratio = float(first) + width * np.arange(blocks, dtype=float), np.empty(blocks)
    for i in range(width):
        count += 1.0
        np.divide(rate, count, out=ratio)
        np.multiply(w[i], ratio, out=w[i + 1])
    anchors = np.ones(blocks)
    np.cumprod(w[width, :-1], out=anchors[1:])
    w = w[:width]
    w *= anchors
    w[size - width * (blocks - 1):, -1] = 0.0  # past the cut
    if width != h:
        w = _grouped(w.T.ravel()[:size], h)
    w /= w.sum()
    return float(first), w


@lru_cache(maxsize=8)
def _thinned(probs: bytes, tail_mass: float, xi: float):
    """Counts, normalised weights, mean and variance of a photon-number
    distribution thinned by ``xi``; the arrays are read-only.

    Keyed by the distribution's content, not its identity, so runs on equal
    sources thin once however each source was built.
    """
    pnd = PhotonNumberDistribution(np.frombuffer(probs), tail_mass)
    w = bernoulli_transform(pnd, xi).probs
    w = w / w.sum()
    counts = np.arange(w.size, dtype=float)
    mean = _weighted_sum(counts.copy(), w)
    var = _weighted_sum((counts - mean) ** 2, w)
    counts.flags.writeable = w.flags.writeable = False
    return counts, w, mean, var


def _readings(config: RunConfig):
    """The law of one monitor reading m' of ``config``."""
    noise, xi = config.noise, config.scheme.xi
    gamma = noise.gamma if isinstance(noise, PoissonNoise) else 0.0
    if isinstance(config.source, PoissonianSource):
        rate = config.source.mu * xi
        if isinstance(noise, GaussianNoise):
            return _GaussianReadings(*_poisson_weights(rate, noise.sigma2), rate, rate,
                                     noise.sigma2)
        # signal and dark counts add to one Poisson(rate + gamma) reading
        return _MixtureReadings(np.ones(1), rate + gamma, 0.0, 0.0)
    pnd = config.source.pnd
    _, w, mean, var = _thinned(pnd.probs.tobytes(), pnd.tail_mass, xi)
    if isinstance(noise, GaussianNoise):
        return _GaussianReadings(0.0, _grouped(w, _bin_width(w.size, noise.sigma2)), mean, var,
                                 noise.sigma2)
    return _MixtureReadings(w, gamma, mean, var)


def run(config: RunConfig, threads: int = 1) -> RunResult:
    """Simulate M pulses; deterministic for a given (config, seed).

    (k', min, max) come from the order statistics of the readings.  With
    ``window=None`` the observed min and max become the thresholds, so
    every trial is in-window by construction (k' = M); a run whose readings
    all tie makes no window and raises ValueError naming the value.  Every
    run is one exact draw, so ``threads`` has no effect; it stays for the
    callers that pass it.
    """
    readings, rng = _readings(config), _rng(config.seed)
    M, w = config.M, config.window
    log_v1, log_v2 = np.log1p(-rng.random(2))  # ln V for V uniform on (0, 1]
    a = -math.expm1(log_v1 / M)
    lo = readings.lower_quantile(a)
    if M == 1:  # RunConfig gives auto-minmax at least two readings
        return RunResult(int(w.m1 <= lo <= w.m2), lo, lo, w)
    b = (1.0 - a) * -math.expm1(log_v2 / (M - 1))
    hi = readings.upper_quantile(b)
    if w is None:
        if not lo < hi:
            raise ValueError(f"all {M} readings are {lo:g}: an auto-minmax window "
                             "needs two distinct readings")
        return RunResult(M, lo, hi, ThresholdWindow(lo, hi))
    k = int(w.m1 <= lo <= w.m2) + int(w.m1 <= hi <= w.m2)
    if M > 2:
        inner = 1.0 - a - b
        hit = inner - max(0.0, readings.below(w.m1) - a) - max(0.0, readings.above(w.m2) - b)
        k += int(rng.binomial(M - 2, min(1.0, max(0.0, hit / inner))))
    return RunResult(k, lo, hi, w)


def run_pipeline(config: RunConfig, alpha: float, threads: int = 1) -> PipelineResult:
    """End-to-end lower bound on the untagged fraction.

    Runs the simulation, turns the in-window count into an exact lower
    confidence bound on the window-hit probability, and converts it into a
    bound on the windowed signal mass using the configured noise model.
    In the noiseless case the confidence bound is the answer directly.
    Under auto-minmax the window comes from the same pulses it counts
    (k' = M), so the hit probability is bounded as the coverage of a
    tolerance interval (Wilks), not by Clopper-Pearson at k' = M.
    ``threads`` has no effect, as in ``run``.
    """
    res = run(config)
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
