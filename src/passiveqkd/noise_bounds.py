"""Lower bounds on the untagged-bit fraction under additive detection noise.

A two-threshold comparator reports whether the measured photoelectron
number m' = m + noise falls inside [m1, m2].  Because the noise statistics
are known, the window-hit probability can be related to the true windowed
mass sum(D(m), m1 <= m <= m2), giving a one-sided bound that stays valid
for any signal distribution:

* Poissonian noise (dark counts):  1 - delta >= (p_l - bbar) / (b - bbar),
* Gaussian electronic noise:       1 - delta >= (p_l - b1) / (b2 - b1),

with p_l a lower confidence bound on the window-hit probability.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy import stats

__all__ = [
    "PoissonNoise",
    "GaussianNoise",
    "NoiseModel",
    "ThresholdWindow",
    "UntaggedBound",
    "poisson_bbar",
    "poisson_b",
    "untagged_lower_bound_poisson",
    "gaussian_b123",
    "untagged_lower_bound_gaussian",
]

_DEGENERATE_EPS = 1e-15


@dataclass(frozen=True)
class PoissonNoise:
    gamma: float  # mean dark counts per gate

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class GaussianNoise:
    sigma2: float  # variance in photoelectron^2 units

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise ValueError("sigma2 must be positive")


# None means noiseless detection.
NoiseModel = PoissonNoise | GaussianNoise | None


@dataclass(frozen=True)
class ThresholdWindow:
    """Comparator thresholds in photoelectron units.

    Real-valued thresholds are allowed (Gaussian noise makes m' continuous);
    the Poissonian bounds additionally require integer m1 >= 0 and m2.
    """

    m1: float
    m2: float

    def __post_init__(self):
        if not self.m1 < self.m2:
            raise ValueError("m1 must be strictly below m2")

    @property
    def width(self) -> float:
        return self.m2 - self.m1

    def as_integers(self) -> tuple[int, int]:
        m1, m2 = self.m1, self.m2
        if m1 != int(m1) or m2 != int(m2):
            raise ValueError("Poissonian noise bounds need integer thresholds")
        if m1 < 0:
            raise ValueError("Poissonian noise bounds need m1 >= 0")
        return int(m1), int(m2)


@dataclass(frozen=True)
class UntaggedBound:
    value: float
    degenerate: bool = False


def _untagged_bound(p_l: float, b_out: float, b_in: float) -> UntaggedBound:
    """clamp_[0,1]((p_l - b_out) / (b_in - b_out)), where b_in and b_out cap
    the window-hit probability of a pulse whose signal is inside and outside
    the window; b_in - b_out below _DEGENERATE_EPS means the noise alone
    saturates the window, reported as 0 with the degenerate flag set."""
    denom = b_in - b_out
    if denom < _DEGENERATE_EPS:
        return UntaggedBound(0.0, degenerate=True)
    return UntaggedBound(min(1.0, max(0.0, (p_l - b_out) / denom)))


def poisson_bbar(w: ThresholdWindow, gamma: float) -> float:
    """Worst-case noise mass landing in the window from below-threshold signal.

    max over m in [0, m1 - 1] of P(noise in [m1 - m, m2 - m]), noise ~
    Poisson(gamma).  In the offset s = m1 - m, with w = m2 - m1, the mass
    P(s <= d <= s + w) rises exactly while P(d = s + w + 1) > P(d = s), i.e.
    (w + 1) ln gamma > lnGamma(s + w + 2) - lnGamma(s + 1), whose right side
    increases in s.  Bisection finds where it stops.  Near there both sides
    lie in [0, L], L = lnGamma(m1 + w + 2), and err by under 4 eps L, and the
    right side grows by >= (w + 1)/(m1 + w + 1) per step, so the maximum is
    taken within 2 + 8 eps L (m1 + w + 1)/(w + 1) steps of that s.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    m1, m2 = w.as_integers()
    if m1 == 0:
        return 0.0
    width = m2 - m1
    log_ratio = (width + 1) * math.log(gamma)

    def falling(s: int) -> bool:  # mass(s + 1) <= mass(s)
        return log_ratio <= math.lgamma(s + width + 2) - math.lgamma(s + 1)

    s_hat = 1 + bisect_left(range(1, m1), True, key=falling)
    err = 8.0 * np.finfo(float).eps * math.lgamma(m1 + width + 2)
    half = 2 + int(err * (m1 + width + 1) / (width + 1))
    s = np.arange(max(1, s_hat - half), min(m1, s_hat + half) + 1)
    mass = stats.poisson.cdf(s + width, gamma) - stats.poisson.cdf(s - 1, gamma)
    return float(np.max(mass))


def poisson_b(m2: int, gamma: float) -> float:
    """Poisson(gamma) CDF at m2 (regularized-gamma evaluation)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    return float(stats.poisson.cdf(m2, gamma))


def untagged_lower_bound_poisson(
    p_measured_lower: float, w: ThresholdWindow, gamma: float
) -> UntaggedBound:
    """Bound the windowed signal mass from a measured window-hit lower bound.

    Returns clamp_[0,1]((p_l - bbar) / (b - bbar)); a vanishing denominator
    means the noise alone saturates the window and the bound is vacuous,
    reported as 0 with the degenerate flag set.
    """
    m1, m2 = w.as_integers()
    bbar = poisson_bbar(w, gamma)
    b = poisson_b(m2, gamma)
    assert b >= bbar - 1e-12, "ordering b(m2) >= bbar(m1, m2) violated"
    return _untagged_bound(p_measured_lower, bbar, b)


def gaussian_b123(w: ThresholdWindow, sigma2: float) -> tuple[float, float, float]:
    """The three Gaussian window integrals (b1, b2, b3), with b2 >= b1 >= b3.

    b1 caps the in-window noise mass for signal below the window, b2 for
    signal inside it, and b3 for signal above it; b3's integration limits
    deliberately run to -1 (not 0), one count past the threshold.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    sigma = math.sqrt(sigma2)
    width = w.width
    b1 = float(stats.norm.cdf(width / sigma) - 0.5)
    b2 = float(2.0 * stats.norm.cdf(width / (2.0 * sigma)) - 1.0)
    b3 = float(stats.norm.cdf(-1.0 / sigma) - stats.norm.cdf(-(width + 1.0) / sigma))
    assert b2 >= b1 - 1e-12 and b1 >= b3 - 1e-12, "ordering b2 >= b1 >= b3 violated"
    return b1, b2, b3


def untagged_lower_bound_gaussian(
    p_measured_lower: float, w: ThresholdWindow, sigma2: float
) -> UntaggedBound:
    """Gaussian-noise analog of the Poissonian bound, using (b1, b2)."""
    b1, b2, _ = gaussian_b123(w, sigma2)
    return _untagged_bound(p_measured_lower, b1, b2)
