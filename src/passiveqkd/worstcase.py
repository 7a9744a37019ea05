"""Adversarial worst-case photon statistics under a mean-only constraint.

An eavesdropper who controls the source but is observed only through its
average photon number mu can shape the photon-number distribution to
maximize the multiphoton probability after the attenuation eta.  The
optimum is a two-point distribution on {0, k_s} where k_s maximizes
a_k / k, with a_k the probability that k input photons yield more than one
survivor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["WorstCaseResult", "coefficient_a", "maximize_ratio"]

_EPS = sys.float_info.epsilon
_ETA_MIN = 1e-306  # 20 / _ETA_MIN = 2e307: every k of the search is a float
_SCAN_HALF = 1 << 18  # the final scan's half-width cap: 2^19 + 1 ratios, ~4 MB an array


@dataclass(frozen=True)
class WorstCaseResult:
    """The bound ``mu a_k / k`` and the worst-case source on {0, k_star}.

    For eta below 1e-306 only ``p_multi_upper`` describes the given eta:
    ``k_star`` and the weights are those of the worst-case source at 1e-306.
    """

    p_multi_upper: float
    k_star: int
    optimal_pnd_weights: tuple[float, float]  # (P(n=0), P(n=k_star))


def coefficient_a(k, eta: float):
    """P(more than one of k photons survives attenuation eta).

    a_k = 1 - (1-eta)^k - k*eta*(1-eta)^(k-1), evaluated via expm1/log1p so
    small eta and large k do not lose precision.  Accepts scalar or array k.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 2):
        raise ValueError("k must be >= 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    log1m = math.log1p(-eta)
    a = -np.expm1(k_arr * log1m) - k_arr * eta * np.exp((k_arr - 1) * log1m)
    return float(a) if np.isscalar(k) or k_arr.ndim == 0 else a


def maximize_ratio(eta: float, mu: float) -> WorstCaseResult:
    """Upper bound on the post-attenuation multiphoton probability.

    Returns mu a_{k_s} / k_s and the source on {0, k_s}, where k_s >= mu (so
    P(n=0) >= 0) is the smallest maximizer of a_k / k over k >= k_lo =
    max(2, ceil(mu)).

    Unimodality: with q = 1 - eta, d_k = a_{k+1} - a_k = k eta^2 q^(k-1), a_k / k
    is the mean of d_0 = 0, ..., d_{k-1}, and d rises, then falls, as
    d_{j+1} / d_j = (j + 1) q / j decreases.  a_k / k rises at k iff k d_k > a_k,
    true while d_k >= d_{k-1} (d_k is then the largest term, and d_0 < d_k).  Once
    false, d falls, so d_{k+1} < d_k <= (a_k + d_k)/(k + 1) = a_{k+1}/(k + 1) and it
    stays false.  Bisection finds its first false k, k_hat, the smallest maximizer.
    It tests (k eta)^2 q^(k-1) <= a_k with ``math`` on the float of k, which is k
    itself up to 2^53 and a monotone rounding of it past that.

    Search range: at k >= 20/eta, x = k eta >= 20 and q^(k-1) <= e^(eta - x), so
    k d_k <= e x^2 e^-x < 2.3e-6 while a_k >= 1 - (1 + e x) e^-x > 0.9999998:
    a_k / k falls there, and the computed test sees it with a margin far beyond
    rounding.  So the search range is [k_lo, max(k_lo, ceil(20/eta))], and when
    k_lo is at or past ceil(20/eta) the answer is k_lo.  Below eta = 1e-306
    that range would pass the largest float, so eta is raised to 1e-306: a_k
    grows with eta, so ``p_multi_upper`` is still an upper bound, but
    ``k_star`` and the weights are then the worst-case source at 1e-306, not
    at the eta given.

    Rounding: computed ratios are flat at the top; k_s is their first maximum
    over k_hat -+ h, h = 2 + floor(5 k_hat sqrt(eps)), scanned with numpy's
    ``coefficient_a``.  There a computed a_k / k errs by under 4.5 eps of its
    own (a ~ 0.535 is 0.834 minus 0.298, exps of rounded exponents near -1.79),
    so only k within 9 eps of the exact maximum can win.  ln(a_k / k) is
    concave in ln k (for small eta, ln(eta g(x)) with x = k eta, g(x) = (1 -
    e^-x - x e^-x)/x, has slope x^2/(e^x - 1 - x) - 1, decreasing) with
    half-curvature c = (x* - 1)/2 ~ 0.397 at x* ~ 1.79, more for larger eta: an
    offset by the factor 1 + rho from the maximizer, or from k_lo, costs at
    least c rho^2 > 9 eps once rho > 4.8 sqrt(eps).  The 2 covers the step and
    the rounded crossing: the bisection's libm test and the scan's numpy a_k
    differ by an ulp now and then, which moves k_hat by at most one step, and
    the scan still holds every k that can win.

    Cap: the scan holds at most k_hat -+ 2^18 (h fits up to k_hat ~ 3.5e12, eta
    down to about 5e-13).  Where the cap cuts it, the exact maximizer is still
    within a few eps of k_hat in ln k (there k d_k / a_k moves by x - 1 ~ 0.79
    per unit of ln k, against rounding of a few eps), so it loses no more than
    c rho^2 ~ 1e-29 to k_hat; and the computed ratio at k_hat is within 4.5 eps
    of the exact one.  The returned bound is the scan's maximum times 1 + 9 eps,
    the margin above, which covers both and the rounding of the products.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    if mu == 0.0:
        return WorstCaseResult(0.0, 2, (1.0, 0.0))
    eta = max(eta, _ETA_MIN)
    k_lo = max(2, int(math.ceil(mu)))
    k_hi = max(k_lo, int(math.ceil(20.0 / eta)))
    log1m = math.log1p(-eta)

    def falling(k: int) -> bool:  # a_{k+1}/(k+1) <= a_k/k, i.e. k d_k <= a_k
        x, q = k * eta, math.exp((k - 1.0) * log1m)
        return x * x * q <= -math.expm1(k * log1m) - x * q

    lo, hi = k_lo, k_hi  # the first falling k in [k_lo, k_hi), else k_hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if falling(mid) else (mid + 1, hi)
    k_hat = lo
    half = 2 + int(5.0 * math.sqrt(_EPS) * k_hat)
    full = max(k_lo, k_hat - half), min(k_hi, k_hat + half)
    scan = max(full[0], k_hat - _SCAN_HALF), min(full[1], k_hat + _SCAN_HALF)
    best_k, best_val = _scan_range(eta, *scan)
    if scan != full:
        best_val *= 1.0 + 9.0 * _EPS
    w0 = 1.0 - mu / best_k
    return WorstCaseResult(
        p_multi_upper=best_val * mu,
        k_star=best_k,
        optimal_pnd_weights=(w0, mu / best_k),
    )


def _scan_range(eta: float, k_lo: int, k_hi: int) -> tuple[int, float]:
    """Exhaustive argmax of a_k/k over [k_lo, k_hi]; ties to smaller k.

    The k are floats, exact up to 2^53 and representable up to the largest float.
    """
    ks = float(k_lo) + np.arange(k_hi - k_lo + 1, dtype=float)
    ratios = coefficient_a(ks, eta) / ks
    i = int(np.argmax(ratios))
    return int(ks[i]), float(ratios[i])
