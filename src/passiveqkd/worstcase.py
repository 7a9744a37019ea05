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

from ._special import np

__all__ = ["WorstCaseResult", "coefficient_a", "maximize_ratio"]

_EPS = sys.float_info.epsilon
_ETA_MIN = 1e-306  # 20 / _ETA_MIN = 2e307: every k of the search is a float


@dataclass(frozen=True)
class WorstCaseResult:
    """The bound ``mu a_k / k`` and the worst-case source on {0, k_star}.

    ``k_star`` is the bisection's k_hat, whose ratio a_k / k is within the
    9 eps margin of ``maximize_ratio`` of the maximum; on a flat top it need
    not be the smallest k that attains the computed maximum.

    For eta below 1e-306 only ``p_multi_upper`` describes the given eta:
    ``k_star`` and the weights are those of the worst-case source at 1e-306.
    """

    p_multi_upper: float
    k_star: int
    optimal_pnd_weights: tuple[float, float]  # (P(n=0), P(n=k_star))


def coefficient_a(k, eta: float):
    """P(more than one of k photons survives attenuation eta).

    a_k = 1 - (1-eta)^k - k*eta*(1-eta)^(k-1), evaluated via expm1/log1p so
    small eta and large k do not lose precision.  Accepts scalar or array k;
    an ``int`` k is evaluated in ``math``, as ``maximize_ratio`` does, and
    may differ from the array value in the last bits of the larger term.
    """
    is_int = isinstance(k, int)
    k_arr = k if is_int else np.asarray(k, dtype=float)
    if not (2 <= k if is_int else np.all((2 <= k_arr) & (k_arr < np.inf))):
        raise ValueError("k must be finite and >= 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    log1m = math.log1p(-eta)
    if is_int:
        return -math.expm1(k * log1m) - k * eta * math.exp((k - 1.0) * log1m)
    a = -np.expm1(k_arr * log1m) - k_arr * eta * np.exp((k_arr - 1) * log1m)
    return float(a) if np.isscalar(k) or k_arr.ndim == 0 else a


def maximize_ratio(eta: float, mu: float) -> WorstCaseResult:
    """Upper bound on the post-attenuation multiphoton probability.

    Returns mu a_k / k, raised by a margin of 9 eps, at k = k_hat found below,
    and the source on {0, k_hat}; k_hat >= k_lo = max(2, ceil(mu)), so P(n=0)
    >= 0, and its ratio is within the margin of the maximum of a_k / k over
    k >= k_lo.

    Unimodality: with q = 1 - eta, d_k = a_{k+1} - a_k = k eta^2 q^(k-1), a_k / k
    is the mean of d_0 = 0, ..., d_{k-1}, and d rises, then falls, as
    d_{j+1} / d_j = (j + 1) q / j decreases.  a_k / k rises at k iff g(k) =
    k d_k - a_k > 0, true while d_k >= d_{k-1} (d_k is then the largest term,
    and d_0 < d_k).  Once false, d falls, so d_{k+1} < d_k <= (a_k + d_k)/(k + 1)
    = a_{k+1}/(k + 1) and it stays false.  Bisection finds k_hat, at which the
    computed test (k eta)^2 q^(k-1) <= a_k holds and, unless k_hat = k_lo,
    fails at k_hat - 1.  It runs ``math`` on the float of k, which is k itself
    up to 2^53 and a monotone rounding of it past that.

    Search range: at k >= 20/eta, x = k eta >= 20 and q^(k-1) <= e^(eta - x), so
    k d_k <= e x^2 e^-x < 2.3e-6 while a_k >= 1 - (1 + e x) e^-x > 0.9999998:
    a_k / k falls there, and the computed test sees it with a margin far beyond
    rounding.  So the search range is [k_lo, max(k_lo, ceil(20/eta))], and when
    k_lo is at or past ceil(20/eta) the answer is k_lo.  Below eta = 1e-306
    that range would pass the largest float, so eta is raised to 1e-306: a_k
    grows with eta, so ``p_multi_upper`` is still an upper bound, but
    ``k_star`` and the weights are then the worst-case source at 1e-306, not
    at the eta given.

    Margin: a computed a_k errs by under 4.5 eps of its own (a ~ 0.535 is
    0.834 minus 0.298, exps of rounded exponents near -1.79), so the computed
    test errs only where |g(k)| < 4.5 eps a_k.  While d rises, g(k) >= d_k >=
    a_k / k; past that, g(k+1) - g(k) = (k+1)(d_{k+1} - d_k) < 0, and g crosses 0
    near k = 1.79/eta, each step lowering it by about 0.44 eta a_k.  So k_hat and
    the exact maximizer over k >= k_lo lie in one run of n <= 1 + 20 eps / eta
    steps on which |g| < 4.5 eps a_k, and the exact ratio, which moves by
    g(k) / (k (k+1)) a step, differs between them by under n 4.5 eps / (k+1)
    of the maximum: 1.5 eps at k = 2, 1e-29 on the flat tops of small eta.
    The computed ratio at k_hat is thus within 6 eps of the maximum, and the
    bound, that ratio times 1 + 9 eps and then mu, stays an upper bound after
    the 1 eps of the products' rounding.  It lies at most 9 + 9 + 1.5 = 19.5
    eps above mu times the largest computed ratio of any k >= k_lo.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if not 0.0 <= mu < math.inf:
        raise ValueError("mu must be non-negative and finite")
    if mu == 0.0:
        return WorstCaseResult(0.0, 2, (1.0, 0.0))
    eta = max(eta, _ETA_MIN)
    k_lo = max(2, int(math.ceil(mu)))
    log1m = math.log1p(-eta)

    def a_and_kd(k: int) -> tuple[float, float]:  # a_k and k d_k
        x, q = k * eta, math.exp((k - 1.0) * log1m)
        return -math.expm1(k * log1m) - x * q, x * x * q

    lo, hi = k_lo, max(k_lo, int(math.ceil(20.0 / eta)))  # k_hat, as in the docstring
    while lo < hi:
        mid = (lo + hi) // 2
        a, kd = a_and_kd(mid)
        lo, hi = (lo, mid) if kd <= a else (mid + 1, hi)
    ratio = a_and_kd(lo)[0] / lo * (1.0 + 9.0 * _EPS)
    return WorstCaseResult(
        p_multi_upper=ratio * mu, k_star=lo, optimal_pnd_weights=(1.0 - mu / lo, mu / lo)
    )
