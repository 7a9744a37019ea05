"""Channel model, GLLP-style key rates, and the passive-scheme case analysis.

Rates follow the tagged-bits accounting: a fraction Delta-bar of detection
events is conceded to the eavesdropper, error correction leaks
f * H2(E) per detected bit, and only the untagged remainder distills key:

    R >= 1/2 * Q * { -f(E) * H2(E) + (1 - Delta) * [1 - H2(E / (1 - Delta))] }.

The worst-case Delta differs per monitoring mode (average-photon-number
monitor, two-threshold analyzer, trusted source), which is what the
functions below encode.  Both three-intensity decoy rates at the end run
one signal/decoy elimination: on window-selected untagged pulses with
bracketed photon-number pmfs, and on a trusted source with exact ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial

from scipy.special import gammaln, xlogy

from .noise_bounds import ThresholdWindow
from .photon_stats import PassiveSchemeParams
from .worstcase import coefficient_a, maximize_ratio

__all__ = [
    "ChannelParams",
    "DecoySettings",
    "RatePoint",
    "SchemeCase",
    "binary_entropy",
    "channel_gain_qber",
    "gllp_rate",
    "apn_delta_bar",
    "trusted_delta_bar",
    "lambda_A",
    "pna_rate_bb84",
    "decoy_rate_untagged",
    "decoy_rate_trusted",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelParams:
    """Fiber channel and receiver parameters (lengths in km, loss in dB/km)."""

    eta_B: float  # Bob's detection efficiency
    alpha_prime: float  # fiber loss, dB/km
    Y0: float  # dark-count rate per pulse
    e_det: float  # misalignment error probability
    e0: float = 0.5  # error rate of dark counts
    L: float = 0.0  # fiber length, km

    def __post_init__(self):
        if not 0.0 < self.eta_B <= 1.0:
            raise ValueError("eta_B must be in (0, 1]")
        if self.alpha_prime < 0.0:
            raise ValueError("alpha_prime must be non-negative")
        if not 0.0 <= self.Y0 < 1.0:
            raise ValueError("Y0 must be in [0, 1)")
        if not 0.0 <= self.e_det < 0.5:
            raise ValueError("e_det must be in [0, 0.5)")
        if not 0.0 <= self.e0 <= 1.0:
            raise ValueError("e0 must be in [0, 1]")
        if self.L < 0.0:
            raise ValueError("L must be non-negative")

    @property
    def eta_f(self) -> float:
        return 10.0 ** (-self.alpha_prime * self.L / 10.0)

    def at_distance(self, L: float) -> "ChannelParams":
        return replace(self, L=L)


@dataclass(frozen=True)
class DecoySettings:
    """Three-intensity decoy configuration (signal, weak decoy, vacuum)."""

    nu_s: float  # signal APN at the encoder output
    nu_d: float  # weak-decoy APN
    lambda_s: float
    lambda_d: float
    f_ec: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.nu_d < self.nu_s:
            raise ValueError("nu_d must satisfy 0 < nu_d < nu_s")
        if not 0.0 < self.lambda_s <= 1.0:
            raise ValueError("lambda_s must be in (0, 1]")
        if not 0.0 < self.lambda_d < self.lambda_s:
            raise ValueError("lambda_d must satisfy 0 < lambda_d < lambda_s")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")


class SchemeCase(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class RatePoint:
    L: float  # km
    rate: float  # secure key bits per pulse, floored at 0
    delta_bar: float
    Q: float  # gain
    E: float  # QBER


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must be in [0, 1]")
    return float(-(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)) / _LN2)


def channel_gain_qber(mu_p2: float, ch: ChannelParams) -> tuple[float, float]:
    """Expected gain and QBER for a Poissonian pulse of APN ``mu_p2`` at the
    encoder output, over a fiber of length ch.L."""
    if mu_p2 < 0.0:
        raise ValueError("mu_p2 must be non-negative")
    click = -math.expm1(-mu_p2 * ch.eta_B * ch.eta_f)
    Q = ch.Y0 + click
    if Q == 0.0:
        raise ValueError("zero gain: QBER undefined (Y0 = 0 and mu_p2 = 0)")
    E = (ch.e0 * ch.Y0 + ch.e_det * click) / Q
    return Q, E


def gllp_rate(Q: float, E: float, delta_bar: float, f_ec: float = 1.0) -> float:
    """Tagged-bits secure key rate; returns 0 whenever insecure.

    If delta_bar >= 1 every detection may be tagged and no key survives.
    When E / (1 - delta_bar) exceeds 1/2, the untagged bits are declared
    worthless (their entropy term is set to 0) rather than letting the
    entropy argument leave its useful domain.
    """
    if Q <= 0.0:
        raise ValueError("Q must be positive")
    if not 0.0 <= E < 1.0:
        raise ValueError("E must be in [0, 1)")
    if not 0.0 <= delta_bar:
        raise ValueError("delta_bar must be non-negative")
    if f_ec < 1.0:
        raise ValueError("f_ec must be >= 1")
    if delta_bar >= 1.0:
        return 0.0
    untagged = 1.0 - delta_bar
    e_untagged = E / untagged
    priv = 0.0 if e_untagged > 0.5 else untagged * (1.0 - binary_entropy(e_untagged))
    rate = 0.5 * Q * (-f_ec * binary_entropy(E) + priv)
    return max(0.0, rate)


def apn_delta_bar(
    scheme: PassiveSchemeParams, ch: ChannelParams, mu_upper: float
) -> float:
    """Tagged-fraction bound for the average-photon-number monitor.

    The adversarial multiphoton bound at the encoder output, divided by the
    expected gain of the (Poissonian) source.
    """
    p_multi = maximize_ratio(scheme.eta, mu_upper).p_multi_upper
    Q, _ = channel_gain_qber(mu_upper * scheme.eta, ch)
    return p_multi / Q


def trusted_delta_bar(mu_p2: float, ch: ChannelParams) -> float:
    """Tagged fraction for a known Poissonian source of APN ``mu_p2``."""
    if mu_p2 < 0.0:
        raise ValueError("mu_p2 must be non-negative")
    if mu_p2 == 0.0:
        return 0.0
    p_multi = -math.expm1(-mu_p2) - mu_p2 * math.exp(-mu_p2)
    Q, _ = channel_gain_qber(mu_p2, ch)
    return p_multi / Q


def lambda_A(scheme: PassiveSchemeParams) -> tuple[float, SchemeCase]:
    """Effective transmittance seen by window-selected pulses, with the case id.

    Case I: balanced arms (t_B * t_D == 1 - t_B), lambda_A equals lam exactly.
    Case II: monitor arm weaker, needs lam <= t_B * t_D / (1 - t_B).
    Case III: monitor arm stronger (t_B * t_D > 1 - t_B).
    """
    if abs(scheme.t_B * scheme.t_D - (1.0 - scheme.t_B)) < 1e-12:
        return scheme.lam, SchemeCase.I
    case = SchemeCase.III if scheme.t_B * scheme.t_D > 1.0 - scheme.t_B else SchemeCase.II
    return scheme.lambda_a, case


def pna_rate_bb84(
    scheme: PassiveSchemeParams,
    ch: ChannelParams,
    w: ThresholdWindow,
    one_minus_delta: float,
    f_ec: float = 1.0,
) -> RatePoint:
    """BB84 rate with the two-threshold photon-number analyzer.

    Tagged bits (outside the window) are counted as fully insecure; each
    untagged bit is charged the worst multiphoton probability over the
    window, attained at n = m2 since the per-pulse multiphoton probability
    is increasing in the photon number (asserted numerically).
    """
    if not 0.0 <= one_minus_delta <= 1.0:
        raise ValueError("one_minus_delta must be in [0, 1]")
    lam_a, _ = lambda_A(scheme)
    delta = 1.0 - one_minus_delta
    Q, E = channel_gain_qber(scheme.mu * scheme.eta, ch)
    if w.m2 >= 2 and lam_a < 1.0:
        multi_hi = coefficient_a(int(math.floor(w.m2)), lam_a)
        if w.m1 >= 2:
            multi_lo = coefficient_a(max(2, int(math.ceil(w.m1))), lam_a)
            assert multi_hi >= multi_lo - 1e-15, "multiphoton term not increasing in n"
        multi_worst = multi_hi
    else:
        multi_worst = 0.0 if w.m2 < 2 else 1.0
    delta_bar = (delta + (1.0 - delta) * multi_worst) / Q
    rate = 0.0 if delta >= 1.0 else gllp_rate(Q, E, min(delta_bar, 1.0), f_ec)
    return RatePoint(L=ch.L, rate=rate, delta_bar=delta_bar, Q=Q, E=E)


def _log_binom_pmf(m: float, n: int, lam: float) -> float:
    # log C(m, n) + n log lam + (m - n) log(1 - lam), for integer-like m
    return float(
        gammaln(m + 1)
        - gammaln(n + 1)
        - gammaln(m - n + 1)
        + n * math.log(lam)
        + (m - n) * math.log1p(-lam)
    )


def _binom_pmf_range(n: int, lam: float, m1: float, m2: float) -> tuple[float, float]:
    """Min and max over m in [m1, m2] of the Binomial(m, lam) pmf at n.

    As a function of m the pmf rises while m < n / lam - 1 and falls after,
    so the extremes sit at the endpoints and (for the max) at the mode.
    """
    candidates = [m1, m2]
    if n >= 1:
        m_star = math.floor(n / lam)
        for mm in (m_star - 1, m_star, m_star + 1):
            if m1 <= mm <= m2:
                candidates.append(float(mm))
    vals = [math.exp(_log_binom_pmf(m, n, lam)) for m in candidates]
    return min(vals[:2]), max(vals)


def _poisson_pmf(nu: float):
    """The exact Poisson(nu) pmf at n, as its own (lo, hi) bracket."""
    return lambda n: (nu**n * math.exp(-nu),) * 2


def _decoy_elimination(signal, decoy, c: float, Y0: float, e0: float, f_ec: float) -> float:
    """Signal/weak-decoy/vacuum elimination on untagged pulses; the key rate.

    The elimination of Ma, Qi, Zhao and Lo (PRA 72, 012326, 2005), run on
    the untagged pulses of Zhao, Qi and Lo (PRA 77, 052327, 2008).
    ``signal`` and ``decoy`` are each (Q, E, u, pmf): the observed gain and
    QBER, the untagged fraction u = 1 - delta, and pmf(n), the (lo, hi)
    bracket of an untagged pulse's n-photon probability p(n) for n = 0, 1
    (called only once both fractions are positive, so a fully tagged point
    evaluates no pmf).  ``c`` must satisfy c >= p_d(n) / p_s(n) for every
    n >= 2; Y0 and e0 are the vacuum yield and its error rate.

    Untagged pulses of both intensities share yields Y_n and error rates
    e_n, so q = sum_n p(n) Y_n, and Q = u q + T with a tagged gain
    0 <= T <= 1 - u whose errors are at most T.  Each bracket end is taken
    where it loosens the bound it enters:

    * q_d >= Q_d - (1 - u_d) and q_s <= Q_s / u_s, from 0 <= T <= 1 - u.
    * y1 <= Y_1: q_d - c q_s = sum_n (p_d(n) - c p_s(n)) Y_n, and every
      n >= 2 term is <= 0, so q_d - c q_s <= (p_d0_hi - c p_s0_lo) Y0 +
      (p_d1_hi - c p_s1_lo) Y_1, as Y0, Y_1 >= 0.  With that coefficient
      of Y_1 positive, Y_1 >= (q_d_lo - c q_s_hi - (p_d0_hi - c p_s0_lo)
      Y0) / (p_d1_hi - c p_s1_lo); Y_1 <= 1 caps it.
    * q1 <= u_s p_s(1) Y_1, the signal's untagged single-photon gain:
      q1 = u_s p_s1_lo y1.
    * e1 >= e_1: E_d Q_d >= u_d (p_d(0) Y0 e0 + p_d(1) Y_1 e_1), so
      p_d(1) Y_1 e_1 <= E_d Q_d / u_d - p_d0_lo Y0 e0, and dividing by the
      smaller p_d1_lo y1 gives e1; it is capped at 1/2.

    So the rate 1/2 [-Q_s f_ec H2(E_s) + q1 (1 - H2(e1))], floored at 0,
    is at most the one that the true u_s p_s(1) Y_1 and e_1 would give.  It
    is 0 when a fraction is 0 (all may be tagged), when p_d1_hi - c p_s1_lo
    is not positive, or when y1 or q1 is not positive.
    """
    Q_s, E_s, omd_s, pmf_s = signal
    Q_d, E_d, omd_d, pmf_d = decoy
    if omd_s <= 0.0 or omd_d <= 0.0:
        return 0.0
    (p_s0_lo, _), (p_s1_lo, _) = pmf_s(0), pmf_s(1)
    (p_d0_lo, p_d0_hi), (p_d1_lo, p_d1_hi) = pmf_d(0), pmf_d(1)

    q_d_lo = max(0.0, Q_d - (1.0 - omd_d))
    q_s_hi = Q_s / omd_s
    denom = p_d1_hi - c * p_s1_lo
    if denom <= 0.0:
        return 0.0
    y1_lower = (q_d_lo - c * q_s_hi - (p_d0_hi - c * p_s0_lo) * Y0) / denom
    if y1_lower <= 0.0:
        return 0.0
    y1_lower = min(1.0, y1_lower)
    q1_lower = omd_s * p_s1_lo * y1_lower
    if q1_lower <= 0.0:
        return 0.0
    e1_upper = (E_d * Q_d / omd_d - e0 * Y0 * p_d0_lo) / (y1_lower * p_d1_lo)
    e1_upper = min(0.5, max(0.0, e1_upper))
    rate = 0.5 * (-Q_s * f_ec * binary_entropy(E_s) + q1_lower * (1.0 - binary_entropy(e1_upper)))
    return max(0.0, rate)


def decoy_rate_untagged(
    scheme: PassiveSchemeParams,
    ch: ChannelParams,
    settings: DecoySettings,
    w: ThresholdWindow,
    one_minus_delta_s: float,
    one_minus_delta_d: float,
) -> RatePoint:
    """Three-intensity decoy rate restricted to window-selected pulses.

    The photon statistics of an untagged pulse at the encoder output are
    an unknown mixture of Binomial(m, lambda_A_x) over m in [m1, m2], so
    the vacuum and single-photon pmfs enter the elimination as their
    bracket over m, and c is the largest n >= 2 ratio p_d(n) / p_s(n).
    """
    for omd in (one_minus_delta_s, one_minus_delta_d):
        if not 0.0 <= omd <= 1.0:
            raise ValueError("untagged fractions must be in [0, 1]")
    m1, m2 = max(0.0, w.m1), w.m2
    lam_s = lambda_A(replace(scheme, lam=settings.lambda_s))[0]
    lam_d = lambda_A(replace(scheme, lam=settings.lambda_d))[0]
    Q_s, E_s = channel_gain_qber(scheme.mu * (1.0 - scheme.t_B) * settings.lambda_s, ch)
    Q_d, E_d = channel_gain_qber(scheme.mu * (1.0 - scheme.t_B) * settings.lambda_d, ch)

    # The pointwise binomial ratio p_d(n) / p_s(n) decreases in n and
    # increases in m, so its maximum over n >= 2 sits at n = 2, m = m2.
    log_r = math.log(lam_d) + math.log1p(-lam_s) - math.log(lam_s) - math.log1p(-lam_d)
    c = math.exp(2.0 * log_r + m2 * (math.log1p(-lam_d) - math.log1p(-lam_s)))
    rate = _decoy_elimination(
        (Q_s, E_s, one_minus_delta_s, partial(_binom_pmf_range, lam=lam_s, m1=m1, m2=m2)),
        (Q_d, E_d, one_minus_delta_d, partial(_binom_pmf_range, lam=lam_d, m1=m1, m2=m2)),
        c, ch.Y0, ch.e0, settings.f_ec,
    )
    return RatePoint(L=ch.L, rate=rate, delta_bar=1.0 - one_minus_delta_s, Q=Q_s, E=E_s)


def decoy_rate_trusted(
    ch: ChannelParams, nu_s: float, nu_d: float, f_ec: float = 1.0
) -> RatePoint:
    """Three-intensity decoy rate for a trusted Poissonian source.

    The same elimination with nothing tagged and the exact Poisson pmfs.
    Their ratio (nu_d / nu_s)^n e^(nu_s - nu_d) falls with n, so c is its
    value at n = 2.
    """
    if not 0.0 < nu_d < nu_s:
        raise ValueError("need 0 < nu_d < nu_s")
    Q_s, E_s = channel_gain_qber(nu_s, ch)
    Q_d, E_d = channel_gain_qber(nu_d, ch)
    rate = _decoy_elimination(
        (Q_s, E_s, 1.0, _poisson_pmf(nu_s)),
        (Q_d, E_d, 1.0, _poisson_pmf(nu_d)),
        (nu_d / nu_s) ** 2 * math.exp(nu_s - nu_d), ch.Y0, ch.e0, f_ec,
    )
    return RatePoint(L=ch.L, rate=rate, delta_bar=0.0, Q=Q_s, E=E_s)
