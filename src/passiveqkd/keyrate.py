"""Channel model, GLLP-style key rates, and decoy-state estimation.

Rates follow the tagged-bits accounting: a fraction Delta-bar of detection
events is conceded to the eavesdropper, error correction leaks
f * H2(E) per detected bit, and only the untagged remainder distills key:

    R >= 1/2 * Q * { -f(E) * H2(E) + (1 - Delta) * [1 - H2(E / (1 - Delta))] }.

The three BB84 modes (average-photon-number monitor, two-threshold
analyzer, trusted source) share one such rate, ``tagged_rate``, and differ
only in the bound on the multiphoton probability P_multi at the encoder
output, with Delta-bar = P_multi / Q.  Both three-intensity decoy rates run
one signal/decoy elimination: on window-selected untagged pulses with
bracketed photon-number pmfs, and on a trusted source with exact ones.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

from .noise_bounds import ThresholdWindow
from .photon_stats import PassiveSchemeParams
from .worstcase import coefficient_a, maximize_ratio

__all__ = [
    "ChannelParams",
    "DecoySettings",
    "RatePoint",
    "binary_entropy",
    "channel_gain_qber",
    "gllp_rate",
    "tagged_rate",
    "poisson_multiphoton",
    "apn_delta_bar",
    "trusted_delta_bar",
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
        if not 0.0 <= self.alpha_prime < math.inf:
            raise ValueError("alpha_prime must be non-negative and finite")
        if not 0.0 <= self.Y0 < 1.0:
            raise ValueError("Y0 must be in [0, 1)")
        if not 0.0 <= self.e_det < 0.5:
            raise ValueError("e_det must be in [0, 0.5)")
        if not 0.0 <= self.e0 <= 1.0:
            raise ValueError("e0 must be in [0, 1]")
        if not 0.0 <= self.L < math.inf:
            raise ValueError("L must be non-negative and finite")

    @property
    def eta_f(self) -> float:
        return 10.0 ** (-self.alpha_prime * self.L / 10.0)

    def at_distance(self, L: float) -> "ChannelParams":
        # the constructor, not dataclasses.replace: the same checks at a
        # fraction of the cost on a curve's per-distance path
        return ChannelParams(self.eta_B, self.alpha_prime, self.Y0, self.e_det, self.e0, L)


@dataclass(frozen=True)
class DecoySettings:
    """Three-intensity decoy configuration (signal, weak decoy, vacuum)."""

    nu_s: float  # signal APN at the encoder output
    nu_d: float  # weak-decoy APN
    lambda_s: float
    lambda_d: float
    f_ec: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.nu_d < self.nu_s < math.inf:
            raise ValueError("nu_d must satisfy 0 < nu_d < nu_s < inf")
        if not 0.0 < self.lambda_s <= 1.0:
            raise ValueError("lambda_s must be in (0, 1]")
        if not 0.0 < self.lambda_d < self.lambda_s:
            raise ValueError("lambda_d must satisfy 0 < lambda_d < lambda_s")
        if not self.f_ec >= 1.0:
            raise ValueError("f_ec must be >= 1")


class RatePoint(namedtuple("RatePoint", "L rate delta_bar Q E")):
    """One point of a key-rate curve: the fiber length L (km), the secure
    key rate (bits per pulse, floored at 0), the tagged fraction Delta-bar,
    the gain Q and the QBER E.

    An immutable tuple, built at tuple cost once per distance; ``_replace``
    makes a modified copy.
    """

    __slots__ = ()


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must be in [0, 1]")
    y = 1.0 - x
    return float(-((x * math.log(x) if x else 0.0) + (y * math.log(y) if y else 0.0)) / _LN2)


def channel_gain_qber(mu_p2: float, ch: ChannelParams) -> tuple[float, float]:
    """Expected gain and QBER for a Poissonian pulse of APN ``mu_p2`` at the
    encoder output, over a fiber of length ch.L."""
    if not mu_p2 >= 0.0:
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
    if not 0.0 < Q < math.inf:
        raise ValueError("Q must be positive and finite")
    if not 0.0 <= E < 1.0:
        raise ValueError("E must be in [0, 1)")
    if not 0.0 <= delta_bar:
        raise ValueError("delta_bar must be non-negative")
    if not f_ec >= 1.0:
        raise ValueError("f_ec must be >= 1")
    if delta_bar >= 1.0:
        return 0.0
    untagged = 1.0 - delta_bar
    e_untagged = E / untagged
    priv = 0.0 if e_untagged > 0.5 else untagged * (1.0 - binary_entropy(e_untagged))
    rate = 0.5 * Q * (-f_ec * binary_entropy(E) + priv)
    return max(0.0, rate)


def tagged_rate(mu_p2: float, p_multi: float, ch: ChannelParams, f_ec: float = 1.0) -> RatePoint:
    """BB84 rate of a source whose multiphoton probability is at most ``p_multi``.

    The pulse of APN ``mu_p2`` at the encoder output sets the gain Q and
    QBER E; every multiphoton pulse is conceded as tagged, so Delta-bar =
    p_multi / Q.  The APN monitor, the photon-number analyzer and the
    trusted source differ only in the bound they pass here.
    """
    if not 0.0 <= p_multi < math.inf:
        raise ValueError("p_multi must be non-negative and finite")
    Q, E = channel_gain_qber(mu_p2, ch)
    delta_bar = p_multi / Q
    return RatePoint(ch.L, gllp_rate(Q, E, min(1.0, delta_bar), f_ec), delta_bar, Q, E)


def poisson_multiphoton(mu: float) -> float:
    """P(n >= 2) of a Poissonian pulse of APN ``mu``."""
    if not 0.0 <= mu < math.inf:
        raise ValueError("mu must be non-negative and finite")
    return -math.expm1(-mu) - mu * math.exp(-mu)


def apn_delta_bar(
    scheme: PassiveSchemeParams, ch: ChannelParams, mu_upper: float
) -> float:
    """Tagged-fraction bound for the average-photon-number monitor.

    The adversarial multiphoton bound at the encoder output, divided by the
    expected gain of the (Poissonian) source.
    """
    p_multi = maximize_ratio(scheme.eta, mu_upper).p_multi_upper
    return tagged_rate(mu_upper * scheme.eta, p_multi, ch).delta_bar


def trusted_delta_bar(mu_p2: float, ch: ChannelParams) -> float:
    """Tagged fraction for a known Poissonian source of APN ``mu_p2``."""
    p_multi = poisson_multiphoton(mu_p2)
    return 0.0 if mu_p2 == 0.0 else tagged_rate(mu_p2, p_multi, ch).delta_bar


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
    window, a_n at n = floor(m2): a_n does not decrease in n, as a_{n+1} - a_n
    = n lam_A^2 (1 - lam_A)^(n-1) >= 0 (see ``worstcase.maximize_ratio``).
    """
    if not 0.0 <= one_minus_delta <= 1.0:
        raise ValueError("one_minus_delta must be in [0, 1]")
    lam_a = scheme.lambda_a
    delta = 1.0 - one_minus_delta
    if w.m2 >= 2 and lam_a < 1.0:
        multi_worst = coefficient_a(int(math.floor(w.m2)), lam_a)
    else:
        multi_worst = 0.0 if w.m2 < 2 else 1.0
    point = tagged_rate(scheme.mu * scheme.eta, delta + (1.0 - delta) * multi_worst, ch, f_ec)
    # all tagged: no key, even where Q = Y0 + click exceeds 1 and so Delta-bar < 1
    return point._replace(rate=0.0) if delta >= 1.0 else point


def _binom_pmf_range(n: int, lam: float, m1: float, m2: float) -> tuple[float, float]:
    """Min and max over m in [m1, m2] of the Binomial(m, lam) pmf at n = 0 or 1.

    The pmf is its closed form (m lam)^n (1 - lam)^(m - n), as C(m, n) = m^n
    for n <= 1: p(0) = exp(m log1p(-lam)) and p(1) = m lam exp((m - 1)
    log1p(-lam)).  Rounding log1p and the product costs |x| eps on the
    exponent x = (m - n) log1p(-lam), so each value errs by about (2 + |x|)
    eps relative.
    As a function of m the pmf rises while m < n / lam - 1 and falls after,
    so the extremes sit at the endpoints and (for the max) at the mode.
    Where n / lam passes m2 + 2 (or is inf, at a subnormal lam) the mode's
    neighbours all lie above m2.
    """
    candidates = [m1, m2]
    if n >= 1 and n / lam <= m2 + 2.0:
        m_star = math.floor(n / lam)
        for mm in (m_star - 1, m_star, m_star + 1):
            if m1 <= mm <= m2:
                candidates.append(float(mm))
    log_q = math.log1p(-lam)
    vals = [(m * lam) ** n * math.exp((m - n) * log_q) for m in candidates]
    return min(vals[:2]), max(vals)


def _exp(x: float) -> float:
    """e^x, or inf where it passes the largest float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _decoy_elimination(signal, decoy, c: float, Y0: float, e0: float, f_ec: float) -> float:
    """Signal/weak-decoy/vacuum elimination on untagged pulses; the key rate.

    The elimination of Ma, Qi, Zhao and Lo (PRA 72, 012326, 2005), run on
    the untagged pulses of Zhao, Qi and Lo (PRA 77, 052327, 2008).
    ``signal`` and ``decoy`` are each (Q, E, u, (p0, p1)): the observed gain
    and QBER, the untagged fraction u = 1 - delta, and the (lo, hi) brackets
    of an untagged pulse's vacuum and single-photon probabilities p(0) and
    p(1).  ``c`` must satisfy c >= p_d(n) / p_s(n) for every n >= 2; Y0 and
    e0 are the vacuum yield and its error rate.

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
    is not positive, or when y1 or q1 is not positive.  A c past the float
    range is inf: then p_d1_hi - c p_s1_lo is -inf, or NaN where p_s1_lo = 0
    (whose q1 is 0), and either way the rate is 0.
    """
    Q_s, E_s, omd_s, ((p_s0_lo, _), (p_s1_lo, _)) = signal
    Q_d, E_d, omd_d, ((p_d0_lo, p_d0_hi), (p_d1_lo, p_d1_hi)) = decoy
    if omd_s <= 0.0 or omd_d <= 0.0:
        return 0.0

    q_d_lo = max(0.0, Q_d - (1.0 - omd_d))
    q_s_hi = Q_s / omd_s
    denom = p_d1_hi - c * p_s1_lo
    if not denom > 0.0:  # NaN too: inf c times p_s1_lo = 0
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


@lru_cache(maxsize=64)
def _untagged_decoy_terms(
    scheme: PassiveSchemeParams, settings: DecoySettings, m1: float, m2: float
):
    """Each intensity's encoder-output APN and p(0), p(1) brackets, and c.

    None of them depends on the channel, so a curve computes them once.
    """
    # each attenuator as the scheme's own, whose constructor rejects lambda_A > 1
    lam_s = replace(scheme, lam=settings.lambda_s).lambda_a
    lam_d = replace(scheme, lam=settings.lambda_d).lambda_a
    mu_out = scheme.mu * (1.0 - scheme.t_B)
    # The pointwise binomial ratio p_d(n) / p_s(n) decreases in n and
    # increases in m, so its maximum over n >= 2 sits at n = 2, m = m2.
    log_r = math.log(lam_d) + math.log1p(-lam_s) - math.log(lam_s) - math.log1p(-lam_d)
    c = _exp(2.0 * log_r + m2 * (math.log1p(-lam_d) - math.log1p(-lam_s)))
    return (
        (mu_out * settings.lambda_s, tuple(_binom_pmf_range(n, lam_s, m1, m2) for n in (0, 1))),
        (mu_out * settings.lambda_d, tuple(_binom_pmf_range(n, lam_d, m1, m2) for n in (0, 1))),
        c,
    )


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
    if not (0.0 <= one_minus_delta_s <= 1.0 and 0.0 <= one_minus_delta_d <= 1.0):
        raise ValueError("untagged fractions must be in [0, 1]")
    m1, m2 = max(0.0, w.m1), w.m2
    (mu_s, p_s), (mu_d, p_d), c = _untagged_decoy_terms(scheme, settings, m1, m2)
    Q_s, E_s = channel_gain_qber(mu_s, ch)
    Q_d, E_d = channel_gain_qber(mu_d, ch)
    rate = _decoy_elimination(
        (Q_s, E_s, one_minus_delta_s, p_s), (Q_d, E_d, one_minus_delta_d, p_d),
        c, ch.Y0, ch.e0, settings.f_ec,
    )
    return RatePoint(ch.L, rate, 1.0 - one_minus_delta_s, Q_s, E_s)


def decoy_rate_trusted(
    ch: ChannelParams, nu_s: float, nu_d: float, f_ec: float = 1.0
) -> RatePoint:
    """Three-intensity decoy rate for a trusted Poissonian source.

    The same elimination with nothing tagged and the exact Poisson p(0) =
    e^-nu and p(1) = nu e^-nu, each its own (lo, hi) bracket.  Their ratio
    (nu_d / nu_s)^n e^(nu_s - nu_d) falls with n, so c is its value at n = 2.
    """
    if not 0.0 < nu_d < nu_s < math.inf:
        raise ValueError("need 0 < nu_d < nu_s < inf")
    Q_s, E_s = channel_gain_qber(nu_s, ch)
    Q_d, E_d = channel_gain_qber(nu_d, ch)
    p0_s, p0_d = math.exp(-nu_s), math.exp(-nu_d)
    rate = _decoy_elimination(
        (Q_s, E_s, 1.0, ((p0_s,) * 2, (nu_s * p0_s,) * 2)),
        (Q_d, E_d, 1.0, ((p0_d,) * 2, (nu_d * p0_d,) * 2)),
        (nu_d / nu_s) ** 2 * _exp(nu_s - nu_d), ch.Y0, ch.e0, f_ec,
    )
    return RatePoint(ch.L, rate, 0.0, Q_s, E_s)
