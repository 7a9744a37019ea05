"""Checks of passiveqkd's outputs against independent computations.

Every check returns a list of failure messages; an empty list means the
output passed.  Nothing here calls passiveqkd: the channel model, the
worst-case coefficient a(k), the Clopper-Pearson tails, the noise-bound
constants and the thinned photon-number distribution are all recomputed
from their definitions with numpy and scipy.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import optimize, stats

# Root of e^x = 1 + x + x^2: the maximizer of g(x) = (1 - e^-x - x e^-x) / x.
X_STAR = float(optimize.brentq(lambda x: math.expm1(x) - x - x * x, 1.0, 3.0, xtol=1e-15))

RATE_REL = 2e-9  # tables print 10 significant digits
CP_STEP = 1e-11  # p-step for the Clopper-Pearson bracket, well below 1e-9


# ---------------------------------------------------------------- curves


def parse_table(text: str):
    """Split ``run_scenario`` output into (scenario dict, rows, summary).

    Rows are tuples (L, rate, Q, E, delta_bar, untagged) with None for
    empty fields; the summary holds the trailing ``# key: value`` lines.
    """
    data, rows, summary = None, [], {}
    for line in text.splitlines():
        if line.startswith("# scenario: "):
            data = json.loads(line[len("# scenario: "):])
        elif line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            summary[key] = value
        elif line and not line.startswith("#"):
            rows.append(tuple(float(f) if f else None for f in line.split("\t")))
    return data, rows, summary


def channel_q_e(mu_p2: float, ch: dict, L: float) -> tuple[float, float]:
    eta_f = 10.0 ** (-ch["alpha_prime"] * L / 10.0)
    y0, e0 = ch.get("Y0", 0.0), ch.get("e0", 0.5)
    click = -math.expm1(-mu_p2 * ch["eta_B"] * eta_f)
    q = y0 + click
    return q, (e0 * y0 + ch.get("e_det", 0.0) * click) / q


def encoder_apn(data: dict, L: float) -> float:
    """Mean photon number leaving the encoder for one row of a sweep."""
    if data["mode"] == "trusted-decoy":
        return data["decoy"]["nu_s"]
    s, ch = data["scheme"], data["channel"]
    if data["mode"] == "pna-decoy":
        return s["mu"] * (1.0 - s["t_B"]) * data["decoy"]["lambda_s"]
    if s["lam"] == "optimized":
        return ch["eta_B"] * 10.0 ** (-ch["alpha_prime"] * L / 10.0)
    return s["mu"] * s["lam"] * (1.0 - s["t_B"])


def check_table(data: dict, rows) -> list[str]:
    """Every row's Q and E match the channel model; every rate is >= 0."""
    bad = []
    if data["mode"] == "mc-pipeline":
        return bad
    if not rows:
        return ["empty table"]
    for L, rate, Q, E, _, _ in rows:
        q, e = channel_q_e(encoder_apn(data, L), data["channel"], L)
        if not math.isclose(Q, q, rel_tol=RATE_REL):
            bad.append(f"L={L:g}: Q={Q!r} but channel model gives {q!r}")
        if not math.isclose(E, e, rel_tol=RATE_REL, abs_tol=1e-15):
            bad.append(f"L={L:g}: E={E!r} but channel model gives {e!r}")
        if not rate >= 0.0:
            bad.append(f"L={L:g}: negative rate {rate!r}")
    return bad


def reach(rows) -> float | None:
    """Largest L with a positive rate, or None; rows start with (L, rate)."""
    positive = [float(r[0]) for r in rows if r[1] > 0.0]
    return max(positive) if positive else None


def check_ordering(lower_rows, upper_rows, what: str) -> list[str]:
    """lower rate <= upper rate at every L the two tables share."""
    upper = {round(r[0], 6): r[1] for r in upper_rows}
    bad = []
    for L, rate, *_ in lower_rows:
        other = upper.get(round(L, 6))
        if other is not None and rate > other * (1.0 + RATE_REL):
            bad.append(f"{what}: L={L:g}: {rate!r} > {other!r}")
    return bad


def check_reach(rows, expected_km: float, tol_km: float) -> list[str]:
    got = reach(rows)
    if got is None or abs(got - expected_km) > tol_km:
        return [f"reach {got} km, expected {expected_km} +- {tol_km} km"]
    return []


def coefficient_a(k: int, eta: float) -> float:
    """P(more than one of k photons survives transmittance eta)."""
    log1m = math.log1p(-eta)
    return -math.expm1(k * log1m) - k * eta * math.exp((k - 1) * log1m)


def worst_case_sandwich(eta: float, mu: float) -> tuple[float, float]:
    """mu a(k0)/k0 <= max_k mu a(k)/k <= mu l g(x*), l = -ln(1 - eta).

    a(k) <= 1 - e^-x - x e^-x at x = k l because eta / (1 - eta) >= l, so
    a(k)/k <= l g(k l) <= l g(x*); k0 = round(x*/l) is feasible (k0 >= mu)
    whenever mu eta is well below x*.
    """
    ell = -math.log1p(-eta)
    k0 = max(2, round(X_STAR / ell), math.ceil(mu))
    g_star = -math.expm1(-X_STAR) / X_STAR - math.exp(-X_STAR)
    return mu * coefficient_a(k0, eta) / k0, mu * ell * g_star


def check_worst_case(eta: float, mu: float, p_multi_upper: float) -> list[str]:
    lo, hi = worst_case_sandwich(eta, mu)
    if not lo * (1.0 - 1e-12) <= p_multi_upper <= hi * (1.0 + 1e-12):
        return [f"eta={eta!r}: p_multi_upper {p_multi_upper!r} outside [{lo!r}, {hi!r}]"]
    return []


def check_worst_case_anchor(p_multi_upper: float) -> list[str]:
    """Paper value for eta = 1e-3, mu = 100 (output intensity 0.1)."""
    if not math.isclose(p_multi_upper, 0.02985, rel_tol=2e-4):
        return [f"maximize_ratio(1e-3, 100) = {p_multi_upper!r}, expected 0.02985"]
    return []


def check_pipeline_row(rows, summary) -> list[str]:
    """mc-pipeline scenarios print one row holding the untagged bound."""
    if len(rows) != 1 or rows[0][5] is None:
        return ["mc-pipeline table must hold exactly one untagged_lower row"]
    value = rows[0][5]
    bad = []
    if not 0.0 < value <= 1.0:
        bad.append(f"untagged_lower {value!r} outside (0, 1]")
    if not math.isclose(float(summary.get("untagged_lower", "nan")), value, rel_tol=RATE_REL):
        bad.append("summary untagged_lower differs from the table")
    return bad


# ------------------------------------------------------- monitor records


def window_mass(mean: float, m1: float, m2: float) -> float:
    """P(ceil(m1) <= m <= floor(m2)) for a Poissonian signal m of this mean."""
    lo, hi = math.ceil(m1), math.floor(m2)
    if hi < lo:
        return 0.0
    return float(stats.poisson.cdf(hi, mean) - stats.poisson.cdf(lo - 1, mean))


def check_bound_sound(value: float, true_mass: float) -> list[str]:
    if value > true_mass + 1e-12:
        return [f"untagged bound {value!r} exceeds the true windowed mass {true_mass!r}"]
    return []


def check_clopper_pearson(x: int, M: int, alpha: float, lower: float, upper: float) -> list[str]:
    """Each bound brackets its tail equation P(tail | p) = alpha / 2.

    The tail is evaluated at p -+ CP_STEP instead of at p itself: at
    M = 1e8 it moves by 1e-5 relative for a 1e-13 step in p, so comparing
    the tail at p with alpha / 2 cannot tell a good bound from a bad one.
    Probe points are kept in [0, 1]; with one or two misses in 1e8 the
    upper bound lies within CP_STEP of 1.
    """
    half, bad = alpha / 2.0, []

    def probes(p):
        return max(0.0, p - CP_STEP), min(1.0, p + CP_STEP)

    if x == 0:
        if lower != 0.0:
            bad.append(f"lower {lower!r} must be 0 at zero successes")
    else:
        below, above = probes(lower)
        if not stats.binom.sf(x - 1, M, below) < half < stats.binom.sf(x - 1, M, above):
            bad.append(f"lower {lower!r} does not bracket P(X >= {x}) = alpha/2")
    if x == M:
        if upper != 1.0:
            bad.append(f"upper {upper!r} must be 1 at full successes")
    else:
        below, above = probes(upper)
        if not stats.binom.cdf(x, M, below) > half > stats.binom.cdf(x, M, above):
            bad.append(f"upper {upper!r} does not bracket P(X <= {x}) = alpha/2")
    return bad


def _max_hit(m1: float, m2: float, sigma: float, lo: float, hi: float) -> float:
    """max over signal positions s in [lo, hi] of P(m1 <= s + N(0, sigma^2) <= m2)."""

    def hit(s):
        return float(stats.norm.cdf((m2 - s) / sigma) - stats.norm.cdf((m1 - s) / sigma))

    best = optimize.minimize_scalar(
        lambda s: -hit(s), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-6 * sigma},
    )
    return max(hit(lo), hit(hi), -best.fun)


def gaussian_b1_b2(m1: float, m2: float, sigma2: float) -> tuple[float, float]:
    """b1 for signal below the window, b2 for signal inside it."""
    sigma = math.sqrt(sigma2)
    b1 = _max_hit(m1, m2, sigma, m1 - 40.0 * sigma, m1)
    b2 = _max_hit(m1, m2, sigma, m1, m2)
    return b1, b2


def check_gaussian_bound(value: float, p_lower: float, m1: float, m2: float,
                         sigma2: float) -> list[str]:
    b1, b2 = gaussian_b1_b2(m1, m2, sigma2)
    expected = min(1.0, max(0.0, (p_lower - b1) / (b2 - b1)))
    if abs(value - expected) > 1e-9:
        return [f"Gaussian bound {value!r}, (p_l - b1)/(b2 - b1) gives {expected!r}"]
    return []


def check_reach_order(reaches: list[float | None], what: str) -> list[str]:
    """Reach must not grow as the noise rises."""
    km = [r if r is not None else -1.0 for r in reaches]
    if any(a < b for a, b in zip(km, km[1:])):
        return [f"{what}: reach grows with the noise: {reaches}"]
    return []


def check_min_reach(got: float | None, floor_km: float) -> list[str]:
    if got is None or not got > floor_km:
        return [f"decoy reach {got} km, expected > {floor_km} km"]
    return []


# ------------------------------------------------- explicit source run


def thinned_window_probability(n_probs: np.ndarray, xi: float, m1: int, m2: int) -> float:
    """P(m1 <= m <= m2) with m ~ Binomial(n, xi) and n ~ n_probs (a binomial mixture)."""
    n = np.arange(n_probs.size)
    inside = stats.binom.cdf(m2, n, xi) - stats.binom.cdf(m1 - 1, n, xi)
    return float(inside @ n_probs)


def check_explicit(k: int, M: int, p_hit: float, p_hit_library: float) -> list[str]:
    bad = []
    if abs(p_hit_library - p_hit) > 1e-9:
        bad.append(f"bernoulli_transform window mass {p_hit_library!r}, "
                   f"binomial mixture {p_hit!r}")
    sd = math.sqrt(M * p_hit * (1.0 - p_hit))
    if abs(k - M * p_hit) > 5.0 * sd:
        bad.append(f"k' = {k} is {(k - M * p_hit) / sd:.1f} sigma from M p = {M * p_hit:.1f}")
    return bad


def check_curve_below(rates, ceiling, what: str) -> list[str]:
    bad = [f"{what}: L index {i}: {r!r} > {c!r}"
           for i, (r, c) in enumerate(zip(rates, ceiling)) if r > c * (1.0 + 1e-12)]
    return bad[:3]
