"""Key-rate assemblies: GLLP, photon-number analyses, decoy estimation."""

import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import xlogy

from passiveqkd import (
    ChannelParams,
    DecoySettings,
    PassiveSchemeParams,
    PhotonNumberDistribution,
    RatePoint,
    ThresholdWindow,
    apn_delta_bar,
    bernoulli_transform,
    binary_entropy,
    channel_gain_qber,
    coefficient_a,
    decoy_rate_trusted,
    decoy_rate_untagged,
    gllp_rate,
    keyrate,
    multiphoton_probability,
    pna_rate_bb84,
    poisson_multiphoton,
    poisson_pnd,
    tagged_rate,
    trusted_delta_bar,
)

GYS = ChannelParams(eta_B=0.045, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(0.499915958165, abs=1e-9)


def test_binary_entropy_matches_scipy_xlogy_bit_for_bit():
    grid = [0.0, 1.0, 5e-324, 1e-300, 0.5, 0.11, 1.0 - 2.0**-53]
    draws = np.random.default_rng(16).random(4000).tolist()
    for x in grid + draws:
        reference = float(-(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x)) / math.log(2.0))
        assert repr(binary_entropy(x)) == repr(reference), x


def test_channel_gain_qber_zero_distance():
    ch = ChannelParams(eta_B=0.5, alpha_prime=0.21, Y0=0.0, e_det=0.02)
    Q, E = channel_gain_qber(0.2, ch)
    assert Q == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)
    assert E == pytest.approx(0.02, rel=1e-12)


def test_channel_attenuates_with_distance():
    Qs = [channel_gain_qber(0.1, GYS.at_distance(L))[0] for L in (0.0, 50.0, 100.0)]
    assert Qs[0] > Qs[1] > Qs[2]
    assert GYS.at_distance(10.0).eta_f == pytest.approx(10 ** (-0.21), rel=1e-12)


def test_at_distance_copies_every_field_and_rate_point_is_an_immutable_tuple():
    # every field set off its default, so a field that a rewrite of
    # at_distance drops would show as its default
    ch = ChannelParams(eta_B=0.3, alpha_prime=0.25, Y0=1e-5, e_det=0.02, e0=0.4, L=7.0)
    assert ch.at_distance(42.0) == ChannelParams(0.3, 0.25, 1e-5, 0.02, 0.4, 42.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="L must"):
            ch.at_distance(bad)

    point = RatePoint(1.0, 2.0, 3.0, 4.0, 5.0)
    assert RatePoint._fields == ("L", "rate", "delta_bar", "Q", "E")
    assert repr(point) == "RatePoint(L=1.0, rate=2.0, delta_bar=3.0, Q=4.0, E=5.0)"
    assert point._replace(rate=0.0) == RatePoint(1.0, 0.0, 3.0, 4.0, 5.0)
    for name in ("rate", "extra"):
        with pytest.raises(AttributeError):
            setattr(point, name, 0.0)


def test_tagged_rate_rejects_p_multi_by_name():
    # min(1.0, nan) is 1.0: an unchecked NaN would pass as rate 0, delta_bar nan
    for bad in (math.nan, -1e-3, math.inf):
        with pytest.raises(ValueError, match="p_multi"):
            tagged_rate(0.5, bad, GYS)


def test_gllp_rate_ideal_case():
    # error-free, no tagging: half the gain survives
    assert gllp_rate(0.1, 0.0, 0.0) == pytest.approx(0.05)


def test_gllp_rate_insecure_cases():
    assert gllp_rate(0.1, 0.05, 1.0) == 0.0
    assert gllp_rate(0.1, 0.05, 2.0) == 0.0
    # untagged error rate pushed past 1/2: only the EC term remains -> 0
    assert gllp_rate(0.1, 0.4, 0.3) == 0.0


@given(
    Q=st.floats(1e-9, 1.0),
    E=st.floats(0.0, 0.5),
    delta=st.floats(0.0, 2.0),
    f_ec=st.floats(1.0, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_gllp_rate_never_negative(Q, E, delta, f_ec):
    assert gllp_rate(Q, E, delta, f_ec) >= 0.0


def test_tagged_rate_is_the_gllp_composition_bit_for_bit():
    # the hand-written composition every BB84 mode used to repeat; both
    # clamps of gllp_rate must be reached, Delta-bar >= 1 and E/(1 - Delta-bar) > 1/2
    rng = np.random.default_rng(20260824)
    all_tagged = untagged_too_noisy = 0
    for _ in range(400):
        ch = ChannelParams(eta_B=rng.uniform(0.01, 1.0), alpha_prime=rng.uniform(0.0, 0.4),
                           Y0=10.0 ** rng.uniform(-7.0, -3.0), e_det=rng.uniform(0.0, 0.1),
                           L=rng.uniform(0.0, 200.0))
        mu_p2 = 10.0 ** rng.uniform(-3.0, 0.5)
        f_ec = rng.uniform(1.0, 1.5)
        Q, E = channel_gain_qber(mu_p2, ch)
        p_multi = rng.uniform(0.0, 1.5) * Q
        point = tagged_rate(mu_p2, p_multi, ch, f_ec)
        assert point.rate == gllp_rate(Q, E, min(1.0, p_multi / Q), f_ec)
        assert (point.L, point.Q, point.E, point.delta_bar) == (ch.L, Q, E, p_multi / Q)
        all_tagged += point.delta_bar >= 1.0
        untagged_too_noisy += point.delta_bar < 1.0 and E / (1.0 - point.delta_bar) > 0.5
    assert all_tagged > 0 and untagged_too_noisy > 0


def test_trusted_delta_bar_matches_pnd_computation():
    mu = 0.1
    ch = ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0)
    expected = multiphoton_probability(poisson_pnd(mu)) / channel_gain_qber(mu, ch)[0]
    assert trusted_delta_bar(mu, ch) == pytest.approx(expected, rel=1e-9)
    for mu in (1e-4, 0.5, 3.0):
        expected = multiphoton_probability(poisson_pnd(mu))
        assert poisson_multiphoton(mu) == pytest.approx(expected, rel=1e-9, abs=1e-15)
    assert poisson_multiphoton(0.0) == 0.0
    with pytest.raises(ValueError):
        poisson_multiphoton(-0.1)


def test_apn_delta_bar_uses_worst_case_source():
    scheme = PassiveSchemeParams(t_B=0.5, t_D=1.0, lam=0.002, mu=100.0)
    ch = ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0)
    value = apn_delta_bar(scheme, ch, 100.0)
    Q = channel_gain_qber(0.1, ch)[0]
    assert value == pytest.approx(0.029849164072644 / Q, rel=1e-9)


def test_lambda_A_cases():
    # Case I: the effective transmittance is the attenuator itself
    assert PassiveSchemeParams(0.5, 1.0, 0.3, 1.0).lambda_a == pytest.approx(0.3, abs=1e-12)


def test_lambda_A_rejects_gain():
    with pytest.raises(ValueError):
        PassiveSchemeParams(0.3, 0.5, 0.9, 1.0)


def test_lambda_A_case_equivalence_oracle():
    # thinning to the monitor reference (xi) and then by lambda_A must equal
    # the direct physical thinning to the encoder output (eta), for any
    # photon-number distribution: the virtual cascade preserves statistics
    rng = np.random.default_rng(17)
    for _ in range(15):
        t_B = rng.uniform(0.3, 0.95)
        t_D = rng.uniform(0.3, 1.0)
        cap = t_B * t_D / (1.0 - t_B)
        lam = rng.uniform(0.05, 1.0) * min(1.0, cap)
        scheme = PassiveSchemeParams(t_B=t_B, t_D=t_D, lam=lam, mu=1.0)
        lam_a = scheme.lambda_a
        probs = rng.dirichlet(np.ones(31))  # n_max = 30
        pnd = PhotonNumberDistribution(probs)
        via_monitor = bernoulli_transform(bernoulli_transform(pnd, scheme.xi), lam_a)
        direct = bernoulli_transform(pnd, scheme.eta)
        np.testing.assert_allclose(via_monitor.probs, direct.probs, atol=1e-10)


def test_pna_rate_monotone_in_tagged_fraction():
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=1e-6, mu=1e6)
    w = ThresholdWindow(677160.0, 690840.0)
    rates = [
        pna_rate_bb84(scheme, GYS, w, omd).rate for omd in (1.0, 0.999, 0.9, 0.5)
    ]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_multiphoton_term_does_not_decrease_in_n():
    # pna_rate_bb84 charges every untagged bit a_n at n = floor(m2), the
    # window's worst, as a_{n+1} - a_n = n lam_A^2 (1 - lam_A)^(n-1) >= 0
    ks = np.unique(np.concatenate([np.arange(2, 3000), np.geomspace(2, 1e12, 2000).astype(int)]))
    for lam_a in np.geomspace(1e-12, 0.999, 60):
        assert np.all(np.diff(coefficient_a(ks, float(lam_a))) >= -1e-15)


def test_pna_rate_fully_tagged_is_zero():
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=1e-6, mu=1e6)
    w = ThresholdWindow(677160.0, 690840.0)
    assert pna_rate_bb84(scheme, GYS, w, 0.0).rate == 0.0


def test_decoy_settings_validation():
    with pytest.raises(ValueError):
        DecoySettings(nu_s=0.1, nu_d=0.5, lambda_s=3.42e-7, lambda_d=6.84e-8)
    with pytest.raises(ValueError):
        DecoySettings(nu_s=0.5, nu_d=0.1, lambda_s=6.84e-8, lambda_d=3.42e-7)


def test_decoy_rate_trusted_reference_behaviour():
    # positive at short distance, eventually zero, never negative in between
    rates = [
        decoy_rate_trusted(GYS.at_distance(L), 0.5, 0.1, 1.22).rate
        for L in (0.0, 50.0, 100.0, 180.0)
    ]
    assert rates[0] > rates[1] > rates[2] > 0.0
    assert rates[3] == 0.0


@pytest.mark.parametrize("nu_d", [0.1, 1e-200])
def test_decoy_rate_trusted_is_zero_where_c_passes_the_float_range(nu_d):
    # c = (nu_d / nu_s)^2 e^(nu_s - nu_d): e^800 passes the largest float, so
    # c is inf, or NaN where (nu_d / nu_s)^2 underflows to 0
    assert decoy_rate_trusted(GYS, 800.0, nu_d, 1.22).rate == 0.0


@pytest.mark.parametrize("m1", [9.8e6, 0.0])
def test_decoy_rate_untagged_is_zero_where_c_passes_the_float_range(m1):
    # lambda_A,s m2 ~ 7e5 puts c = exp(2 ln r + m2 (...)) past the float range;
    # from m1 = 0 the signal's single-photon bracket p_s1_lo is 0 and c p_s1_lo NaN
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
    settings_ = DecoySettings(0.5, 0.1, 0.5, 6.84e-8, f_ec=1.22)
    w = ThresholdWindow(m1, 1.02e7)
    assert decoy_rate_untagged(scheme, GYS, settings_, w, 1.0, 1.0).rate == 0.0


def test_decoy_rate_untagged_zero_when_fully_tagged():
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
    settings_ = DecoySettings(0.5, 0.1, 3.42e-7, 6.84e-8, f_ec=1.22)
    w = ThresholdWindow(9.8e6, 1.02e7)
    assert decoy_rate_untagged(scheme, GYS, settings_, w, 0.0, 0.0).rate == 0.0


def test_decoy_rate_untagged_approaches_trusted_with_tight_window():
    # with (almost) no tagging and a narrow window around the mean, the
    # window-restricted estimate should track the trusted decoy curve
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
    settings_ = DecoySettings(0.5, 0.1, 3.42e-7, 6.84e-8, f_ec=1.22)
    mean_m = scheme.mu * scheme.xi
    half = 4.0 * math.sqrt(mean_m)
    w = ThresholdWindow(mean_m - half, mean_m + half)
    for L in (0.0, 40.0, 80.0, 120.0):
        ch = GYS.at_distance(L)
        trusted = decoy_rate_trusted(ch, 0.5, 0.1, 1.22).rate
        untagged = decoy_rate_untagged(scheme, ch, settings_, w, 1.0, 1.0).rate
        assert untagged <= trusted + 1e-12
        assert untagged >= 0.85 * trusted


def test_decoy_rate_untagged_degrades_with_wider_window():
    scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
    settings_ = DecoySettings(0.5, 0.1, 3.42e-7, 6.84e-8, f_ec=1.22)
    mean_m = scheme.mu * scheme.xi
    ch = GYS.at_distance(100.0)
    rates = []
    for half in (4e3, 4e4, 4e5):
        w = ThresholdWindow(mean_m - half, mean_m + half)
        rates.append(decoy_rate_untagged(scheme, ch, settings_, w, 1.0, 1.0).rate)
    assert rates[0] >= rates[1] >= rates[2]


def ma_trusted_rate(ch, nu_s, nu_d, f_ec):
    """Ma, Qi, Zhao and Lo's closed form for a trusted Poissonian source
    (PRA 72, 012326, 2005), the reference for decoy_rate_trusted."""
    Q_s, E_s = channel_gain_qber(nu_s, ch)
    Q_d, E_d = channel_gain_qber(nu_d, ch)
    y1 = (nu_s / (nu_s * nu_d - nu_d**2)) * (
        Q_d * math.exp(nu_d)
        - Q_s * math.exp(nu_s) * (nu_d / nu_s) ** 2
        - (nu_s**2 - nu_d**2) / nu_s**2 * ch.Y0
    )
    if y1 <= 0.0:
        return 0.0, Q_s
    y1 = min(1.0, y1)
    e1 = min(0.5, max(0.0, (E_d * Q_d * math.exp(nu_d) - ch.e0 * ch.Y0) / (y1 * nu_d)))
    q1 = y1 * nu_s * math.exp(-nu_s)
    rate = 0.5 * (-Q_s * f_ec * binary_entropy(E_s) + q1 * (1.0 - binary_entropy(e1)))
    return max(0.0, rate), Q_s


def test_decoy_rate_trusted_matches_closed_form():
    rng = np.random.default_rng(20080527)
    positive = 0
    for _ in range(3000):
        ch = ChannelParams(
            eta_B=rng.uniform(0.01, 1.0),
            alpha_prime=rng.uniform(0.15, 0.3),
            Y0=10 ** rng.uniform(-8, -4),
            e_det=rng.uniform(0.0, 0.1),
            L=rng.uniform(0.0, 250.0),
        )
        nu_s = rng.uniform(0.05, 1.0)
        nu_d = nu_s * rng.uniform(0.02, 0.9)
        f_ec = rng.uniform(1.0, 1.5)
        expected, Q_s = ma_trusted_rate(ch, nu_s, nu_d, f_ec)
        point = decoy_rate_trusted(ch, nu_s, nu_d, f_ec)
        assert abs(point.rate - expected) <= 1e-14 * Q_s
        positive += expected > 0.0
    assert positive >= 500


TABLE2_SCHEME = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
TABLE2_DECOY = DecoySettings(0.5, 0.1, 3.42e-7, 6.84e-8, f_ec=1.22)


def test_decoy_elimination_never_beats_an_admissible_attack(monkeypatch):
    # An attack on the Table-2 scheme: a mixture over m in [m1, m2] shared by
    # both intensities, yields Y_n and error rates e_n shared by their
    # untagged pulses (Y_0 and e_0 the channel's), and tagged gains in
    # [0, delta] with no more errors than clicks.  Fed the attack's exact
    # observations, with the brackets and c that decoy_rate_untagged uses,
    # the elimination must not exceed the rate of the attack's true
    # untagged single-photon term.  Point masses at the window ends and the
    # extreme attacks below make a too small c, a swapped end of the decoy's
    # single-photon bracket or a dropped tagged-gain correction show.
    captured = []
    real = keyrate._decoy_elimination

    def capture(signal, decoy, c, *rest):
        captured.append((signal[3], decoy[3], c))
        return real(signal, decoy, c, *rest)

    monkeypatch.setattr(keyrate, "_decoy_elimination", capture)
    mean_m = TABLE2_SCHEME.mu * TABLE2_SCHEME.xi
    windows = [
        ThresholdWindow(round(mean_m - half), round(mean_m + half))
        for half in (4.0 * math.sqrt(mean_m), 4e4, 2e5)
    ]
    for w in windows:
        decoy_rate_untagged(TABLE2_SCHEME, GYS, TABLE2_DECOY, w, 1.0, 1.0)
    lams = [
        replace(TABLE2_SCHEME, lam=lam).lambda_a
        for lam in (TABLE2_DECOY.lambda_s, TABLE2_DECOY.lambda_d)
    ]

    rng = np.random.default_rng(52327)
    n = np.arange(41)
    positive = 0
    for _ in range(3000):
        i = rng.integers(len(windows))
        w, (pmf_s, pmf_d, c) = windows[i], captured[i]
        kind = rng.integers(3)
        if kind < 2:  # a point mass at one end of the window
            ms, weights = np.array([[w.m1, w.m2][kind]]), np.ones(1)
        else:
            inner = rng.integers(w.m1 + 1, w.m2, size=3)
            ms = np.concatenate(([w.m1, w.m2], inner))
            weights = rng.dirichlet(np.full(ms.size, 0.5))
        p_s, p_d = (stats.binom.pmf(n[:, None], ms[None, :], lam) @ weights for lam in lams)

        ch = GYS.at_distance(rng.uniform(0.0, 150.0))
        eta = ch.eta_B * ch.eta_f
        Y = (1.0 - (1.0 - eta) ** n) * np.exp(rng.normal(0.0, rng.uniform(0.0, 1.0), n.size))
        if rng.random() < 0.2:
            Y = rng.uniform(0.0, 1.0, n.size)
        Y = np.clip(Y, 0.0, 1.0)
        e = rng.uniform(0.0, 1.0, n.size) * 10 ** rng.uniform(-3, np.log10(0.5))
        # extreme attacks make the bounds tight: no multiphoton clicks or
        # errors, and tagged gains and errors at their ends
        extreme = rng.random() < 0.5
        if extreme:
            Y[2:] *= rng.integers(2)
            e[2:] *= rng.integers(2)
        Y[0], e[0] = ch.Y0, ch.e0

        obs = []
        for p, pmf in ((p_s, pmf_s), (p_d, pmf_d)):
            delta = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-8, -1)
            tagged = delta * (rng.integers(2) if extreme else rng.uniform())
            tagged_err = tagged * (rng.integers(2) if extreme else rng.uniform())
            Q = (1.0 - delta) * (p @ Y) + tagged
            E = ((1.0 - delta) * (p @ (Y * e)) + tagged_err) / Q
            obs.append((Q, E, 1.0 - delta, pmf))
        (Q_s, E_s, u_s, _), _ = obs
        f_ec = TABLE2_DECOY.f_ec
        rate = real(obs[0], obs[1], c, ch.Y0, ch.e0, f_ec)
        true = 0.5 * (
            -Q_s * f_ec * binary_entropy(E_s)
            + u_s * p_s[1] * Y[1] * (1.0 - binary_entropy(min(e[1], 0.5)))
        )
        assert rate <= max(0.0, true) + 1e-12 * abs(true)
        positive += rate > 0.0
    assert positive >= 100


def _clear_decoy_caches():
    keyrate._untagged_decoy_terms.cache_clear()


def exact_binom_pmfs(lam, m):
    # p(0) = (1 - lam)^m and p(1) = m lam (1 - lam)^(m - 1), to 60 digits
    lam = decimal.Decimal(lam)
    p0 = (decimal.Decimal(m) * (1 - lam).ln()).exp()
    return p0, decimal.Decimal(m) * lam * p0 / (1 - lam)


def test_binom_pmf_range_matches_the_exact_pmfs_and_covers_every_integer():
    # windows of m up to 1e8 with 1/lam inside or outside, their edges real or
    # integer.  Rounding the exponent x = (m - n) log1p(-lam) costs |x| eps,
    # so each end must agree with the exact closed form at the same candidates
    # within (4 + |x|) eps, and [lo, hi] must hold the pmf's extremes over the
    # integers in [m1, m2] within as much.  The pmf in m rises while m < 1/lam
    # - 1 and falls after, so over the integers it is least at an end and
    # greatest at an end or at floor(1/lam).
    rng = np.random.default_rng(2501)
    eps = np.finfo(float).eps
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for case in range(1000):
            lam = float(np.exp(rng.uniform(np.log(1e-9), np.log(0.5))))
            top = np.log(min(30.0 / lam, 1e8))
            m1, m2 = np.sort(np.exp(rng.uniform(np.log(1e-3 / lam), top, 2)))
            m1, m2 = (math.floor(m1), math.ceil(m2)) if case % 2 else (float(m1), float(m2))
            inv = 1 / decimal.Decimal(lam)
            mode = [k for k in range(int(inv) - 2, int(inv) + 3) if m1 <= k <= m2]
            ints = [k for k in (math.ceil(m1), math.floor(m2)) if m1 <= k <= m2] + mode
            tol = (4.0 + max(m2, 1.0) * -math.log1p(-lam)) * eps
            at = {m: exact_binom_pmfs(lam, m) for m in (m1, m2, *ints)}
            for n in (0, 1):
                lo, hi = keyrate._binom_pmf_range(n, lam, m1, m2)
                exact_lo = min(at[m1][n], at[m2][n])
                exact_hi = max(at[m][n] for m in (m1, m2, *(mode if n else ())))
                for got, exact in ((lo, exact_lo), (hi, exact_hi)):
                    assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal(tol) * exact, (
                        n, lam, m1, m2)
                if ints:
                    assert lo <= float(min(at[k][n] for k in ints)) * (1.0 + tol)
                    assert hi >= float(max(at[k][n] for k in ints)) * (1.0 - tol)


def test_decoy_rate_untagged_rejects_lambda_a_above_one_on_every_call():
    # t_B t_D / (1 - t_B) = 0.05 / 0.9, so lambda_s = 0.5 gives lambda_A = 9;
    # the memoized terms must not turn a second call into a silent result
    scheme = PassiveSchemeParams(t_B=0.1, t_D=0.5, lam=0.01, mu=1e6)
    settings_ = DecoySettings(0.5, 0.1, 0.5, 0.01)
    w = ThresholdWindow(4e4, 6e4)
    for _ in range(2):
        with pytest.raises(ValueError, match="lambda_a"):
            decoy_rate_untagged(scheme, GYS, settings_, w, 1.0, 1.0)


def test_decoy_rate_untagged_cache_entries_do_not_cross(monkeypatch):
    # interleaved calls over two schemes and two windows, with warm caches,
    # give exactly the points of each curve computed from cleared caches;
    # a curve evaluates its four brackets once: p(0) and p(1) for each of
    # the two intensities
    calls = []
    real = keyrate._binom_pmf_range
    monkeypatch.setattr(
        keyrate, "_binom_pmf_range", lambda *args: calls.append(args) or real(*args)
    )
    schemes = (TABLE2_SCHEME, replace(TABLE2_SCHEME, t_D=0.7))
    mean_m = TABLE2_SCHEME.mu * TABLE2_SCHEME.xi
    windows = [
        ThresholdWindow(round(mean_m - half), round(mean_m + half))
        for half in (4.0 * math.sqrt(mean_m), 4e4)
    ]
    combos = [(scheme, w) for scheme in schemes for w in windows]
    chs = [GYS.at_distance(L) for L in np.arange(0.0, 151.0, 1.0)]
    fresh = {}
    for combo in combos:
        _clear_decoy_caches()
        calls.clear()
        scheme, w = combo
        fresh[combo] = [
            decoy_rate_untagged(scheme, ch, TABLE2_DECOY, w, 0.999999, 0.999998) for ch in chs
        ]
        assert len(calls) == 4
    _clear_decoy_caches()
    calls.clear()
    for i, ch in enumerate(chs):
        for scheme, w in combos:
            point = decoy_rate_untagged(scheme, ch, TABLE2_DECOY, w, 0.999999, 0.999998)
            assert point == fresh[scheme, w][i]
    assert len(calls) <= 4 * len(combos)
    # the four curves differ, so an entry served to the wrong key would show
    curves = [tuple(p.rate for p in fresh[combo]) for combo in combos]
    assert len(set(curves)) == len(combos)
    assert all(any(rate > 0.0 for rate in curve) for curve in curves)


def test_decoy_rate_untagged_fully_tagged_point_evaluates_no_pmf(monkeypatch):
    # the brackets are computed when a curve's cache entry is filled; past
    # that, a fully tagged point evaluates no bracket, and either intensity
    # fully tagged gives rate 0
    _clear_decoy_caches()
    w = ThresholdWindow(9.8e6, 1.02e7)
    ch = GYS.at_distance(50.0)
    assert decoy_rate_untagged(TABLE2_SCHEME, ch, TABLE2_DECOY, w, 1.0, 1.0).rate > 0.0
    calls = []
    real = keyrate._binom_pmf_range
    monkeypatch.setattr(
        keyrate, "_binom_pmf_range", lambda *args: calls.append(args) or real(*args)
    )
    for fractions in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)):
        point = decoy_rate_untagged(TABLE2_SCHEME, ch, TABLE2_DECOY, w, *fractions)
        assert point.rate == 0.0
    assert calls == []
