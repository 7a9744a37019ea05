"""Key-rate assemblies: GLLP, photon-number analyses, decoy estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from passiveqkd import (
    ChannelParams,
    DecoySettings,
    PassiveSchemeParams,
    PhotonNumberDistribution,
    SchemeCase,
    ThresholdWindow,
    apn_delta_bar,
    bernoulli_transform,
    binary_entropy,
    channel_gain_qber,
    decoy_rate_trusted,
    decoy_rate_untagged,
    gllp_rate,
    keyrate,
    lambda_A,
    multiphoton_probability,
    pna_rate_bb84,
    poisson_pnd,
    trusted_delta_bar,
)

GYS = ChannelParams(eta_B=0.045, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-14)
    assert binary_entropy(0.11) == pytest.approx(0.499915958165, abs=1e-9)


def test_channel_gain_qber_zero_distance():
    ch = ChannelParams(eta_B=0.5, alpha_prime=0.21, Y0=0.0, e_det=0.02)
    Q, E = channel_gain_qber(0.2, ch)
    assert Q == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)
    assert E == pytest.approx(0.02, rel=1e-12)


def test_channel_attenuates_with_distance():
    Qs = [channel_gain_qber(0.1, GYS.at_distance(L))[0] for L in (0.0, 50.0, 100.0)]
    assert Qs[0] > Qs[1] > Qs[2]
    assert GYS.at_distance(10.0).eta_f == pytest.approx(10 ** (-0.21), rel=1e-12)


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


def test_trusted_delta_bar_matches_pnd_computation():
    mu = 0.1
    ch = ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0)
    expected = multiphoton_probability(poisson_pnd(mu)) / channel_gain_qber(mu, ch)[0]
    assert trusted_delta_bar(mu, ch) == pytest.approx(expected, rel=1e-9)


def test_apn_delta_bar_uses_worst_case_source():
    scheme = PassiveSchemeParams(t_B=0.5, t_D=1.0, lam=0.002, mu=100.0)
    ch = ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0)
    value = apn_delta_bar(scheme, ch, 100.0)
    Q = channel_gain_qber(0.1, ch)[0]
    assert value == pytest.approx(0.029849164072644 / Q, rel=1e-9)


def test_lambda_A_cases():
    assert lambda_A(PassiveSchemeParams(0.5, 1.0, 0.3, 1.0))[1] is SchemeCase.I
    assert lambda_A(PassiveSchemeParams(0.5, 0.5, 0.2, 1.0))[1] is SchemeCase.II
    assert lambda_A(PassiveSchemeParams(0.8, 0.9, 0.3, 1.0))[1] is SchemeCase.III
    # Case I: the effective transmittance is the attenuator itself
    value, case = lambda_A(PassiveSchemeParams(0.5, 1.0, 0.3, 1.0))
    assert case is SchemeCase.I
    assert value == pytest.approx(0.3, abs=1e-12)


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
        lam_a, _ = lambda_A(scheme)
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
        lambda_A(replace(TABLE2_SCHEME, lam=lam))[0]
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
