"""Each benchmark check accepts the package's output and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py -q
"""

import io
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from passiveqkd import (  # noqa: E402
    PhotonNumberDistribution,
    ThresholdWindow,
    bernoulli_transform,
    cli,
    clopper_pearson,
    keyrate,
    maximize_ratio,
    poisson_pnd,
    untagged_lower_bound_gaussian,
)

M, ALPHA = 10**8, 1e-6


def scenario(name):
    out = io.StringIO()
    assert cli.run_scenario(name, stream=out) == 0
    return checks.parse_table(out.getvalue())


def test_table_rejects_wrong_gain_and_negative_rate():
    data, rows, _ = scenario("lowtrans-pna")
    assert checks.check_table(data, rows) == []
    L, rate, Q, E, d, u = rows[5]
    assert checks.check_table(data, [(L, rate, Q * (1 + 1e-7), E, d, u)])
    assert checks.check_table(data, [(L, rate, Q, E * (1 + 1e-7), d, u)])
    assert checks.check_table(data, [(L, -1e-12, Q, E, d, u)])


def test_ordering_rejects_swapped_rates():
    _, apn, _ = scenario("lowtrans-apn")
    _, pna, _ = scenario("lowtrans-pna")
    assert checks.check_ordering(apn, pna, "apn <= pna") == []
    i = next(i for i, (a, p) in enumerate(zip(apn, pna)) if p[1] > a[1])
    swapped_apn, swapped_pna = list(apn), list(pna)
    swapped_apn[i] = apn[i][:1] + pna[i][1:2] + apn[i][2:]
    swapped_pna[i] = pna[i][:1] + apn[i][1:2] + pna[i][2:]
    assert checks.check_ordering(swapped_apn, swapped_pna, "apn <= pna")


def test_reach_rejects_a_shifted_threshold():
    _, rows, _ = scenario("ideal-apn")
    assert checks.check_reach(rows, 24.7, 0.2) == []
    cut = [r if r[0] <= 24.3 else (r[0], 0.0, *r[2:]) for r in rows]
    assert checks.check_reach(cut, 24.7, 0.2)


@pytest.mark.parametrize("eta", [1e-8, 3.2e-7, 1e-3, 1e-2])
def test_worst_case_rejects_values_outside_the_sandwich(eta):
    mu = 0.1 / eta
    p = maximize_ratio(eta, mu).p_multi_upper
    lo, hi = checks.worst_case_sandwich(eta, mu)
    assert lo < hi
    assert checks.check_worst_case(eta, mu, p) == []
    assert checks.check_worst_case(eta, mu, hi * (1 + 1e-9))
    assert checks.check_worst_case(eta, mu, lo * (1 - 1e-9))


def test_worst_case_anchor():
    assert checks.check_worst_case_anchor(maximize_ratio(1e-3, 100.0).p_multi_upper) == []
    assert checks.check_worst_case_anchor(0.02985 * (1 + 3e-4))


def test_x_star_solves_its_equation():
    assert math.isclose(math.exp(checks.X_STAR), 1 + checks.X_STAR + checks.X_STAR**2)
    assert checks.X_STAR == pytest.approx(1.7932821, abs=1e-7)


@pytest.mark.parametrize("misses", [0, 1, 2, 12, 3000])
def test_clopper_pearson_rejects_a_bound_moved_by_1e9(misses):
    x = M - misses
    cp = clopper_pearson(x, M, ALPHA)
    assert checks.check_clopper_pearson(x, M, ALPHA, cp.lower, cp.upper) == []
    for shift in (-1e-9, 1e-9):
        assert checks.check_clopper_pearson(x, M, ALPHA, cp.lower + shift, cp.upper)
        if misses:
            assert checks.check_clopper_pearson(x, M, ALPHA, cp.lower, cp.upper + shift)


def test_bound_above_true_mass_is_rejected():
    w = ThresholdWindow(9_831_000.0, 10_169_000.0)
    mass = checks.window_mass(1.462e7 * 0.684, w.m1, w.m2)
    bound = untagged_lower_bound_gaussian(clopper_pearson(M - 12, M, ALPHA).lower, w, 1e9)
    assert checks.check_bound_sound(bound.value, mass) == []
    assert checks.check_bound_sound(mass + 1e-9, mass)


def test_gaussian_bound_formula_rejects_a_perturbed_bound():
    w = ThresholdWindow(9_835_000.0, 10_172_000.0)
    p_lower = clopper_pearson(M - 12, M, ALPHA).lower
    value = untagged_lower_bound_gaussian(p_lower, w, 1e9).value
    assert checks.check_gaussian_bound(value, p_lower, w.m1, w.m2, 1e9) == []
    assert checks.check_gaussian_bound(value - 1e-8, p_lower, w.m1, w.m2, 1e9)


def test_reach_order_and_floor():
    assert checks.check_reach_order([130.0, 125.0, 108.0], "g") == []
    assert checks.check_reach_order([125.0, 130.0, 108.0], "g")
    assert checks.check_reach_order([None, 125.0, 108.0], "g")
    assert checks.check_min_reach(101.0, 100.0) == []
    assert checks.check_min_reach(100.0, 100.0)
    assert checks.check_min_reach(None, 100.0)


def test_explicit_source_rejects_a_6_sigma_count_and_a_wrong_mass():
    low, high = poisson_pnd(1350.0), poisson_pnd(1650.0)
    probs = 0.5 * high.probs
    probs[: low.probs.size] += 0.5 * low.probs
    xi, m1, m2, n = 0.684, 919, 1134, 1 << 23
    p_ref = checks.thinned_window_probability(probs, xi, m1, m2)
    pnd = PhotonNumberDistribution(probs, 0.5 * (low.tail_mass + high.tail_mass))
    p_lib = float(bernoulli_transform(pnd, xi).probs[m1 : m2 + 1].sum())
    sd = math.sqrt(n * p_ref * (1 - p_ref))
    k = round(n * p_ref)
    assert checks.check_explicit(k, n, p_ref, p_lib) == []
    assert checks.check_explicit(round(k + 6 * sd), n, p_ref, p_lib)
    assert checks.check_explicit(round(k - 6 * sd), n, p_ref, p_lib)
    assert checks.check_explicit(k, n, p_ref, p_lib + 1e-8)


def test_curve_below_its_ceiling():
    trusted = np.array([3e-4, 2e-4, 1e-4])
    assert checks.check_curve_below(trusted * 0.9, trusted, "c") == []
    assert checks.check_curve_below(trusted * [0.9, 1.01, 0.9], trusted, "c")


def test_pipeline_row():
    row = [(None, None, None, None, None, 0.99997)]
    assert checks.check_pipeline_row(row, {"untagged_lower": "0.99997"}) == []
    assert checks.check_pipeline_row(row, {"untagged_lower": "0.9"})
    assert checks.check_pipeline_row([(None, None, None, None, None, 0.0)],
                                     {"untagged_lower": "0.0"})


def test_tracer_wraps_call_sites_and_restores_them():
    tracer = spans.Tracer()
    original = keyrate.maximize_ratio
    tracer.install([(keyrate, "maximize_ratio", None), (keyrate, "coefficient_a", None)])
    try:
        keyrate.apn_delta_bar(
            keyrate.PassiveSchemeParams(t_B=0.5, t_D=1.0, lam=0.002, mu=100.0),
            keyrate.ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0),
            100.0,
        )
    finally:
        tracer.uninstall()
    assert keyrate.maximize_ratio is original
    assert [s.name for s in tracer.spans] == ["worstcase.maximize_ratio"]
    (span,) = tracer.spans
    assert span.parent == -1 and span.self_time == span.duration > 0.0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    ns = type("NS", (), {})()
    ns.inner = tracer.wrap(lambda: sum(range(10_000)))
    ns.outer = tracer.wrap(lambda: ns.inner() + ns.inner())
    ns.outer()
    outer, first, second = sorted(tracer.spans, key=lambda s: s.start)
    assert first.parent == second.parent == outer.index
    assert outer.self_time == pytest.approx(
        outer.duration - first.duration - second.duration, abs=1e-12)
