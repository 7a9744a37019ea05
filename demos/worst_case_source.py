"""What can an adversarial source do when only its mean is monitored?

An average-photon-number monitor pins down a single moment of the
photon-number distribution.  Subject to that constraint, the worst source
concentrates all its weight on vacuum plus one large Fock state k_s chosen
to maximize the multiphoton probability surviving the attenuator.  This
script finds that optimum for a few attenuations and cross-checks the
closed form against a brute-force linear program solved by HiGHS.
"""

import numpy as np
from scipy.optimize import linprog

from passiveqkd import coefficient_a, maximize_ratio

MU = 100.0  # observed mean photon number

print(f"worst-case source against a mean-only monitor (mu = {MU:g})\n")
print(f"{'eta':>8} {'k_star':>10} {'P(n>1) bound':>14} {'P(0)':>8} {'P(k_star)':>10}")
for eta in (0.01, 0.003, 0.001, 0.0003):
    res = maximize_ratio(eta, MU)
    w0, wk = res.optimal_pnd_weights
    print(f"{eta:>8g} {res.k_star:>10d} {res.p_multi_upper:>14.6f} {w0:>8.4f} {wk:>10.6f}")

print("\ncross-check against an explicit LP (truncated at 5000 photons):")
eta = 0.01
closed = maximize_ratio(eta, MU)
# maximize sum_k a_k P(k) over P(0..4999) >= 0 with mean MU and total 1
ks = np.arange(5000)
objective = np.concatenate([[0.0, 0.0], coefficient_a(ks[2:], eta)])
lp = linprog(-objective, A_eq=np.vstack([ks, np.ones(5000)]), b_eq=[MU, 1.0],
             bounds=(0, None), method="highs")
assert lp.status == 0, lp.message
lp_value, x = -lp.fun, lp.x
print(f"  closed form : {closed.p_multi_upper:.12f}  (k_star = {closed.k_star})")
print(f"  HiGHS LP    : {lp_value:.12f}  (support = {np.flatnonzero(x > 1e-12).tolist()})")
print(f"  difference  : {abs(lp_value - closed.p_multi_upper):.2e}"
      "  (the closed form's 9-eps upper-bound margin, not an error)")
