"""Secure-distance comparison of the three source-verification modes.

Same channel, same mean output intensity - only the trust model changes,
and with it the multiphoton bound that the one tagged rate concedes.  The
mean-only (APN) monitor must assume the adversarial two-point source and
dies early; the two-threshold analyzer (PNA) restores most of the
distance; a fully trusted Poissonian source is the upper reference.
"""

import numpy as np

from passiveqkd import (
    ChannelParams,
    PassiveSchemeParams,
    ThresholdWindow,
    maximize_ratio,
    pna_rate_bb84,
    poisson_multiphoton,
    poisson_window_mass,
    tagged_rate,
)

scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=1e-6, mu=1e6)
channel = ChannelParams(eta_B=0.5, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)
window = ThresholdWindow(677_160.0, 690_840.0)  # +-1% around the monitor mean

mu_out = scheme.mu * scheme.eta
p_multi = maximize_ratio(scheme.eta, scheme.mu).p_multi_upper
mean_m = scheme.mu * scheme.xi
omd = float(poisson_window_mass(window.m1, window.m2, mean_m))

print(f"output intensity {mu_out:g}, adversarial P(n>1) <= {p_multi:.6f}, "
      f"windowed mass {omd:.6f}\n")
print(f"{'L (km)':>7} {'APN':>12} {'PNA':>12} {'trusted':>12}")
for L in np.arange(0.0, 55.0, 5.0):
    ch = channel.at_distance(L)
    apn = tagged_rate(mu_out, p_multi, ch).rate
    pna = pna_rate_bb84(scheme, ch, window, omd).rate
    trusted = tagged_rate(mu_out, poisson_multiphoton(mu_out), ch).rate
    print(f"{L:>7.0f} {apn:>12.3e} {pna:>12.3e} {trusted:>12.3e}")
