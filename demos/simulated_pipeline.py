"""Simulated monitoring experiment, end to end.

Monitors 10^7 pulses of a Poissonian source, thinned to the monitor branch
and read with detection noise, sets the comparator thresholds to the
observed min/max, and runs the full statistical pipeline.  The run does not
simulate the pulses one by one: the monitor reading of a Poissonian source
has a known distribution, so the minimum and maximum of the 10^7 readings
are drawn directly from it, in milliseconds.  The same seed always
reproduces the same numbers.
"""

from passiveqkd import (
    GaussianNoise,
    PassiveSchemeParams,
    PoissonNoise,
    PoissonianSource,
    RunConfig,
    run_pipeline,
)

scheme = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
mean_m = scheme.mu * scheme.xi

print(f"source mean {scheme.mu:.3e}, monitor mean m = {mean_m:.3e}")
for label, noise in [
    ("no noise", None),
    ("gaussian sigma^2 = 1e9", GaussianNoise(1e9)),
    ("poisson gamma = 1e6", PoissonNoise(1e6)),
]:
    config = RunConfig(
        M=10_000_000,
        seed=42,
        source=PoissonianSource(scheme.mu),
        scheme=scheme,
        noise=noise,
        window=None,  # thresholds from the observed extremes
    )
    pipe = run_pipeline(config, alpha=1e-6)
    w = pipe.effective_window
    print(f"\n{label}:")
    print(f"  window [{w.m1:.0f}, {w.m2:.0f}] (width {w.width:.0f})")
    print(f"  untagged fraction >= {pipe.untagged_lower:.8f} (degenerate: {pipe.degenerate})")
