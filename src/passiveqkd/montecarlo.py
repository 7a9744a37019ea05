"""Monte Carlo simulation of the two-threshold monitoring experiment.

Each trial draws a pulse from the source, thins it to the monitor
photoelectron count, adds detection noise, and compares the noisy value
against the comparator window.  The resulting in-window count feeds the
confidence-interval and noise-bound pipeline.

Reproducibility: trials are split into fixed-size blocks and every block
gets its own counter-based Philox stream keyed by (seed, block index), so
the outcome is byte-identical regardless of how many workers process the
blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .confidence import clopper_pearson
from .noise_bounds import (
    GaussianNoise,
    NoiseModel,
    PoissonNoise,
    ThresholdWindow,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)
from .photon_stats import PassiveSchemeParams, PhotonNumberDistribution

__all__ = [
    "PoissonianSource",
    "ExplicitSource",
    "RunConfig",
    "RunResult",
    "PipelineResult",
    "run",
    "run_pipeline",
]

_BLOCK = 1 << 20
_KEY_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class PoissonianSource:
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class ExplicitSource:
    pnd: PhotonNumberDistribution

    def __post_init__(self):
        if self.pnd.tail_mass > 1e-9:
            raise ValueError("explicit source tail mass too large to sample from")


@dataclass(frozen=True)
class RunConfig:
    M: int
    seed: int
    source: PoissonianSource | ExplicitSource
    scheme: PassiveSchemeParams
    noise: NoiseModel = None
    window: ThresholdWindow | None = None  # None means auto-minmax

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64)")


@dataclass(frozen=True)
class RunResult:
    k_prime: int
    observed_min: float
    observed_max: float
    effective_window: ThresholdWindow


@dataclass(frozen=True)
class PipelineResult:
    untagged_lower: float
    effective_window: ThresholdWindow
    k_prime: int
    degenerate: bool = False


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed & _KEY_MASK) << 64) | block))


def _sample_block(config: RunConfig, block: int, size: int):
    """Returns (count in fixed window or 0, min, max, all-m' if auto)."""
    rng = _block_rng(config.seed, block)
    xi = config.scheme.xi
    if isinstance(config.source, PoissonianSource):
        # thinning a Poissonian source is again Poissonian
        m = rng.poisson(config.source.mu * xi, size=size).astype(np.float64)
    else:
        probs = config.source.pnd.probs
        cdf = np.cumsum(probs / probs.sum())
        n1 = np.searchsorted(cdf, rng.random(size), side="right")
        m = rng.binomial(n1, xi).astype(np.float64)
    if isinstance(config.noise, PoissonNoise):
        m = m + rng.poisson(config.noise.gamma, size=size)
    elif isinstance(config.noise, GaussianNoise):
        # noise left unclamped: negative m' is possible and harmless
        m = m + rng.normal(0.0, np.sqrt(config.noise.sigma2), size=size)
    lo = float(m.min())
    hi = float(m.max())
    if config.window is None:
        return size, lo, hi
    inside = int(np.count_nonzero((m >= config.window.m1) & (m <= config.window.m2)))
    return inside, lo, hi


def run(config: RunConfig, threads: int = 1) -> RunResult:
    """Simulate M pulses; deterministic for a given (config, seed).

    With ``window=None`` the observed min and max become the thresholds, so
    every trial is in-window by construction (k' = M).
    """
    blocks = [
        (i, min(_BLOCK, config.M - i * _BLOCK))
        for i in range((config.M + _BLOCK - 1) // _BLOCK)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda b: _sample_block(config, b[0], b[1]), blocks)
            )
    else:
        parts = [_sample_block(config, b, s) for b, s in blocks]
    k = sum(p[0] for p in parts)
    lo = min(p[1] for p in parts)
    hi = max(p[2] for p in parts)
    window = config.window if config.window is not None else ThresholdWindow(lo, hi)
    return RunResult(k_prime=k, observed_min=lo, observed_max=hi, effective_window=window)


def run_pipeline(config: RunConfig, alpha: float, threads: int = 1) -> PipelineResult:
    """End-to-end lower bound on the untagged fraction.

    Runs the simulation, turns the in-window count into an exact lower
    confidence bound on the window-hit probability, and converts it into a
    bound on the windowed signal mass using the configured noise model.
    In the noiseless case the confidence bound is the answer directly.
    """
    res = run(config, threads=threads)
    p_lower = clopper_pearson(res.k_prime, config.M, alpha).lower
    w = res.effective_window
    if config.noise is None:
        return PipelineResult(p_lower, w, res.k_prime)
    if isinstance(config.noise, PoissonNoise):
        w_int = ThresholdWindow(max(0.0, np.floor(w.m1)), np.ceil(w.m2))
        bound = untagged_lower_bound_poisson(p_lower, w_int, config.noise.gamma)
        return PipelineResult(bound.value, w_int, res.k_prime, bound.degenerate)
    bound = untagged_lower_bound_gaussian(p_lower, w, config.noise.sigma2)
    return PipelineResult(bound.value, w, res.k_prime, bound.degenerate)
