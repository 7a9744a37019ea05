"""Shared oracles: the worst-case linear program, solved by HiGHS, and a
per-pulse simulation of a monitoring run."""

import numpy as np
import pytest
from scipy.optimize import linprog

from passiveqkd import GaussianNoise, PoissonNoise, coefficient_a

PULSE_BLOCK = 1 << 20


def solve_worst_case_lp(eta, mu, n_cols):
    """Optimum and basic solution of the worst-case LP truncated at n_cols.

    Maximizes sum_{k >= 2} a_k P(k) over P(0..n_cols-1) >= 0, subject to the
    mean row sum_k k P(k) = mu and the normalization row sum_k P(k) = 1.
    """
    ks = np.arange(n_cols)
    objective = np.zeros(n_cols)
    objective[2:] = coefficient_a(ks[2:], eta)
    res = linprog(-objective, A_eq=np.vstack([ks, np.ones(n_cols)]), b_eq=[mu, 1.0],
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun, res.x


@pytest.fixture
def worst_case_lp():
    return solve_worst_case_lp


def per_pulse_run(config):
    """(k', min, max) of an explicit-source ``config``, pulse by pulse.

    Each block of 2^20 pulses draws from its own Philox stream keyed by
    (seed, block index).  A pulse's photon number n is drawn from the
    source's distribution conditioned on n <= n_max, thinned to
    m ~ Binomial(n, xi), and noise is added unclamped, so a Gaussian m' may
    be negative.  Under auto-minmax k' = M.
    """
    probs = config.source.pnd.probs
    cdf = np.cumsum(probs / probs.sum())
    k, lo, hi = 0, np.inf, -np.inf
    for block, start in enumerate(range(0, config.M, PULSE_BLOCK)):
        size = min(PULSE_BLOCK, config.M - start)
        rng = np.random.Generator(np.random.Philox(key=(config.seed << 64) | block))
        n = np.searchsorted(cdf, rng.random(size), side="right")
        m = rng.binomial(n, config.scheme.xi).astype(np.float64)
        if isinstance(config.noise, PoissonNoise):
            m += rng.poisson(config.noise.gamma, size=size)
        elif isinstance(config.noise, GaussianNoise):
            m += rng.normal(0.0, np.sqrt(config.noise.sigma2), size=size)
        lo, hi = min(lo, float(m.min())), max(hi, float(m.max()))
        w = config.window
        k += size if w is None else int(np.count_nonzero((m >= w.m1) & (m <= w.m2)))
    return k, lo, hi


@pytest.fixture
def per_pulse():
    return per_pulse_run
