"""Exact binomial confidence bounds.

The Clopper-Pearson interval inverts the binomial tail probabilities
exactly, which makes it conservative by construction: over repeated
experiments the true proportion is covered at least 1 - alpha of the time.
Each bound is one inversion of the regularized incomplete beta function,
so trial counts of 10^8 and beyond stay tractable.

A window whose thresholds are the observed minimum and maximum is not fixed
before the count, so Clopper-Pearson does not apply to it; its coverage is
bounded as a tolerance interval instead (``minmax_coverage_lower``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._special import special

__all__ = ["ConfidenceResult", "clopper_pearson", "minmax_coverage_lower"]


@dataclass(frozen=True)
class ConfidenceResult:
    lower: float
    upper: float
    level: float  # the 1 - alpha

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("lower bound exceeds upper bound")


def clopper_pearson(successes: int, trials: int, alpha: float) -> ConfidenceResult:
    """Exact two-sided (1 - alpha) confidence bounds on a binomial proportion.

    The lower bound solves P(X >= successes | p) = alpha/2, and that tail is
    the regularized incomplete beta I_p(x, M - x + 1), so the bound is its
    inverse at alpha/2.  The upper bound solves P(X <= successes | p) =
    alpha/2; by symmetry it is 1 minus the lower bound for the M - x
    failures.  Boundary cases are exact: lower = 0 at zero successes,
    upper = 1 at full successes.
    """
    M, x = int(trials), int(successes)
    if M < 1:
        raise ValueError("trials must be positive")
    if not 0 <= x <= M:
        raise ValueError(f"successes must be in [0, {M}]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    half = alpha / 2.0

    lower = 0.0 if x == 0 else float(special.betaincinv(x, M - x + 1, half))
    upper = 1.0 if x == M else 1.0 - float(special.betaincinv(M - x, x + 1, half))
    return ConfidenceResult(lower=lower, upper=upper, level=1.0 - alpha)


def minmax_coverage_lower(trials: int, alpha: float) -> float:
    """Lower (1 - alpha/2) confidence bound on the mass covered by [min, max].

    For M iid draws from a continuous distribution the mass F(max) - F(min)
    is U_(M) - U_(1) of M uniforms, which has the Beta(M - 1, 2) law
    (Wilks, Ann. Math. Statist. 12, 91-96, 1941); the bound is its alpha/2
    quantile, the same one-sided level as ``clopper_pearson``'s lower
    bound.  On a discrete support the covered mass, counted with the
    endpoints, is stochastically larger, so the bound stays conservative.
    """
    M = int(trials)
    if M < 2:
        raise ValueError("trials must be at least 2 for a min/max window")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(special.betaincinv(M - 1, 2, alpha / 2.0))
