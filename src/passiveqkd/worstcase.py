"""Adversarial worst-case photon statistics under a mean-only constraint.

An eavesdropper who controls the source but is observed only through its
average photon number mu can shape the photon-number distribution to
maximize the multiphoton probability after the attenuation eta.  The
optimum is a two-point distribution on {0, k_s} where k_s maximizes
a_k / k, with a_k the probability that k input photons yield more than one
survivor.  A small dense simplex solver is kept alongside as an
independent cross-check of that closed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WorstCaseResult",
    "LpInstance",
    "InfeasibleError",
    "coefficient_a",
    "maximize_ratio",
    "build_lp_instance",
    "simplex_solve",
]


class InfeasibleError(ValueError):
    """The linear program has no feasible point."""


@dataclass(frozen=True)
class WorstCaseResult:
    p_multi_upper: float
    k_star: int
    optimal_pnd_weights: tuple[float, float]  # (P(n=0), P(n=k_star))


@dataclass(frozen=True)
class LpInstance:
    """maximize c @ x  subject to  A @ x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray


def coefficient_a(k, eta: float):
    """P(more than one of k photons survives attenuation eta).

    a_k = 1 - (1-eta)^k - k*eta*(1-eta)^(k-1), evaluated via expm1/log1p so
    small eta and large k do not lose precision.  Accepts scalar or array k.
    """
    k_arr = np.asarray(k)
    if np.any(k_arr < 2):
        raise ValueError("k must be >= 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    log1m = math.log1p(-eta)
    a = -np.expm1(k_arr * log1m) - k_arr * eta * np.exp((k_arr - 1) * log1m)
    return float(a) if np.isscalar(k) or k_arr.ndim == 0 else a


def maximize_ratio(eta: float, mu: float, k_cap: int | None = None) -> WorstCaseResult:
    """Upper bound on the post-attenuation multiphoton probability.

    Returns mu a_{k_s} / k_s and the source on {0, k_s}, where k_s >= mu (so
    P(n=0) >= 0) is the smallest maximizer of a_k / k on [max(2, ceil(mu)), k_cap).

    Unimodality: with q = 1 - eta, d_k = a_{k+1} - a_k = k eta^2 q^(k-1), a_k / k
    is the mean of d_0 = 0, ..., d_{k-1}, and d rises, then falls, as
    d_{j+1} / d_j = (j + 1) q / j decreases.  a_k / k rises at k iff k d_k > a_k,
    true while d_k >= d_{k-1} (d_k is then the largest term, and d_0 < d_k).  Once
    false, d falls, so d_{k+1} < d_k <= (a_k + d_k)/(k + 1) = a_{k+1}/(k + 1) and it
    stays false.  Bisection finds its first false k, k_hat, the smallest maximizer.

    Rounding: computed ratios are flat at the top; k_s is their first maximum
    over k_hat -+ h, h = 2 + floor(5 k_hat sqrt(eps)).  There a computed
    a_k / k errs by under 4.5 eps of its own (a ~ 0.535 is 0.834 minus 0.298,
    exps of rounded exponents near -1.79), so only k within 9 eps of the
    exact maximum can win.  ln(a_k / k) is concave in ln k (for small eta,
    ln(eta g(x)) with x = k eta, g(x) = (1 - e^-x - x e^-x)/x, has slope
    x^2/(e^x - 1 - x) - 1, decreasing) with half-curvature c = (x* - 1)/2 ~
    0.397 at x* ~ 1.79, more for larger eta: an offset by the factor 1 + rho
    from the maximizer, or from k_lo, costs at least c rho^2 > 9 eps once
    rho > 4.8 sqrt(eps).  The 2 covers the step and the rounded crossing.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    if mu == 0.0:
        return WorstCaseResult(0.0, 2, (1.0, 0.0))
    if k_cap is None:
        k_cap = int(math.ceil(20.0 / eta))
    k_lo = max(2, int(math.ceil(mu)))
    if k_lo > k_cap:
        raise ValueError(f"k_cap={k_cap} below feasibility threshold ceil(mu)={k_lo}")

    log1m = math.log1p(-eta)

    def falling(k: int) -> bool:  # a_{k+1}/(k+1) <= a_k/k, i.e. k d_k <= a_k
        return k * k * eta * eta * math.exp((k - 1) * log1m) <= coefficient_a(k, eta)

    k_hat = k_lo + bisect_left(range(k_lo, k_cap), True, key=falling)
    half = 2 + int(5.0 * k_hat * math.sqrt(np.finfo(float).eps))
    best_k, best_val = _scan_range(eta, max(k_lo, k_hat - half), min(k_cap, k_hat + half))
    if best_k == k_cap:
        raise ValueError(
            f"maximum of a_k/k not bracketed below k_cap={k_cap}; increase k_cap"
        )
    w0 = 1.0 - mu / best_k
    return WorstCaseResult(
        p_multi_upper=best_val * mu,
        k_star=best_k,
        optimal_pnd_weights=(w0, mu / best_k),
    )


def _scan_range(eta: float, k_lo: int, k_hi: int) -> tuple[int, float]:
    """Exhaustive argmax of a_k/k over [k_lo, k_hi]; ties to smaller k."""
    ks = np.arange(k_lo, k_hi + 1)
    ratios = coefficient_a(ks, eta) / ks
    i = int(np.argmax(ratios))
    return int(ks[i]), float(ratios[i])


def build_lp_instance(eta: float, mu: float, n_cols: int) -> LpInstance:
    """Truncated LP over P(n=0..n_cols-1): maximize total multiphoton weight.

    Row 1 of A fixes the mean, row 2 the normalization; the objective
    coefficient of column k is a_k for k >= 2 and zero otherwise.
    """
    if n_cols < 3:
        raise ValueError("need at least columns 0, 1, 2")
    if mu > n_cols - 1:
        raise InfeasibleError(f"mu={mu} not reachable with {n_cols} columns")
    ks = np.arange(n_cols)
    c = np.zeros(n_cols)
    c[2:] = coefficient_a(ks[2:], eta)
    A = np.vstack([ks.astype(float), np.ones(n_cols)])
    b = np.array([float(mu), 1.0])
    return LpInstance(c=c, A=A, b=b)


def simplex_solve(instance: LpInstance) -> tuple[float, np.ndarray]:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Maximizes c @ x subject to A @ x = b, x >= 0, and returns the optimal
    value and a vertex solution.  Intended as an oracle for small dense
    instances (N up to ~10^4), not as a general-purpose solver.
    """
    c = np.asarray(instance.c, dtype=float)
    A = np.asarray(instance.A, dtype=float)
    b = np.asarray(instance.b, dtype=float).copy()
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    # Ensure b >= 0 for the phase-1 start.
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    tol = 1e-10
    # Tableau with artificial variables appended: columns [x | artificial | rhs]
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))

    def pivot(row: int, col: int) -> None:
        T[row] /= T[row, col]
        for r in range(m):
            if r != row and abs(T[r, col]) > 0.0:
                T[r] -= T[r, col] * T[row]
        basis[row] = col

    def run_phase(obj: np.ndarray, allowed: int) -> None:
        # Bland's rule: enter the lowest-index improving column, leave by the
        # lowest-index row among minimum-ratio ties.
        while True:
            reduced = obj[:allowed] - obj[basis] @ T[:, :allowed]
            enter = -1
            for j in range(allowed):
                if reduced[j] > tol:
                    enter = j
                    break
            if enter < 0:
                return
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(T[:, enter] > tol, T[:, -1] / T[:, enter], np.inf)
            leave = int(np.argmin(ratios))
            if not np.isfinite(ratios[leave]):
                raise ValueError("LP objective unbounded above")
            # Bland tie-break on the leaving variable index.
            best = ratios[leave]
            for r in range(m):
                if abs(ratios[r] - best) <= tol and basis[r] < basis[leave]:
                    leave = r
            pivot(leave, enter)

    # Phase 1: drive the artificials out.
    phase1_obj = np.zeros(n + m)
    phase1_obj[n:] = -1.0
    run_phase(phase1_obj, n + m)
    if -(phase1_obj[basis] @ T[:, -1]) > 1e-8:
        raise InfeasibleError("no feasible point for the LP constraints")
    for r in range(m):
        if basis[r] >= n:  # degenerate artificial still basic at zero
            for j in range(n):
                if abs(T[r, j]) > tol:
                    pivot(r, j)
                    break

    # Phase 2 on the original objective, artificials excluded.
    phase2_obj = np.zeros(n + m)
    phase2_obj[:n] = c
    run_phase(phase2_obj, n)

    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = T[r, -1]
    return float(c @ x), x
