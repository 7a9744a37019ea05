"""Photon-number distributions and Bernoulli (loss/thinning) transforms.

A pulse of a phase-randomized source is described by a probability vector
over Fock-state photon number n.  Every lossy element (beam splitter arm,
attenuator, imperfect detector) acts on that vector as a Bernoulli
transform: each photon independently survives with some probability t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import special

__all__ = [
    "PhotonNumberDistribution",
    "PassiveSchemeParams",
    "poisson_pnd",
    "bernoulli_transform",
    "multiphoton_probability",
]


def _norm_tol(size: int) -> float:
    """Largest |sum(probs) + tail_mass - 1| accepted as rounding error.

    Distributions here are exponentials of sums of terms up to n*ln(n) for
    photon numbers n < size (the Poisson pmf exp(n ln mu - lnGamma(n + 1) -
    mu)), so each value carries a relative error up to about
    eps*size*ln(size), and summing adds at most (size - 1)*eps.  Four times
    eps*size*max(1, ln size) covers both: for 300 means from 0.01 to 1.5e7
    the error of ``poisson_pnd`` stayed below 0.8*eps*size*ln(size).
    Thinning by ``bernoulli_transform`` moves the mass by at most its
    per-entry relative bound, 3*eps*size, within the same bound.
    """
    return 4.0 * np.finfo(float).eps * size * max(1.0, math.log(size))


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """Truncated probability vector over photon number with explicit tail mass.

    ``probs[n]`` is the probability of exactly n photons for n = 0..n_max;
    ``tail_mass`` is the probability assigned to n > n_max.  The tail is
    always treated pessimistically downstream (counted as multiphoton).
    """

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d sequence")
        if np.any(probs < 0) or self.tail_mass < 0:
            raise ValueError("probabilities must be non-negative")
        total = probs.sum() + self.tail_mass
        if not abs(total - 1.0) <= _norm_tol(probs.size):
            raise ValueError(f"distribution not normalized: total mass {total!r}")

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


@dataclass(frozen=True)
class PassiveSchemeParams:
    """Parameters of the passive monitoring scheme.

    A beam splitter (transmittance t_B) taps the source toward a monitor
    detector (efficiency t_D); the encoding arm passes an attenuator
    (transmittance lam).  Derived transmittances:

    * ``xi = t_B * t_D``    source -> monitor photoelectrons,
    * ``eta = lam * (1 - t_B)``  source -> encoder output,
    * ``lambda_a = (1 - t_B) * lam / (t_B * t_D)``  effective attenuation
      seen by window-selected pulses between the monitor reference and the
      encoder output.
    """

    t_B: float
    t_D: float
    lam: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.t_B < 1.0:
            raise ValueError("t_B must be in (0, 1)")
        if not 0.0 < self.t_D <= 1.0:
            raise ValueError("t_D must be in (0, 1]")
        if self.xi == 0.0:
            smaller = "t_B" if self.t_B < self.t_D else "t_D"
            raise ValueError(f"{smaller} makes xi = t_B * t_D underflow to 0")
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lam must be in (0, 1]")
        if self.lambda_a > 1.0 + 1e-12:
            raise ValueError(
                f"lam = {self.lam:.6g} gives lambda_a = {self.lambda_a:.6g} > 1: the "
                "attenuation lambda_A seen by window-selected pulses needs "
                "lam <= t_B * t_D / (1 - t_B)"
            )

    @property
    def xi(self) -> float:
        return self.t_B * self.t_D

    @property
    def eta(self) -> float:
        return self.lam * (1.0 - self.t_B)

    @property
    def lambda_a(self) -> float:
        """Effective attenuation lambda_A of window-selected pulses.

        Thinning a pulse by xi to the monitor reference and then by lambda_A
        gives the encoder output (xi * lambda_A = eta).  The paper's three
        arm cases are this one formula:

        * Case I, balanced arms (t_B * t_D == 1 - t_B): lambda_A = lam.
        * Case II, monitor arm weaker (t_B * t_D < 1 - t_B): lambda_A > lam,
          so it needs lam <= t_B * t_D / (1 - t_B), which the constructor
          checks.
        * Case III, monitor arm stronger (t_B * t_D > 1 - t_B): lambda_A < lam.
        """
        return (1.0 - self.t_B) * self.lam / (self.t_B * self.t_D)


def poisson_cut(mu: float) -> int:
    """Largest photon number kept of Poisson(mu): ceil(mu + 12 sqrt(mu) + 20).

    The tail past it, P(n > cut), is at most 6.7e-33 for every mean from 1e-6
    to 1e12.  Within one cut the tail grows with mu, so the worst mean is the
    largest with that cut; there P(n >= a), a = cut + 1, is at most
    p(a) / (1 - mu/(a + 1)), with p(a) bounded by Stirling's lower bound on
    a!, and the largest of these is 6.65e-33 (at cut 304, mu ~ 141.3).
    """
    return int(math.ceil(mu + 12.0 * math.sqrt(mu) + 20.0))


def poisson_pmf(n, mu: float):
    """Poisson(mu) pmf at photon numbers n: exp(n ln mu - lnGamma(n + 1) - mu)."""
    return np.exp(special.xlogy(n, mu) - special.gammaln(n + 1) - mu)


def poisson_pnd(mu: float) -> PhotonNumberDistribution:
    """Poissonian photon-number distribution with mean ``mu``, cut at
    ``poisson_cut(mu)`` with the tail past it as ``tail_mass``."""
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    n_max = poisson_cut(mu)
    return PhotonNumberDistribution(
        probs=poisson_pmf(np.arange(n_max + 1), mu), tail_mass=float(special.pdtrc(n_max, mu))
    )


def bernoulli_transform(
    p: PhotonNumberDistribution, t: float
) -> PhotonNumberDistribution:
    """Thin ``p`` by per-photon survival probability ``t``.

    out[m] = sum_{n >= m} p[n] * C(n, m) * t^m * (1-t)^(n-m).

    In generating functions out(z) = sum_n p[n] (q + t z)^n with q = 1 - t,
    evaluated by Horner's rule in blocks of B = isqrt(size) photon numbers:
    with the rows R_j = (q + t z)^j for j <= B, built by R_{j+1} = q R_j +
    t shift(R_j), each block from the top down sets v <- v * R_B + sum_j
    p[n0 + j] R_j, a convolution and a sum over B rows.  Every operation
    multiplies or adds non-negative numbers, so each entry is the exact
    sum of its terms times at most D = (ceil(size/B) - 1)(4B + 2) + 4B - 3
    rounding factors (1 + d), |d| <= eps/2, and D eps/2 <= 2.55 size eps:
    each entry is within 3 size eps of its exact value, relatively, plus at
    most 2 size^2 2^-1074 absolute from entries that underflow.  The
    input's tail mass is carried through unchanged (the tail photons' fate
    is unknown, and downstream consumers treat tail mass pessimistically
    anyway).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must be in [0, 1]")
    q, probs = 1.0 - t, p.probs
    b = math.isqrt(probs.size)
    rows = np.zeros((b + 1, b + 1))  # rows[j, :j + 1] = R_j
    rows[0, 0] = 1.0
    for j in range(b):
        np.multiply(rows[j, : j + 2], q, out=rows[j + 1, : j + 2])
        rows[j + 1, 1 : j + 2] += t * rows[j, : j + 1]
    top = b * ((probs.size - 1) // b)  # the first photon number of the top block
    width = probs.size - top
    out = (probs[top:, np.newaxis] * rows[:width, :width]).sum(axis=0)
    for n0 in range(top - b, -1, -b):
        out = np.convolve(out, rows[b])
        out[:b] += (probs[n0 : n0 + b, np.newaxis] * rows[:b, :b]).sum(axis=0)
    return PhotonNumberDistribution(out, p.tail_mass)


def multiphoton_probability(p: PhotonNumberDistribution) -> float:
    """Exact P(n > 1) for a known distribution; the tail counts as multiphoton."""
    p1 = float(p.probs[1]) if p.probs.size > 1 else 0.0
    value = 1.0 - float(p.probs[0]) - p1
    return max(0.0, value)
