"""Photon-number distributions and Bernoulli (loss/thinning) transforms.

A pulse of a phase-randomized source is described by a probability vector
over Fock-state photon number n.  Every lossy element (beam splitter arm,
attenuator, imperfect detector) acts on that vector as a Bernoulli
transform: each photon independently survives with some probability t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._special import np, special

__all__ = [
    "PhotonNumberDistribution",
    "PassiveSchemeParams",
    "poisson_pnd",
    "bernoulli_transform",
    "multiphoton_probability",
]


def _norm_tol(size: int) -> float:
    """Largest |sum(probs) + tail_mass - 1| accepted as rounding error.

    The package's own distributions sit well inside it: ``poisson_pnd``'s
    probabilities sum to 1 within size*eps, with a tail under 6.7e-33, and
    thinning by ``bernoulli_transform`` moves the mass by at most its
    per-entry relative bound, 3*eps*size.  The ln(size) factor admits a pmf
    computed elsewhere through log-gammas, exp(n ln mu - lnGamma(n + 1) -
    mu): its exponent's terms reach n*ln(n) for n < size, so each value
    carries a relative error up to about eps*size*ln(size), and summing
    adds at most (size - 1)*eps.  Four times eps*size*max(1, ln size)
    covers both: for 300 means from 0.01 to 1.5e7 the mass of such a pmf
    stayed within 0.8*eps*size*ln(size) of 1.
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


def _poisson_blocks(mu: float, width: int) -> tuple[int, np.ndarray]:
    """(first, w): the normalised Poisson(mu) pmf at the n counts from first =
    max(0, floor(mu - 12 sqrt(mu))) to ``poisson_cut(mu)``, as a (W, blocks)
    array whose column k holds the W = min(width, isqrt(n)) counts from
    first + k W, zero past the cut.

    The pmf comes from the ratio recurrence w(m + 1) = w(m) mu/(m + 1), with
    no exp or log-gamma, so the loop has W rows.  Every block starts at 1,
    row i + 1 is row i times mu/count, one divide and one multiply across
    all blocks, and the last block's entries past the cut are zeroed.  Row
    W is each block's ratio to the next, and their cumulative product each
    block's anchor, w(its first count)/w(first).  The sum normalises, which
    cancels the absolute scale.

    Error: two weights d counts apart carry 2 rounding factors 1 + delta,
    |delta| <= eps/2, per step between them, one per block boundary between
    them (c <= d), and one each for the anchor's product and the normalising
    divide.  So their ratio is within (2d + c + 4) eps/2 <= (3d + 4) eps/2
    of the exact one, to first order in eps, and the weights sum to 1
    within n eps.  Against 40-digit products at every 7th count, the
    largest error of w(m)/w(mode) at W = 1 and six means from 3.7 to
    1.462e7 was 1.5e-14 (at 1.462e7), where the cancelling exp(m ln mu -
    lnGamma(m + 1) - mu) gives ratios up to 5.8e-8 off.

    Range: every row and anchor is a ratio w(m)/w(m') of two counts m' <= m
    of the support.  None overflows: the largest, w(mode)/w(first), is about
    e^72 (12 sd) and at most about e^mu where first is 0 (mu <= 144).  The
    smallest, w(cut)/w(mode), is above e^-90 for mu >= 1 and about e^-335
    at 1e-6; only means below 1e-13 take it out of the normal range, where
    w(mode) = w(0) ~ 1 and the top counts' exact weights are as small.
    """
    first = max(0, math.floor(mu - 12.0 * math.sqrt(mu)))
    size = poisson_cut(mu) + 1 - first
    width = min(width, math.isqrt(size))
    blocks = -(-size // width)
    w = np.empty((width + 1, blocks))
    w[0] = 1.0
    count, ratio = float(first) + width * np.arange(blocks, dtype=float), np.empty(blocks)
    for i in range(width):
        count += 1.0
        np.divide(mu, count, out=ratio)
        np.multiply(w[i], ratio, out=w[i + 1])
    anchors = np.ones(blocks)
    np.cumprod(w[width, :-1], out=anchors[1:])
    w = w[:width]
    w *= anchors
    w[size - width * (blocks - 1):, -1] = 0.0  # past the cut
    w /= w.sum()
    return first, w


def poisson_pnd(mu: float) -> PhotonNumberDistribution:
    """Poissonian photon-number distribution with mean ``mu``, cut at
    ``poisson_cut(mu)`` with the tail past it as ``tail_mass``.

    The probabilities are ``_poisson_blocks(mu, 1)``, one row and one
    cumulative product, after first = max(0, floor(mu - 12 sqrt(mu))) zeros.
    The mass below first is at most e^-72 (Chernoff: P(n <= mu - t) <=
    exp(-t^2/(2 mu))), so leaving it out of the normalising sum moves each
    kept probability by far less than one rounding.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    first, w = _poisson_blocks(mu, 1)
    return PhotonNumberDistribution(
        probs=np.concatenate((np.zeros(first), w[0])),
        tail_mass=float(special.pdtrc(poisson_cut(mu), mu)),
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
