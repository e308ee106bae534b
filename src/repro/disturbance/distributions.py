"""Statistical helpers for the read-disturbance fault model.

The paper reports, per module configuration, the *minimum* and *average*
HC_first over all tested rows (Table 2).  To synthesize a row population that
reproduces those two statistics we fit lognormal distributions whose mean
equals the reported average and whose expected sample minimum (for the tested
population size) lands on the reported minimum.

Everything in this module is deterministic: random draws are made from
generators seeded by stable content hashes (:func:`rng_for`), so a given
module serial number always produces the same chip.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

from ..dram.errors import CalibrationError


# ----------------------------------------------------------------------
# Normal distribution primitives (pure numpy/math; no scipy dependency)
# ----------------------------------------------------------------------
def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_ppf(q: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1), which is far below the stochastic noise
    of the fault model.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if q < p_low:
        u = math.sqrt(-2 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1)
    if q > p_high:
        u = math.sqrt(-2 * math.log(1 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1)
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / \
           (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1)


# ----------------------------------------------------------------------
# Deterministic seeding
# ----------------------------------------------------------------------
#: memoized ``stable_seed`` results -- the function is pure, the key space
#: is small (per-row caches re-derive the same keys on every fresh module
#: of the same config), and the repr+BLAKE2 walk costs more than a dict hit
_seed_cache: dict = {}


def stable_seed(*keys: object) -> int:
    """Derive a 64-bit seed from arbitrary keys, stable across processes.

    Python's built-in ``hash`` is salted per process, so we hash the repr of
    the keys with BLAKE2 instead.
    """
    seed = _seed_cache.get(keys)
    if seed is None:
        digest = hashlib.blake2b(
            "\x1f".join(repr(k) for k in keys).encode(), digest_size=8
        ).digest()
        seed = int.from_bytes(digest, "little")
        _seed_cache[keys] = seed
    return seed


def rng_for(*keys: object) -> np.random.Generator:
    """A numpy Generator deterministically seeded from content keys.

    Constructed as ``Generator(PCG64(seed))`` -- the exact expansion of
    ``default_rng(seed)`` for integer seeds (same bit stream), minus some
    of ``default_rng``'s dispatch overhead; this sits on the first-touch
    hot path of every per-row lazy cache.
    """
    return np.random.Generator(np.random.PCG64(stable_seed(*keys)))


# ----------------------------------------------------------------------
# Lognormal fitting
# ----------------------------------------------------------------------
class Lognormal:
    """A lognormal distribution parameterized by (mu, sigma) of ln(X)."""

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma < 0:
            raise CalibrationError(f"sigma must be >= 0, got {sigma}")
        self.mu = mu
        self.sigma = sigma

    @property
    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    @property
    def median(self) -> float:
        return math.exp(self.mu)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if self.sigma == 0:
            value = math.exp(self.mu)
            return value if size is None else np.full(size, value)
        return rng.lognormal(self.mu, self.sigma, size)

    def quantile(self, q: float) -> float:
        return math.exp(self.mu + self.sigma * normal_ppf(q))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lognormal(mu={self.mu:.4f}, sigma={self.sigma:.4f})"


def fit_lognormal_min_avg(minimum: float, average: float, population: int) -> Lognormal:
    """Fit a lognormal from a reported (min, avg) over ``population`` samples.

    We match the mean exactly and place the reported minimum at the expected
    minimum quantile ``1 / (population + 1)``:

    ``ln(avg) = mu + sigma^2 / 2`` and ``ln(min) = mu + sigma * z_q``

    Subtracting gives a quadratic in sigma with the positive root

    ``sigma = z_q + sqrt(z_q^2 - 2 * ln(min / avg))``

    (``z_q`` is negative, ``ln(min/avg)`` is negative, so the radicand is
    positive and the root exceeds ``|z_q| - |z_q| >= 0``).
    """
    if not 0 < minimum <= average:
        raise CalibrationError(
            f"need 0 < min <= avg, got min={minimum}, avg={average}"
        )
    if population < 2:
        raise CalibrationError("population must be >= 2")
    if minimum == average:
        return Lognormal(math.log(average), 0.0)
    z_q = normal_ppf(1.0 / (population + 1))
    log_ratio = math.log(minimum / average)
    radicand = z_q**2 - 2.0 * log_ratio
    sigma = z_q + math.sqrt(radicand)
    mu = math.log(average) - 0.5 * sigma**2
    return Lognormal(mu, sigma)


def solve_ratio_lognormal(mean_inverse: float, prob_above_one: float) -> Lognormal:
    """Fit a lognormal "improvement ratio" distribution ``r``.

    Used for mechanism row factors where the paper constrains both the mean
    HC_first ratio and the fraction of rows that improve:

    * ``E[1/r] = mean_inverse``  (the average HC_first shrinks by 1/that)
    * ``P(r > 1) = prob_above_one``  (e.g. 99% of rows improve under CoMRA)

    With ``r ~ LN(mu, sigma)``: ``P(r > 1) = Phi(mu / sigma)`` gives
    ``mu = z_p * sigma``; ``E[1/r] = exp(-mu + sigma^2/2)`` then yields a
    quadratic whose relevant root is ``sigma = z_p - sqrt(z_p^2 + 2 ln t)``.
    """
    if not 0 < mean_inverse:
        raise CalibrationError("mean_inverse must be positive")
    if not 0.5 <= prob_above_one < 1.0:
        raise CalibrationError("prob_above_one must be in [0.5, 1)")
    z_p = normal_ppf(prob_above_one)
    log_t = math.log(mean_inverse)
    radicand = z_p**2 + 2.0 * log_t
    if radicand < 0:
        # The two constraints are mutually infeasible (can happen for very
        # aggressive mean improvements with very high improve-fractions);
        # honor the mean and concede the quantile.
        sigma = max(0.05, -log_t / max(z_p, 1e-6))
    else:
        sigma = z_p - math.sqrt(radicand)
        if sigma <= 0:
            sigma = z_p + math.sqrt(radicand)
    mu = z_p * sigma
    return Lognormal(mu, abs(sigma))


class MixtureRatio:
    """Two-component lognormal mixture for SiMRA row factors.

    PuDHammer finds that the HC_first reduction under SiMRA is bimodal: at
    least ~25% of victim rows see >100x reduction for *every* tested row
    count N, while the rest see moderate reductions (Obs. 12).  We model the
    factor as ``p_hi`` probability of a "highly vulnerable" lognormal
    component and ``1 - p_hi`` of a moderate component whose median is solved
    so the mixture reproduces the target mean inverse ratio.
    """

    def __init__(self, p_hi: float, hi: Lognormal, lo: Lognormal) -> None:
        if not 0 <= p_hi <= 1:
            raise CalibrationError("p_hi must be in [0, 1]")
        self.p_hi = p_hi
        self.hi = hi
        self.lo = lo

    @classmethod
    def solve(
        cls,
        mean_inverse: float,
        p_hi: float,
        hi_median: float,
        hi_sigma: float = 0.5,
        lo_sigma: float = 0.6,
    ) -> "MixtureRatio":
        """Solve the moderate component median for a target ``E[1/r]``.

        ``E[1/r] = (1-p) * exp(lo_sigma^2/2) / m_lo + p * exp(hi_sigma^2/2) / m_hi``
        """
        hi = Lognormal(math.log(hi_median), hi_sigma)
        hi_term = p_hi * math.exp(0.5 * hi_sigma**2) / hi_median
        remaining = mean_inverse - hi_term
        if remaining <= 0:
            # The vulnerable component alone already exceeds the mean target;
            # park the moderate component at ratio ~1 (no improvement).
            lo_median = 1.0
        else:
            lo_median = (1.0 - p_hi) * math.exp(0.5 * lo_sigma**2) / remaining
            lo_median = max(lo_median, 0.5)
        lo = Lognormal(math.log(lo_median), lo_sigma)
        return cls(p_hi, hi, lo)

    def sample(self, rng: np.random.Generator) -> float:
        if rng.random() < self.p_hi:
            return float(self.hi.sample(rng))
        return float(self.lo.sample(rng))

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Bulk mixture draw for the population sampler.

        Draw order — one uniform vector picking the component, then the
        full ``hi`` vector, then the full ``lo`` vector — is part of the
        deterministic stream contract: reordering would change every
        sampled population.
        """
        pick_hi = rng.random(size) < self.p_hi
        hi = np.asarray(self.hi.sample(rng, size), dtype=float)
        lo = np.asarray(self.lo.sample(rng, size), dtype=float)
        return np.where(pick_hi, hi, lo)

    @property
    def mean_inverse(self) -> float:
        """Analytic ``E[1/r]`` of the mixture (used by calibration tests)."""
        hi_term = self.p_hi * math.exp(0.5 * self.hi.sigma**2 - self.hi.mu)
        lo_term = (1 - self.p_hi) * math.exp(0.5 * self.lo.sigma**2 - self.lo.mu)
        return hi_term + lo_term


def log_interp(x: float, anchors: dict[float, float]) -> float:
    """Log-log interpolate through calibration anchor points.

    Used for RowPress ``tAggOn`` factor curves (Figs. 8 and 17): the paper
    reports multipliers at 36 ns, 144 ns, 7.8 us and 70.2 us; intermediate
    values are interpolated linearly in (log x, log y) space and clamped at
    the extremes.
    """
    if not anchors:
        raise CalibrationError("need at least one anchor")
    xs = sorted(anchors)
    if x <= xs[0]:
        return anchors[xs[0]]
    if x >= xs[-1]:
        return anchors[xs[-1]]
    for lo, hi in zip(xs, xs[1:]):
        if lo <= x <= hi:
            t = (math.log(x) - math.log(lo)) / (math.log(hi) - math.log(lo))
            y_lo, y_hi = math.log(anchors[lo]), math.log(anchors[hi])
            return math.exp(y_lo + t * (y_hi - y_lo))
    raise AssertionError("unreachable")  # pragma: no cover


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the standard summary for speedup-style ratios."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if (arr <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))
