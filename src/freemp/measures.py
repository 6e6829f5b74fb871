"""Population laws: the base measures of the free convolution.

A PopulationLaw is a probability law on a compact interval [lo, hi] of
(0, 1].  Its quad_rule(n) is the rule FreeConvolution sums over, and its
inverse CDF is what the Monte Carlo layer draws from.  A law with a bounded
density weights n Gauss-Legendre nodes on [lo, hi] by it; an AtomicLaw (a
point mass dirac:c, or the realized spectrum of a sample) sums over its
atoms.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-9


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    return np.polynomial.legendre.leggauss(n)


class PopulationLaw:
    """Population law on [lo, hi].

    Subclasses provide quantile(u), the inverse CDF mapping [0, 1] onto
    [lo, hi], and either density(t) (vectorized, positive and bounded on
    the support) or their own quad_rule.  The law is itself the measure
    whose rule FreeConvolution sums over.
    """

    lo: float
    hi: float

    def density(self, t):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n Gauss-Legendre nodes mapped onto [lo, hi]; the weights include
        the density."""
        x, w = _leggauss(n)
        a, b = self.lo, self.hi
        t = 0.5 * (b - a) * x + 0.5 * (b + a)
        return t, 0.5 * (b - a) * w * np.asarray(self.density(t), dtype=float)

    def as_measure(self) -> "PopulationLaw":
        """The law itself: a law is already a measure."""
        return self


@dataclass(frozen=True)
class LinearLaw(PopulationLaw):
    """Density alpha + slope*(t - lo) on [lo, hi], normalized to mass 1.

    Slope 0 is the uniform law uniform:lo,hi.  Positivity at both endpoints
    requires |slope| < 2 / (hi - lo)^2.
    """

    lo: float
    hi: float
    slope: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi <= 1.0):
            raise DomainError(
                f"population support [{self.lo}, {self.hi}] must lie in (0, 1]")
        if not abs(self.slope) < 2.0 / (self.hi - self.lo) ** 2:
            raise DomainError(
                f"slope {self.slope} makes the density vanish inside "
                f"[{self.lo}, {self.hi}]")

    @property
    def _alpha(self) -> float:
        width = self.hi - self.lo
        return 1.0 / width - 0.5 * self.slope * width

    def density(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, self._alpha + self.slope * (t - self.lo), 0.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.slope == 0.0:
            return self.lo + (self.hi - self.lo) * u
        a = self._alpha
        # stable root of (slope/2) x^2 + a x - u = 0 with x = t - lo
        x = 2.0 * u / (a + np.sqrt(a * a + 2.0 * self.slope * u))
        return self.lo + x


@dataclass(frozen=True, eq=False)
class AtomicLaw(PopulationLaw):
    """Mass weights[i] at locs[i]: locs sorted, distinct and in (0, 1],
    weights positive with total mass 1 within MASS_TOL.  dirac:c is the
    one-atom law; empirical_measure builds the law of a sample."""

    locs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locs, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or locs.size == 0 or weights.shape != locs.shape:
            raise DomainError(f"atomic law needs an atom and one weight per "
                              f"atom: got {locs.shape} and {weights.shape}")
        # NaN fails every comparison, so these checks reject it too
        if not np.all((locs > 0.0) & (locs <= 1.0)):
            raise DomainError("atom locations must lie in (0, 1]")
        if not np.all(locs[1:] > locs[:-1]):
            raise DomainError("atom locations must be sorted and distinct")
        if not np.all(weights > 0.0):
            raise DomainError("atom weights must be positive")
        total = float(weights.sum())
        if not abs(total - 1.0) <= MASS_TOL:
            raise DomainError(f"atom weights sum to {total!r}, not 1")
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        return (isinstance(other, AtomicLaw)
                and np.array_equal(self.locs, other.locs)
                and np.array_equal(self.weights, other.weights))

    @property
    def lo(self) -> float:
        return float(self.locs[0])

    @property
    def hi(self) -> float:
        return float(self.locs[-1])

    def quantile(self, u):
        """The first atom whose cumulative weight exceeds u."""
        step = np.searchsorted(np.cumsum(self.weights), u, side="right")
        return self.locs[np.minimum(step, self.locs.size - 1)]

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms and their weights, exact for every integrand; n is
        ignored."""
        return self.locs, self.weights


def sample_population(law: PopulationLaw, m: int,
                      rng: np.random.Generator) -> np.ndarray:
    """m iid draws from the law via inverse-CDF sampling."""
    if m <= 0:
        raise DomainError(f"sample size {m} must be positive")
    out = np.asarray(law.quantile(rng.random(m)), dtype=float)
    if out.min() < law.lo - 1e-12 or out.max() > law.hi + 1e-12:
        raise DomainError("quantile produced draws outside the support")
    return np.clip(out, law.lo, law.hi)


def empirical_measure(samples: np.ndarray) -> AtomicLaw:
    """Equal-weight atomic law of the samples (exact duplicates merged)."""
    samples = np.asarray(samples, dtype=float)
    locs, counts = np.unique(samples, return_counts=True)
    return AtomicLaw(locs, counts / samples.size)
