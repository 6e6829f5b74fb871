"""Population laws: the base measures of the free convolution.

A PopulationLaw has a bounded density on a compact interval [lo, hi] of
(0, 1] and an inverse CDF.  The density weights the fixed Gauss-Legendre
rules FreeConvolution sums over; the inverse CDF is what the Monte Carlo
layer draws from.  A SpectralMeasure is a finite atomic measure (empirical
spectra) whose rule is its atoms.  Both expose lo, hi and quad_rule(n).
"""

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-9


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Finite atomic probability measure on (0, infinity).

    locs are sorted and distinct, weights positive with total mass 1 within
    MASS_TOL; discrete and empirical_measure build it.
    """

    locs: np.ndarray
    weights: np.ndarray

    @classmethod
    def discrete(cls, atoms: Sequence[tuple[float, float]]) -> "SpectralMeasure":
        """Atomic measure; duplicate locations merge on exact float equality."""
        if len(atoms) == 0:
            raise DomainError("discrete measure needs at least one atom")
        locs = np.asarray([a[0] for a in atoms], dtype=float)
        wts = np.asarray([a[1] for a in atoms], dtype=float)
        if not np.all(np.isfinite(locs)) or np.any(locs <= 0.0):
            raise DomainError("atom locations must be finite and positive")
        if np.any(wts <= 0.0):
            raise DomainError("atom weights must be positive")
        total = float(wts.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise DomainError(f"atom weights sum to {total!r}, not 1")
        uniq, inverse = np.unique(locs, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, wts)
        return cls(locs=uniq, weights=merged)

    @property
    def lo(self) -> float:
        return float(self.locs[0])

    @property
    def hi(self) -> float:
        return float(self.locs[-1])

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms and their weights, exact for every integrand; n is
        ignored."""
        return self.locs, self.weights


class PopulationLaw:
    """Absolutely continuous population law on [lo, hi].

    Subclasses provide density(t) (vectorized, positive and bounded on the
    support) and quantile(u), the inverse CDF mapping [0, 1] onto [lo, hi].
    The law is itself the measure whose rule FreeConvolution sums over.
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

    def _validate_interval(self):
        if not (0.0 < self.lo < self.hi <= 1.0):
            raise DomainError(
                f"population support [{self.lo}, {self.hi}] must lie in (0, 1]")


@dataclass(frozen=True)
class UniformLaw(PopulationLaw):
    """Uniform density on [lo, hi]."""

    lo: float
    hi: float = 1.0

    def __post_init__(self):
        self._validate_interval()

    def density(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def quantile(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class LinearLaw(PopulationLaw):
    """Density alpha + slope*(t - lo) on [lo, hi], normalized to mass 1.

    Positivity at both endpoints requires |slope| < 2 / (hi - lo)^2.
    """

    lo: float
    hi: float
    slope: float

    def __post_init__(self):
        self._validate_interval()
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
            return self.lo + u / self._alpha
        a = self._alpha
        # stable root of (slope/2) x^2 + a x - u = 0 with x = t - lo
        x = 2.0 * u / (a + np.sqrt(a * a + 2.0 * self.slope * u))
        return self.lo + x


@dataclass(frozen=True)
class PointLaw(PopulationLaw):
    """Degenerate population: every entry equals `value`.

    Useful as a closed-form reference (the free convolution reduces to a
    rescaled Marchenko-Pastur law) and for exercising degenerate-input
    guards; the width of the support is exactly zero.
    """

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise DomainError(f"point mass at {self.value} must lie in (0, 1]")

    @property
    def lo(self) -> float:
        return self.value

    @property
    def hi(self) -> float:
        return self.value

    def quantile(self, u):
        return np.full(np.shape(u), self.value, dtype=float)

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The one atom, exact for every integrand; n is ignored."""
        return np.array([self.value], dtype=float), np.array([1.0])


def sample_population(law: PopulationLaw, m: int,
                      rng: np.random.Generator) -> np.ndarray:
    """m iid draws from the law via inverse-CDF sampling."""
    if m <= 0:
        raise DomainError(f"sample size {m} must be positive")
    out = np.asarray(law.quantile(rng.random(m)), dtype=float)
    if out.min() < law.lo - 1e-12 or out.max() > law.hi + 1e-12:
        raise DomainError("quantile produced draws outside the support")
    return np.clip(out, law.lo, law.hi)


def empirical_measure(samples: np.ndarray) -> SpectralMeasure:
    """Equal-weight atomic measure of the samples (exact duplicates merged)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("empirical measure of an empty sample")
    locs, counts = np.unique(samples, return_counts=True)
    # np.unique sorts NaN last, so the two ends decide both checks
    if not (locs[0] > 0.0 and np.isfinite(locs[-1])):
        raise DomainError("samples must be finite and positive")
    return SpectralMeasure(locs=locs, weights=counts / samples.size)
