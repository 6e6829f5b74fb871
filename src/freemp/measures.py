"""Population spectral measures and sampling laws.

A SpectralMeasure is the value object for a population spectrum pi: either a
finite atomic measure (empirical spectra) or an absolutely continuous law with
a bounded density on a compact interval of (0, infinity).  PopulationLaw adds
the sampling side: a density with known bounds plus its inverse CDF, which is
what the Monte Carlo layer draws from.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

MASS_TOL = 1e-9
QUAD_START_NODES = 32
QUAD_MAX_NODES = 4096
QUAD_RTOL = 1e-10
MAX_MOMENT_ORDER = 8

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    rule = _leggauss_cache.get(n)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(n)
        _leggauss_cache[n] = rule
    return rule


def _eval_on_nodes(g: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate the vectorized g on an array of nodes, checking finiteness."""
    vals = np.asarray(g(t))
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag))
    if not finite.all():
        raise DomainError(
            f"integrand is non-finite at t={float(t[~finite].flat[0])!r}")
    return vals


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Probability measure on a compact subinterval of (0, infinity).

    kind is "discrete" (atoms: sorted (location, weight) pairs) or
    "abs_continuous" (support interval plus density callable).  Total mass
    must be 1 within MASS_TOL; construction checks it.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] | None = None
    support: tuple[float, float] | None = None
    density: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "_rule_cache", {})
        if self.kind == "discrete":
            locs = np.array([a[0] for a in self.atoms], dtype=float)
            wts = np.array([a[1] for a in self.atoms], dtype=float)
            object.__setattr__(self, "_locs", locs)
            object.__setattr__(self, "_weights", wts)

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
        pairs = tuple((float(x), float(w)) for x, w in zip(uniq, merged))
        return cls(kind="discrete", atoms=pairs)

    @classmethod
    def abs_continuous(cls, support: tuple[float, float],
                       density: Callable) -> "SpectralMeasure":
        a, b = float(support[0]), float(support[1])
        if not (0.0 < a < b) or not np.isfinite(b):
            raise DomainError(f"support ({a}, {b}) must satisfy 0 < a < b < inf")
        m = cls(kind="abs_continuous", support=(a, b), density=density)
        mass = integrate(m, lambda t: np.ones_like(t))
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"density integrates to {mass!r}, not 1")
        return m

    @property
    def min_support(self) -> float:
        return self.atoms[0][0] if self.kind == "discrete" else self.support[0]

    @property
    def max_support(self) -> float:
        return self.atoms[-1][0] if self.kind == "discrete" else self.support[1]

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and effective weights for sums approximating integrals.

        Discrete measures return their atoms exactly (n is ignored); for the
        absolutely continuous case the weights already include the density.
        """
        if self.kind == "discrete":
            return self._locs, self._weights
        rule = self._rule_cache.get(n)
        if rule is None:
            x, w = _leggauss(n)
            a, b = self.support
            t = 0.5 * (b - a) * x + 0.5 * (b + a)
            w_eff = 0.5 * (b - a) * w * np.asarray(self.density(t), dtype=float)
            self._rule_cache[n] = rule = (t, w_eff)
        return rule


def integrate(measure: SpectralMeasure, g: Callable) -> complex | float:
    """Integral of g against the measure.

    Atoms are summed exactly.  The absolutely continuous part uses
    Gauss-Legendre with node doubling from QUAD_START_NODES until the value
    is stable to QUAD_RTOL (relative); a value not settled at QUAD_MAX_NODES
    raises ConvergenceError.
    """
    if measure.kind == "discrete":
        t, w = measure._locs, measure._weights
        vals = _eval_on_nodes(g, t)
        return (w * vals).sum()
    n, prev = QUAD_START_NODES, None
    while True:
        t, w_eff = measure.quad_rule(n)
        cur = (w_eff * _eval_on_nodes(g, t)).sum()
        if prev is not None:
            gap = abs(cur - prev)
            if gap <= QUAD_RTOL * max(abs(cur), 1e-300):
                return cur
            if n >= QUAD_MAX_NODES:
                raise ConvergenceError(
                    f"integral not settled at {n} Gauss-Legendre nodes: last "
                    f"two levels differ by {gap:.3e}", residual=gap)
        prev = cur
        n *= 2


def moment(measure: SpectralMeasure, k: int) -> float:
    """k-th moment, k = 0 .. MAX_MOMENT_ORDER."""
    if not (0 <= k <= MAX_MOMENT_ORDER):
        raise DomainError(f"moment order {k} outside 0..{MAX_MOMENT_ORDER}")
    val = integrate(measure, lambda t: t ** k)
    return float(np.real(val))


class PopulationLaw:
    """Sampling-ready absolutely continuous population law on [lo, hi].

    Subclasses provide density(t) (vectorized, positive and bounded on the
    support) and quantile(u), the inverse CDF mapping [0, 1] onto [lo, hi].
    """

    lo: float
    hi: float

    def density(self, t):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def as_measure(self) -> SpectralMeasure:
        return SpectralMeasure.abs_continuous((self.lo, self.hi), self.density)

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
        if abs(self.slope) >= 2.0 / (self.hi - self.lo) ** 2:
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

    def as_measure(self) -> SpectralMeasure:
        return SpectralMeasure.discrete([(self.value, 1.0)])


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
    w = 1.0 / samples.size
    return SpectralMeasure.discrete([(float(x), w) for x in samples])
