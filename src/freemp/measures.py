"""Population laws: the base measures of the free convolution.

A PopulationLaw is a probability law on a compact interval [lo, hi] of
(0, 1].  One call of its transforms(m) returns both integrals the free
convolution needs,

    S(m) = int t/(1+mt) dnu(t)   and   T(m) = int t^2/(1+mt)^2 dnu(t),

and its inverse CDF is what the Monte Carlo layer draws from.  An AtomicLaw
(a point mass dirac:c, or the realized spectrum of a sample) sums over its
atoms: one complex reciprocal 1/(1+mt) per term, reduced by numpy rather
than BLAS, in cache-sized chunks of at most _CHUNK_ELEMS terms that reuse
one buffer per call, so a value depends only on its own m, not on its batch
or the BLAS thread count.  A law of more than CHEB_NODES atoms sums instead
over a compressed rule, CHEB_NODES Chebyshev points weighted by the law,
wherever the pole -1/m lies on a Bernstein ellipse of [lo, hi] with rho >=
CHEB_RHO_MIN, and at m = 0.  There the rule is off by less than 4.6e-17
times the largest |t/(1+mt)| on [lo, hi] for S, and 1.3e-15 times its
square for T (AtomicLaw.transforms derives this).  The path depends on m
alone, so a value still does not depend on its batch.  A LinearLaw
integrates in closed form away from m = 0, and on a 32-node Gauss-Legendre
rule near it, where the closed forms cancel but the pole -1/m lies far
from the support.  quad_rule(n) weights n Gauss-Legendre nodes on [lo, hi]
by a law's density (an AtomicLaw's rule is its atoms); it is the rule of
integrals other than S and T.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-9
CLOSED_FORM_MIN = 0.75        # closed forms where |m| hi reaches this
NEAR_NODES = 32               # rule of the transforms where it does not
CHEB_NODES = 64               # an atomic law's compressed rule
CHEB_RHO_MIN = 2.0            # ellipse of the pole where that rule is used
_CHUNK_ELEMS = 16_384         # terms per chunk: 256 KB complex, inside L2


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    return np.polynomial.legendre.leggauss(n)


def _rule_sums(t: np.ndarray, w: np.ndarray, m: np.ndarray):
    """S(m) = sum w t/(1+mt) and T(m) = sum w t^2/(1+mt)^2 over the nodes t
    with weights w, in chunks of at most _CHUNK_ELEMS terms.

    Each term takes one reciprocal r = 1/(1+mt), inverted in place, and the
    sums are r.(w t) and (r r).(w t^2).  einsum forms and reduces each m's
    row in the same order whatever the batch, where a BLAS product or a
    one-element multiply would not; real m keep real arithmetic.  One chunk
    buffer per call holds the m t of each chunk in turn."""
    dtype = np.result_type(m, w)
    s = np.empty(m.shape, dtype=dtype)
    tt = np.empty(m.shape, dtype=dtype)
    step = max(1, _CHUNK_ELEMS // max(t.size, 1))
    wt = w * t
    wt2 = wt * t
    tc = t.astype(dtype, copy=False)
    buf = np.empty((min(step, m.size), t.size), dtype=dtype)
    for i in range(0, m.size, step):
        sl = slice(i, min(i + step, m.size))
        r = np.multiply(m[sl, None], tc, out=buf[:sl.stop - i])
        r += 1.0
        np.reciprocal(r, out=r)
        s[sl] = np.einsum("pk,k->p", r, wt)
        tt[sl] = np.einsum("pk,pk,k->p", r, r, wt2)
    return s, tt


class PopulationLaw:
    """Population law on [lo, hi].

    Subclasses provide quantile(u), the inverse CDF mapping [0, 1] onto
    [lo, hi], transforms(m), the law's S(m) and T(m) from one call at an
    array of m, and density(t) (vectorized, positive and bounded on the
    support) or their own quad_rule.  The law is itself the measure
    FreeConvolution integrates against.
    """

    lo: float
    hi: float

    def transforms(self, m: np.ndarray):
        """(S(m), T(m)), elementwise over the array m."""
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

    def transforms(self, m: np.ndarray):
        """S and T in closed form where |m| hi >= CLOSED_FORM_MIN.  Nearer
        m = 0 the closed forms cancel, but the pole -1/m lies beyond
        (4/3) hi, so the NEAR_NODES rule is exact to rounding there.  Each
        value depends on its own m only, alone or inside a batch."""
        near = np.abs(m) * self.hi < CLOSED_FORM_MIN
        out = np.empty((2,) + m.shape, np.result_type(m, float))
        out[:, near] = _rule_sums(*self.quad_rule(NEAR_NODES), m[near])
        out[:, ~near] = self._closed_forms(m[~near])
        return tuple(out)

    def _closed_forms(self, x: np.ndarray):
        """S and T of the density a0 + a1 t.  With u = 1 + x t,
        w = hi - lo, L = log(u(hi)/u(lo)) and D the change from lo to hi,

            x^2 S = a0 (w x - L) + a1 ((hi^2 - lo^2) x^2/2 - w x + L) / x
            x^3 T = a0 (D u - 2 L - D(1/u))
                    + a1 (D(u^2)/2 - 3 D u + 3 L + D(1/u)) / x.

        Off the poles [-1/lo, -1/hi] the segment u([lo, hi]) misses 0, so L
        is the principal log of the ratio."""
        lo, hi, a1 = self.lo, self.hi, self.slope
        a0 = self._alpha - a1 * lo
        u_lo, u_hi = 1.0 + x * lo, 1.0 + x * hi
        wx = (hi - lo) * x
        L = np.log(u_hi / u_lo)
        s = (a0 * (wx - L)
             + a1 * (0.5 * (hi * hi - lo * lo) * x * x - wx + L) / x) / (x * x)
        dinv = 1.0 / u_hi - 1.0 / u_lo
        t = (a0 * (wx - 2.0 * L - dinv)
             + a1 * (0.5 * wx * (u_hi + u_lo) - 3.0 * wx + 3.0 * L + dinv) / x
             ) / (x * x * x)
        return s, t

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
        ignored.  transforms may use the compressed _cheb_rule instead;
        this rule stays the atoms."""
        return self.locs, self.weights

    @cached_property
    def _cheb_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """CHEB_NODES first-kind Chebyshev points tau_j on [lo, hi] and
        weights W_j = sum_i w_i l_j(t_i), so that sum_j W_j g(tau_j) is the
        law's integral of g's interpolant in the tau_j.

        With s = (2t - lo - hi)/(hi - lo) and tau_j at x_j = cos((j + 1/2)
        pi/n), the interpolant's coefficients are c_k = (2/n) sum_j g(tau_j)
        T_k(x_j), halved at k = 0, so W_j = (2/n)(sum_k mu_k T_k(x_j) -
        mu_0/2) with the law's Chebyshev moments mu_k = sum_i w_i T_k(s_i).
        The moments come from the three-term recurrence on vectors of the
        atoms and the series from chebval at the n points, so no
        atoms-by-nodes array is made."""
        n = CHEB_NODES
        lo, hi = self.lo, self.hi
        s = (2.0 * self.locs - (lo + hi)) / (hi - lo)
        mu = np.empty(n)
        mu[0] = self.weights.sum()
        s2 = 2.0 * s
        prev, cur, nxt = np.ones_like(s), s, np.empty_like(s)
        for k in range(1, n):
            mu[k] = np.einsum("i,i->", self.weights, cur)
            np.multiply(s2, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        W = (2.0 / n) * (np.polynomial.chebyshev.chebval(x, mu) - 0.5 * mu[0])
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, W

    def _pole_is_far(self, m: np.ndarray) -> np.ndarray:
        """True where the pole p = -1/m lies on a Bernstein ellipse of
        [lo, hi] with parameter rho >= CHEB_RHO_MIN, or m = 0.

        The ellipse E_rho has foci lo and hi and focal-distance sum
        (rho + 1/rho)(hi - lo)/2; multiplied by |m| the test reads
        |1 + m lo| + |1 + m hi| >= (rho + 1/rho)(hi - lo)|m|/2, which needs
        no division and holds at m = 0."""
        lo, hi = self.lo, self.hi
        sum_min = 0.5 * (CHEB_RHO_MIN + 1.0 / CHEB_RHO_MIN) * (hi - lo)
        return (np.abs(1.0 + m * lo) + np.abs(1.0 + m * hi)
                >= sum_min * np.abs(m))

    def transforms(self, m: np.ndarray):
        """The sums over the atoms, compressed where the pole is far.

        A law of more than CHEB_NODES atoms sums S and T over _cheb_rule at
        the m where _pole_is_far, and over its atoms elsewhere.  The rule
        integrates the degree-(n - 1) interpolant p of g in its n =
        CHEB_NODES points.  g(t) = t/(1+mt), and T's g^2 with its double
        pole, are analytic inside the Bernstein ellipse E_rho through the
        pole -1/m, rho >= CHEB_RHO_MIN.  For 1 < rho' < rho, with M_rho' the
        max of |g| on E_rho', g's Chebyshev coefficients are at most
        2 M_rho' rho'^-k; the interpolant aliases each T_k, k >= n, onto a
        lower one, so |g - p| <= 4 M_rho' rho'^-(n-1) / (rho' - 1) on
        [lo, hi] (Trefethen, Approximation Theory and Approximation
        Practice, Thm 8.2, for n - 1 = 63).  The law's weights are positive
        with sum 1, so the sum is off by no more.  Minimized over rho', at
        rho = 2 the bound is at most 4.6e-17 max|g| for S and 1.3e-15
        max|g|^2 for T, max over [lo, hi], on intervals from [0.01, 0.02]
        to [0.001, 1]: a few rounding units of the exact sums' largest
        term.  The path depends on m alone, so a value has the same bits in
        any batch as alone, and real m stay real."""
        if self.locs.size <= CHEB_NODES:
            return _rule_sums(self.locs, self.weights, m)
        far = self._pole_is_far(m)
        if far.all():
            return _rule_sums(*self._cheb_rule, m)
        out = np.empty((2,) + m.shape, np.result_type(m, float))
        out[:, far] = _rule_sums(*self._cheb_rule, m[far])
        out[:, ~far] = _rule_sums(self.locs, self.weights, m[~far])
        return tuple(out)


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
