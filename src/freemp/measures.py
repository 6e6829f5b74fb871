"""Population laws: the base measures of the free convolution.

A PopulationLaw is a probability law on a compact interval [lo, hi] of
[SUPPORT_MIN, 1].  One call of its transforms(m) returns both integrals the
free convolution needs,

    S(m) = int t/(1+mt) dnu(t)   and   T(m) = int t^2/(1+mt)^2 dnu(t),

and its inverse CDF is what the Monte Carlo layer draws from.  Every law
evaluates them the same way (LawStack.transforms): over its fixed rule
where the pole -1/m lies on a Bernstein ellipse of [lo, hi] with rho at
least the rule's reach, and at m = 0, where the rule is exact to rounding,
and by its exact sums elsewhere.  Every rule has RULE_NODES nodes.  A
LinearLaw's rule is its RULE_NODES-node Gauss-Legendre quad_rule, reaching
to rho = LINEAR_RHO_MIN, and its exact sums are closed forms; an
AtomicLaw's rule is RULE_NODES Chebyshev points weighted by the law,
reaching to rho = CHEB_RHO_MIN, and its exact sums run over the atoms.  A
law of at most RULE_NODES atoms (dirac:c) has no rule: its atom sums are no
longer than a rule's, so it takes them at every m.
Every sum takes one complex reciprocal 1/(1+mt) per term, reduced by numpy
rather than BLAS in chunks of at most _CHUNK_ELEMS terms, so a value
depends only on its own m, not on its batch or the BLAS thread count.
quad_rule(n) weights n Gauss-Legendre nodes on [lo, hi] by a law's density
(an AtomicLaw's are its atoms); it is the rule of integrals other than S
and T.  Its nodes come from _leggauss, Newton's method on the Legendre
recurrence, which needs neither numpy.polynomial nor an eigensolve.  A
LawStack evaluates several laws at once, each point with the bits its law
alone gives it.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-9
# the edge brackets reach x = 1/(lo |1 - sqrt(ratio)|) <= 2^53/lo, since
# sqrt(ratio) != 1; the closed forms' x^3 stays finite for lo >= 2^-288
SUPPORT_MIN = 2.0 ** -288
LEGENDRE_PASSES = 3           # Newton passes of _leggauss
RULE_NODES = 32               # the nodes of every law's fixed rule
LINEAR_RHO_MIN = 2.0          # a LinearLaw's reach: the pole's ellipse where
                              # its rule is used
CHEB_RHO_MIN = 4.0            # an AtomicLaw's reach
_CHUNK_ELEMS = 16_384         # terms per chunk: 256 KB complex, inside L2


@cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1] for an even
    order n; cached per order and read-only.

    Newton's method on P_n, evaluated by the three-term recurrence
    j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}, takes LEGENDRE_PASSES
    passes from Tricomi's asymptotic nodes (1 - 1/(8n^2) + 1/(8n^3))
    cos(pi (4k - 1)/(4n + 2)), k = 1..n/2 (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013), so no companion matrix is solved and numpy.polynomial
    is not imported.  The last pass's P_n' = n (P_{n-1} - x P_n)/(1 - x^2)
    gives the weights 2/((1 - x^2) P_n'^2), moved to first order to the
    root that pass steps to: next to +-1 a node's last bit moves its weight
    by about n^2 eps/6.  They are scaled to sum to 2.  The positive nodes
    are mirrored, so x[::-1] == -x and w[::-1] == w exactly.

    Against 40-digit roots the nodes lie within 2 ulp and the weights
    within 2e-13 relative at n = 32, 128, 256 and 512 (numpy's leggauss:
    5 ulp and 1.1e-10 at 512).  The node next to 0 carries an absolute
    error of about eps/n, a few of its own ulp: up to 7 at other orders up
    to 600, where numpy's reach 8."""
    if n < 2 or n % 2:
        raise DomainError(f"Gauss-Legendre order {n} must be even and "
                          f"positive")
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n ** 3)) * np.cos(
        np.pi * (4 * k - 1) / (4 * n + 2))
    p0, p1, t = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(LEGENDRE_PASSES):
        p0.fill(1.0)
        p1[:] = x
        for j in range(2, n + 1):           # P_j into p0, then swap
            np.multiply(2 * j - 1, x, out=t)
            t *= p1
            p0 *= j - 1
            np.subtract(t, p0, out=p0)
            p0 /= j
            p0, p1 = p1, p0
        u = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / u
        step = p1 / dp
        x, prev = x - step, x
    w = 2.0 / (u * dp * dp) * (1.0 + 2.0 * prev * step / u)
    w /= w.sum()
    x = np.concatenate([-x, x[::-1]])
    w = np.concatenate([w, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


@cache
def _cheb_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n first-kind Chebyshev points x_j = cos((j + 1/2) pi/n) and the
    table T_k(x_j), row k < n, by the three-term recurrence; cached per
    order and read-only."""
    x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    table = np.empty((n, n))
    table[0] = 1.0
    table[1] = x
    x2 = 2.0 * x
    for k in range(2, n):
        np.multiply(x2, table[k - 1], out=table[k])
        table[k] -= table[k - 2]
    x.flags.writeable = table.flags.writeable = False
    return x, table


def _rule_sums(t: np.ndarray, w: np.ndarray, m: np.ndarray, row=None):
    """S(m) = sum w t/(1+mt) and T(m) = sum w t^2/(1+mt)^2 over the nodes t
    with weights w, in chunks of at most _CHUNK_ELEMS terms.  With row, t
    and w stack one rule per row, and m[i] is summed over rule row[i].

    Each term takes one reciprocal r = 1/(1+mt), inverted in place, and the
    sums are r.(w t) and (r r).(w t^2).  einsum forms and reduces each m's
    row in the same order whatever the batch, where a BLAS product or a
    one-element multiply would not, and so are the weights a stacked rule
    gathers per point: m[i] gets the bits of its own rule alone.  Real m
    keep real arithmetic.  One chunk buffer holds the m t of each chunk in
    turn; with row, a second holds its gathered weights, and the two hold
    at most _CHUNK_ELEMS terms together."""
    dtype = np.result_type(m, w)
    s = np.empty(m.shape, dtype=dtype)
    tt = np.empty(m.shape, dtype=dtype)
    k = t.shape[-1]
    n_buf = 1 if row is None else 2
    step = max(1, _CHUNK_ELEMS // (n_buf * max(k, 1)))
    wt = w * t
    wt2 = wt * t
    tc = t.astype(dtype, copy=False)
    if row is not None:
        # gathered in m's type: a chunk allocates and casts nothing
        wt, wt2 = wt.astype(dtype), wt2.astype(dtype)
    buf = np.empty((n_buf, min(step, m.size), k), dtype)
    for i in range(0, m.size, step):
        sl = slice(i, min(i + step, m.size))
        r = buf[0, :sl.stop - i]
        if row is None:
            np.multiply(m[sl, None], tc, out=r)
        else:
            np.take(tc, row[sl], axis=0, out=r, mode="clip")
            np.multiply(m[sl, None], r, out=r)
        r += 1.0
        np.reciprocal(r, out=r)
        if row is None:
            s[sl] = np.einsum("pk,k->p", r, wt)
            tt[sl] = np.einsum("pk,pk,k->p", r, r, wt2)
        else:
            g = buf[1, :sl.stop - i]
            np.take(wt, row[sl], axis=0, out=g, mode="clip")
            s[sl] = np.einsum("pk,pk->p", r, g)
            np.take(wt2, row[sl], axis=0, out=g, mode="clip")
            tt[sl] = np.einsum("pk,pk,pk->p", r, r, g)
    return s, tt


def _focal_sum(lo, hi, reach):
    """(reach + 1/reach)(hi - lo)/2, the focal-distance sum of the Bernstein
    ellipse E_reach of [lo, hi], whose foci are lo and hi."""
    return 0.5 * (reach + 1.0 / reach) * (hi - lo)


def _pole_is_far(lo, hi, m: np.ndarray, sum_min) -> np.ndarray:
    """True where the pole -1/m lies on a Bernstein ellipse E_rho of [lo,
    hi] with rho >= reach, or m = 0, for sum_min = _focal_sum(lo, hi,
    reach); lo, hi and sum_min are floats or arrays of m's shape.
    Multiplied by |m|, the test needs no division and holds at m = 0."""
    return np.abs(1.0 + m * lo) + np.abs(1.0 + m * hi) >= sum_min * np.abs(m)


class PopulationLaw:
    """Population law on [lo, hi], itself the measure FreeConvolution
    integrates against.  Subclasses provide quantile(u), the inverse CDF
    mapping [0, 1] onto [lo, hi]; _rule, the fixed rule (nodes, weights) of
    S and T, RULE_NODES long and built once per law; _reach, the least rho
    of the pole's ellipse where _rule is used, or None for a law with no
    rule; _exact_sums(m), the S and T off that rule; and quad_rule(n), the
    law's rule of other integrals."""

    lo: float
    hi: float
    _reach: float | None

    def transforms(self, m: np.ndarray):
        """(S(m), T(m)), elementwise over the array m: sums over _rule
        where the pole lies on E_rho with rho >= _reach, and _exact_sums
        elsewhere and for a law with no rule: the one-law case of
        LawStack.transforms, which does not build the rule for a batch with
        no point on it.

        There the rule is exact to rounding.  g(t) = t/(1+mt) and T's g^2
        are analytic inside the ellipse E_rho through the pole; for 1 <
        rho' < rho let M be the max of |g| on E_rho'.  The Chebyshev rule of
        n = RULE_NODES points integrates g's interpolant against positive
        weights of sum 1, and the interpolant aliases each T_k, k >= n, onto
        a lower one, so it is within 4 M rho'^-(n-1) / (rho' - 1) of g on
        [lo, hi] (Trefethen, Approximation Theory and Approximation
        Practice, Thm 8.2).  n Gauss-Legendre nodes integrate f on [-1, 1]
        to within (64/15) max|f| rho'^-2n / (rho'^2 - 1) (ibid., Thm 19.3);
        an affine density is at most 2.25/(hi - lo) on E_rho', so at n =
        RULE_NODES that is (24/5) M rho'^-64 / (rho'^2 - 1).  T takes M^2.
        Minimized over rho' and maximized over the pole's place on E_rho,
        the bounds at each rule's reach are 2.7e-17 max|g| for S and 6.0e-16
        max|g|^2 for T (Chebyshev, rho = CHEB_RHO_MIN = 4) and 9.5e-18 and
        2.6e-16 (Gauss-Legendre, rho = LINEAR_RHO_MIN = 2), max over [lo,
        hi], on intervals from [1e-80, 1] to widths of 1e-10.  The path
        depends on m alone, so a value has the same bits in any batch as
        alone, and real m stay real."""
        return self._stack.transforms(np.zeros(m.shape, np.intp), m)

    @cached_property
    def _stack(self) -> "LawStack":
        """The law's one-row LawStack, built once: every transforms call
        reuses its arrays and its rule."""
        return LawStack((self,))

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
    _reach = LINEAR_RHO_MIN

    def __post_init__(self):
        if not (SUPPORT_MIN <= self.lo < self.hi <= 1.0):
            raise DomainError(f"population support [{self.lo}, {self.hi}] "
                              f"must lie in [{SUPPORT_MIN:.4g}, 1]")
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

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n Gauss-Legendre nodes mapped onto [lo, hi], weighted by the
        density at the exact nodes lo + (hi - lo)(1 + x)/2, not at their
        rounded values, so a steep narrow law keeps its mass to rounding."""
        x, w = _leggauss(n)
        half = 0.5 * (self.hi - self.lo)
        t = half * x + 0.5 * (self.hi + self.lo)
        return t, half * w * (self._alpha + self.slope * half * (1.0 + x))

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        return self.quad_rule(RULE_NODES)

    def _exact_sums(self, x: np.ndarray):
        """S and T of the density a0 + a1 t in closed form.  With u = 1 + x t,
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
    """Mass weights[i] at locs[i]: locs sorted, distinct and in
    [SUPPORT_MIN, 1], weights positive with total mass 1 within MASS_TOL.
    dirac:c is the one-atom law; empirical_measure builds the law of a
    sample."""

    locs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.asarray(self.locs, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if locs.ndim != 1 or locs.size == 0 or weights.shape != locs.shape:
            raise DomainError(f"atomic law needs an atom and one weight per "
                              f"atom: got {locs.shape} and {weights.shape}")
        # NaN fails every comparison, so these checks reject it too
        if not np.all((locs >= SUPPORT_MIN) & (locs <= 1.0)):
            raise DomainError(
                f"atom locations must lie in [{SUPPORT_MIN:.4g}, 1]")
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

    @property
    def _reach(self) -> float | None:
        """CHEB_RHO_MIN, or None for a law of at most RULE_NODES atoms."""
        return CHEB_RHO_MIN if self.locs.size > RULE_NODES else None

    def quantile(self, u):
        """The first atom whose cumulative weight exceeds u."""
        step = np.searchsorted(np.cumsum(self.weights), u, side="right")
        return self.locs[np.minimum(step, self.locs.size - 1)]

    def quad_rule(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms and their weights, exact for every integrand; n is
        ignored."""
        return self.locs, self.weights

    def _exact_sums(self, m: np.ndarray):
        return _rule_sums(self.locs, self.weights, m)

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        """RULE_NODES first-kind Chebyshev points tau_j on [lo, hi] and
        weights W_j = sum_i w_i l_j(t_i), so that sum_j W_j g(tau_j) is the
        law's integral of g's interpolant in the tau_j; a law of at most
        RULE_NODES atoms has no _reach and never builds it.

        With s = (2t - lo - hi)/(hi - lo) and tau_j at x_j = cos((j + 1/2)
        pi/n), the interpolant's coefficients are c_k = (2/n) sum_j g(tau_j)
        T_k(x_j), halved at k = 0, so W_j = (2/n)(sum_k mu_k T_k(x_j) -
        mu_0/2) with the law's Chebyshev moments mu_k = sum_i w_i T_k(s_i).
        The moments come from the three-term recurrence on vectors of the
        atoms and the series from the cached table T_k(x_j), so no
        atoms-by-nodes array is made."""
        n = RULE_NODES
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
        x, table = _cheb_table(n)
        W = (2.0 / n) * (np.einsum("k,kj->j", mu, table) - 0.5 * mu[0])
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, W


class LawStack:
    """Population laws side by side, one row each.  transforms(row, m)
    evaluates each m[i] on law row[i]: over the law's _rule where
    _pole_is_far at the law's _reach, by its _exact_sums elsewhere and on a
    law with no rule.  The rules, all RULE_NODES long, are stacked, so one
    _rule_sums call sums the far points of every law, each tested against
    its own reach; the exact sums run law by law.  A law that overrides
    transforms is refused, since the stack never calls it."""

    def __init__(self, laws):
        self.laws = tuple(laws)
        for law in self.laws:
            if getattr(type(law), "transforms",
                       None) is not PopulationLaw.transforms:
                raise TypeError(f"{type(law).__name__} overrides "
                                f"transforms, which a LawStack never calls")
        self.lo = np.array([law.lo for law in self.laws])
        self.hi = np.array([law.hi for law in self.laws])
        reach = [law._reach for law in self.laws]
        self.ruled = np.array([r is not None for r in reach], dtype=bool)
        # a row with no rule is masked out of far, whatever its sum_min
        self.sum_min = _focal_sum(self.lo, self.hi, np.array(
            [1.0 if r is None else r for r in reach]))

    @cached_property
    def _rules(self):
        """(each row's slot, the stacked rule): the (nodes, weights) of the
        laws that have a rule, 2-D for two or more, law j's in row
        slot[j]."""
        rules = [law._rule for law, r in zip(self.laws, self.ruled) if r]
        rule = rules[0] if len(rules) == 1 else tuple(
            np.stack(a) for a in zip(*rules))
        return np.cumsum(self.ruled) - 1, rule

    def transforms(self, row: np.ndarray, m: np.ndarray):
        """(S, T) of each m[i] under laws[row[i]]: at most one stacked
        _rule_sums call and one _exact_sums call per law with near points,
        each call's points picked out only as it runs; a batch that one
        call covers is returned as that call gives it, and the poles of a
        batch with no point on a rule are not tested."""
        far = self.ruled[row]
        if far.any():
            far &= _pole_is_far(self.lo[row], self.hi[row], m,
                                self.sum_min[row])
        n_far = np.count_nonzero(far)
        calls = [None] if n_far else []     # None the rule, j law j's sums
        if n_far < m.size:
            calls += [0] if len(self.laws) == 1 else list(np.bincount(
                row[~far], minlength=len(self.laws)).nonzero()[0])
        if len(calls) == 1:
            return self._sums(calls[0], row, m, slice(None))
        out = np.empty((2,) + m.shape, np.result_type(m, float))
        for law in calls:
            on = far if law is None else ~far & (row == law)
            out[:, on] = self._sums(law, row, m, on)
        return tuple(out)

    def _sums(self, law, row: np.ndarray, m: np.ndarray, on):
        """The exact sums of laws[law] at m[on], or for law None the sums of
        each m[on][i] over the rule of law row[on][i]."""
        if law is not None:
            return self.laws[law]._exact_sums(m[on])
        slot, (t, w) = self._rules
        return (_rule_sums(t, w, m[on]) if t.ndim == 1
                else _rule_sums(t, w, m[on], slot[row[on]]))


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
