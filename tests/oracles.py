"""Reference computations the test suite checks implementations against.

The closed forms are derived by hand from the defining self-consistent
equation specialized to a one-atom base measure at 1 (the Marchenko-Pastur
case), where 1/m = -z + r/(1+m) collapses to the quadratic

    z m^2 + (z + 1 - r) m + 1 = 0.

Edges are the zeros of the discriminant z^2 - 2 z (1 + r) + (1 - r)^2, i.e.
(1 -+ sqrt(r))^2, and the density follows from the imaginary part of the
upper-half-plane root on the cut.

For a uniform base measure on [lo, hi] the edge functions are elementary:
with u = x t, h(x) = int (x t/(1 - x t))^2 dt/(hi - lo) integrates to
1/(1-u) + 2 ln|1-u| - (1-u), and the edge value's int t/(1 - x t) to
-u - ln|1-u| (over x^2).  uniform_edges bisects h = 1/r on these to the
last float, with no quadrature rule.

integrate and rectangle_integral are the adaptive references for the
library's fixed rules: each doubles its nodes until two levels agree, on a
measure's quad_rule and on a RectContour's nodes.  The rectangle
quadrature is the paper's own route to the contour functionals: Stieltjes
solves on the Gauss-Legendre nodes of a RectContour, refined level by
level.  It shares no code with the m-plane evaluation in freemp.contour
beyond the contour geometry.

quad_transforms and quad_density reference a density law's transforms and
the density of its free convolution with scipy's adaptive quad, split at
the real part of the integrand's pole -1/m.  quad_density is a Newton
solve of z(m) = -1/m + r S(m) = x marched along the real axis; it shares
no code with freemp.freeconv.

gl_transforms references the transforms of a narrow density law, one whose
width is small next to the distance of every pole -1/m it meets: a
200-node Gauss-Legendre rule summed in long double, exact to rounding
there, with none of the library's rules or closed forms.

DensityLaw is a population law given by nothing but a density on [lo, hi],
for inputs the shipped laws reject, such as densities that vanish to high
order at an end of the support.

ExactAtomicLaw sums over every atom at every m, where an AtomicLaw of more
than RULE_NODES atoms takes its compressed Chebyshev rule: it states no
reach, as an AtomicLaw of at most RULE_NODES atoms does, so alone or in a
batched solve it takes the exact sums; exact_empirical_measure builds it
from a sample, in place of rmt's empirical_measure.

scalar_edges is the edge search as two scalar bisections, one m per
transforms call: the left and right brackets one after the other.  The
library's joint bisection must reproduce it bit for bit.

strict_json parses an artifact as strict JSON (RFC 8259), which has no
Infinity or NaN: json.loads reads them, and strict_json refuses them.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as sp_integrate

from freemp.errors import (ContourError, ConvergenceError, DomainError,
                           EdgeBracketError)
from freemp.freeconv import (EDGE_BISECT_XTOL, SupportEdges, stieltjes_batch,
                             stieltjes_derivative_batch)
from freemp.measures import (AtomicLaw, PopulationLaw, _rule_sums,
                             empirical_measure)

QUAD_START_NODES = 32
QUAD_MAX_NODES = 4096
QUAD_RTOL = 1e-10
QUAD_ATOL = 1e-12
NODE_LEVELS = 4
RECT_RTOL = 1e-9
RECT_ATOL = 1e-10
DENSITY_LAW_NODES = 512
SPLIT_QUAD_RTOL = 1e-12
SPLIT_QUAD_ATOL = 1e-14
ORACLE_GL_NODES = 200


@dataclass(frozen=True)
class DensityLaw(PopulationLaw):
    """density(t) = fn(t) on [lo, hi], unchecked; it cannot be sampled."""

    lo: float
    hi: float
    fn: Callable

    def density(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def quad_rule(self, n):
        """n Gauss-Legendre nodes mapped onto [lo, hi], weighted by fn."""
        x, w = np.polynomial.legendre.leggauss(n)
        a, b = self.lo, self.hi
        t = 0.5 * (b - a) * x + 0.5 * (b + a)
        return t, 0.5 * (b - a) * w * self.density(t)

    def transforms(self, m):
        return _rule_sums(*self.quad_rule(DENSITY_LAW_NODES), m)


class ExactAtomicLaw(AtomicLaw):
    """An AtomicLaw whose S and T are always the sums over its atoms: it
    has no rule, however many atoms it has."""

    _reach = None


def exact_empirical_measure(samples) -> ExactAtomicLaw:
    law = empirical_measure(samples)
    return ExactAtomicLaw(law.locs, law.weights)


def _eval_on_nodes(g: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate the vectorized g on an array of nodes, checking finiteness."""
    vals = np.asarray(g(t))
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag))
    if not finite.all():
        raise DomainError(
            f"integrand is non-finite at t={float(t[~finite].flat[0])!r}")
    return vals


def integrate(measure: PopulationLaw, g: Callable) -> complex | float:
    """Integral of g against the measure.

    The measure's quad_rule is doubled from QUAD_START_NODES nodes until two
    levels agree to QUAD_RTOL (relative); a value not settled at
    QUAD_MAX_NODES raises ConvergenceError.  An atomic rule is exact, so its
    first two levels agree.
    """
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
                    f"two levels differ by {gap:.3e}")
        prev = cur
        n *= 2


def rectangle_integral(c, g) -> complex:
    """oint g(xi) dxi over the rectangle c, on c.nodes(level) doubled until
    two levels agree; raises ContourError if the finest level still
    disagrees."""
    prev = None
    for level in range(NODE_LEVELS):
        xi, w = c.nodes(level)
        cur = complex((np.asarray(g(xi), dtype=complex) * w).sum())
        if prev is not None and \
                abs(cur - prev) <= QUAD_ATOL + QUAD_RTOL * abs(cur):
            return cur
        prev = cur
    raise ContourError(f"rectangle integral not settled at {NODE_LEVELS} "
                       f"levels")


def _split_quad(g: Callable, lo: float, hi: float, pole: complex,
                rtol: float) -> complex:
    """Complex integral of g over [lo, hi] by scipy's quad to rtol, split at
    the real part of the pole where it falls inside."""
    cut = [lo, pole.real, hi] if lo < pole.real < hi else [lo, hi]
    return sum(sp_integrate.quad(g, a, b, epsabs=SPLIT_QUAD_ATOL, epsrel=rtol,
                                 limit=200, complex_func=True)[0]
               for a, b in zip(cut, cut[1:]))


def quad_transforms(p: Callable, lo: float, hi: float, m: complex,
                    t_rtol: float = SPLIT_QUAD_RTOL) -> tuple[complex, complex]:
    """S(m) = int t/(1+mt) p(t) dt and T(m) = int t^2/(1+mt)^2 p(t) dt over
    [lo, hi] for a scalar density p, by _split_quad at the pole -1/m; T to
    t_rtol."""
    m = complex(m)
    pole = -1.0 / m if m != 0 else complex(np.inf)
    return (_split_quad(lambda t: p(t) * t / (1.0 + m * t),
                        lo, hi, pole, SPLIT_QUAD_RTOL),
            _split_quad(lambda t: p(t) * t * t / (1.0 + m * t) ** 2,
                        lo, hi, pole, t_rtol))


def gl_transforms(p: Callable, lo: float, hi: float,
                  m) -> tuple[np.ndarray, np.ndarray]:
    """S(m) and T(m) of the density p on [lo, hi] at an array of m, by an
    ORACLE_GL_NODES-point Gauss-Legendre rule whose nodes, weights and sums
    are carried in long double; p gets the long-double nodes."""
    x, w = np.polynomial.legendre.leggauss(ORACLE_GL_NODES)
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x.astype(np.longdouble)
    wt = 0.5 * (hi - lo) * w.astype(np.longdouble) * p(t)
    u = 1.0 + np.multiply.outer(np.asarray(m, dtype=np.clongdouble), t)
    return (wt * t / u).sum(-1), (wt * t * t / (u * u)).sum(-1)


def _quad_newton(p, lo, hi, r: float, z: complex, m: complex) -> complex:
    """Newton on z(m) = -1/m + r S(m) from m, with S and T from
    quad_transforms, until a step falls below 1e-10 |m|: the error left is
    of the order of its square.  The root depends on S alone, so T, which
    only sets the step, is taken to 1e-8."""
    for _ in range(50):
        s, t2 = quad_transforms(p, lo, hi, m, t_rtol=1e-8)
        step = (-1.0 / m + r * s - z) / (1.0 / (m * m) - r * t2)
        m -= step
        if abs(step) <= 1e-10 * abs(m):
            return m
    raise ConvergenceError(f"quad Newton did not settle at z = {z!r}")


def quad_density(p: Callable, lo: float, hi: float, r: float,
                 xs) -> np.ndarray:
    """Density |Im m(x + i0)| / pi of the free convolution of the population
    density p on [lo, hi] at ratio r, on increasing interior points xs of
    the support.

    The boundary value at the middle point comes from Newton continuation
    down eta = 2(1 + r) 4^-k to eta = 0, where -1/z starts it; from there
    the solve marches outward point by point, each started at the linear
    extrapolation of its two neighbours' roots, and every root must keep
    Im m > 0.
    """
    xs = np.asarray(xs, dtype=float)
    mid = xs.size // 2
    m = -1.0 / complex(xs[mid], 2.0 * (1.0 + r))
    for eta in [2.0 * (1.0 + r) * 0.25 ** k for k in range(20)] + [0.0]:
        m = _quad_newton(p, lo, hi, r, complex(xs[mid], eta), m)
    out = np.empty(xs.size, dtype=complex)
    out[mid] = m
    for step in (1, -1):
        prev = m = out[mid]
        for i in range(mid + step, xs.size if step > 0 else -1, step):
            guess = 2.0 * m - prev
            prev, m = m, _quad_newton(p, lo, hi, r, complex(xs[i]), guess)
            out[i] = m
    if not np.all(out.imag > 0.0):
        raise ConvergenceError("quad Newton left the upper half plane")
    return out.imag / np.pi


def mp_edges(r: float) -> tuple[float, float]:
    s = np.sqrt(r)
    return ((1.0 - s) ** 2, (1.0 + s) ** 2)


def mp_edge_roots(r: float) -> tuple[float, float]:
    """Roots x_minus, x_plus of h(x) = (x/(1-x))^2 = 1/r for the atom at 1.

    x/(1-x) = -+ 1/sqrt(r) gives x_plus = 1/(1+sqrt(r)) in (0, 1) and
    x_minus = 1/(1-sqrt(r)), negative when r > 1.
    """
    s = np.sqrt(r)
    return 1.0 / (1.0 - s), 1.0 / (1.0 + s)


def _bisect(g, below, above) -> float:
    """Root of g between below, where g < 0, and above, where g >= 0 or g
    has a pole; halves until the midpoint no longer splits the bracket."""
    while True:
        mid = 0.5 * (below + above)
        if mid in (below, above):
            return mid
        if g(mid) < 0.0:
            below = mid
        else:
            above = mid


def uniform_edges(lo: float, hi: float,
                  r: float) -> tuple[float, float, float, float]:
    """L_minus, L_plus, x_minus, x_plus for the uniform law on [lo, hi] at
    ratio r < 1, from the closed-form antiderivatives.

    x_plus lies below the pole 1/hi.  x_minus lies beyond the pole 1/lo and
    before the root 1/(lo (1 - sqrt(r))) of a point mass at lo.
    """
    def h(x):
        F = lambda u: 1.0 / (1.0 - u) + 2.0 * np.log(abs(1.0 - u)) - (1.0 - u)
        return (F(x * hi) - F(x * lo)) / (x * (hi - lo))

    def edge_value(x):
        G = lambda u: -u - np.log(abs(1.0 - u))
        return 1.0 / x + r * (G(x * hi) - G(x * lo)) / (x * x * (hi - lo))

    g = lambda x: h(x) - 1.0 / r
    x_plus = _bisect(g, 0.0, 1.0 / hi)
    x_minus = _bisect(g, 1.0 / (lo * (1.0 - np.sqrt(r))), 1.0 / lo)
    return edge_value(x_minus), edge_value(x_plus), x_minus, x_plus


def _h_value(fc, x: float) -> float:
    """h(x) = x^2 T(-x)."""
    _, t2 = fc.base.transforms(np.array([-x]))
    return float(x * x * t2[0])


def _edge_value(fc, x: float) -> float:
    """z(-x) = 1/x + ratio S(-x), the edge at the root x."""
    s, _ = fc.base.transforms(np.array([-x]))
    return float(1.0 / x + fc.ratio * s[0])


def _bisect_h(fc, a, b, pole, what):
    """Bisection for h = 1/ratio between a, where h < 1/ratio, and b, where
    h >= 1/ratio or, if pole, h has a pole; neither end is evaluated.  A root
    within EDGE_BISECT_XTOL of the pole means h never reached 1/ratio."""
    target, end, mid = 1.0 / fc.ratio, b, 0.5 * (a + b)
    while abs(b - a) > EDGE_BISECT_XTOL and a != mid != b:
        if _h_value(fc, mid) < target:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    if pole and abs(mid - end) < EDGE_BISECT_XTOL:
        raise EdgeBracketError(f"{what}: h stays below 1/ratio = {target!r} "
                               f"up to its pole at x = {end!r}")
    return mid


def scalar_edges(fc) -> SupportEdges:
    """Edge roots of h = 1/ratio by bisection on closed-form brackets, on
    which h is monotone, and their values z(-x)."""
    t_min, t_max = fc.base.lo, fc.base.hi
    # right root: h(0) = 0 and h grows to its pole at 1/t_max
    x_plus = _bisect_h(fc, 0.0, 1.0 / t_max, True, "right edge")
    # left root: between near and far, the root for a point mass at t_min.
    # ratio < 1: near is the pole 1/t_min; on x > 1/t_min, xt/(xt - 1) falls
    # in t, so h(far) <= 1/ratio.  ratio > 1: near = 0 with h(0) = 0; on
    # x < 0, |x|t/(1 + |x|t) grows in t, so h(far) >= 1/ratio.  Equality
    # holds only for a point mass at t_min, whose root is far itself.
    far = 1.0 / (t_min * (1.0 - math.sqrt(fc.ratio)))
    if fc.ratio < 1.0:
        x_minus = _bisect_h(fc, far, 1.0 / t_min, True, "left edge")
    else:
        x_minus = _bisect_h(fc, 0.0, far, False, "left edge")
    return SupportEdges(L_minus=_edge_value(fc, x_minus),
                        L_plus=_edge_value(fc, x_plus),
                        x_minus=x_minus, x_plus=x_plus)


def _mp_roots(z: complex, r: float) -> tuple[complex, complex]:
    disc = (z + 1.0 - r) ** 2 - 4.0 * z
    sq = np.sqrt(complex(disc))
    return ((-(z + 1.0 - r) + sq) / (2.0 * z),
            (-(z + 1.0 - r) - sq) / (2.0 * z))


def mp_stieltjes(z: complex, r: float) -> complex:
    """Quadratic root with Im m > 0 for Im z > 0 (mirrored below the axis);
    for real z outside the support, the branch continued from above."""
    z = complex(z)
    if z.imag != 0.0:
        m1, m2 = _mp_roots(z, r)
        want_up = z.imag > 0
        pick = m1 if ((m1.imag > 0) == want_up) else m2
        return pick
    probe = mp_stieltjes(z + 1e-9j, r)
    m1, m2 = _mp_roots(z, r)
    pick = m1 if abs(m1 - probe) < abs(m2 - probe) else m2
    return complex(pick.real, 0.0)


def mp_stieltjes_derivative(z: complex, r: float) -> complex:
    """Implicit differentiation of z m^2 + (z + 1 - r) m + 1 = 0."""
    m = mp_stieltjes(z, r)
    z = complex(z)
    return -(m * m + m) / (2.0 * z * m + z + 1.0 - r)


def mp_density(x: float, r: float) -> float:
    lo, hi = mp_edges(r)
    if x <= lo or x >= hi:
        return 0.0
    return float(np.sqrt((x - lo) * (hi - x)) / (2.0 * np.pi * x))


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution (reference series)."""
    if lam <= 0:
        return 1.0
    if lam < 1.0:
        # Jacobi-transformed form, accurate for small lambda
        total = 0.0
        for k in range(1, 200, 2):
            total += np.exp(-(k * np.pi) ** 2 / (8.0 * lam * lam))
        return float(min(1.0, max(0.0, 1.0 - np.sqrt(2.0 * np.pi) / lam * total)))
    total = 0.0
    for k in range(1, 200):
        total += (-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2)
    return float(min(1.0, max(0.0, 2.0 * total)))


def rectangle_f_sigma(fc, f, sigmas, contour) -> np.ndarray:
    """F(sigma) = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi on
    the rectangle's nodes, refined until two levels agree."""
    sig = np.asarray(sigmas, dtype=float).ravel()
    prev = None
    for level in range(NODE_LEVELS):
        xi, w = contour.nodes(level)
        m = stieltjes_batch(fc, xi)
        mp = stieltjes_derivative_batch(fc, xi, m=m)
        F = (f(xi) * mp * w * sig[:, None]
             / (1.0 + np.multiply.outer(sig, m))).sum(axis=1) / (2j * np.pi)
        if prev is not None and np.max(np.abs(F - prev)) <= \
                RECT_ATOL + RECT_RTOL * np.max(np.abs(F)):
            break
        prev = F
    return F


def rectangle_clt_variance(fc, f, contour, sigma_nodes: int = 128) -> float:
    """ratio * Var_pi F(sigma) with F from rectangle_f_sigma."""
    sig, wts = fc.base.quad_rule(sigma_nodes)
    F = rectangle_f_sigma(fc, f, sig, contour).real
    mean = float((wts * F).sum())
    return fc.ratio * (float((wts * F * F).sum()) - mean * mean)


def strict_json(text: str):
    """json.loads of text, refusing the non-standard constants Infinity,
    -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(text, parse_constant=refuse)
