"""Reference computations the test suite checks implementations against.

The closed forms are derived by hand from the defining self-consistent
equation specialized to a one-atom base measure at 1 (the Marchenko-Pastur
case), where 1/m = -z + r/(1+m) collapses to the quadratic

    z m^2 + (z + 1 - r) m + 1 = 0.

Edges are the zeros of the discriminant z^2 - 2 z (1 + r) + (1 - r)^2, i.e.
(1 -+ sqrt(r))^2, and the density follows from the imaginary part of the
upper-half-plane root on the cut.

integrate and rectangle_integral are the adaptive references for the
library's fixed rules: each doubles its nodes until two levels agree, on a
measure's quad_rule and on a RectContour's nodes.  The rectangle
quadrature is the paper's own route to the contour functionals: Stieltjes
solves on the Gauss-Legendre nodes of a RectContour, refined level by
level.  It shares no code with the m-plane evaluation in freemp.contour
beyond the contour geometry.

DensityLaw is a population law given by nothing but a density on [lo, hi],
for inputs the shipped laws reject: unnormalized or singular densities.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from freemp.errors import ContourError, ConvergenceError, DomainError
from freemp.freeconv import stieltjes_batch, stieltjes_derivative_batch
from freemp.measures import PopulationLaw, SpectralMeasure

QUAD_START_NODES = 32
QUAD_MAX_NODES = 4096
QUAD_RTOL = 1e-10
QUAD_ATOL = 1e-12
NODE_LEVELS = 4
RECT_RTOL = 1e-9
RECT_ATOL = 1e-10


@dataclass(frozen=True)
class DensityLaw(PopulationLaw):
    """density(t) = fn(t) on [lo, hi], unchecked; it cannot be sampled."""

    lo: float
    hi: float
    fn: Callable

    def density(self, t):
        return self.fn(np.asarray(t, dtype=float))


def _eval_on_nodes(g: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate the vectorized g on an array of nodes, checking finiteness."""
    vals = np.asarray(g(t))
    finite = np.isfinite(vals) if not np.iscomplexobj(vals) else (
        np.isfinite(vals.real) & np.isfinite(vals.imag))
    if not finite.all():
        raise DomainError(
            f"integrand is non-finite at t={float(t[~finite].flat[0])!r}")
    return vals


def integrate(measure: "PopulationLaw | SpectralMeasure",
              g: Callable) -> complex | float:
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
                    f"two levels differ by {gap:.3e}", residual=gap)
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
