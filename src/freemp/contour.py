"""Contour functionals of the limiting law, evaluated in the m-plane.

Each fluctuation functional is a Cauchy integral over a z-contour around
the support (Bai & Silverstein, Ann. Probab. 32, 2004), and xi = z(m) =
-1/m + ratio S(m), the explicit inverse of the Stieltjes transform, turns
each into an m-plane integral that needs no fixed-point solve:

    F(sigma)     = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi
                 = (1/2 pi i) oint f(z(m)) sigma/(1 + sigma m) dm
    mean         = -(1/2 pi i) oint f(xi) m(xi) dxi
                 = -(1/2 pi i) oint f(z(m)) m z'(m) dm
    clt variance = ratio * E_pi[(F - E_pi F)^2]

The m-plane path is the circle |m| = rho, clockwise, for every ratio and
every f.  rho is RADIUS_FRACTION min(x_plus, |x_minus|), the nearer edge
root, and at most |m(p)|/2 for each real pole p that f declares
(TestFunction.poles).  z maps the circle onto a counterclockwise contour
that encloses the support, the point 0 and every such pole, so two
residues take each integral back to the support alone:

  - for ratio < 1, the point mass 1 - ratio at 0: F gains f(0) and the
    mean loses (1 - ratio) f(0);
  - each pole p, where f ~ c/(x - p), from one real Stieltjes value
    m_p = m(p): F gains -c sigma/((1 + sigma m_p) z'(m_p)) and the mean
    gains c m_p, with z'(m) = 1/m^2 - ratio T(m).

F is taken for sigma in the population's [lo, hi], where the pole -1/sigma
of its integrand lies outside the circle: x_plus < 1/hi, so |1 + sigma m|
>= 1 - RADIUS_FRACTION on it.  The circle reads only the edge roots of
support_edges, the base law's transforms and, per pole, one real value of
stieltjes.  The periodic trapezoid rule on it converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014); a sum that has not settled at
MAX_CIRCLE_NODES raises ContourError rather than return a wrong number.

The rectangle RectContour has vertices (L_minus - 2d) +- 2di and (L_plus +
2d) +- 2di with 0 < d < L_minus/10.  It supplies the margin d that the
artifacts echo and one fixed rule of Gauss-Legendre nodes in exact
conjugate pairs, whose upper half check_hat_rate solves on.  The
functionals accept a contour= keyword for existing callers and ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, DomainError, NearSingularityError
from .freeconv import (FreeConvolution, atom_at_zero, stieltjes,
                       support_edges)
from .measures import _leggauss

NODES_PER_SIDE = 128
DEFAULT_D_CAP = 0.05
RADIUS_FRACTION = 0.9         # rho over the nearer edge root
CIRCLE_NODES = 64
MAX_CIRCLE_NODES = 1 << 14
FUNC_RTOL = 1e-9
FUNC_ATOL = 1e-10
IMAG_TOL = 1e-7
SIGMA_NODES = 128


# ---------------------------------------------------------------------------
# test functions

class TestFunction:
    """Analytic test function f applied to eigenvalues and contour nodes.

    Subclasses are callables accepting real or complex arrays.  poles
    declares each real pole p of f as a pair (p, c), f ~ c/(x - p) near
    p; f must be analytic everywhere else.
    """

    poles = ()


@dataclass(frozen=True)
class Polynomial(TestFunction):
    coeffs: tuple  # ascending order: coeffs[k] multiplies x**k

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if not c:
            raise DomainError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=x.dtype)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


@dataclass(frozen=True)
class Exponential(TestFunction):
    scale: float

    def __call__(self, x):
        return np.exp(self.scale * np.asarray(x))


@dataclass(frozen=True)
class RationalShift(TestFunction):
    """f(x) = 1/(x - pole) for a real pole off the spectrum: below it, in
    the gap (0, L_minus) or above it, and not at 0 where the law has a
    point mass."""
    pole: float

    def __call__(self, x):
        return 1.0 / (np.asarray(x) - self.pole)

    @property
    def poles(self):
        return ((self.pole, 1.0),)


# ---------------------------------------------------------------------------
# the contour

@dataclass(frozen=True)
class RectContour:
    """Counterclockwise rectangle around [L_minus, L_plus], clear of 0."""
    d: float
    L_minus: float
    L_plus: float

    def __post_init__(self):
        if not (0.0 < self.d < self.L_minus / 10.0):
            raise DomainError(
                f"contour margin d = {self.d!r} outside (0, L_minus/10) = "
                f"(0, {self.L_minus / 10.0!r})")
        if not (0.0 < self.L_minus < self.L_plus):
            raise DomainError(
                f"bad edge interval [{self.L_minus!r}, {self.L_plus!r}]")

    @property
    def left(self) -> float:
        return self.L_minus - 2.0 * self.d

    @property
    def right(self) -> float:
        return self.L_plus + 2.0 * self.d

    def nodes(self, level: int = 0):
        """(points, weights) of the full rectangle: NODES_PER_SIDE *
        2**level Gauss-Legendre nodes per side, from the lower left corner
        counterclockwise.  The nodes come in exact conjugate pairs, the
        bottom side the top's mirror and each vertical side its own, so m
        on the upper half gives m on the lower, m(conj z) = conj m(z).  The
        library solves on level 0."""
        s, w = _leggauss(NODES_PER_SIDE << level)    # s[::-1] == -s exactly
        h = 2.0 * self.d
        x = self.right + (self.left - self.right) * 0.5 * (s + 1.0)
        y = h * s
        cs = (complex(self.left, -h), complex(self.right, -h),
              complex(self.right, h), complex(self.left, h))
        sides = list(zip(cs, cs[1:] + cs[:1]))
        return (np.concatenate([x[::-1] - 1j * h, self.right + 1j * y,
                                x + 1j * h, self.left - 1j * y]),
                np.concatenate([w * ((b - a) * 0.5) for a, b in sides]))


def build_contour(edges, d: float | None = None) -> RectContour:
    """Rectangle around the support described by `edges`.

    With d omitted, the margin defaults to min(L_minus/20, 0.05).
    """
    if d is None:
        d = min(edges.L_minus / 20.0, DEFAULT_D_CAP)
    return RectContour(d=float(d), L_minus=float(edges.L_minus),
                       L_plus=float(edges.L_plus))


def default_contour(fc: FreeConvolution) -> RectContour:
    """build_contour on the edges of fc, with the default margin."""
    return build_contour(support_edges(fc))


# ---------------------------------------------------------------------------
# the m-plane circle

def _circle(fc: FreeConvolution, f: TestFunction):
    """The radius rho of the m-plane circle for f, and (c, m_p, z'(m_p))
    for each pole (p, c) that f declares.  A pole where m is not real, on
    the spectrum or at the point mass, raises DomainError naming it."""
    e = support_edges(fc)
    rho = RADIUS_FRACTION * min(e.x_plus, abs(e.x_minus))
    residues = []
    for p, c in f.poles:
        try:
            m_p = stieltjes(fc, p).real
        except DomainError as exc:
            raise DomainError(f"pole {p!r} of f is not clear of the "
                              f"spectrum: {exc}") from None
        t2 = fc.base.transforms(np.array([m_p]))[1][0]
        residues.append((c, m_p, 1.0 / (m_p * m_p) - fc.ratio * t2))
        rho = min(rho, 0.5 * abs(m_p))
    return rho, residues


def _circle_trapezoid(fc, rho, f, weight, what: str):
    """oint f(z(m)) weight(m, S, T) dm clockwise around |m| = rho, with S(m)
    and T(m) = int t^2/(1+tm)^2 dpi from one call of the base law's
    transforms.

    The last axis of weight's result runs over the nodes.  The periodic
    trapezoid rule doubles its nodes, evaluating only the new ones, until
    two levels agree.  Each entry of the result must come out real, with
    |Im| below IMAG_TOL max(1, |Re|); a sum not settled at
    MAX_CIRCLE_NODES raises ContourError.
    """
    theta = 2.0 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    total, n, prev, gap = 0.0, 0, None, np.inf
    while True:
        m = rho * np.exp(-1j * theta)
        S, T = fc.base.transforms(m)
        # an overflow shows up as a non-finite value, checked next
        with np.errstate(over="ignore", invalid="ignore"):
            vals = (f(-1.0 / m + fc.ratio * S) * weight(m, S, T)
                    * (-1j * m))
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NearSingularityError(
                f"{what} integrand is non-finite at m = "
                f"{complex(m[np.nonzero(bad)[-1][0]])!r}")
        total = total + vals.sum(axis=-1)
        n += theta.size
        cur = 2.0 * np.pi * total / n
        if prev is not None:
            gap = float(np.max(np.abs(cur - prev)))
            if gap <= FUNC_ATOL + FUNC_RTOL * float(np.max(np.abs(cur))):
                break
        if 2 * n > MAX_CIRCLE_NODES:
            raise ContourError(f"{what} not settled at {n} m-plane nodes: "
                               f"last two levels differ by {gap:.3e}")
        prev = cur
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    worst = float(np.max(np.abs(cur.imag) / np.maximum(1.0, np.abs(cur.real))))
    if worst >= IMAG_TOL:
        raise ContourError(
            f"{what} came out non-real (|Im| / max(1, |Re|) = {worst:.3e}); "
            f"the contour or transform values are inconsistent")
    return cur.real


# ---------------------------------------------------------------------------
# fluctuation functionals

def _f_values(fc, f, sig) -> np.ndarray:
    """F(sigma) for an array of sigma in the law's [lo, hi], refined
    jointly, with the residues of the point mass and of f's poles."""
    rho, residues = _circle(fc, f)
    F = _circle_trapezoid(
        fc, rho, f, lambda m, S, T: sig[:, None] / (
            2j * np.pi * (1.0 + np.multiply.outer(sig, m))),
        "F(sigma)")
    if atom_at_zero(fc) > 0.0:
        F = F + float(f(0.0))
    for c, m_p, dz in residues:
        F = F - c * sig / ((1.0 + sig * m_p) * dz)
    return F


def f_sigma(fc: FreeConvolution, f: TestFunction, sigma: float,
            contour: RectContour | None = None) -> float:
    """F(sigma) = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi
    around the support, for sigma in the population's [lo, hi]; contour is
    accepted for existing callers and ignored."""
    law = fc.base
    if not law.lo <= sigma <= law.hi:
        raise DomainError(f"sigma = {sigma!r} lies outside the population's "
                          f"support [{law.lo!r}, {law.hi!r}]")
    return float(_f_values(fc, f, np.array([float(sigma)]))[0])


def clt_variance(fc: FreeConvolution, f: TestFunction,
                 contour: RectContour | None = None) -> float:
    """Limiting variance of the rescaled linear eigenvalue statistic.

    V = ratio * Var_pi F(sigma) over the base measure pi of fc, the
    variance of the iid-over-populations sum that the statistic reduces
    to, as the centred sum ratio * sum w (F - sum w F)^2 over the law's
    SIGMA_NODES-node quad_rule.  Its weights are positive, so V is never
    negative, and it keeps the digits that E[F^2] - (E F)^2 cancels where F
    varies little over the law: on uniform:0.5,0.50001 with f = x^2, at
    ratios 1/2 and 10, that difference was up to 8e-6 relative off the
    exact V and the centred sum is within 7e-12.  A V past the float range
    raises ContourError.  contour is accepted for existing callers and
    ignored.
    """
    sig, wts = fc.base.quad_rule(SIGMA_NODES)
    F = _f_values(fc, f, sig)
    # a finite F can still square past the float range, checked next
    with np.errstate(over="ignore", invalid="ignore"):
        dev = F - (wts * F).sum()
        v = fc.ratio * float((wts * dev * dev).sum())
    if not math.isfinite(v):
        raise ContourError(f"clt variance is not finite: F(sigma) reaches "
                           f"{float(np.max(np.abs(F))):.3e}")
    return v


def mean_statistic(fc: FreeConvolution, f: TestFunction,
                   contour: RectContour | None = None) -> float:
    """Integral of f against the absolutely continuous part of the
    limiting law: -(1/2 pi i) oint f(xi) m(xi) dxi around the support, as
    -(1/2 pi i) oint f(z(m)) m z'(m) dm with z'(m) = 1/m^2 - ratio T(m),
    less the point mass and plus the poles' residues.  For f = 1 it is
    1 - (1 - ratio)^+.  contour is accepted for existing callers and
    ignored."""
    rho, residues = _circle(fc, f)
    mean = float(_circle_trapezoid(
        fc, rho, f,
        lambda m, S, T: (fc.ratio * m * T - 1.0 / m) / (2j * np.pi),
        "mean"))
    atom = atom_at_zero(fc)
    if atom > 0.0:
        mean -= atom * float(f(0.0))
    for c, m_p, _ in residues:
        mean += c * m_p
    return mean
