"""Contour functionals of the limiting law, evaluated in the m-plane.

The rectangle has vertices (L_minus - 2d) +- 2di and (L_plus + 2d) +- 2di with
0 < d < L_minus/10, so it encloses [L_minus, L_plus] and leaves 0 (and any
point mass there) outside.  The fluctuation theory needs Cauchy integrals
over it, and xi = z(m) = -1/m + ratio int t/(1+tm) dpi, the explicit inverse
of the Stieltjes transform, turns each into an m-plane integral that needs
no fixed-point solve (Bai & Silverstein, Ann. Probab. 32, 2004):

    F(sigma)     = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi
                 = (1/2 pi i) oint f(z(m)) sigma/(1 + sigma m) dm
    mean inside  = -(1/2 pi i) oint f(xi) m(xi) dxi
                 = -(1/2 pi i) oint f(z(m)) m z'(m) dm
    clt variance = ratio * ( E_nu[F^2] - (E_nu F)^2 )

The m-plane path is the circle on the diameter [m(left), m(right)], the
images of the rectangle's real crossings: counterclockwise for ratio < 1,
clockwise around 0 for ratio > 1.  Every singularity of the integrands is
real, so the circle separates them as the image of the rectangle does and d
keeps its meaning.  The periodic trapezoid rule on it converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyWarning, ContourError, DomainError,
                     NearSingularityError)
from .freeconv import FreeConvolution, _sums, support_edges
from .measures import SpectralMeasure, _leggauss

MIN_NODES_PER_SIDE = 16
DEFAULT_NODES_PER_SIDE = 128
MAX_NODES_PER_SIDE = 1024
DEFAULT_D_CAP = 0.05
QUAD_RTOL = 1e-10
QUAD_ATOL = 1e-12
CIRCLE_NODES = 64
MAX_CIRCLE_NODES = 1 << 14
CROSSING_BISECTIONS = 64
FUNC_RTOL = 1e-9
FUNC_ATOL = 1e-10
DENOM_FLOOR = 1e-8
IMAG_TOL = 1e-7
SIGMA_NODES = 128
VARIANCE_CLAMP = 1e-9


# ---------------------------------------------------------------------------
# test functions

class TestFunction:
    """Analytic test function f applied to eigenvalues and contour nodes.

    Subclasses are callables accepting real or complex arrays.  validate()
    checks that every declared singularity stays clear of a given contour.
    """

    def validate(self, contour: "RectContour") -> None:
        return None


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
    """f(x) = 1/(x - pole); the pole must stay outside any contour in use."""
    pole: float

    def __call__(self, x):
        return 1.0 / (np.asarray(x) - self.pole)

    def validate(self, contour: "RectContour") -> None:
        if not (self.pole < 0.0 or self.pole > contour.L_plus + 4.0 * contour.d):
            raise DomainError(
                f"pole {self.pole!r} is too close to the contour; need "
                f"pole < 0 or pole > {contour.L_plus + 4.0 * contour.d!r}")


# ---------------------------------------------------------------------------
# the contour

@dataclass(frozen=True, eq=False)
class RectContour:
    """Counterclockwise rectangle around [L_minus, L_plus], clear of 0."""
    d: float
    L_minus: float
    L_plus: float
    nodes_per_side: int = DEFAULT_NODES_PER_SIDE

    def __post_init__(self):
        if not (0.0 < self.d < self.L_minus / 10.0):
            raise DomainError(
                f"contour margin d = {self.d!r} outside (0, L_minus/10) = "
                f"(0, {self.L_minus / 10.0!r})")
        if not (0.0 < self.L_minus < self.L_plus):
            raise DomainError(
                f"bad edge interval [{self.L_minus!r}, {self.L_plus!r}]")
        if self.nodes_per_side < MIN_NODES_PER_SIDE:
            raise DomainError(
                f"nodes_per_side = {self.nodes_per_side} < {MIN_NODES_PER_SIDE}")
        object.__setattr__(self, "_levels", {})

    @property
    def left(self) -> float:
        return self.L_minus - 2.0 * self.d

    @property
    def right(self) -> float:
        return self.L_plus + 2.0 * self.d

    @property
    def half_height(self) -> float:
        return 2.0 * self.d

    @property
    def center(self) -> float:
        return 0.5 * (self.L_minus + self.L_plus)

    def corners(self):
        h = self.half_height
        return (complex(self.left, -h), complex(self.right, -h),
                complex(self.right, h), complex(self.left, h))

    def max_level(self) -> int:
        lvl = 0
        while self.nodes_per_side << (lvl + 1) <= MAX_NODES_PER_SIDE:
            lvl += 1
        return lvl

    def nodes(self, level: int = 0):
        """(points, weights) of the full rectangle at a refinement level.

        Level k uses nodes_per_side * 2**k Gauss-Legendre nodes per side,
        capped at MAX_NODES_PER_SIDE.  Arrays are cached and read-only.
        """
        if level not in self._levels:
            n = min(self.nodes_per_side << level, MAX_NODES_PER_SIDE)
            s, w = _leggauss(n)
            cs = self.corners()
            pts, wts = [], []
            for a, b in zip(cs, cs[1:] + cs[:1]):
                pts.append(a + (b - a) * 0.5 * (s + 1.0))
                wts.append(w * ((b - a) * 0.5))
            xi, ww = np.concatenate(pts), np.concatenate(wts)
            xi.flags.writeable = False
            ww.flags.writeable = False
            self._levels[level] = (xi, ww)
        return self._levels[level]


def _construction_self_test(c: RectContour) -> None:
    # Closure and signed area on the production nodes.  Both integrands are
    # per-side affine, so Gauss-Legendre reproduces them exactly; any
    # orientation, corner, or weight-scaling bug shows up here.
    xi, w = c.nodes(0)
    scale = abs(c.right) + abs(c.left) + c.half_height
    closure = abs(complex((w).sum()))
    if closure > 1e-12 * scale:
        raise ContourError(f"contour does not close: oint dxi = {closure:.3e}")
    area = complex((np.conj(xi) * w).sum()) / 2j
    want = (c.right - c.left) * 2.0 * c.half_height
    if abs(area - want) > 1e-10 * want:
        raise ContourError(
            f"signed area {area!r} != {want!r}; orientation or weights wrong")


def build_contour(edges, d: float | None = None,
                  nodes_per_side: int = DEFAULT_NODES_PER_SIDE) -> RectContour:
    """Rectangle around the support described by `edges`, self-tested.

    With d omitted, the margin defaults to min(L_minus/20, 0.05).
    """
    if d is None:
        d = min(edges.L_minus / 20.0, DEFAULT_D_CAP)
    c = RectContour(d=float(d), L_minus=float(edges.L_minus),
                    L_plus=float(edges.L_plus),
                    nodes_per_side=int(nodes_per_side))
    _construction_self_test(c)
    return c


def default_contour(fc: FreeConvolution) -> RectContour:
    """The per-convolution default contour, built once and cached on fc."""
    c = getattr(fc, "_default_contour", None)
    if c is None:
        c = build_contour(support_edges(fc))
        object.__setattr__(fc, "_default_contour", c)
    return c


# ---------------------------------------------------------------------------
# generic quadrature

def contour_integral(c: RectContour, integrand, rtol: float = QUAD_RTOL,
                     atol: float = QUAD_ATOL) -> complex:
    """oint integrand(xi) dxi with node doubling until two successive
    refinement levels agree; warns if the finest level still disagrees."""
    prev = None
    gap = np.inf
    for lvl in range(c.max_level() + 1):
        xi, w = c.nodes(lvl)
        vals = np.asarray(integrand(xi), dtype=complex)
        finite = np.isfinite(vals.real) & np.isfinite(vals.imag)
        if not finite.all():
            bad = xi[np.flatnonzero(~finite)[0]]
            raise DomainError(f"integrand is non-finite at xi = {bad!r}")
        cur = complex((vals * w).sum())
        if prev is not None:
            gap = abs(cur - prev)
            if gap <= atol + rtol * abs(cur):
                return cur
        prev = cur
    warnings.warn(
        f"contour integral not settled at {MAX_NODES_PER_SIDE} nodes/side: "
        f"last two levels differ by {gap:.3e}",
        AccuracyWarning, stacklevel=2)
    return cur


def _as_measure(nu) -> SpectralMeasure:
    if isinstance(nu, SpectralMeasure):
        return nu
    return nu.as_measure()


# ---------------------------------------------------------------------------
# the m-plane circle

def _m_circle(fc: FreeConvolution, c: RectContour):
    """(center, radius, turn) of the circle on the diameter [m(c.left),
    m(c.right)], counterclockwise (turn 1) for ratio < 1.  Each crossing is
    bisected on a bracket of the real branch where z(m) rises through it."""
    def z(m):
        return -1.0 / m + fc.ratio * _sums(fc, m).real

    e = support_edges(fc, probes=False)
    x = np.array([c.left, c.right])
    lo = np.array([-1.0 / c.left if fc.ratio < 1.0 else
                   1.0 / (fc.ratio + 1.0 - 1.0 / e.x_minus), -e.x_plus])
    hi = np.array([-e.x_minus, -1.0 / c.right])
    if not (np.all(z(lo) < x) and np.all(z(hi) > x)):
        raise ContourError(f"no m-plane bracket for the real crossings "
                           f"{c.left!r} and {c.right!r}; the edges are off")
    for _ in range(CROSSING_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = z(mid) < x
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    a, b = 0.5 * (lo + hi)
    return 0.5 * (a + b), 0.5 * abs(b - a), (1.0 if a < b else -1.0)


def _margin(circle, values) -> float:
    """Exact min over the circle and values v of |1 + v m|."""
    center, radius, _ = circle
    v = np.asarray(values, dtype=float).ravel()
    return float(np.min(v * np.abs(radius - np.abs(center + 1.0 / v))))


def _circle_trapezoid(fc, c, f, weight, what: str, want_t=False, clear_of=(),
                      real=True):
    """oint f(z(m)) weight(m, S, T) dm around the m-plane circle of c, with
    S(m) and (if want_t) T(m) = int t^2/(1+tm)^2 dpi from one _sums pass.

    The last axis of weight's result runs over the nodes.  The periodic
    trapezoid rule doubles its nodes, evaluating only the new ones, until
    two levels agree.  Each v in clear_of must keep |1 + v m| off zero, and
    a real result must come out with |Im| below IMAG_TOL.
    """
    circle = center, radius, turn = _m_circle(fc, c)
    margin = _margin(circle, clear_of) if len(clear_of) else np.inf
    if margin <= DENOM_FLOOR:
        raise NearSingularityError(
            f"|1 + v m| fell to {margin:.3e} on the m-plane circle ({what}); "
            f"the margin d is too small or the edges are off")
    theta = 2.0 * np.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES
    total, n, prev, gap = 0.0, 0, None, np.inf
    while True:
        u = np.exp(1j * turn * theta)
        m = center + radius * u
        S, T = _sums(fc, m, want_t=True) if want_t else (_sums(fc, m), None)
        vals = (f(-1.0 / m + fc.ratio * S) * weight(m, S, T)
                * (1j * turn * radius * u))
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NearSingularityError(
                f"{what} integrand is non-finite at m = "
                f"{m[np.nonzero(bad)[-1][0]]!r}")
        total = total + vals.sum(axis=-1)
        n += theta.size
        cur = 2.0 * np.pi * total / n
        if prev is not None:
            gap = float(np.max(np.abs(cur - prev)))
            if gap <= FUNC_ATOL + FUNC_RTOL * float(np.max(np.abs(cur))):
                break
        if 2 * n > MAX_CIRCLE_NODES:
            warnings.warn(f"{what} not settled at {n} m-plane nodes: last "
                          f"two levels differ by {gap:.3e}",
                          AccuracyWarning, stacklevel=3)
            break
        prev = cur
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    if not real:
        return cur
    worst = float(np.max(np.abs(cur.imag)))
    if worst >= IMAG_TOL:
        raise ContourError(
            f"{what} came out non-real (|Im| = {worst:.3e}); the contour or "
            f"transform values are inconsistent")
    return cur.real


# ---------------------------------------------------------------------------
# fluctuation functionals

def _f_values(fc, c, f, sigmas) -> np.ndarray:
    """F(sigma) for a batch of sigma values, adaptively refined jointly."""
    sig = np.asarray(sigmas, dtype=float).ravel()
    if np.any(sig <= 0.0):
        raise DomainError("sigma values must be positive")
    return _circle_trapezoid(
        fc, c, f, lambda m, S, T: sig[:, None] / (
            2j * np.pi * (1.0 + np.multiply.outer(sig, m))),
        "F(sigma)", clear_of=sig)


def f_sigma(fc: FreeConvolution, f: TestFunction, sigma: float,
            contour: RectContour | None = None) -> float:
    """F(sigma) = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi,
    evaluated as (1/2 pi i) oint f(z(m)) sigma/(1 + sigma m) dm."""
    c = default_contour(fc) if contour is None else contour
    f.validate(c)
    return float(_f_values(fc, c, f, np.array([float(sigma)]))[0])


def denominator_margin(fc: FreeConvolution, sigmas,
                       contour: RectContour | None = None) -> float:
    """min over the m-plane circle of the contour and sigma of |1 + sigma m|."""
    c = default_contour(fc) if contour is None else contour
    return _margin(_m_circle(fc, c), sigmas)


def clt_variance(fc: FreeConvolution, f: TestFunction,
                 contour: RectContour | None = None, nu=None,
                 gamma0: float | None = None) -> float:
    """Limiting variance of the rescaled linear eigenvalue statistic.

    V = gamma0 * ( E_nu[F(sigma)^2] - (E_nu[F(sigma)])^2 ), the variance of
    the iid-over-populations sum that the statistic reduces to.  nu defaults
    to the base measure of fc and gamma0 to its ratio.
    """
    c = default_contour(fc) if contour is None else contour
    f.validate(c)
    base = fc.base if nu is None else _as_measure(nu)
    g0 = fc.ratio if gamma0 is None else float(gamma0)
    sig, wts = base.quad_rule(SIGMA_NODES)
    F = _f_values(fc, c, f, sig)
    mean = float((wts * F).sum())
    second = float((wts * F * F).sum())
    v = g0 * (second - mean * mean)
    if v < -VARIANCE_CLAMP:
        raise ContourError(f"variance came out negative: {v!r}")
    return max(v, 0.0)


def _theorem_terms(fc, c, f, base):
    """The two terms of the fluctuation variance display, transcribed
    literally (no 2 pi i normalization, no ratio weight); diagnostic only.

    In the m-plane A(t) = oint f(z(m))/(1 + tm) dm and the single integral
    is oint f(z(m)) ratio S(m) dm.
    """
    tloc, twts = base.quad_rule(SIGMA_NODES)
    vals = _circle_trapezoid(
        fc, c, f, lambda m, S, T: np.vstack(
            [1.0 / (1.0 + np.multiply.outer(tloc, m)), fc.ratio * S]),
        "theorem terms", clear_of=tloc, real=False)
    A, single = vals[:-1], vals[-1]
    double_term = complex(-(twts * tloc * A * A).sum() / (4.0 * np.pi ** 2))
    return double_term, complex(single * single)


def theorem_variance(fc: FreeConvolution, f: TestFunction,
                     contour: RectContour | None = None, nu=None) -> complex:
    """Literal two-term variance display: double contour-integral term plus
    squared single integral, returned unnormalized as a complex diagnostic.
    The operational variance is clt_variance; see variance_report."""
    c = default_contour(fc) if contour is None else contour
    f.validate(c)
    base = fc.base if nu is None else _as_measure(nu)
    t1, t2 = _theorem_terms(fc, c, f, base)
    return t1 + t2


def mean_statistic(fc: FreeConvolution, f: TestFunction,
                   contour: RectContour | None = None) -> float:
    """integral of f against the part of the limiting law inside the contour:
    -(1/2 pi i) oint f(xi) m(xi) dxi = -(1/2 pi i) oint f(z(m)) m z'(m) dm
    with z'(m) = 1/m^2 - ratio T(m).  For f = 1 this is the mass of the
    absolutely continuous part, 1 - (1 - ratio)^+."""
    c = default_contour(fc) if contour is None else contour
    f.validate(c)
    return float(_circle_trapezoid(
        fc, c, f, lambda m, S, T: (fc.ratio * m * T - 1.0 / m) / (2j * np.pi),
        "mean", want_t=True))


def variance_report(fc: FreeConvolution, f: TestFunction,
                    contour: RectContour | None = None, nu=None,
                    gamma0: float | None = None) -> str:
    """Key-value text block comparing the operational variance with the
    literal two-term display."""
    c = default_contour(fc) if contour is None else contour
    f.validate(c)
    base = fc.base if nu is None else _as_measure(nu)
    v = clt_variance(fc, f, contour=c, nu=base, gamma0=gamma0)
    t1, t2 = _theorem_terms(fc, c, f, base)
    lines = [
        f"clt_variance = {v!r}",
        f"theorem_double_term = {t1!r}",
        f"theorem_squared_term = {t2!r}",
        f"theorem_total = {t1 + t2!r}",
    ]
    return "\n".join(lines)
