"""Contour functionals of the limiting law, evaluated in the m-plane.

The rectangle has vertices (L_minus - 2d) +- 2di and (L_plus + 2d) +- 2di with
0 < d < L_minus/10, so it encloses [L_minus, L_plus] and leaves 0 (and any
point mass there) outside.  It supplies the margin d, its real crossings
left and right, and one fixed rule of Gauss-Legendre nodes in exact
conjugate pairs, whose upper half check_hat_rate solves on.

Every fluctuation functional runs on a circle in the m-plane instead.  The
theory needs Cauchy integrals over the rectangle, and xi = z(m) = -1/m +
ratio int t/(1+tm) dpi, the explicit inverse of the Stieltjes transform,
turns each into an m-plane integral that needs no fixed-point solve (Bai &
Silverstein, Ann. Probab. 32, 2004):

    F(sigma)     = (1/2 pi i) oint f(xi) m'(xi) sigma/(1 + sigma m(xi)) dxi
                 = (1/2 pi i) oint f(z(m)) sigma/(1 + sigma m) dm
    mean inside  = -(1/2 pi i) oint f(xi) m(xi) dxi
                 = -(1/2 pi i) oint f(z(m)) m z'(m) dm
    clt variance = ratio * E_pi[(F - E_pi F)^2]

The m-plane path is the circle on the diameter [m(left), m(right)], the
images of the rectangle's real crossings: counterclockwise for ratio < 1,
clockwise around 0 for ratio > 1.  The two crossings are the real values
that the Stieltjes solver lands on at eta = 0; all real-axis and edge
arithmetic stays in freeconv.  Every singularity of the integrands is real,
so the circle separates them as the image of the rectangle does and d keeps
its meaning.  The periodic trapezoid rule on it converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014); a sum that has not settled at
MAX_CIRCLE_NODES raises ContourError rather than return a wrong number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContourError, DomainError, NearSingularityError
from .freeconv import FreeConvolution, _rows, _solve, support_edges
from .measures import _leggauss

NODES_PER_SIDE = 128
DEFAULT_D_CAP = 0.05
CIRCLE_NODES = 64
MAX_CIRCLE_NODES = 1 << 14
FUNC_RTOL = 1e-9
FUNC_ATOL = 1e-10
DENOM_FLOOR = 1e-8
IMAG_TOL = 1e-7
SIGMA_NODES = 128


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

@lru_cache(maxsize=64)
def _m_circle(fc: FreeConvolution, c: RectContour):
    """(center, radius, turn) of the circle on the diameter [m(c.left),
    m(c.right)], counterclockwise (turn 1) for ratio < 1.  The crossings
    are the solver's real-axis landing at c.left and c.right; _solve, not
    stieltjes_batch, so that no edge-distance guard limits the margin d.
    A landing costs about twice the transform work of a bisection, so circles
    are kept per (fc, c): every functional on one contour shares them."""
    m = _solve(*_rows((fc,)), np.array([c.left, c.right], dtype=complex))[0]
    if np.any(np.abs(m.imag) > IMAG_TOL * np.abs(m)):
        raise ContourError(
            f"the real crossings {c.left!r} and {c.right!r} map to non-real "
            f"m = {complex(m[0])!r}, {complex(m[1])!r}; the edges are off")
    a, b = m.real
    return 0.5 * (a + b), 0.5 * abs(b - a), (1.0 if a < b else -1.0)


def _margin(circle, values) -> float:
    """Exact min over the circle and values v of |1 + v m|."""
    center, radius, _ = circle
    v = np.asarray(values, dtype=float).ravel()
    return float(np.min(v * np.abs(radius - np.abs(center + 1.0 / v))))


def _circle_trapezoid(fc, c, f, weight, what: str, clear_of=()):
    """oint f(z(m)) weight(m, S, T) dm around the m-plane circle of c (the
    default contour if None), with S(m) and T(m) = int t^2/(1+tm)^2 dpi
    from one call of the base law's transforms.  f must validate against
    c.

    The last axis of weight's result runs over the nodes.  The periodic
    trapezoid rule doubles its nodes, evaluating only the new ones, until
    two levels agree.  Each v in clear_of must keep |1 + v m| off zero, and
    each entry of the result must come out real, with |Im| below IMAG_TOL
    max(1, |Re|); a sum not settled at MAX_CIRCLE_NODES raises ContourError.
    """
    if c is None:
        c = default_contour(fc)
    f.validate(c)
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
        S, T = fc.base.transforms(m)
        # an overflow shows up as a non-finite value, checked next
        with np.errstate(over="ignore", invalid="ignore"):
            vals = (f(-1.0 / m + fc.ratio * S) * weight(m, S, T)
                    * (1j * turn * radius * u))
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
    return float(_f_values(fc, contour, f, np.array([float(sigma)]))[0])


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
    exact V and the centred sum is within 7e-12.
    """
    sig, wts = fc.base.quad_rule(SIGMA_NODES)
    F = _f_values(fc, contour, f, sig)
    dev = F - (wts * F).sum()
    return fc.ratio * float((wts * dev * dev).sum())


def mean_statistic(fc: FreeConvolution, f: TestFunction,
                   contour: RectContour | None = None) -> float:
    """integral of f against the part of the limiting law inside the contour:
    -(1/2 pi i) oint f(xi) m(xi) dxi = -(1/2 pi i) oint f(z(m)) m z'(m) dm
    with z'(m) = 1/m^2 - ratio T(m).  For f = 1 this is the mass of the
    absolutely continuous part, 1 - (1 - ratio)^+."""
    return float(_circle_trapezoid(
        fc, contour, f,
        lambda m, S, T: (fc.ratio * m * T - 1.0 / m) / (2j * np.pi),
        "mean"))

