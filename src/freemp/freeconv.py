"""Multiplicative free convolution of a population measure with Marchenko-Pastur.

For a population measure pi on (0, 1] and an aspect ratio r > 0, r != 1, the
Stieltjes transform m(z) of pi boxtimes MP_r is the unique solution of

    1/m = -z + r * integral t / (1 + m t) dpi(t)

with Im m > 0 for Im z > 0.  The convolution equals (1 - r)^+ delta_0 plus an
absolutely continuous part supported on [L_minus, L_plus]; the edges come from
the roots of h(x) = integral (x t / (1 - x t))^2 dpi(t) = 1/r, bisected on
closed-form brackets (Silverstein & Choi, J. Multivariate Anal. 54, 1995).

The solver is Newton's method on the defining equation, batched over arrays
of z; a point keeps a full step only where its residual drops.  A point
without a usable warm start is reached by per-point continuation in Im z from
a height where -1/z is a good start, with the step ratio adapted to how
Newton fares at each step (Dobriban, arXiv:1507.01649; Ledoit & Wolf's
QuEST).  Two final Newton steps land residuals near machine precision.  The
same continuation lands on eta = 0 for real z: outside the support it gives
the real value of m, and inside it the boundary value m(x + i0), whose
|Im m| / pi is the density.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DomainError, EdgeBracketError,
                     EdgeProbeError, SingularDerivativeError)
from .measures import PopulationLaw, SpectralMeasure

REAL_GUARD_DELTA = 1e-6       # real z must clear the support by this much
RESIDUAL_TOL = 1e-12          # backward error, relative to max(1, |z|)
POLISH_TOL = 1e-14            # target of the two final Newton steps
NEWTON_ITERS = 12             # Newton iterations per solve attempt
FIRST_STEP_RATIO = 0.1        # first eta step of a continuation
MAX_STEP_RATIO = 0.99         # a step ratio rejected up to this stalls
AC_QUAD_NODES = 256           # fixed rule for solver-side integrals
EDGE_QUAD_NODES = 512         # fixed rule for edge-side integrals
EDGE_BISECT_XTOL = 1e-12
DERIV_SINGULAR_TOL = 1e-14
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class SupportEdges:
    """Bulk support [L_minus, L_plus] and the edge roots of h(x) = 1/ratio."""

    L_minus: float
    L_plus: float
    x_minus: float
    x_plus: float


@dataclass(frozen=True, eq=False)
class FreeConvolution:
    """pi boxtimes MP_ratio for a population measure pi (the base)."""

    base: PopulationLaw | SpectralMeasure
    ratio: float

    def __post_init__(self):
        if not (self.ratio > 0.0) or not np.isfinite(self.ratio):
            raise DomainError(f"ratio {self.ratio} must be positive and finite")
        if self.ratio == 1.0:
            raise DomainError("ratio 1 is excluded (support reaches 0)")
        if self.base.lo <= 0.0 or self.base.hi > 1.0 + 1e-12:
            raise DomainError("base measure support must lie inside (0, 1]")
        mass = float(self._rule[1].sum())
        if abs(mass - 1.0) > 1e-8:
            raise DomainError(f"base measure has mass {mass!r} on the "
                              f"{AC_QUAD_NODES}-node solver rule, not 1")

    @cached_property
    def _edge_data(self) -> SupportEdges:
        return _find_edges(self)

    # the fixed rules of the solver and of the edge search, built once
    @cached_property
    def _rule(self):
        return self.base.quad_rule(AC_QUAD_NODES)

    @cached_property
    def _edge_rule(self):
        return self.base.quad_rule(EDGE_QUAD_NODES)


def atom_at_zero(fc: FreeConvolution) -> float:
    """Mass of the point mass at 0: (1 - ratio)^+, exactly."""
    return max(0.0, 1.0 - fc.ratio)


# ---------------------------------------------------------------------------
# solver core

def _sums(fc: FreeConvolution, m: np.ndarray, want_t: bool = False):
    """S(m) = int t/(1+mt) dpi and optionally T(m) = int t^2/(1+mt)^2 dpi."""
    t, w = fc._rule
    s = np.empty(m.shape, dtype=complex)
    tt = np.empty(m.shape, dtype=complex) if want_t else None
    step = max(16, _CHUNK_ELEMS // max(t.size, 1))
    wt = w * t
    wt2 = w * t * t
    for i in range(0, m.size, step):
        sl = slice(i, min(i + step, m.size))
        den = 1.0 + np.multiply.outer(m[sl], t)
        s[sl] = (wt / den).sum(axis=-1)
        if want_t:
            tt[sl] = (wt2 / (den * den)).sum(axis=-1)
    return (s, tt) if want_t else s


def _residual(fc: FreeConvolution, m: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.abs(1.0 / m + z - fc.ratio * _sums(fc, m))


def _newton(fc, z, m, tol, iters):
    """Newton steps on 1/m + z - r S(m).  A point keeps a full step only if
    its residual drops; otherwise it stops where it is, above tol."""
    res = _residual(fc, m, z)
    active = res > tol
    for _ in range(iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ma, za = m[idx], z[idx]
        s, t2 = _sums(fc, ma, want_t=True)
        phi = 1.0 / ma + za - fc.ratio * s
        dphi = -1.0 / (ma * ma) + fc.ratio * t2
        trial = ma - np.where(dphi != 0, phi / dphi, 0.0)
        good = np.isfinite(trial.real) & np.isfinite(trial.imag) & (trial != 0)
        tres = np.full(idx.shape, np.inf)
        tres[good] = _residual(fc, trial[good], za[good])
        better = tres < res[idx]
        m[idx[better]], res[idx[better]] = trial[better], tres[better]
        active[idx] = better & (tres > tol[idx])
    return m, res


def _solved(z, m, res, tol):
    """Residual on target and m in the half plane of z (any sign for real z)."""
    return (res <= tol) & ((z.imag == 0.0) | (m.imag * z.imag > 0.0))


def _continuation(fc, z, tol):
    """Per-point Newton continuation in eta = |Im| down to the target.

    Each point starts at eta = max(|Im z|, 2(1 + ratio)), where -1/z is a
    good Newton start: the support lies below (1 + sqrt(ratio))^2 <= 2(1 +
    ratio).  Every point steps eta down by its own ratio, squared after an
    accepted step and square-rooted after a rejected one; a step that would
    pass the target lands on it (for real z once it drops below the
    resolution of z).
    """
    x, a = z.real, np.abs(z.imag)
    side = np.where(z.imag >= 0.0, 1.0, -1.0)
    floor = np.maximum(a, np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
    eta = np.maximum(a, 2.0 * (1.0 + fc.ratio))
    zeta = x + 1j * side * eta
    m, res = _newton(fc, zeta, -1.0 / zeta, tol, NEWTON_ITERS)
    bad = ~_solved(zeta, m, res, tol)
    q = np.full(z.shape, FIRST_STEP_RATIO)
    while True:
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ConvergenceError(
                f"stieltjes continuation stalled at z = {complex(z[k])!r}: "
                f"eta reached {float(eta[k]):.3e}, residual "
                f"{float(res[k]):.3e}", residual=float(res[k]))
        idx = np.flatnonzero(eta > a)
        if idx.size == 0:
            return m
        nxt = eta[idx] * q[idx]
        nxt = np.where(nxt <= floor[idx], a[idx], nxt)
        zt = x[idx] + 1j * side[idx] * nxt
        mt, rt = _newton(fc, zt, m[idx].copy(), tol[idx], NEWTON_ITERS)
        ok = _solved(zt, mt, rt, tol[idx])
        eta[idx[ok]], m[idx[ok]], res[idx] = nxt[ok], mt[ok], rt
        q[idx] = np.where(ok, q[idx] ** 2, np.sqrt(q[idx]))
        bad[idx] = q[idx] > MAX_STEP_RATIO


def _real_axis_guard(fc: FreeConvolution, x: np.ndarray):
    if atom_at_zero(fc) > 0.0 and np.any(x == 0.0):
        raise DomainError(f"stieltjes is undefined at z = 0 (point mass "
                          f"{atom_at_zero(fc)!r})")
    e = fc._edge_data
    dist = np.maximum(e.L_minus - x, x - e.L_plus)
    if np.any(dist < REAL_GUARD_DELTA):
        bad = float(x[np.argmin(dist)])
        raise DomainError(
            f"real z = {bad!r} is within {REAL_GUARD_DELTA} of the support "
            f"[{e.L_minus}, {e.L_plus}]")


def _solve(fc, z, m0=None):
    """Complex m with residual within RESIDUAL_TOL at every z, real z too.

    With a warm start m0, each point first tries Newton at its own z; a
    point without m0, or whose Newton misses the tolerance or lands in the
    wrong half plane, is reached by _continuation.  Two polishing Newton
    steps then aim at POLISH_TOL, and a point left above the tolerance
    raises ConvergenceError.
    """
    # Backward-error scaling: 1/m + z - r S(m) carries a cancellation floor
    # of order |z| eps, so the targets are relative to max(1, |z|).
    scale = np.maximum(1.0, np.abs(z))
    tol = RESIDUAL_TOL * scale
    if m0 is None:
        m = _continuation(fc, z, tol)
    else:
        m = np.asarray(m0, dtype=complex).ravel().copy()
        bad = ~np.isfinite(m.real) | ~np.isfinite(m.imag) | (m == 0)
        m[bad] = -1.0 / z[bad]
        m, res = _newton(fc, z, m, tol, NEWTON_ITERS)
        cold = ~_solved(z, m, res, tol)
        if cold.any():
            m[cold] = _continuation(fc, z[cold], tol[cold])
    m, res = _newton(fc, z, m, POLISH_TOL * scale, iters=2)
    if (res > tol).any():
        raise ConvergenceError(
            f"stieltjes solve stalled at residual {float(res.max()):.3e} "
            f"(worst z = {z[int(np.argmax(res))]!r})",
            residual=float(res.max()))
    return m


def stieltjes_batch(fc: FreeConvolution, z, m0=None) -> np.ndarray:
    """Vectorized Stieltjes transform over an array of evaluation points.

    See _solve: warm Newton from m0 where it holds, per-point continuation
    in the imaginary direction elsewhere (sign-matched, so both half planes
    solve natively), two polishing steps toward 1e-14 max(1, |z|), and the
    solution must lie in the half plane of z.  Real z must clear the support
    by the edge-distance guard; continuation lands on them at eta = 0 and
    they keep the real part, whose residual is checked again.
    ConvergenceError names the z and the eta where a continuation stalled.
    """
    z = np.ascontiguousarray(np.asarray(z, dtype=complex).ravel())
    is_real = z.imag == 0.0
    if is_real.any():
        _real_axis_guard(fc, z.real[is_real])
    m = _solve(fc, z, m0)
    if np.any(m.imag[z.imag > 0] <= 0.0):
        raise ConvergenceError("solution left the upper half plane")
    if np.any(m.imag[z.imag < 0] >= 0.0):
        raise ConvergenceError("solution left the lower half plane")
    if is_real.any():
        zr, mr = z[is_real], m.real[is_real]
        res = _residual(fc, mr, zr)
        if (res > RESIDUAL_TOL * np.maximum(1.0, np.abs(zr))).any():
            raise ConvergenceError(
                f"real-axis value misses the residual tolerance: "
                f"{float(res.max()):.3e} at z = {zr[int(np.argmax(res))]!r}",
                residual=float(res.max()))
        m[is_real] = mr
    return m


def stieltjes(fc: FreeConvolution, z: complex) -> complex:
    """Stieltjes transform m(z); real z must clear the support edges."""
    return complex(stieltjes_batch(fc, np.array([z]))[0])


def stieltjes_derivative_batch(fc: FreeConvolution, z, m=None) -> np.ndarray:
    """m'(z) = m^2 / (1 - ratio * m^2 * int t^2/(1+mt)^2 dpi), batched."""
    z = np.asarray(z, dtype=complex).ravel()
    if m is None:
        m = stieltjes_batch(fc, z)
    m = np.asarray(m, dtype=complex).ravel()
    _, t2 = _sums(fc, m, want_t=True)
    den = 1.0 - fc.ratio * m * m * t2
    if np.any(np.abs(den) < DERIV_SINGULAR_TOL):
        bad = z[int(np.argmin(np.abs(den)))]
        raise SingularDerivativeError(
            f"derivative denominator vanished at z = {bad!r} (spectral edge)")
    return m * m / den


def stieltjes_derivative(fc: FreeConvolution, z: complex) -> complex:
    return complex(stieltjes_derivative_batch(fc, np.array([z]))[0])


# ---------------------------------------------------------------------------
# density on the real axis

def density_batch(fc: FreeConvolution, x, warn: bool = True) -> np.ndarray:
    """Density of the absolutely continuous part, |Im m(x + i0)| / pi.

    The boundary value m(x + i0) comes from the continuation of
    stieltjes_batch landing on eta = 0, where Newton runs with complex m;
    |Im| takes it from either conjugate root.  m meets the solver's residual
    tolerance, which pins it to rounding level in the bulk but only to about
    the tolerance's square root at a square-root edge.  x = 0 raises
    DomainError when the law has a point mass there.  warn is accepted for
    existing callers and has no effect.
    """
    x = np.asarray(x, dtype=float).ravel()
    if atom_at_zero(fc) > 0.0 and np.any(x == 0.0):
        raise DomainError(f"density is undefined at x = 0 (point mass "
                          f"{atom_at_zero(fc)!r})")
    return np.abs(_solve(fc, x.astype(complex)).imag) / np.pi


def density(fc: FreeConvolution, x: float) -> float:
    return float(density_batch(fc, np.array([x]))[0])


# ---------------------------------------------------------------------------
# support edges

def _h_value(fc, x: float) -> float:
    t, w = fc._edge_rule
    q = x * t / (1.0 - x * t)
    return float((w * q * q).sum())


def _edge_value(fc, x: float) -> float:
    t, w = fc._edge_rule
    return float(1.0 / x + fc.ratio * (w * t / (1.0 - x * t)).sum())


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


def _find_edges(fc: FreeConvolution) -> SupportEdges:
    """Edge roots of h = 1/ratio by bisection on closed-form brackets, their
    values, and two density probes: essentially zero just outside L_plus
    and strictly positive at the midpoint."""
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
    edges = SupportEdges(L_minus=_edge_value(fc, x_minus),
                         L_plus=_edge_value(fc, x_plus),
                         x_minus=x_minus, x_plus=x_plus)
    if not (0.0 < edges.L_minus < edges.L_plus):
        raise DomainError(f"edge values out of order: L_minus="
                          f"{edges.L_minus}, L_plus={edges.L_plus}")
    outside = density(fc, edges.L_plus + 0.05)
    mid = density(fc, 0.5 * (edges.L_minus + edges.L_plus))
    if outside >= 1e-4 or mid <= 0.0:
        raise EdgeProbeError(
            f"edge probes failed: density(L_plus + 0.05) = {outside:.3e}, "
            f"density(midpoint) = {mid:.3e}")
    return edges


def support_edges(fc: FreeConvolution) -> SupportEdges:
    """Edges of the absolutely continuous support.

    They are computed and checked against the density by two probes once
    per FreeConvolution instance, on first use.
    """
    return fc._edge_data
