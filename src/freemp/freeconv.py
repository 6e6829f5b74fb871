"""Multiplicative free convolution of a population measure with Marchenko-Pastur.

For a population measure pi on (0, 1] and an aspect ratio r > 0, r != 1, the
Stieltjes transform m(z) of pi boxtimes MP_r is the unique solution of

    1/m = -z + r * integral t / (1 + m t) dpi(t)

with Im m > 0 for Im z > 0.  The convolution equals (1 - r)^+ delta_0 plus an
absolutely continuous part supported on [L_minus, L_plus]; the edges come from
the roots of h(x) = integral (x t / (1 - x t))^2 dpi(t) = 1/r.

The solver is Newton's method on the defining equation, batched over arrays
of z.  A point without a usable warm start is reached by per-point
continuation in Im z from a height where -1/z is a good start, with the step
ratio adapted to how Newton fares at each step (Dobriban, arXiv:1507.01649;
Ledoit & Wolf's QuEST).  Two final Newton steps land residuals near machine
precision.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AccuracyWarning, ConvergenceError, DomainError,
                     EdgeBracketError, EdgeProbeError, SingularDerivativeError)
from .measures import SpectralMeasure

REAL_GUARD_DELTA = 1e-6       # real z must clear the support by this much
RESIDUAL_TOL = 1e-12          # backward error, relative to max(1, |z|)
POLISH_TOL = 1e-14            # target of the two final Newton steps
NEWTON_ITERS = 12             # Newton iterations per solve attempt
FIRST_STEP_RATIO = 0.1        # first eta step of a continuation
MAX_STEP_RATIO = 0.99         # a step ratio rejected up to this stalls
AC_QUAD_NODES = 256           # fixed rule for solver-side integrals
EDGE_QUAD_NODES = 512         # fixed rule for edge-side integrals
EDGE_BISECT_XTOL = 1e-12
EDGE_EXPAND_CAP = 60
DENSITY_ETA = 1e-3            # top of the Richardson ladder (halved twice)
DENSITY_CLAMP = 1e-8
DENSITY_DISAGREE = 1e-4
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

    base: SpectralMeasure
    ratio: float

    def __post_init__(self):
        if not (self.ratio > 0.0) or not np.isfinite(self.ratio):
            raise DomainError(f"ratio {self.ratio} must be positive and finite")
        if self.ratio == 1.0:
            raise DomainError("ratio 1 is excluded (support reaches 0)")
        if self.base.min_support <= 0.0 or self.base.max_support > 1.0 + 1e-12:
            raise DomainError("base measure support must lie inside (0, 1]")

    @cached_property
    def _edge_data(self) -> SupportEdges:
        return _find_edges(self)

    def _quad(self, n: int = AC_QUAD_NODES):
        return self.base.quad_rule(n)


def atom_at_zero(fc: FreeConvolution) -> float:
    """Mass of the point mass at 0: (1 - ratio)^+, exactly."""
    return max(0.0, 1.0 - fc.ratio)


# ---------------------------------------------------------------------------
# solver core

def _sums(fc: FreeConvolution, m: np.ndarray, want_t: bool = False):
    """S(m) = int t/(1+mt) dpi and optionally T(m) = int t^2/(1+mt)^2 dpi."""
    t, w = fc._quad()
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
    """Newton steps on 1/m + z - r S(m); only residual-decreasing steps taken."""
    res = _residual(fc, m, z)
    for _ in range(iters):
        active = res > tol
        if not active.any():
            break
        idx = np.flatnonzero(active)
        ma, za = m[idx], z[idx]
        s, t2 = _sums(fc, ma, want_t=True)
        phi = 1.0 / ma + za - fc.ratio * s
        dphi = -1.0 / (ma * ma) + fc.ratio * t2
        step = np.where(dphi != 0, phi / dphi, 0.0)
        improved = np.zeros(idx.shape, dtype=bool)
        for _ in range(5):   # backtracking halves the step on residual increase
            trial = ma - step
            good = np.isfinite(trial.real) & np.isfinite(trial.imag) & (trial != 0)
            tres = np.full(step.shape, np.inf)
            if good.any():
                tres[good] = _residual(fc, trial[good], za[good])
            better = tres < res[idx]
            newly = better & ~improved
            m[idx[newly]] = trial[newly]
            res[idx[newly]] = tres[newly]
            improved |= better
            if improved.all():
                break
            step = step * 0.5
        if not improved.any():
            break
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
    if np.any(x == 0.0):
        raise DomainError("stieltjes is undefined at z = 0 (point mass)")
    e = fc._edge_data
    dist = np.maximum(e.L_minus - x, x - e.L_plus)
    if np.any(dist < REAL_GUARD_DELTA):
        bad = float(x[np.argmin(dist)])
        raise DomainError(
            f"real z = {bad!r} is within {REAL_GUARD_DELTA} of the support "
            f"[{e.L_minus}, {e.L_plus}]")


def stieltjes_batch(fc: FreeConvolution, z, m0=None) -> np.ndarray:
    """Vectorized Stieltjes transform over an array of evaluation points.

    With a warm start m0, each point first tries Newton at its own z.  A
    point without m0, or whose warm Newton misses the residual tolerance or
    lands in the wrong half plane, is reached by Newton continuation in the
    imaginary direction (see _continuation; sign-matched, so both half
    planes solve natively).  Every complex point then takes two polishing
    Newton steps toward 1e-14 max(1, |z|).  Real z must clear the support
    by the edge-distance guard and finish with Newton on the real-axis
    equation.  ConvergenceError names the z and the eta where a
    continuation stalled.
    """
    z = np.ascontiguousarray(np.asarray(z, dtype=complex).ravel())
    is_real = z.imag == 0.0
    if is_real.any():
        _real_axis_guard(fc, z.real[is_real])
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

    cplx = ~is_real
    if cplx.any():
        zc = z[cplx]
        mc, res = _newton(fc, zc, m[cplx], POLISH_TOL * scale[cplx], iters=2)
        if (res > tol[cplx]).any():
            raise ConvergenceError(
                f"stieltjes solve stalled at residual {float(res.max()):.3e} "
                f"(worst z = {zc[int(np.argmax(res))]!r})",
                residual=float(res.max()))
        if np.any(mc.imag[zc.imag > 0] <= 0.0):
            raise ConvergenceError("solution left the upper half plane")
        if np.any(mc.imag[zc.imag < 0] >= 0.0):
            raise ConvergenceError("solution left the lower half plane")
        m[cplx] = mc
    if is_real.any():
        m[is_real] = _newton_real(fc, z.real[is_real], m.real[is_real],
                                  RESIDUAL_TOL)
    return m


def _newton_real(fc, x, m, tol, iters=80):
    """Real-axis Newton for real z outside the support; strict on exit."""
    m = np.asarray(m, dtype=float).copy()
    m[m == 0.0] = -1.0 / x[m == 0.0]
    tol = tol * np.maximum(1.0, np.abs(x))
    t, w = fc._quad()
    wt, wt2 = w * t, w * t * t
    res = np.full(m.shape, np.inf)
    for _ in range(iters):
        den = 1.0 + np.multiply.outer(m, t)
        s = (wt / den).sum(axis=-1)
        t2 = (wt2 / (den * den)).sum(axis=-1)
        phi = 1.0 / m + x - fc.ratio * s
        res = np.abs(phi)
        if (res <= tol).all():
            break
        dphi = -1.0 / (m * m) + fc.ratio * t2
        step = phi / np.where(dphi != 0, dphi, 1.0)
        limit = 0.5 * np.abs(m)          # keep iterates away from the m = 0 pole
        step = np.clip(step, -limit, limit)
        m = m - step
    if (res > tol).any():
        raise ConvergenceError(
            f"real-axis solve stalled at residual {float(res.max()):.3e}",
            residual=float(res.max()))
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
    """Density of the absolutely continuous part by Stieltjes inversion.

    Im m(x + i eta) / pi is extrapolated to eta = 0 from three geometric eta
    levels (Richardson, eliminating the eta and eta^2 terms).  Disagreement
    between the last two extrapolants beyond DENSITY_DISAGREE attaches an
    AccuracyWarning; small negative values are clamped to 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    etas = (DENSITY_ETA, DENSITY_ETA / 2.0, DENSITY_ETA / 4.0)
    zs = np.concatenate([x + 1j * e for e in etas])
    mm = stieltjes_batch(fc, zs).reshape(3, x.size)
    u0, u1, u2 = (mm.imag / np.pi)
    v1 = 2.0 * u1 - u0
    v2 = 2.0 * u2 - u1
    rho = (4.0 * v2 - v1) / 3.0
    disagree = np.abs(v2 - v1)
    if warn and np.any(disagree > DENSITY_DISAGREE):
        worst = int(np.argmax(disagree))
        warnings.warn(
            f"density extrapolation levels disagree by "
            f"{float(disagree[worst]):.2e} at x = {float(x[worst])!r}",
            AccuracyWarning, stacklevel=2)
    if warn and np.any(rho < -DENSITY_CLAMP):
        worst = int(np.argmin(rho))
        warnings.warn(
            f"density extrapolated to {float(rho[worst]):.2e} < 0 "
            f"at x = {float(x[worst])!r}; clamped",
            AccuracyWarning, stacklevel=2)
    return np.maximum(rho, 0.0)


def density(fc: FreeConvolution, x: float, warn: bool = True) -> float:
    return float(density_batch(fc, np.array([x]), warn=warn)[0])


# ---------------------------------------------------------------------------
# support edges

def _edge_rule(fc):
    return fc.base.quad_rule(EDGE_QUAD_NODES)


def _h_value(fc, x: float) -> float:
    t, w = _edge_rule(fc)
    q = x * t / (1.0 - x * t)
    return float((w * q * q).sum())


def _edge_value(fc, x: float) -> float:
    t, w = _edge_rule(fc)
    return float(1.0 / x + fc.ratio * (w * t / (1.0 - x * t)).sum())


def _bisect_h(fc, lo, hi, target, increasing):
    """Bisection for h = target on a bracket where h is monotone."""
    while hi - lo > EDGE_BISECT_XTOL:
        mid = 0.5 * (lo + hi)
        if (_h_value(fc, mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _find_edges(fc: FreeConvolution) -> SupportEdges:
    target = 1.0 / fc.ratio
    t_min, t_max = fc.base.min_support, fc.base.max_support

    # right root: h increases from 0 to infinity on (0, 1/t_max)
    b = 1.0 / t_max
    hi_gap = 1.0 / 16.0
    for _ in range(EDGE_EXPAND_CAP):
        if _h_value(fc, b * (1.0 - hi_gap)) > target:
            break
        hi_gap *= 0.5
    else:
        raise EdgeBracketError("right edge: h never exceeded 1/ratio",
                               bracket=(0.0, b))
    lo = b / 16.0
    for _ in range(EDGE_EXPAND_CAP):
        if _h_value(fc, lo) < target:
            break
        lo *= 0.5
    else:
        raise EdgeBracketError("right edge: h never dropped below 1/ratio",
                               bracket=(0.0, b))
    x_plus = _bisect_h(fc, lo, b * (1.0 - hi_gap), target, increasing=True)

    # left root: x < 0 when ratio > 1 (h climbs from 0 toward 1 as x -> -inf),
    # x > 1/t_min when ratio < 1 (h falls from infinity toward 1)
    if fc.ratio > 1.0:
        span = 1.0
        for _ in range(EDGE_EXPAND_CAP):
            if _h_value(fc, -span) > target:
                break
            span *= 2.0
        else:
            raise EdgeBracketError("left edge: h(-x) never exceeded 1/ratio",
                                   bracket=(-span, 0.0))
        near = span / 2.0
        for _ in range(EDGE_EXPAND_CAP):
            if _h_value(fc, -near) < target:
                break
            near *= 0.5
        else:
            raise EdgeBracketError("left edge: no inner bracket end",
                                   bracket=(-span, 0.0))
        # h decreases in x on (-span, -near): larger |x| pushes q^2 toward 1
        x_minus = _bisect_h(fc, -span, -near, target, increasing=False)
    else:
        c = 1.0 / t_min
        lo_gap = 1.0 / 16.0
        for _ in range(EDGE_EXPAND_CAP):
            if _h_value(fc, c * (1.0 + lo_gap)) > target:
                break
            lo_gap *= 0.5
        else:
            raise EdgeBracketError("left edge: h never exceeded 1/ratio",
                                   bracket=(c, np.inf))
        hi = c * 2.0
        for _ in range(EDGE_EXPAND_CAP):
            if _h_value(fc, hi) < target:
                break
            hi *= 2.0
        else:
            raise EdgeBracketError("left edge: h never dropped below 1/ratio",
                                   bracket=(c, hi))
        x_minus = _bisect_h(fc, c * (1.0 + lo_gap), hi, target, increasing=False)

    L_plus = _edge_value(fc, x_plus)
    L_minus = _edge_value(fc, x_minus)
    if not (0.0 < L_minus < L_plus):
        raise DomainError(
            f"edge values out of order: L_minus={L_minus}, L_plus={L_plus}")
    return SupportEdges(L_minus=L_minus, L_plus=L_plus,
                        x_minus=x_minus, x_plus=x_plus)


def support_edges(fc: FreeConvolution, probes: bool = True) -> SupportEdges:
    """Edges of the absolutely continuous support, with consistency probes.

    The probes check the computed interval against the density: essentially
    zero just outside L_plus and strictly positive at the midpoint.  They run
    once per FreeConvolution instance.
    """
    edges = fc._edge_data
    if probes and not getattr(fc, "_edges_probed", False):
        outside = density(fc, edges.L_plus + 0.05, warn=False)
        mid = density(fc, 0.5 * (edges.L_minus + edges.L_plus), warn=False)
        if outside >= 1e-4 or mid <= 0.0:
            raise EdgeProbeError(
                f"edge probes failed: density(L_plus + 0.05) = {outside:.3e}, "
                f"density(midpoint) = {mid:.3e}")
        object.__setattr__(fc, "_edges_probed", True)
    return edges
