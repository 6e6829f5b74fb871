"""Multiplicative free convolution of a population measure with Marchenko-Pastur.

For a population measure pi on (0, 1] and an aspect ratio r > 0, r != 1, the
Stieltjes transform m(z) of pi boxtimes MP_r is the unique solution of

    1/m = -z + r * integral t / (1 + m t) dpi(t)

with Im m > 0 for Im z > 0.  The convolution equals (1 - r)^+ delta_0 plus an
absolutely continuous part supported on [L_minus, L_plus]; the edges come from
the roots of h(x) = integral (x t / (1 - x t))^2 dpi(t) = 1/r, bisected on
closed-form brackets (Silverstein & Choi, J. Multivariate Anal. 54, 1995);
both brackets advance together, with one call of the transforms per step.
Every integral against pi is one of the base law's own transforms, S(m) =
int t/(1+mt) dpi and T(m) = int t^2/(1+mt)^2 dpi; freeconv does not choose
how to integrate.

The solver is Newton's method on the defining equation, batched over arrays
of z; a point keeps a full step only where its residual drops.  A point
without a usable warm start is reached by per-point continuation in Im z from
a height where -1/z is a good start, with the step ratio adapted to how
Newton fares at each step (Dobriban, arXiv:1507.01649; Ledoit & Wolf's
QuEST).  Each step is solved to the tolerance of its own height, so points
that share a real part and a side share their steps until each leaves the
common ladder for its own target, and a step is solved once per distinct
(z, start).  Two final Newton steps land residuals near machine precision.
The same continuation lands on eta = 0 for real z: outside the support it gives
the real value of m, and inside it the boundary value m(x + i0), whose
|Im m| / pi is the density.  The transforms are evaluated once per new
iterate: each accepted iterate carries its S and T into the next
continuation step and into the polish, so no m is evaluated twice in one
solve.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DomainError, EdgeBracketError,
                     SingularDerivativeError)
from .measures import PopulationLaw

REAL_GUARD_DELTA = 1e-6       # real z must clear the support by this much
RESIDUAL_TOL = 1e-12          # backward error, relative to max(1, |z|)
POLISH_TOL = 1e-14            # target of the two final Newton steps
NEWTON_ITERS = 12             # Newton iterations per solve attempt
FIRST_STEP_RATIO = 0.1        # first eta step of a continuation
MAX_STEP_RATIO = 0.99         # a step ratio rejected up to this stalls
EDGE_BISECT_XTOL = 1e-12
DERIV_SINGULAR_TOL = 1e-14


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

    base: PopulationLaw
    ratio: float

    def __post_init__(self):
        if not (self.ratio > 0.0) or not np.isfinite(self.ratio):
            raise DomainError(f"ratio {self.ratio} must be positive and finite")
        if math.sqrt(self.ratio) == 1.0:   # 1 + 2^-52 too: no edge bracket
            raise DomainError(f"ratio {self.ratio!r} is 1 to rounding "
                              f"(support reaches 0)")
        if self.base.lo <= 0.0 or self.base.hi > 1.0 + 1e-12:
            raise DomainError("base measure support must lie inside (0, 1]")

    @cached_property
    def _edge_data(self) -> SupportEdges:
        return _find_edges(self)


def atom_at_zero(fc: FreeConvolution) -> float:
    """Mass of the point mass at 0: (1 - ratio)^+, exactly."""
    return max(0.0, 1.0 - fc.ratio)


# ---------------------------------------------------------------------------
# solver core

def _phi(fc: FreeConvolution, m: np.ndarray, z: np.ndarray, sums=None):
    """phi(m) = 1/m + z - r S(m) and phi'(m) = -1/m^2 + r T(m), from the
    sums (S, T) at m if the caller has them."""
    s, t2 = fc.base.transforms(m) if sums is None else sums
    return 1.0 / m + z - fc.ratio * s, -1.0 / (m * m) + fc.ratio * t2


def _newton(fc, z, m, tol, iters, sums=None):
    """Newton steps on phi(m) = 1/m + z - r S(m).  A point keeps a full step
    only if its residual |phi| drops; otherwise it stops where it is, above
    tol.  sums, the (S, T) of the start if the caller has them, saves the
    transforms call there; otherwise each iteration makes one, on its
    trials: it gives their residuals and, for the trials kept, the slopes
    of their next steps.  m and sums are updated in place and returned
    with the residuals as (m, res, (S, T)), the sums of the final m."""
    if sums is None:
        sums = fc.base.transforms(m)
    s, t2 = sums
    phi, dphi = _phi(fc, m, z, sums)
    res = np.abs(phi)
    active = res > tol
    for _ in range(iters):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        trial = m[idx] - np.where(dphi[idx] != 0, phi[idx] / dphi[idx], 0.0)
        good = np.isfinite(trial.real) & np.isfinite(trial.imag) & (trial != 0)
        active[idx] = False
        idx, trial = idx[good], trial[good]
        ts, tt2 = fc.base.transforms(trial)
        tphi, tdphi = _phi(fc, trial, z[idx], (ts, tt2))
        tres = np.abs(tphi)
        better = tres < res[idx]
        k = idx[better]
        m[k], res[k] = trial[better], tres[better]
        s[k], t2[k] = ts[better], tt2[better]
        phi[k], dphi[k] = tphi[better], tdphi[better]
        active[k] = tres[better] > tol[k]
    return m, res, (s, t2)


def _solved(z, m, res, tol):
    """Residual on target and m in the half plane of z (any sign for real z)."""
    return (res <= tol) & ((z.imag == 0.0) | (m.imag * z.imag > 0.0))


def _shared_newton(fc, zeta, m, sums, share):
    """_newton at each zeta from m to the tolerance of its own height,
    RESIDUAL_TOL max(1, |zeta|).  With share, it runs once per distinct bit
    pattern of (zeta, m) and the results are scattered back; a row's result
    depends only on its own zeta and m, so sharing is exact.  Returns
    (m, res, (S, T), tol)."""
    if share:
        key = np.stack([zeta, m], axis=1).view(np.dtype((np.void, 32)))
        _, first, back = np.unique(key.ravel(), return_index=True,
                                   return_inverse=True)
        zeta, m = zeta[first], m[first]
        if sums is not None:
            sums = (sums[0][first], sums[1][first])
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(zeta))
    m, res, (s, t2) = _newton(fc, zeta, m, tol, NEWTON_ITERS, sums)
    if share:
        m, res, s, t2, tol = (v[back] for v in (m, res, s, t2, tol))
    return m, res, (s, t2), tol


def _continuation(fc, z):
    """Per-point Newton continuation in eta = |Im| down to the target.

    Each point starts at eta = max(|Im z|, 2(1 + ratio)), where -1/z is a
    good Newton start: the support lies below (1 + sqrt(ratio))^2 <= 2(1 +
    ratio).  Every point steps eta down by its own ratio, squared after an
    accepted step and square-rooted after a rejected one; a step that would
    pass the target lands on it (for real z once it drops below the
    resolution of z).  Each step is solved to the tolerance of its own
    height, RESIDUAL_TOL max(1, |zeta|), which at the landing step is the
    target's.  Points that share a real part and a side thus climb down
    one ladder until each leaves it for its own target, and each step is
    solved once for all of them (_shared_newton); a batch in which no two
    points share both skips the search for shared steps.  Each point keeps
    S and T of its accepted iterate and hands them to its next step, so a
    step evaluates only new iterates.  Returns m and its sums (S, T).
    """
    x, a = z.real, np.abs(z.imag)
    side = np.where(z.imag >= 0.0, 1.0, -1.0)
    floor = np.maximum(a, np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
    eta = np.maximum(a, 2.0 * (1.0 + fc.ratio))
    # only points with a common real part and side can share a step; a set
    # finds them without the peak memory of numpy's first sort
    share = len(set(zip(x.tolist(), side.tolist()))) < z.size
    zeta = x + 1j * side * eta
    m, res, (s, t2), tol = _shared_newton(fc, zeta, -1.0 / zeta, None, share)
    bad = ~_solved(zeta, m, res, tol)
    q = np.full(z.shape, FIRST_STEP_RATIO)
    while True:
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ConvergenceError(
                f"stieltjes continuation stalled at z = {complex(z[k])!r}: "
                f"eta reached {float(eta[k]):.3e}, residual "
                f"{float(res[k]):.3e}", z=z[bad])
        idx = np.flatnonzero(eta > a)
        if idx.size == 0:
            return m, (s, t2)
        nxt = eta[idx] * q[idx]
        nxt = np.where(nxt <= floor[idx], a[idx], nxt)
        zt = x[idx] + 1j * side[idx] * nxt
        mt, rt, (st, tt2), tt = _shared_newton(fc, zt, m[idx],
                                               (s[idx], t2[idx]), share)
        ok = _solved(zt, mt, rt, tt)
        k = idx[ok]
        eta[k], m[k], res[idx] = nxt[ok], mt[ok], rt
        s[k], t2[k] = st[ok], tt2[ok]
        q[idx] = np.where(ok, q[idx] ** 2, np.sqrt(q[idx]))
        bad[idx] = q[idx] > MAX_STEP_RATIO


def _refuse_non_finite(points: np.ndarray, name: str):
    bad = np.flatnonzero(~np.isfinite(points))
    if bad.size:
        raise DomainError(f"{name} = {points[bad[0]].item()!r} is not finite")


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
    steps then aim at POLISH_TOL, starting from the S and T that Newton or
    the continuation computed at each m.  One rule, _solved, accepts each
    point, and one ConvergenceError names the first point it rejects.
    """
    # Backward-error scaling: 1/m + z - r S(m) carries a cancellation floor
    # of order |z| eps, so the targets are relative to max(1, |z|).
    scale = np.maximum(1.0, np.abs(z))
    tol = RESIDUAL_TOL * scale
    if m0 is None:
        m, (s, t2) = _continuation(fc, z)
    else:
        m = np.asarray(m0, dtype=complex).ravel().copy()
        bad = ~np.isfinite(m.real) | ~np.isfinite(m.imag) | (m == 0)
        m[bad] = -1.0 / z[bad]
        m, res, (s, t2) = _newton(fc, z, m, tol, NEWTON_ITERS)
        cold = ~_solved(z, m, res, tol)
        if cold.any():
            m[cold], (s[cold], t2[cold]) = _continuation(fc, z[cold])
    m, res, _ = _newton(fc, z, m, POLISH_TOL * scale, 2, (s, t2))
    bad = np.flatnonzero(~_solved(z, m, res, tol))
    if bad.size:
        k = bad[0]
        raise ConvergenceError(
            f"stieltjes solve failed at z = {complex(z[k])!r}: residual "
            f"{float(res[k]):.3e}, m = {complex(m[k])!r}", z=z[bad])
    return m


def stieltjes_batch(fc: FreeConvolution, z, m0=None) -> np.ndarray:
    """Vectorized Stieltjes transform over an array of evaluation points.

    See _solve: warm Newton from m0 where it holds, per-point continuation
    in the imaginary direction elsewhere (sign-matched, so both half planes
    solve natively), two polishing steps toward 1e-14 max(1, |z|), and the
    solution must lie in the half plane of z.  Real z must clear the support
    by the edge-distance guard; continuation lands on them at eta = 0 and
    they keep the real part, whose residual is checked again where dropping
    the imaginary part moved m.
    A non-finite z raises DomainError before any solve, and each
    ConvergenceError carries the points that failed as its z.
    """
    z = np.ascontiguousarray(np.asarray(z, dtype=complex).ravel())
    _refuse_non_finite(z, "z")
    is_real = z.imag == 0.0
    if is_real.any():
        _real_axis_guard(fc, z.real[is_real])
    m = _solve(fc, z, m0)
    # dropping Im m moves m only where it is not 0 already; elsewhere
    # _solve has checked the residual of this very m
    moved = is_real & (m.imag != 0.0)
    if moved.any():
        zr, mr = z[moved], m.real[moved]
        res = np.abs(_phi(fc, mr, zr)[0])
        bad = np.flatnonzero(res > RESIDUAL_TOL * np.maximum(1.0, np.abs(zr)))
        if bad.size:
            k = bad[0]
            raise ConvergenceError(
                f"real-axis value misses the residual tolerance at z = "
                f"{complex(zr[k])!r}: {float(res[k]):.3e}", z=zr[bad])
    m[is_real] = m.real[is_real]
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
    _, t2 = fc.base.transforms(m)
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
    the tolerance's square root at a square-root edge.  Outside [L_minus,
    L_plus] the density is exactly 0, and only the points inside are
    solved.  A non-finite x raises DomainError, and so does x = 0 when the
    law has a point mass there.
    warn is accepted for existing callers and has no effect.
    """
    x = np.asarray(x, dtype=float).ravel()
    _refuse_non_finite(x, "x")
    if atom_at_zero(fc) > 0.0 and np.any(x == 0.0):
        raise DomainError(f"density is undefined at x = 0 (point mass "
                          f"{atom_at_zero(fc)!r})")
    e = fc._edge_data
    inside = ~((x < e.L_minus) | (x > e.L_plus))
    rho = np.zeros(x.shape)
    rho[inside] = np.abs(_solve(fc, x[inside].astype(complex)).imag) / np.pi
    return rho


def density(fc: FreeConvolution, x: float) -> float:
    return float(density_batch(fc, np.array([x]))[0])


# ---------------------------------------------------------------------------
# support edges

def _find_edges(fc: FreeConvolution) -> SupportEdges:
    """Edge roots of h(x) = x^2 T(-x) = 1/ratio by bisection on closed-form
    brackets, on which h is monotone, and their values z(-x) = 1/x + ratio
    S(-x).  Both brackets advance together: each step evaluates h at the
    midpoints of the live ones in one transforms call.  A bracket runs from
    a, where h < 1/ratio, to b, where h >= 1/ratio or h has a pole; neither
    end is evaluated, and it stops once |b - a| <= EDGE_BISECT_XTOL or its
    midpoint no longer splits it.  A root within EDGE_BISECT_XTOL of a pole
    means h never reached 1/ratio.  A value depends on its own m alone, so
    each root has the bits of a bisection of its bracket by itself."""
    t_min, t_max, target = fc.base.lo, fc.base.hi, 1.0 / fc.ratio
    # right root (index 1): h(0) = 0 and h grows to its pole at 1/t_max.
    # left root (index 0): between near and far, the root for a point mass
    # at t_min.  ratio < 1: near is the pole 1/t_min; on x > 1/t_min,
    # xt/(xt - 1) falls in t, so h(far) <= 1/ratio.  ratio > 1: near = 0
    # with h(0) = 0; on x < 0, |x|t/(1 + |x|t) grows in t, so h(far) >=
    # 1/ratio.  Equality holds only for a point mass at t_min, whose root
    # is far itself.
    far = 1.0 / (t_min * (1.0 - math.sqrt(fc.ratio)))
    left = (far, 1.0 / t_min) if fc.ratio < 1.0 else (0.0, far)
    a, b = np.array([left[0], 0.0]), np.array([left[1], 1.0 / t_max])
    ends, mid = b.copy(), 0.5 * (a + b)
    while True:
        live = np.flatnonzero((np.abs(b - a) > EDGE_BISECT_XTOL)
                              & (a != mid) & (mid != b))
        if live.size == 0:
            break
        x = mid[live]
        below = x * x * fc.base.transforms(-x)[1] < target
        a[live[below]] = x[below]
        b[live[~below]] = x[~below]
        mid = 0.5 * (a + b)
    for i, what, pole in ((1, "right edge", True),
                          (0, "left edge", fc.ratio < 1.0)):
        if pole and abs(mid[i] - ends[i]) < EDGE_BISECT_XTOL:
            raise EdgeBracketError(
                f"{what}: h stays below 1/ratio = {target!r} up to its pole "
                f"at x = {float(ends[i])!r}")
    L = 1.0 / mid + fc.ratio * fc.base.transforms(-mid)[0]
    edges = SupportEdges(*L.tolist(), *mid.tolist())
    if not (0.0 < edges.L_minus < edges.L_plus):
        raise DomainError(f"edge values out of order: L_minus="
                          f"{edges.L_minus}, L_plus={edges.L_plus}")
    return edges


def support_edges(fc: FreeConvolution) -> SupportEdges:
    """Outer edges of the absolutely continuous support (any gaps lie
    inside), computed once per FreeConvolution instance, on first use;
    both brackets are bisected together (_find_edges)."""
    return fc._edge_data
