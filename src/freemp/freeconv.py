"""Multiplicative free convolution of a population measure with Marchenko-Pastur.

For a population measure pi on (0, 1] and an aspect ratio r > 0, r != 1, the
Stieltjes transform m(z) of pi boxtimes MP_r is the unique solution of

    1/m = -z + r * integral t / (1 + m t) dpi(t)

with Im m > 0 for Im z > 0.  The convolution equals (1 - r)^+ delta_0 plus an
absolutely continuous part supported on [L_minus, L_plus]; the edges come from
the roots of h(x) = integral (x t / (1 - x t))^2 dpi(t) = 1/r (Silverstein &
Choi, J. Multivariate Anal. 54, 1995), found by Anderson-Bjorck regula falsi
(BIT 13, 1973) on brackets between the roots of point masses at the ends of
the support, with a relative stop; both brackets advance together, with one
call of the transforms per step.
Every integral against pi is one of the base law's own transforms, S(m) =
int t/(1+mt) dpi and T(m) = int t^2/(1+mt)^2 dpi; freeconv does not choose
how to integrate.

The solver is Newton's method on the defining equation, batched over arrays
of z and over convolutions: each point carries the row of its (law, ratio).
A point keeps a full step only where its residual drops.  A point below the
real axis is solved as the conjugate of its mirror, m(conj z) = conj m(z)
(Bai & Silverstein, Spectral Analysis of Large Dimensional Random Matrices,
2010).  A point without a usable warm start is reached by per-point
continuation in Im z from a height where -1/z is a good start, with the
step ratio adapted to how Newton fares at each step (Dobriban,
arXiv:1507.01649; Ledoit & Wolf's QuEST).  A step on the way down is
accepted at a residual of 0.1 Im zeta, which keeps it a Stieltjes value
near the ladder, and only the landing step is solved to the target's
tolerance; points that share a real part and a row share their steps
until each leaves the common ladder for its own target;
this share, which covers a conjugate pair after its reflection, is the
solver's one sharing rule, and a caller that wants each pair solved once
passes one point of it.  Two final Newton steps land residuals near
machine precision.
The same continuation lands on eta = 0 for real z: outside the support it gives
the real value of m, and inside it the boundary value m(x + i0), whose
|Im m| / pi is the density.  The transforms are evaluated once per new
iterate: each accepted iterate carries its S and T into the next
continuation step and into the polish, so no m is evaluated twice in one
solve.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DomainError, EdgeBracketError,
                     SingularDerivativeError)
from .measures import LawStack, PopulationLaw

REAL_GUARD_DELTA = 1e-6       # real z must clear the support by this much
RESIDUAL_TOL = 1e-12          # backward error, relative to max(1, |z|)
POLISH_TOL = 1e-14            # target of the two final Newton steps
NEWTON_ITERS = 12             # Newton iterations per solve attempt
FIRST_STEP_RATIO = 0.1        # first eta step of a continuation
STEP_RESIDUAL = 0.1           # a step on the way down, relative to Im zeta
MAX_STEP_RATIO = 0.99         # a step ratio rejected up to this stalls
EDGE_ULPS = 4                 # width of a finished edge bracket, in ulp
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

def _rows(fcs):
    """(laws, ratio) of the convolutions fcs, one row each: the LawStack
    of their bases and the array of their ratios, as the solver takes
    them."""
    fcs = tuple(fcs)
    return LawStack(fc.base for fc in fcs), np.array([fc.ratio for fc in fcs])


def _phi(laws, ratio, row, m, z, sums=None):
    """phi(m) = 1/m + z - r S(m) and phi'(m) = -1/m^2 + r T(m) at each
    point, on its row's law and ratio, from the sums (S, T) at m if the
    caller has them."""
    s, t2 = laws.transforms(row, m) if sums is None else sums
    r = ratio[row]
    return 1.0 / m + z - r * s, -1.0 / (m * m) + r * t2


def _newton(laws, ratio, row, z, m, tol, iters, sums=None):
    """Newton steps on phi(m) = 1/m + z - r S(m).  A point keeps a full step
    only if its residual |phi| drops; otherwise it stops where it is, above
    tol.  sums, the (S, T) of the start if the caller has them, saves the
    transforms call there; otherwise each iteration makes one, on its
    trials: it gives their residuals and, for the trials kept, the slopes
    of their next steps.  m and sums are updated in place and returned
    with the residuals as (m, res, (S, T)), the sums of the final m."""
    if sums is None:
        sums = laws.transforms(row, m)
    s, t2 = sums
    phi, dphi = _phi(laws, ratio, row, m, z, sums)
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
        ts, tt2 = laws.transforms(row[idx], trial)
        tphi, tdphi = _phi(laws, ratio, row[idx], trial, z[idx], (ts, tt2))
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


def _distinct(*cols):
    """The position of one point of each distinct bit pattern of the
    columns cols, and for each point the index of its pattern among them."""
    key = np.stack(cols, axis=1)
    key = key.view(np.dtype((np.void, key.itemsize * len(cols)))).ravel()
    _, first, back = np.unique(key, return_index=True, return_inverse=True)
    return first, back.ravel()


def _shared_newton(laws, ratio, row, zeta, m, sums, tol, share):
    """_newton at each zeta from m to its tolerance tol.  With share, it
    runs once per distinct bit pattern of (zeta, m, row, tol) and the
    results are scattered back; a point's result depends only on its own
    zeta, m, row and tol, so sharing is exact.  Returns (m, res, (S, T))."""
    if share:
        first, back = _distinct(zeta, m, row, tol)
        zeta, m, row, tol = zeta[first], m[first], row[first], tol[first]
        if sums is not None:
            sums = (sums[0][first], sums[1][first])
    m, res, (s, t2) = _newton(laws, ratio, row, zeta, m, tol, NEWTON_ITERS,
                              sums)
    if share:
        m, res, s, t2 = (v[back] for v in (m, res, s, t2))
    return m, res, (s, t2)


def _step_tol(zeta, land):
    """The residual a continuation step at zeta is accepted at: the
    solver's RESIDUAL_TOL max(1, |zeta|) where it lands on its target, and
    on the way down the larger of that and STEP_RESIDUAL Im zeta, at which
    m is the Stieltjes value of a point within 0.1 Im zeta of zeta."""
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(zeta))
    return np.where(land, tol, np.maximum(tol, STEP_RESIDUAL * zeta.imag))


def _continuation(laws, ratio, row, z):
    """Per-point Newton continuation in eta = Im down to the target, for z
    in the closed upper half plane.

    Each point starts at eta = max(Im z, 2(1 + ratio)), where -1/z is a
    good Newton start: the support lies below (1 + sqrt(ratio))^2 <= 2(1 +
    ratio).  Every point steps eta down by its own ratio, squared after an
    accepted step and square-rooted after a rejected one; a step that would
    pass the target lands on it (for real z once it drops below the
    resolution of z).  A step on the way down only starts the next one, so
    it is accepted at a residual of STEP_RESIDUAL Im zeta (never below the
    landing's tolerance): its m then solves the equation exactly at
    zeta - phi(m), at least 0.9 Im zeta above the real axis, and with the
    half-plane check it is a Stieltjes value next to the ladder.  The
    landing step is solved to the target's tolerance, RESIDUAL_TOL max(1,
    |z|) (_step_tol).  Points that share a real part and a row thus climb
    down one ladder until each leaves it for its own target, and each step
    is solved once for all of them (_shared_newton), keyed by its
    tolerance too, so a point landing on a height shares no step with one
    passing through it; a batch in which no two points share both skips
    the search for shared steps.  Each point keeps
    S and T of its accepted iterate and hands them to its next step, so a
    step evaluates only new iterates.  A point whose first step fails, or
    whose step ratio is rejected up to MAX_STEP_RATIO, stalls: it stops at
    the last height it reached and leaves the ladder, and the others go
    on.  Returns m, its sums (S, T), each point's stall height (0 where it
    landed) and its last residual.
    """
    x, a = z.real, np.abs(z.imag)
    floor = np.maximum(a, np.finfo(float).eps * np.maximum(1.0, np.abs(z)))
    eta = np.maximum(a, 2.0 * (1.0 + ratio[row]))
    # only points with a common real part and row can share a step; a set
    # finds them without the peak memory of numpy's first sort
    share = len(set(zip(x.tolist(), row.tolist()))) < z.size
    zeta = x + 1j * eta
    tol = _step_tol(zeta, eta == a)
    m, res, (s, t2) = _shared_newton(laws, ratio, row, zeta, -1.0 / zeta,
                                     None, tol, share)
    # a stalled point's target a moves up to its stall height, so it
    # leaves the ladder (eta > a)
    stall = np.where(_solved(zeta, m, res, tol), 0.0, eta)
    a = np.maximum(a, stall)
    q = np.full(z.shape, FIRST_STEP_RATIO)
    while True:
        idx = np.flatnonzero(eta > a)
        if idx.size == 0:
            return m, (s, t2), stall, res
        nxt = eta[idx] * q[idx]
        land = nxt <= floor[idx]
        nxt = np.where(land, a[idx], nxt)
        zt = x[idx] + 1j * nxt
        tt = _step_tol(zt, land)
        mt, rt, (st, tt2) = _shared_newton(laws, ratio, row[idx], zt, m[idx],
                                           (s[idx], t2[idx]), tt, share)
        ok = _solved(zt, mt, rt, tt)
        k = idx[ok]
        eta[k], m[k], res[idx] = nxt[ok], mt[ok], rt
        s[k], t2[k] = st[ok], tt2[ok]
        q[idx] = np.where(ok, q[idx] ** 2, np.sqrt(q[idx]))
        stop = idx[q[idx] > MAX_STEP_RATIO]
        stall[stop] = a[stop] = eta[stop]


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


def _solve_upper(laws, ratio, row, z, m0):
    """m, its residual and its stall height at each z of the closed upper
    half plane, warm from m0 where it holds (see _solve), polished but not
    yet accepted; m0 is overwritten.  A point whose continuation stalled
    keeps the height and the residual it stalled with; every other point's
    stall height is 0."""
    # Backward-error scaling: 1/m + z - r S(m) carries a cancellation floor
    # of order |z| eps, so the targets are relative to max(1, |z|).
    scale = np.maximum(1.0, np.abs(z))
    if m0 is None:
        m, (s, t2), stall, last = _continuation(laws, ratio, row, z)
    else:
        m = m0
        bad = ~np.isfinite(m.real) | ~np.isfinite(m.imag) | (m == 0)
        m[bad] = -1.0 / z[bad]
        m, last, (s, t2) = _newton(laws, ratio, row, z, m,
                                   RESIDUAL_TOL * scale, NEWTON_ITERS)
        stall = np.zeros(z.shape)
        cold = np.flatnonzero(~_solved(z, m, last, RESIDUAL_TOL * scale))
        if cold.size:
            m[cold], (s[cold], t2[cold]), stall[cold], last[cold] = (
                _continuation(laws, ratio, row[cold], z[cold]))
    m, res, _ = _newton(laws, ratio, row, z, m, POLISH_TOL * scale, 2,
                        (s, t2))
    stop = np.flatnonzero(stall)
    res[stop] = last[stop]
    return m, res, stall


def _solve(laws, ratio, z, m0=None):
    """Complex m of every convolution (laws, ratio) at every z, real z too,
    with residual within RESIDUAL_TOL, as a (len(ratio), z.size) array,
    every row from the same start m0, which holds one value per z.

    A point below the real axis is solved as the conjugate of its mirror
    from the conjugate of its start, so a conjugate pair shares the steps
    of its continuation, the one sharing rule of the solver; a caller that
    wants each pair solved once passes one point of it.  With m0, each
    point first tries Newton at its own z; a point without m0, or whose
    Newton misses the tolerance or lands in the wrong half plane, is
    reached by _continuation, where a stall stops only its own point.
    Two polishing Newton steps then aim at POLISH_TOL from the S and T
    already computed at each m.  One rule accepts each of the caller's
    points: its continuation did not stall, and _solved holds (residual
    and half plane).  One ConvergenceError names the first point,
    row by row, that the rule rejects, with the height its continuation
    reached or with its residual and m, and carries every failed point as
    its z and their rows as its row.
    """
    flip = z.imag < 0.0
    zu, mu = np.where(flip, z.conj(), z), None
    if m0 is not None:
        m0 = np.asarray(m0, dtype=complex).ravel()
        if m0.size != z.size:
            raise DomainError(f"start m0 has {m0.size} values for "
                              f"{z.size} points z")
        mu = np.tile(np.where(flip, m0.conj(), m0), ratio.size)
    n_rows, n = ratio.size, z.size
    row = np.repeat(np.arange(n_rows), n)
    out = _solve_upper(laws, ratio, row, np.tile(zu, n_rows), mu)
    m, res, stall = (v.reshape(n_rows, n) for v in out)
    m[:, flip] = m[:, flip].conj()
    bad = ((stall > 0.0)
           | ~_solved(z, m, res, RESIDUAL_TOL * np.maximum(1.0, np.abs(z))))
    if bad.any():
        r, k = np.nonzero(bad)
        at, first = complex(z[k[0]]), (r[0], k[0])
        if stall[first]:
            msg = (f"stieltjes continuation stalled at z = {at!r}: eta "
                   f"reached {float(stall[first]):.3e}, residual "
                   f"{float(res[first]):.3e}")
        else:
            msg = (f"stieltjes solve failed at z = {at!r}: residual "
                   f"{float(res[first]):.3e}, m = {complex(m[first])!r}")
        raise ConvergenceError(msg, z=z[k], row=r)
    return m


def stieltjes_rows(fcs, z, m0=None) -> np.ndarray:
    """Stieltjes transform of each convolution in fcs at every point z, as
    a (len(fcs), z.size) array, in one solve (_solve) from the start m0
    shared by every row.  A point's solve depends only on its own z, start
    and row, so row k has the bits of stieltjes_batch(fcs[k], z, m0).  A
    conjugate pair shares only its continuation's steps, so a caller that
    wants each pair solved once passes one point of it.

    Warm Newton from m0 where it holds, per-point continuation in Im z
    elsewhere, two polishing steps toward 1e-14 max(1, |z|), and the
    solution must lie in the half plane of z.  Real z must clear each
    row's support by the edge-distance guard; they keep the real part,
    whose residual is checked again where dropping the imaginary part
    moved m.  A non-finite z, or an m0 without one value per z, raises
    DomainError before any solve.
    """
    fcs = tuple(fcs)
    laws, ratio = _rows(fcs)
    z = np.ascontiguousarray(np.asarray(z, dtype=complex).ravel())
    _refuse_non_finite(z, "z")
    is_real = z.imag == 0.0
    if is_real.any():
        for fc in fcs:
            _real_axis_guard(fc, z.real[is_real])
    m = _solve(laws, ratio, z, m0)
    # dropping Im m moves m only where it is not 0 already; elsewhere
    # _solve has checked the residual of this very m
    moved = is_real & (m.imag != 0.0)
    if moved.any():
        r, k = np.nonzero(moved)
        zr, mr = z[k], m.real[moved]
        res = np.abs(_phi(laws, ratio, r, mr, zr)[0])
        bad = np.flatnonzero(res > RESIDUAL_TOL * np.maximum(1.0, np.abs(zr)))
        if bad.size:
            raise ConvergenceError(
                f"real-axis value misses the residual tolerance at z = "
                f"{complex(zr[bad[0]])!r}: {float(res[bad[0]]):.3e}",
                z=zr[bad], row=r[bad])
    m[:, is_real] = m.real[:, is_real]
    return m


def stieltjes_batch(fc: FreeConvolution, z, m0=None) -> np.ndarray:
    """Vectorized Stieltjes transform over an array of evaluation points:
    the one-row case of stieltjes_rows."""
    return stieltjes_rows((fc,), z, m0)[0]


def stieltjes(fc: FreeConvolution, z: complex) -> complex:
    """Stieltjes transform m(z); real z must clear the support edges."""
    return complex(stieltjes_batch(fc, np.array([z]))[0])


def stieltjes_derivative_batch(fc: FreeConvolution, z, m=None) -> np.ndarray:
    """m'(z) = m^2 / (1 - ratio * m^2 * int t^2/(1+mt)^2 dpi), batched,
    from m = m(z) if given, which must hold one value per z."""
    z = np.asarray(z, dtype=complex).ravel()
    if m is None:
        m = stieltjes_batch(fc, z)
    m = np.asarray(m, dtype=complex).ravel()
    if m.size != z.size:
        raise DomainError(f"m has {m.size} values for {z.size} points z")
    _, t2 = fc.base.transforms(m)
    den = 1.0 - fc.ratio * m * m * t2
    if np.any(np.abs(den) < DERIV_SINGULAR_TOL):
        bad = complex(z[int(np.argmin(np.abs(den)))])
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
    the tolerance's square root at a square-root edge.  The density is
    exactly 0 outside (L_minus, L_plus), at both edges too, which are soft
    for every law freemp accepts; only the points inside are solved.  A
    non-finite x raises DomainError, and so does x = 0 when the law has a
    point mass there.
    warn is accepted for existing callers and has no effect.
    """
    x = np.asarray(x, dtype=float).ravel()
    _refuse_non_finite(x, "x")
    if atom_at_zero(fc) > 0.0 and np.any(x == 0.0):
        raise DomainError(f"density is undefined at x = 0 (point mass "
                          f"{atom_at_zero(fc)!r})")
    e = fc._edge_data
    inside = (x > e.L_minus) & (x < e.L_plus)
    rho = np.zeros(x.shape)
    m = _solve(*_rows((fc,)), x[inside].astype(complex))[0]
    rho[inside] = np.abs(m.imag) / np.pi
    return rho


def density(fc: FreeConvolution, x: float) -> float:
    return float(density_batch(fc, np.array([x]))[0])


# ---------------------------------------------------------------------------
# support edges

def _find_edges(fc: FreeConvolution) -> SupportEdges:
    """Edge roots of h(x) = x^2 T(-x) = 1/ratio, and their values z(-x) =
    1/x + ratio S(-x), by Anderson-Bjorck regula falsi (BIT 13, 1973) on
    F = (h - 1/ratio) / (h + 1/ratio), which is -1 at h = 0 and +1 at a
    pole of h.

    Each root has a closed-form bracket on which h is monotone, between
    the roots of point masses at t_min and t_max, clipped at the pole of
    h; it is tight in relative terms at every ratio the support's ends
    allow.  End 0 has F <= 0 and end 1 has F >= 0 or is the pole, where
    F = 1 is not evaluated.  The first transforms call evaluates every
    other end; each step then evaluates the live brackets' iterates in
    one call.  Every third step bisects where the bracket has not halved
    since the last such step (or since the start).  A bracket stops once
    it is EDGE_ULPS ulp wide, relative to its ends, and its root is then
    the end with the smaller |F|.  An end where F is 0, or has the sign
    of the other end, is the root, and so is an end that an iterate falls
    on (no longer splitting the bracket): a point mass at t_min, whose
    bracket has width 0, takes its root from the first call.  Each root
    is an evaluated end, whose S gives the edge value.  A bracket that
    stops still ending at its pole means h never reached 1/ratio.  A value
    depends on its own m alone, so each root has the bits of a search of
    its bracket by itself."""
    t_min, t_max, target = fc.base.lo, fc.base.hi, 1.0 / fc.ratio
    sr = math.sqrt(fc.ratio)
    # a point mass at t has the roots 1/(t (1 +- sqrt(ratio))).  Right
    # root (column 1): on 0 < x < 1/t_max, xt/(1 - xt) grows in t, so h
    # lies between the h of point masses at t_min and t_max, and the root
    # between their roots: h <= 1/ratio at t_max's (row 0), h >= 1/ratio
    # at t_min's (row 1), clipped at the pole 1/t_max.  Left root (column
    # 0), with 1 - sqrt(ratio): for ratio < 1, x > 1/t_min, where
    # xt/(xt - 1) falls in t, so row 0 is t_min's root and row 1 t_max's,
    # clipped at the pole 1/t_min; for ratio > 1, x < 0, where
    # |x|t/(1 + |x|t) grows in t, so the rows swap, and h has no pole.
    below, above = (t_min, t_max) if fc.ratio < 1.0 else (t_max, t_min)
    pole = np.array([1.0 / t_min if fc.ratio < 1.0 else np.nan, 1.0 / t_max])
    x = np.array([[1.0 / (below * (1.0 - sr)), 1.0 / (t_max * (1.0 + sr))],
                  [1.0 / (above * (1.0 - sr)), 1.0 / (t_min * (1.0 + sr))]])
    if fc.ratio < 1.0:
        x[1, 0] = max(x[1, 0], pole[0])
    x[1, 1] = min(x[1, 1], pole[1])
    at_pole = x[1] == pole

    def value(x):
        """F and S at -x"""
        sx, t2 = fc.base.transforms(-x)
        return 1.0 - 2.0 * target / (x * x * t2 + target), sx

    # g is F at each end and s is S there; f is the F that interpolation
    # uses, scaled down at an end kept twice in a row
    g, s = np.ones((2, 2)), np.full((2, 2), np.nan)
    ends = np.concatenate([x[0], x[1, ~at_pole]])
    v, sv = value(ends)
    g[0], s[0] = v[:2], sv[:2]
    g[1, ~at_pole], s[1, ~at_pole] = v[2:], sv[2:]
    f = g.copy()
    last = np.full(2, -1)               # the end each bracket moved last
    alive = np.ones(2, bool)
    width = np.abs(x[1] - x[0])
    ref = width.copy()

    def settle(i, end):
        """the roots of brackets i lie at their ends end: both ends
        become them"""
        x[1 - end, i], g[1 - end, i] = x[end, i], g[end, i]
        s[1 - end, i] = s[end, i]
        alive[i] = False

    for step in itertools.count():
        # an end where F is 0, or has the sign of the other end, is a root
        i = np.flatnonzero(alive & ~((g[0] < 0.0) & (g[1] > 0.0)))
        settle(i, (g[0, i] < 0.0).astype(int))
        alive &= width > EDGE_ULPS * np.finfo(float).eps * np.abs(x).max(0)
        live = np.flatnonzero(alive)
        a, b, fa, fb = x[0, live], x[1, live], f[0, live], f[1, live]
        check = step % 3 == 2
        c = np.where(check & (width[live] > 0.5 * ref[live]),
                     0.5 * (a + b), a - fa * (b - a) / (fb - fa))
        if check:
            ref = width.copy()
        # an iterate that falls on an end makes that end the root
        split = (np.minimum(a, b) < c) & (c < np.maximum(a, b))
        settle(live[~split], (c[~split] == b[~split]).astype(int))
        live, c = live[split], c[split]
        if live.size == 0:
            break
        vc, sc = value(c)
        side = (vc > 0.0).astype(int)
        # Anderson-Bjorck: an end kept twice in a row has its f scaled by
        # 1 - F(c)/F(replaced end), or halved where that is not positive
        w = 1.0 - vc / f[side, live]
        f[1 - side, live] *= np.where(side != last[live], 1.0,
                                      np.where(w > 0.0, w, 0.5))
        x[side, live], g[side, live], f[side, live] = c, vc, vc
        s[side, live], last[live] = sc, side
        width[live] = np.abs(x[1, live] - x[0, live])
    for i, what in ((1, "right edge"), (0, "left edge")):
        if at_pole[i] and x[1, i] == pole[i]:
            raise EdgeBracketError(
                f"{what}: h stays below 1/ratio = {target!r} up to its pole "
                f"at x = {float(pole[i])!r}")
    k = (np.argmin(np.abs(g), axis=0), np.arange(2))
    root = x[k]
    L = 1.0 / root + fc.ratio * s[k]
    edges = SupportEdges(*L.tolist(), *root.tolist())
    if not (0.0 < edges.L_minus <= edges.L_plus):
        raise DomainError(f"edge values out of order: L_minus="
                          f"{edges.L_minus}, L_plus={edges.L_plus}")
    return edges


def support_edges(fc: FreeConvolution) -> SupportEdges:
    """Outer edges of the absolutely continuous support (any gaps lie
    inside), computed once per FreeConvolution instance, on first use;
    both roots are searched together, to a few ulp relative to the roots
    at every ratio (_find_edges)."""
    return fc._edge_data
