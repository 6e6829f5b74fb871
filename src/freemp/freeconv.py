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
of z and over convolutions: each point carries the row of its (law, ratio).
A point keeps a full step only where its residual drops.  A point below the
real axis is solved as the conjugate of its mirror, m(conj z) = conj m(z)
(Bai & Silverstein, Spectral Analysis of Large Dimensional Random Matrices,
2010).  A point without a usable warm start is reached by per-point
continuation in Im z from a height where -1/z is a good start, with the
step ratio adapted to how Newton fares at each step (Dobriban,
arXiv:1507.01649; Ledoit & Wolf's QuEST).  Each step is solved to the
tolerance of its own height, so points that share a real part and a row
share their steps until each leaves the common ladder for its own target;
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


def _shared_newton(laws, ratio, row, zeta, m, sums, share):
    """_newton at each zeta from m to the tolerance of its own height,
    RESIDUAL_TOL max(1, |zeta|).  With share, it runs once per distinct bit
    pattern of (zeta, m, row) and the results are scattered back; a point's
    result depends only on its own zeta, m and row, so sharing is exact.
    Returns (m, res, (S, T), tol)."""
    if share:
        first, back = _distinct(zeta, m, row)
        zeta, m, row = zeta[first], m[first], row[first]
        if sums is not None:
            sums = (sums[0][first], sums[1][first])
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(zeta))
    m, res, (s, t2) = _newton(laws, ratio, row, zeta, m, tol, NEWTON_ITERS,
                              sums)
    if share:
        m, res, s, t2, tol = (v[back] for v in (m, res, s, t2, tol))
    return m, res, (s, t2), tol


def _continuation(laws, ratio, row, z):
    """Per-point Newton continuation in eta = Im down to the target, for z
    in the closed upper half plane.

    Each point starts at eta = max(Im z, 2(1 + ratio)), where -1/z is a
    good Newton start: the support lies below (1 + sqrt(ratio))^2 <= 2(1 +
    ratio).  Every point steps eta down by its own ratio, squared after an
    accepted step and square-rooted after a rejected one; a step that would
    pass the target lands on it (for real z once it drops below the
    resolution of z).  Each step is solved to the tolerance of its own
    height, RESIDUAL_TOL max(1, |zeta|), which at the landing step is the
    target's.  Points that share a real part and a row thus climb down one
    ladder until each leaves it for its own target, and each step is
    solved once for all of them (_shared_newton); a batch in which no two
    points share both skips the search for shared steps.  Each point keeps
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
    m, res, (s, t2), tol = _shared_newton(laws, ratio, row, zeta,
                                          -1.0 / zeta, None, share)
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
        nxt = np.where(nxt <= floor[idx], a[idx], nxt)
        zt = x[idx] + 1j * nxt
        mt, rt, (st, tt2), tt = _shared_newton(laws, ratio, row[idx], zt,
                                               m[idx], (s[idx], t2[idx]),
                                               share)
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
