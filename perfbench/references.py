"""Closed-form references for the benchmark's correctness checks.

Nothing here calls freemp. Each population law is rebuilt from its grammar
string (``dirac:c``, ``uniform:a,b``, ``linear:a,b,slope``) and integrated
with the benchmark's own Gauss-Legendre rule, so a reference cannot share a
bug with the solver or the contour code it checks.

For a ratio g and population law nu, the limiting spectrum has

    V(x)      = g * Var_nu(sigma)
    V(x^2)    = g * Var_nu(sigma^2 + 2 g E[sigma] sigma)
    mean(x^2) = g E[sigma^2] + g^2 E[sigma]^2
    mean(1)   = min(g, 1)

and for nu = dirac:1 it is Marchenko-Pastur, with edges (1 -+ sqrt g)^2 and
a Stieltjes transform that solves z m^2 + (z + 1 - g) m + 1 = 0.
"""

import numpy as np

MOMENT_NODES = 16       # exact for every polynomial moment used here
RESIDUAL_NODES = 2048   # resolves t/(1 + m t) for the off-axis points


def law_rule(spec: str, n: int = MOMENT_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (density included) that integrate against the law."""
    head, _, tail = spec.partition(":")
    args = [float(tok) for tok in tail.split(",")]
    if head == "dirac":
        return np.array(args), np.array([1.0])
    lo, hi = args[0], args[1]
    width = hi - lo
    x, w = np.polynomial.legendre.leggauss(n)
    t = lo + 0.5 * width * (x + 1.0)
    if head == "uniform":
        dens = np.full(n, 1.0 / width)
    elif head == "linear":
        slope = args[2]
        dens = (1.0 / width - 0.5 * slope * width) + slope * (t - lo)
    else:
        raise ValueError(f"no reference rule for law {spec!r}")
    return t, 0.5 * width * w * dens


def atoms_rule(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight atoms of a sampled population."""
    sigma = np.asarray(sigma, dtype=float)
    return sigma, np.full(sigma.size, 1.0 / sigma.size)


def _expect(rule, values) -> float:
    return float(np.dot(rule[1], values))


def _var(rule, values) -> float:
    return _expect(rule, (values - _expect(rule, values)) ** 2)


def variance_x(spec: str, g: float) -> float:
    t, _ = rule = law_rule(spec)
    return g * _var(rule, t)


def variance_x2(spec: str, g: float) -> float:
    t, _ = rule = law_rule(spec)
    return g * _var(rule, t * t + 2.0 * g * _expect(rule, t) * t)


def mean_x2(spec: str, g: float) -> float:
    t, _ = rule = law_rule(spec)
    return g * _expect(rule, t * t) + g * g * _expect(rule, t) ** 2


def mean_one(g: float) -> float:
    return min(g, 1.0)


def mp_edges(g: float) -> tuple[float, float]:
    s = np.sqrt(g)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_stieltjes(z, g: float) -> np.ndarray:
    """Root of z m^2 + (z + 1 - g) m + 1 = 0 on the Herglotz branch.

    The two roots multiply to 1/z, and off the real axis exactly one of
    them has Im m of the same sign as Im z.
    """
    z = np.asarray(z, dtype=complex)
    b = z + 1.0 - g
    sq = np.sqrt(b * b - 4.0 * z)
    r1 = (-b + sq) / (2.0 * z)
    r2 = (-b - sq) / (2.0 * z)
    up = np.sign(z.imag)
    pick1 = np.sign(r1.imag) == up
    if np.any(pick1 == (np.sign(r2.imag) == up)):
        raise ValueError("no unique Herglotz root")
    return np.where(pick1, r1, r2)


def mp_density(x, g: float) -> np.ndarray:
    """Density of the absolutely continuous part (mass min(g, 1))."""
    x = np.asarray(x, dtype=float)
    a, b = mp_edges(g)
    inside = np.clip((b - x) * (x - a), 0.0, None)
    return np.sqrt(inside) / (2.0 * np.pi * x)


def backward_error(rule, g: float, z, m) -> np.ndarray:
    """|1/m + z - g * INT t/(1 + m t) dnu| on the given rule, per point."""
    t, w = rule
    z = np.asarray(z, dtype=complex).ravel()
    m = np.asarray(m, dtype=complex).ravel()
    s = (w * t / (1.0 + np.multiply.outer(m, t))).sum(axis=-1)
    return np.abs(1.0 / m + z - g * s)
