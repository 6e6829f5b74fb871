"""Sampling of the data-matrix model and its eigenvalue statistics.

The model: X is M x N with iid entries of mean 0 and variance 1/N, and the
population covariance is Sigma = diag(sigma_1, ..., sigma_M) with the sigma_i
drawn once from a population law on [l, 1].  The object of study is the
spectrum of X^T Sigma X, an N x N matrix that shares its nonzero eigenvalues
with the M x M matrix Sigma^(1/2) X X^T Sigma^(1/2); whichever form is
smaller is the one handed to the symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PsdViolationError
from .freeconv import FreeConvolution
from .measures import empirical_measure

ENTRY_LAWS = ("gaussian", "rademacher", "uniform")
EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class DataMatrixSpec:
    """Shape and entry law of the random data matrix X (M x N)."""
    M: int
    N: int
    entry_law: str = "gaussian"

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise DomainError(f"matrix shape {self.M} x {self.N} is empty")
        if self.entry_law not in ENTRY_LAWS:
            raise DomainError(
                f"unknown entry law {self.entry_law!r}; pick one of {ENTRY_LAWS}")

    @classmethod
    def from_ratio(cls, gamma0: float, N: int,
                   entry_law: str = "gaussian") -> "DataMatrixSpec":
        """M = round(gamma0 * N), so |M/N - gamma0| <= 1/(2N)."""
        if not (0.0 < gamma0 and np.isfinite(gamma0)):
            raise DomainError(f"dimension ratio {gamma0!r} must be positive")
        if N < 2:
            raise DomainError(f"N = {N} must be at least 2")
        M = int(round(gamma0 * N))
        if M < 1:
            raise DomainError(f"round({gamma0} * {N}) gives an empty matrix")
        return cls(M=M, N=N, entry_law=entry_law)


def sample_data_matrix(spec: DataMatrixSpec, rng: np.random.Generator) -> np.ndarray:
    """M x N matrix of iid entries with mean 0 and variance 1/N."""
    shape = (spec.M, spec.N)
    if spec.entry_law == "gaussian":
        raw = rng.standard_normal(shape)
    elif spec.entry_law == "rademacher":
        raw = 2.0 * rng.integers(0, 2, shape).astype(float) - 1.0
    else:  # uniform on [-sqrt(3), sqrt(3)], unit variance
        raw = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    return raw / np.sqrt(spec.N)


@dataclass(frozen=True, eq=False)
class EigenSample:
    """All N eigenvalues of X^T Sigma X, sorted descending, zero-padded."""
    values: np.ndarray
    M: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.flags.writeable = False


def eigenvalues(sigma, X: np.ndarray) -> EigenSample:
    """Spectrum of X^T diag(sigma) X via the smaller Gram form.

    Eigenvalues in (-EIG_CLAMP, 0) are clamped to 0; anything lower raises,
    since both Gram forms are positive semidefinite by construction.
    """
    sigma = np.asarray(sigma, dtype=float).ravel()
    M, N = X.shape
    if sigma.size != M:
        raise DomainError(
            f"{sigma.size} population values for {M} rows of X")
    if np.any(sigma <= 0.0) or np.any(sigma > 1.0):
        raise DomainError("population values must lie in (0, 1]")
    A = np.sqrt(sigma)[:, None] * X
    gram = A @ A.T if M <= N else A.T @ A
    vals = np.linalg.eigvalsh(gram)
    low = float(vals.min()) if vals.size else 0.0
    if low < -EIG_CLAMP:
        raise PsdViolationError(
            f"Gram eigenvalue {low!r} below the -{EIG_CLAMP} clamp")
    vals = np.maximum(vals, 0.0)
    if vals.size < N:
        vals = np.concatenate([vals, np.zeros(N - vals.size)])
    return EigenSample(values=np.sort(vals)[::-1], M=M, N=N)


def empirical_stieltjes(e: EigenSample, z):
    """m_N(z) = (1/N) sum 1/(lambda_i - z); batched over z."""
    z_arr = np.asarray(z, dtype=complex)
    on_axis = z_arr.imag == 0.0
    if np.any(on_axis & np.isin(z_arr.real, e.values)):
        raise DomainError("z coincides with an eigenvalue on the real axis")
    out = np.mean(1.0 / (e.values - z_arr[..., None]), axis=-1)
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def hat_fc(sigma, M: int, N: int) -> FreeConvolution:
    """Free convolution of the realized population spectrum at ratio M/N."""
    return FreeConvolution(empirical_measure(sigma), M / N)


def linear_statistic(e: EigenSample, f, mean_inside: float,
                     gamma0: float) -> float:
    """(1/sqrt(N)) * ( sum_i f(lambda_i) - N * integral of f ).

    The integral of f against the limiting law splits into the part inside
    the contour (mean_inside) plus the atom at 0 of mass (1 - gamma0)^+.
    """
    total = float(np.sum(f(e.values)))
    center = mean_inside + max(0.0, 1.0 - gamma0) * float(f(0.0))
    return (total - e.N * center) / np.sqrt(e.N)
