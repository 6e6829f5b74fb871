"""Sampling of the data-matrix model and its eigenvalue statistics.

The model: X is M x N with iid entries of mean 0 and variance 1/N, and the
population covariance is Sigma = diag(sigma_1, ..., sigma_M) with the sigma_i
drawn once from a population law on [l, 1].  The object of study is the
spectrum of X^T Sigma X, an N x N matrix that shares its nonzero eigenvalues
with the M x M matrix Sigma^(1/2) X X^T Sigma^(1/2); the smaller of the two
is the Gram form G that eigenvalues() builds.

A linear statistic of a polynomial of degree at most 2 needs no spectrum:
sum_i lambda_i = tr G and sum_i lambda_i^2 = |G|_F^2 (Jonsson, J. Multivariate
Anal. 12, 1982).  G reaches the symmetric eigensolver only when something
reads the eigenvalues themselves.  The power sums are numpy reductions, not
BLAS dot products, which split long sums across threads, so they do not
depend on the BLAS thread count.

A Monte Carlo draw holds one M x N array, its X, and no scaled copy of it.
For M <= N the Gram step forms G = diag(r) (X X^T) diag(r), r = sqrt(sigma):
one product X X^T and two in-place scalings of the M x M result.  For M > N
it forms A^T A with A = diag(r) X, which draw_sample() scales into its own X
and eigenvalues() into one copy.  Both share that step, and eigenvalues()
never writes to the caller's X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Polynomial
from .errors import DomainError, PsdViolationError
from .freeconv import FreeConvolution
from .measures import _CHUNK_ELEMS, empirical_measure

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
    """M x N matrix of iid entries with mean 0 and variance 1/N.

    The draw is scaled in place, so the returned array is the only M x N
    float array made.
    """
    shape = (spec.M, spec.N)
    if spec.entry_law == "gaussian":
        X = rng.standard_normal(shape)
    elif spec.entry_law == "rademacher":
        X = rng.integers(0, 2, shape).astype(float)
        X *= 2.0
        X -= 1.0
    else:  # uniform on [-sqrt(3), sqrt(3)], unit variance
        X = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    X /= np.sqrt(spec.N)
    return X


class EigenSample:
    """The N eigenvalues of X^T Sigma X and their power sums.

    `values` holds all N eigenvalues, sorted descending and zero-padded, as a
    read-only array; `power_sums` is (sum lambda_i, sum lambda_i^2).  Built
    by eigenvalues() from a Gram form G, the power sums are tr G and |G|_F^2
    and `values` is computed on its first read: eigvalsh, the check against
    -EIG_CLAMP, the clamp at 0, which keeps eigvalsh's ascending order, and
    the reversal with the zero padding after it.  G is dropped after that
    read.  Built from given values, the power sums are theirs.
    """

    __slots__ = ("M", "N", "power_sums", "_values", "_gram")

    def __init__(self, values, M: int, N: int):
        values = np.asarray(values, dtype=float)
        if values.shape != (N,):
            raise DomainError(f"EigenSample needs N = {N} values, one per "
                              f"eigenvalue, got {values.size}")
        values.flags.writeable = False
        self.M, self.N = M, N
        self._values, self._gram = values, None
        self.power_sums = (float(np.sum(values)),
                           float(np.einsum("i,i->", values, values)))

    @classmethod
    def _of_gram(cls, gram: np.ndarray, M: int, N: int) -> "EigenSample":
        e = cls.__new__(cls)
        e.M, e.N = M, N
        e._values, e._gram = None, gram
        e.power_sums = (float(np.trace(gram)),
                        float(np.einsum("ij,ij->", gram, gram)))
        return e

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = np.linalg.eigvalsh(self._gram)
            low = float(vals.min()) if vals.size else 0.0
            if low < -EIG_CLAMP:
                raise PsdViolationError(
                    f"Gram eigenvalue {low!r} below the -{EIG_CLAMP} clamp")
            out = np.zeros(self.N)
            np.maximum(vals[::-1], 0.0, out=out[:vals.size])
            vals = out
            vals.flags.writeable = False
            self._values, self._gram = vals, None
        return self._values


def _certify_psd(gram: np.ndarray, trace: float, K: int) -> None:
    """Raise PsdViolationError unless the computed Gram form has no
    eigenvalue below -EIG_CLAMP.

    The Gram form of A = D X, D = diag(sqrt(sigma)), with inner dimension
    K is exactly PSD; gamma_k = k u / (1 - k u), and |.| and <= act entry
    by entry (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, sec. 3.5).  For M > N, G = fl(A^T A) of the rounded A, and
    the bound of the product gives |fl(G) - A^T A| <= gamma_K |A|^T |A|.
    For M <= N, P = fl(X X^T) = X X^T + E with |E| <= gamma_K |X| |X|^T,
    and the two scalings round each entry twice: fl(G) = (D P D) o (1 +
    theta), |theta| <= gamma_2.  So fl(G) - A A^T = D E D + (D P D) o
    theta, and as |D P D| <= (1 + gamma_K) |A| |A|^T,

        |fl(G) - A A^T| <= (gamma_K + gamma_2 + gamma_K gamma_2) |A| |A|^T
                        <= gamma_{K+2} |A| |A|^T        (Higham, Lemma 3.3).

    eigvalsh and Cholesky read one triangle of G, where the bound holds
    too.  The 2-norm of a matrix is at most that of its modulus, and that
    of |A| |A|^T is at most |A|_F^2, so lambda_min(fl(G)) >= -gamma_{K+2}
    |A|_F^2 in both cases.  |A|_F^2 = tr G, and the factor 2 covers the
    rounding of tr G itself.  Where that bound does not reach EIG_CLAMP, a
    Cholesky factorization of G + EIG_CLAMP I decides.
    """
    u = np.finfo(float).eps / 2.0
    gamma = (K + 2) * u / (1.0 - (K + 2) * u)
    if 2.0 * gamma * trace < EIG_CLAMP:
        return
    try:
        np.linalg.cholesky(gram + EIG_CLAMP * np.eye(gram.shape[0]))
    except np.linalg.LinAlgError:
        raise PsdViolationError(
            f"{gram.shape[0]} x {gram.shape[0]} Gram form is not positive "
            f"semidefinite to the -{EIG_CLAMP} clamp: Cholesky of "
            f"G + {EIG_CLAMP} I failed") from None


def _population(sigma, M: int) -> np.ndarray:
    """sigma as a flat float array of M values in (0, 1]."""
    sigma = np.asarray(sigma, dtype=float).ravel()
    if sigma.size != M:
        raise DomainError(
            f"{sigma.size} population values for {M} rows of X")
    if not np.all((sigma > 0.0) & (sigma <= 1.0)):
        raise DomainError("population values must lie in (0, 1]")
    return sigma


def _gram_sample(sigma, X: np.ndarray, own: bool) -> EigenSample:
    """EigenSample of the smaller Gram form of A = Sigma^(1/2) X.

    For M <= N, G = diag(r) (X X^T) diag(r) with r = sqrt(sigma), scaled in
    place, so no M x N array is made.  For M > N, G = A^T A, with A scaled
    into X itself when the caller owns X and into a copy otherwise.
    """
    M, N = X.shape
    r = np.sqrt(_population(sigma, M))
    if M <= N:
        gram = X @ X.T
        gram *= r[:, None]
        gram *= r
    else:
        A = np.multiply(X, r[:, None], out=X if own else None)
        gram = A.T @ A
    e = EigenSample._of_gram(gram, M, N)
    # tr G = |A|_F^2 is finite iff every entry of X is
    if not np.isfinite(e.power_sums[0]):
        raise DomainError(f"the {M} x {N} data matrix has non-finite entries")
    _certify_psd(gram, e.power_sums[0], max(M, N))
    return e


def eigenvalues(sigma, X: np.ndarray) -> EigenSample:
    """Spectrum of X^T diag(sigma) X via the smaller Gram form G.

    G is certified positive semidefinite to -EIG_CLAMP (see _certify_psd)
    before anything reads it.  The eigenvalues are computed only when
    `values` is read; eigenvalues in (-EIG_CLAMP, 0) are then clamped to 0
    and anything lower raises.  X itself is never written to.
    """
    return _gram_sample(sigma, X, own=False)


def draw_sample(sigma, spec: DataMatrixSpec,
                rng: np.random.Generator) -> EigenSample:
    """eigenvalues(sigma, sample_data_matrix(spec, rng)), bit for bit, on
    one M x N array: for M > N the fresh X is scaled by sqrt(sigma) in
    place."""
    return _gram_sample(sigma, sample_data_matrix(spec, rng), own=True)


def empirical_stieltjes(e: EigenSample, z):
    """m_N(z) = (1/N) sum 1/(lambda_i - z); batched over z.  The n0 exact
    zeros among the eigenvalues add -n0/z in closed form; the others take
    one reciprocal per term, in chunks of at most _CHUNK_ELEMS terms.  A z
    on the real axis is looked up in the sorted values."""
    z_arr = np.asarray(z, dtype=complex)
    x = z_arr.real[z_arr.imag == 0.0]
    ascending = e.values[::-1]
    at = np.minimum(np.searchsorted(ascending, x), e.N - 1)
    if np.any(ascending[at] == x):
        raise DomainError("z coincides with an eigenvalue on the real axis")
    flat = z_arr.ravel()
    lam = e.values[e.values != 0.0]
    n0 = e.N - lam.size
    out = np.empty(flat.shape, dtype=complex)
    step = max(1, _CHUNK_ELEMS // max(lam.size, 1))
    for i in range(0, flat.size, step):
        sl = slice(i, min(i + step, flat.size))
        r = lam - flat[sl, None]
        np.reciprocal(r, out=r)
        out[sl] = np.sum(r, axis=-1)
    if n0:
        out -= n0 / flat
    out /= e.N
    out = out.reshape(z_arr.shape)
    return complex(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def hat_fc(sigma, M: int, N: int) -> FreeConvolution:
    """Free convolution of the realized population spectrum, M values
    checked as eigenvalues checks them, at ratio M/N."""
    sigma = _population(sigma, M)
    if M == N:
        raise DomainError(f"M = {M} and N = {N} give ratio 1, which is "
                          f"excluded (support reaches 0)")
    return FreeConvolution(empirical_measure(sigma), M / N)


def linear_statistic(e: EigenSample, f, mean_inside: float,
                     gamma0: float) -> float:
    """(1/sqrt(N)) * ( sum_i f(lambda_i) - N * integral of f ).

    For a Polynomial with at most three coefficients c0, c1, c2 the sum is
    c0 N + c1 tr G + c2 |G|_F^2, read from e.power_sums without an
    eigensolve; any other f is applied to e.values.  The integral of f
    against the limiting law splits into its absolutely continuous part
    (mean_inside) plus the atom at 0 of mass (1 - gamma0)^+, where gamma0
    is the ratio of the law the statistic is centred on (M/N for a sampled
    M x N matrix).
    """
    if isinstance(f, Polynomial) and len(f.coeffs) <= 3:
        c0, c1, c2 = f.coeffs + (0.0,) * (3 - len(f.coeffs))
        total = c0 * e.N + c1 * e.power_sums[0] + c2 * e.power_sums[1]
    else:
        total = float(np.sum(f(e.values)))
    center = mean_inside + max(0.0, 1.0 - gamma0) * float(f(0.0))
    return (total - e.N * center) / np.sqrt(e.N)
