"""Monte Carlo verification harness.

run_clt_experiment draws replicated linear eigenvalue statistics and gates
them against the predicted Gaussian limit (variance band, KS normality
and mean band).
check_local_law, check_edges, and check_hat_rate turn the asymptotic
approximation claims into seeded finite-size checks with explicitly
generous constants.  Serializers emit JSON/CSV artifacts with no
timestamps, so identical configs produce identical bytes.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .contour import (TestFunction, build_contour, clt_variance,
                      default_contour, mean_statistic)
from .errors import ConvergenceError, DomainError, ReplicateError
from .freeconv import (FreeConvolution, stieltjes_batch, stieltjes_rows,
                       support_edges)
from .grammar import format_func, format_law
from .measures import PopulationLaw, sample_population
from .rmt import (DataMatrixSpec, EigenSample, draw_sample, eigenvalues,
                  empirical_stieltjes, hat_fc, linear_statistic)

DEGENERATE_VARIANCE = 1e-12
DEGENERATE_SAMPLE_TOL = 1e-6
KS_MIN_SAMPLES = 100
KS_SERIES_TERMS = 100
KS_SERIES_SPLIT = 1.0
LOCAL_LAW_ETA_POINTS = 40
LOCAL_LAW_E_POINTS = 20
RATE_MIN_SIZES = 3
RATE_MIN_SPAN = 8.0
# points per row times rows in one rate-check solve: 32 draws on the
# rectangle's 256 upper-half nodes
_RATE_BATCH_POINTS = 8192
CSV_HEADER = "replicate,seed,statistic"


@dataclass(frozen=True)
class GateTolerances:
    """Finite-size gate constants.

    The limit statements being checked are asymptotic with unspecified
    constants; these deliberately generous values convert them into
    reproducible seeded assertions and are recorded in every report.
    """

    variance_band: float = 3.0      # multiples of the MC standard error
    ks_pvalue_min: float = 0.01
    mean_band: float = 3.0
    local_law_ratio: float = 10.0
    rate_slope_lo: float = -0.65
    rate_slope_hi: float = -0.35


# the gates of every check: run_clt_experiment, check_local_law and
# check_hat_rate
GATES = GateTolerances()


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a CLT Monte Carlo run, checked when built: its
    matrix through DataMatrixSpec.from_ratio, with M = N refused; the
    margin d is checked where the contour is built."""

    gamma0: float
    nu: PopulationLaw
    f: TestFunction
    N_list: tuple[int, ...]
    replicates: int
    seed: int
    entry_law: str = "gaussian"
    d: float | None = None
    output_path: str | None = None
    # not a field: read by the benchmark's clt replay; ROADMAP item 1
    # deletes it
    tolerances = GATES

    def __post_init__(self):
        n_list = tuple(int(n) for n in self.N_list)
        if len(n_list) != 1:
            raise DomainError(f"N_list {n_list} must hold exactly one size; "
                              "a CLT run samples at one N")
        if any(n < 50 for n in n_list):
            raise DomainError(f"every N in {n_list} must be at least 50")
        object.__setattr__(self, "N_list", n_list)
        spec = DataMatrixSpec.from_ratio(self.gamma0, n_list[0],
                                         self.entry_law)
        if spec.M == spec.N:
            raise DomainError(f"M = {spec.M} and N = {spec.N}: the sampled "
                              f"matrix has ratio 1, which is excluded "
                              f"(support reaches 0)")
        if self.replicates < KS_MIN_SAMPLES:
            raise DomainError(
                f"{self.replicates} replicates cannot support the "
                f"distributional gates; need at least {KS_MIN_SAMPLES}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise DomainError(f"seed {self.seed!r} must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class CltReport:
    """Outcome of one CLT experiment; samples stay in replicate order."""

    samples: np.ndarray
    replicate_seeds: np.ndarray
    empirical_variance: float
    theoretical_variance: float
    mean: float
    ks_statistic: float
    ks_pvalue: float
    passed: bool
    degenerate: bool
    N: int
    M: int
    d: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        seeds = np.asarray(self.replicate_seeds, dtype=np.uint64)
        if samples.shape != seeds.shape:
            raise DomainError("one seed per sample required")
        if self.empirical_variance < 0.0:
            raise DomainError("negative empirical variance")
        samples.setflags(write=False)
        seeds.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "replicate_seeds", seeds)


def _resolve_workers(workers: int | None) -> int:
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise DomainError(f"worker count {workers} must be at least 1")
    return workers


def _clt_replicate(task):
    """One replicate: fresh population, fresh data matrix, one statistic.

    Top-level so process pools can pickle it; all randomness comes from the
    per-replicate seed, so results do not depend on how replicates are
    distributed over workers.
    """
    seed, M, N, entry_law, nu, f, mean_inside, gamma0 = task
    rng = np.random.default_rng(seed)
    sigma = sample_population(nu, M, rng)
    e = draw_sample(sigma, DataMatrixSpec(M, N, entry_law), rng)
    return linear_statistic(e, f, mean_inside, gamma0)


def _imap(worker, tasks, workers: int):
    """worker over tasks, yielded in task order; in a fork pool of that many
    processes when workers > 1."""
    if workers == 1:
        yield from map(worker, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    chunk = max(1, -(-len(tasks) // (4 * workers)))
    ctx = get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield from pool.map(worker, tasks, chunksize=chunk)


def _map_tasks(worker, tasks, workers: int) -> np.ndarray:
    """Order-preserving map with replicate-indexed failure reporting."""
    out = np.empty(len(tasks))
    done = -1
    try:
        for done, value in enumerate(_imap(worker, tasks, workers)):
            out[done] = value
    except Exception as exc:
        # the pool yields in task order, so the first failure surfaces at
        # its own replicate index
        raise ReplicateError(f"replicate {done + 1} failed: {exc}",
                             index=done + 1) from exc
    return out


def _clt_gates(samples: np.ndarray,
               theoretical: float) -> tuple[float, float, bool]:
    """KS statistic, KS p-value and the joint verdict of the three gates
    of GATES: the empirical variance within `variance_band` MC standard
    errors of the predicted variance V, a KS p-value above `ks_pvalue_min`,
    and the mean within `mean_band` standard errors sqrt(V / reps) of 0."""
    reps = samples.size
    ks_statistic, ks_pvalue = ks_normality(samples, theoretical)
    empirical = float(np.var(samples, ddof=1))
    passed = (abs(empirical / theoretical - 1.0)
              < GATES.variance_band * math.sqrt(2.0 / reps)
              and ks_pvalue > GATES.ks_pvalue_min
              and abs(float(np.mean(samples)))
              < GATES.mean_band * math.sqrt(theoretical / reps))
    return ks_statistic, ks_pvalue, passed


def run_clt_experiment(cfg: ExperimentConfig,
                       workers: int | None = None) -> CltReport:
    """Sample `cfg.replicates` linear statistics at N = cfg.N_list[0] and
    gate them against the Gaussian limit.

    The matrix has M = round(gamma0 N) rows, so each statistic is centred
    on the free convolution at the sampled ratio M/N, not at gamma0, which
    would shift the mean by O(N^-1/2); the predicted variance is the one at
    gamma0.  cfg has refused M = N when it was built; a margin d outside
    (0, L_minus/10) raises DomainError when the contour is built.

    pass requires the variance, KS and mean gates of _clt_gates, the
    gates acceptance check 06 applies.  When the predicted variance is
    numerically zero the distributional gates are meaningless; the report
    flags that and passes iff every sample is zero to tolerance.
    """
    workers = _resolve_workers(workers)
    N = cfg.N_list[0]
    spec = DataMatrixSpec.from_ratio(cfg.gamma0, N, cfg.entry_law)
    fc = FreeConvolution(cfg.nu, cfg.gamma0)
    contour = build_contour(support_edges(fc), d=cfg.d)
    ratio = spec.M / N
    mean_inside = mean_statistic(FreeConvolution(cfg.nu, ratio), cfg.f)
    theoretical = clt_variance(fc, cfg.f)

    seeds = np.random.SeedSequence(cfg.seed).generate_state(
        cfg.replicates, np.uint64)
    tasks = [(int(s), spec.M, N, cfg.entry_law, cfg.nu, cfg.f,
              mean_inside, ratio) for s in seeds]
    samples = _map_tasks(_clt_replicate, tasks, workers)

    degenerate = theoretical < DEGENERATE_VARIANCE
    if degenerate:
        ks_statistic = ks_pvalue = float("nan")
        passed = bool(np.max(np.abs(samples)) <= DEGENERATE_SAMPLE_TOL)
    else:
        ks_statistic, ks_pvalue, passed = _clt_gates(samples, theoretical)
    return CltReport(samples=samples, replicate_seeds=seeds,
                     empirical_variance=float(np.var(samples, ddof=1)),
                     theoretical_variance=theoretical,
                     mean=float(np.mean(samples)),
                     ks_statistic=ks_statistic, ks_pvalue=ks_pvalue,
                     passed=passed, degenerate=degenerate,
                     N=N, M=spec.M, d=contour.d)


def _kolmogorov_sf(lam: float) -> float:
    """Tail P(K > lam) of the Kolmogorov distribution, at most 100 terms.

    The classical alternating series 2*sum (-1)^(k-1) exp(-2 k^2 lam^2)
    needs unboundedly many terms as lam -> 0, so small arguments use the
    theta-function dual over odd k; both settle well inside the term cap.
    """
    if lam <= 0.0:
        return 1.0
    if lam < KS_SERIES_SPLIT:
        total = 0.0
        for k in range(1, 2 * KS_SERIES_TERMS, 2):
            term = math.exp(-k * k * math.pi ** 2 / (8.0 * lam * lam))
            total += term
            if term < 1e-18 * total:
                break
        cdf = math.sqrt(2.0 * math.pi) / lam * total
        return min(max(1.0 - cdf, 0.0), 1.0)
    total = 0.0
    for k in range(1, KS_SERIES_TERMS + 1):
        term = math.exp(-2.0 * k * k * lam * lam)
        total += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def ks_normality(samples, variance: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against Normal(0, variance).

    Returns (D_n, p) with the p-value from the asymptotic Kolmogorov law.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < KS_MIN_SAMPLES:
        raise DomainError(f"{n} samples cannot support the KS gate; "
                          f"need at least {KS_MIN_SAMPLES}")
    if not variance > 0.0:
        raise DomainError(f"variance {variance!r} must be positive")
    scale = math.sqrt(2.0 * variance)
    cdf = np.array([0.5 * (1.0 + math.erf(x / scale)) for x in samples])
    ranks = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(ranks / n - cdf))
    d_minus = float(np.max(cdf - (ranks - 1.0) / n))
    statistic = max(d_plus, d_minus)
    return statistic, _kolmogorov_sf(math.sqrt(n) * statistic)


@dataclass(frozen=True)
class LocalLawReport:
    """Max deviation ratio over the spectral-domain lattice: inf when every
    point is skipped, which the locallaw artifact writes as null."""

    max_ratio: float
    passed: bool
    points: int
    skipped: tuple


def check_local_law(sigma, X: np.ndarray, tau: float,
                    eps: float) -> LocalLawReport:
    """Compare the empirical Stieltjes transform with the deterministic
    equivalent built from the realized population.

    The lattice covers eta in [N^(tau-1), 1/tau] and E in [tau, 1/tau]
    (log-spaced, restricted to |z| >= tau); each point contributes
    |m_N - m_hat| * N * eta / N^eps, and the check passes when the max
    ratio stays under GATES.local_law_ratio.  The theorem allows
    exceptional z: one solve's ConvergenceError carries every failed point,
    those points are skipped with its message, and the rest, whose solves
    do not depend on their batch, are solved in one more batch, so the
    check makes at most two solves.  An error that carries no lattice point
    propagates.  X is not written to.
    """
    if not (0.0 < tau < 0.5):
        raise DomainError(f"tau {tau!r} must lie in (0, 0.5)")
    if not eps > 0.0:
        raise DomainError(f"eps {eps!r} must be positive")
    X = np.asarray(X, dtype=float)
    M, N = X.shape
    e = eigenvalues(sigma, X)
    fc = hat_fc(sigma, M, N)
    etas = np.geomspace(N ** (tau - 1.0), 1.0 / tau, LOCAL_LAW_ETA_POINTS)
    energies = np.geomspace(tau, 1.0 / tau, LOCAL_LAW_E_POINTS)
    z = (energies[:, None] + 1j * etas[None, :]).ravel()
    z = z[np.abs(z) >= tau]
    m_emp = empirical_stieltjes(e, z)

    skipped = []
    keep = np.ones(z.size, dtype=bool)
    try:
        m_hat = stieltjes_batch(fc, z)
    except ConvergenceError as exc:
        bad = {complex(zk) for zk in exc.z}
        keep = ~np.fromiter((zk in bad for zk in z.tolist()), bool, z.size)
        if keep.all():
            raise
        skipped = [(complex(zk), str(exc)) for zk in z[~keep]]
        m_hat = stieltjes_batch(fc, z[keep])
    ratio = np.abs(m_emp[keep] - m_hat) * N * z[keep].imag / N ** eps
    max_ratio = float(ratio.max()) if ratio.size else math.inf
    return LocalLawReport(max_ratio=max_ratio,
                          passed=max_ratio <= GATES.local_law_ratio,
                          points=int(ratio.size), skipped=tuple(skipped))


def check_edges(e: EigenSample, fc_hat: FreeConvolution,
                eps: float) -> bool:
    """True iff every nonzero eigenvalue lies within eps of the support
    band [L_minus, L_plus] of fc_hat."""
    if not eps > 0.0:
        raise DomainError(f"eps {eps!r} must be positive")
    edges = support_edges(fc_hat)
    values = e.values[e.values > 0.0]
    if values.size == 0:
        return True
    return bool(values.min() >= edges.L_minus - eps
                and values.max() <= edges.L_plus + eps)


@dataclass(frozen=True)
class RateReport:
    """Least-squares decay rate of the population-vs-sampled gap."""

    N_values: tuple[int, ...]
    averages: tuple[float, ...]
    slope: float
    passed: bool


def _rate_sups(task):
    """Sup over xi of |m_hat - m_pop| for each draw (seed, M, N, replicate)
    of a deal, one row each of warm solves of consecutive draws, each of at
    most _RATE_BATCH_POINTS points; a failure names its draw."""
    nu, xi, m_pop, draws = task
    step = max(1, _RATE_BATCH_POINTS // xi.size)
    sups = np.empty(len(draws))
    for i in range(0, len(draws), step):
        batch = draws[i:i + step]
        fcs = [hat_fc(sample_population(nu, M, np.random.default_rng(seed)),
                      M, N) for seed, M, N, _ in batch]
        try:
            m_hat = stieltjes_rows(fcs, xi, m0=m_pop)
        except ConvergenceError as exc:
            _, _, N, rep = batch[int(exc.row[0])]
            raise ConvergenceError(f"rate check at N = {N}, replicate "
                                   f"{rep}: {exc}", z=exc.z) from exc
        sups[i:i + step] = np.abs(m_hat - m_pop).max(axis=1)
    return sups


def check_hat_rate(nu: PopulationLaw, gamma0: float, N_list, reps: int,
                   seed: int, workers: int | None = None) -> RateReport:
    """Fit the decay exponent of E[sup_Gamma |m_hat - m_fc|] against N.

    The gap is a centered average of M population draws, so its size should
    shrink like N^(-1/2); the gate accepts slopes in the band
    [GATES.rate_slope_lo, GATES.rate_slope_hi].  Dispersionless nu is
    rejected: with every draw equal, the gap reflects only the M/N rounding
    error and says nothing about the sampling rate.

    Every draw is one row of a warm solve from m_fc on the rectangle's
    upper-half nodes, 32 draws to a solve, so memory stays flat in reps;
    workers > 1 deal the draws round-robin, one deal per process, with the
    same bits.
    The rectangle is built on nu's edges: where L_plus(nu_hat) lies beyond
    it (9 of the benchmark's 20 draws, up to 2.335 against 2.2952), the
    nodes in nu_hat's bulk go cold.
    """
    n_values = tuple(sorted(int(n) for n in N_list))
    if len(n_values) < RATE_MIN_SIZES:
        raise DomainError(f"need at least {RATE_MIN_SIZES} sizes to fit a "
                          f"rate, got {len(n_values)}")
    if len(set(n_values)) != len(n_values):
        raise DomainError(f"duplicate sizes in {n_values}")
    if n_values[-1] < RATE_MIN_SPAN * n_values[0]:
        raise DomainError(
            f"sizes {n_values} span {n_values[-1] / n_values[0]:.2g}x; the "
            f"fit needs at least {RATE_MIN_SPAN:g}x to resolve a slope")
    if reps < 1:
        raise DomainError(f"replicate count {reps} must be positive")
    if not nu.hi - nu.lo > 0.0:
        raise DomainError(
            "population law has zero spread, so the sampled spectrum is "
            "exact and the gap measures only M/N rounding")
    specs = [DataMatrixSpec.from_ratio(gamma0, N) for N in n_values]
    tied = [spec.N for spec in specs if spec.M == spec.N]
    if tied:
        raise DomainError(f"round({gamma0} * N) = N at N = {tied}: realized "
                          f"ratio 1 is excluded (support reaches 0)")
    workers = _resolve_workers(workers)

    fc = FreeConvolution(nu, gamma0)
    contour = default_contour(fc)
    xi, _ = contour.nodes(0)
    # the lower nodes mirror the upper ones, and |conj a - conj b| = |a - b|
    xi = xi[xi.imag > 0.0]
    m_pop = stieltjes_batch(fc, xi)

    children = np.random.SeedSequence(seed).spawn(len(n_values))
    draws = [(int(s), spec.M, spec.N, i + 1)
             for child, spec in zip(children, specs)
             for i, s in enumerate(child.generate_state(reps, np.uint64))]
    # dealt round-robin, so no process gets all of the largest N
    n_deals = min(workers, len(draws))
    tasks = [(nu, xi, m_pop, draws[w::n_deals]) for w in range(n_deals)]
    sups = np.empty(len(draws))
    for w, dealt in enumerate(_imap(_rate_sups, tasks, workers)):
        sups[w::n_deals] = dealt
    averages = sups.reshape(len(n_values), reps).mean(axis=1).tolist()

    slope = float(np.polyfit(np.log(n_values), np.log(averages), 1)[0])
    passed = GATES.rate_slope_lo <= slope <= GATES.rate_slope_hi
    return RateReport(N_values=n_values, averages=tuple(averages),
                      slope=slope, passed=passed)


def _config_dict(cfg: ExperimentConfig, report: CltReport) -> dict:
    """Resolved configuration for artifacts: grammar strings for the law
    and function, concrete N/M/d, and the gate constants."""
    return {
        "gamma0": cfg.gamma0,
        "nu": format_law(cfg.nu),
        "f": format_func(cfg.f),
        "N": report.N,
        "M": report.M,
        "N_list": list(cfg.N_list),
        "replicates": cfg.replicates,
        "entry_law": cfg.entry_law,
        "d": report.d,
        "tolerances": asdict(GATES),
        "degenerate": report.degenerate,
    }


def _json_number(x: float):
    return None if math.isnan(x) else x


def json_artifact(config: dict, body: dict, name: str) -> str:
    """JSON artifact name: the resolved config under "config", then body.
    Strict JSON has no Infinity or NaN, so a non-finite number raises a
    DomainError that names the artifact."""
    try:
        text = json.dumps({"config": config, **body}, indent=2,
                          allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"{name} is not strict JSON: {exc}") from None
    return text + "\n"


def csv_artifact(config: dict, header: str, rows) -> str:
    """CSV artifact with the resolved config as leading `# key=value`
    comment lines, then the header and the rows."""
    lines = [f"# {key}={value}" for key, value in config.items()]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def report_to_json(cfg: ExperimentConfig, report: CltReport) -> str:
    """JSON artifact; the sample list is sorted so that any replicate
    scheduling order serializes identically (the CSV keeps the pairing)."""
    return json_artifact(_config_dict(cfg, report), {
        "samples": sorted(float(s) for s in report.samples),
        "empirical_variance": report.empirical_variance,
        "theoretical_variance": report.theoretical_variance,
        "ks_statistic": _json_number(report.ks_statistic),
        "ks_pvalue": _json_number(report.ks_pvalue),
        "pass": report.passed,
        "seed": int(cfg.seed),
    }, "clt.json")


def report_to_csv(cfg: ExperimentConfig, report: CltReport) -> str:
    """CSV artifact in replicate order; floats use repr so parsing
    round-trips."""
    return csv_artifact(
        _config_dict(cfg, report), CSV_HEADER,
        (f"{i},{s},{float(x)!r}"
         for i, (s, x) in enumerate(zip(report.replicate_seeds,
                                        report.samples))))
