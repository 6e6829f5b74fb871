import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import freemp
from freemp import freeconv, measures, verify
from freemp.errors import ConvergenceError, DomainError, ReplicateError
from freemp.grammar import parse_func, parse_law
from freemp.measures import (RULE_NODES, AtomicLaw, LawStack,
                             sample_population)
from freemp.rmt import (ENTRY_LAWS, DataMatrixSpec, EigenSample, eigenvalues,
                        empirical_stieltjes, hat_fc, linear_statistic,
                        sample_data_matrix)
from freemp.contour import default_contour, mean_statistic
from freemp.freeconv import (FreeConvolution, stieltjes, stieltjes_batch,
                             stieltjes_rows, support_edges)
from freemp.verify import (CSV_HEADER, CltReport, ExperimentConfig,
                           GateTolerances, _clt_gates, _clt_replicate,
                           _kolmogorov_sf, _map_tasks, check_edges,
                           check_hat_rate, check_local_law, ks_normality,
                           report_to_csv, report_to_json, run_clt_experiment)
from oracles import (ExactAtomicLaw, exact_empirical_measure, kolmogorov_sf,
                     mp_stieltjes)

F_IDENTITY = parse_func("poly:0.0,1.0")
F_ONE = parse_func("poly:1.0")


@pytest.fixture(scope="module")
def clt_small(uniform_half):
    """One modest CLT run shared by the statistics and serializer tests."""
    cfg = ExperimentConfig(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                           N_list=(100,), replicates=120, seed=42)
    return cfg, run_clt_experiment(cfg)


@pytest.fixture(scope="module")
def clt_degenerate(uniform_half):
    cfg = ExperimentConfig(gamma0=0.5, nu=uniform_half, f=F_ONE,
                           N_list=(50,), replicates=100, seed=7)
    return cfg, run_clt_experiment(cfg)


@pytest.fixture(scope="module")
def local_law_sample(uniform_half):
    rng = np.random.default_rng(101)
    spec = DataMatrixSpec.from_ratio(0.5, 1000)
    sigma = sample_population(uniform_half, spec.M, rng)
    X = sample_data_matrix(spec, rng)
    return sigma, X


def _boom(task):
    if task == 3:
        raise ValueError("synthetic failure")
    return float(task)


class TestExperimentConfig:
    def test_valid_config_coerces_n_list(self, uniform_half):
        cfg = ExperimentConfig(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                               N_list=[100], replicates=100, seed=1)
        assert cfg.N_list == (100,)

    # every rule but the margin's is checked when the config is built; the
    # matrix rules through DataMatrixSpec.from_ratio, the margin by the
    # contour that the run builds
    def test_invalid_configs_rejected(self, uniform_half):
        good = dict(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                    N_list=(100,), replicates=100, seed=1)
        for bad, fragment in (
                (dict(gamma0=1.0), "M = 100 and N = 100"),
                (dict(gamma0=-2.0), "must be positive"),
                (dict(gamma0=math.nan), "must be positive"),
                (dict(gamma0=0.001), "gives an empty matrix"),
                (dict(N_list=(49,)), "at least 50"),
                (dict(N_list=()), "exactly one size"),
                (dict(N_list=(100, 200)), "exactly one size"),
                (dict(replicates=99), "need at least 100"),
                (dict(seed=-1), "64 bits"),
                (dict(entry_law="cauchy"), "unknown entry law")):
            with pytest.raises(DomainError, match=fragment):
                ExperimentConfig(**{**good, **bad})
        cfg = ExperimentConfig(**{**good, "d": 0.0})
        with pytest.raises(DomainError,
                           match=r"margin d = 0.0 outside \(0, L_minus/10\)"):
            run_clt_experiment(cfg)


class TestKsNormality:
    def test_exact_quantiles_pass_strongly(self):
        n = 10 ** 4
        quantiles = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        stat, pvalue = ks_normality(quantiles, 1.0)
        assert pvalue > 0.9
        assert stat == pytest.approx(1.0 / (2.0 * n), rel=1e-6)

    def test_point_mass_fails(self):
        _, pvalue = ks_normality(np.zeros(200), 1.0)
        assert pvalue < 1e-6

    def test_wrong_variance_detected(self, rng):
        samples = rng.normal(0.0, math.sqrt(2.0), 2000)
        _, pvalue = ks_normality(samples, 1.0)
        assert pvalue < 0.01

    def test_correct_variance_accepted(self, rng):
        samples = rng.normal(0.0, math.sqrt(0.25), 500)
        _, pvalue = ks_normality(samples, 0.25)
        assert pvalue > 0.01

    def test_guards(self):
        with pytest.raises(DomainError):
            ks_normality(np.zeros(99), 1.0)
        with pytest.raises(DomainError):
            ks_normality(np.zeros(200), 0.0)

    def test_tail_matches_reference_series(self):
        grid = np.concatenate([np.linspace(0.05, 0.99, 40),
                               np.linspace(1.0, 3.0, 40)])
        for lam in grid:
            assert _kolmogorov_sf(float(lam)) == pytest.approx(
                kolmogorov_sf(float(lam)), abs=1e-12)

    def test_tail_monotone(self):
        grid = np.linspace(0.05, 3.0, 120)
        values = [_kolmogorov_sf(float(lam)) for lam in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert _kolmogorov_sf(0.0) == 1.0
        assert _kolmogorov_sf(50.0) == 0.0


class TestRunClt:
    def test_worker_count_invisible(self, uniform_half):
        cfg = ExperimentConfig(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                               N_list=(50,), replicates=100, seed=314)
        serial = run_clt_experiment(cfg, workers=1)
        pooled = run_clt_experiment(cfg, workers=2)
        assert np.array_equal(serial.samples, pooled.samples)
        assert np.array_equal(serial.replicate_seeds, pooled.replicate_seeds)

    def test_default_d_is_explicit_default(self, uniform_half):
        base = dict(gamma0=0.5, nu=uniform_half, f=F_IDENTITY, N_list=(50,),
                    replicates=100, seed=271)
        d = default_contour(FreeConvolution(uniform_half, 0.5)).d
        omitted = run_clt_experiment(ExperimentConfig(**base), workers=1)
        explicit = run_clt_experiment(ExperimentConfig(d=d, **base),
                                      workers=1)
        assert np.array_equal(omitted.samples, explicit.samples)
        assert omitted.theoretical_variance == explicit.theoretical_variance
        assert omitted.d == explicit.d == d

    def test_variance_and_normality_gates(self, clt_small):
        _, report = clt_small
        # identity statistic: predicted variance gamma0 * Var(sigma)
        assert report.theoretical_variance == pytest.approx(1.0 / 96.0,
                                                            abs=1e-10)
        band = 3.0 * math.sqrt(2.0 / 120.0)
        assert abs(report.empirical_variance / report.theoretical_variance
                   - 1.0) < band
        assert report.ks_pvalue > 0.01
        assert report.passed and not report.degenerate
        assert (report.N, report.M) == (100, 50)

    def test_centering(self, clt_small):
        _, report = clt_small
        bound = 3.0 * math.sqrt(report.theoretical_variance / 120.0)
        assert abs(report.mean) < bound

    # N = 405 has M = round(0.3 N) = 122, so M/N = 0.3012; centring at 0.3
    # shifted the mean by about 0.023 against N = 400, where M/N = 0.3
    # exactly (each mean +- 0.004)
    def test_centred_at_sampled_ratio(self, uniform_half):
        f = parse_func("poly:0,0,1")
        means = {}
        for N in (400, 405):
            cfg = ExperimentConfig(gamma0=0.3, nu=uniform_half, f=f,
                                   N_list=(N,), replicates=2000, seed=7)
            means[N] = run_clt_experiment(cfg).mean
        fc_limit = FreeConvolution(uniform_half, 0.3)
        fc_sampled = FreeConvolution(uniform_half, 122 / 405)
        centre = [mean_statistic(fc, f) + (1.0 - fc.ratio) * f(0.0)
                  for fc in (fc_limit, fc_sampled)]
        shift = math.sqrt(405) * (centre[1] - centre[0])
        assert shift == pytest.approx(0.023, abs=0.002)
        assert abs(means[405] - means[400]) < shift / 2.0

    def test_sampled_ratio_one_names_m_and_n(self, uniform_half):
        with pytest.raises(DomainError, match="M = 400 and N = 400"):
            ExperimentConfig(gamma0=0.999, nu=uniform_half, f=F_IDENTITY,
                             N_list=(400,), replicates=100, seed=1)

    def test_constant_statistic_flagged_degenerate(self, clt_degenerate):
        _, report = clt_degenerate
        assert report.degenerate and report.passed
        assert np.max(np.abs(report.samples)) <= 1e-6
        assert math.isnan(report.ks_statistic)
        assert math.isnan(report.ks_pvalue)

    def test_report_arrays_read_only(self, clt_small):
        _, report = clt_small
        with pytest.raises((ValueError, RuntimeError)):
            report.samples[0] = 0.0

    def test_replicate_failure_carries_index(self):
        with pytest.raises(ReplicateError) as err:
            _map_tasks(_boom, [0, 1, 2, 3, 4], workers=1)
        assert err.value.index == 3
        with pytest.raises(ReplicateError):
            _map_tasks(_boom, [0, 1, 2, 3, 4], workers=2)

    def test_import_loads_no_pool_machinery(self):
        # the pool modules load only where a pool starts (workers > 1)
        src = str(Path(freemp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, freemp; print(sorted(m for m in ("
                "'multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    # numpy.ma costs about 10 ms and 1 MB of every fresh interpreter that
    # imports it, and np.isin against 27 or more points sorts them with a
    # plain np.unique, which does; the local law skips 30 forced failures
    def test_checks_load_no_numpy_ma(self, run_at_threads):
        code = """\
import sys
import numpy as np
from freemp import verify
from freemp.errors import ConvergenceError
from freemp.grammar import parse_func
from freemp.measures import LinearLaw, sample_population
from freemp.rmt import (DataMatrixSpec, draw_sample, empirical_stieltjes,
                        sample_data_matrix)
nu = LinearLaw(0.5, 1.0)
rng = np.random.default_rng(5)
spec = DataMatrixSpec.from_ratio(0.5, 100)
e = draw_sample(sample_population(nu, spec.M, rng), spec, rng)
empirical_stieltjes(e, np.array([1.0 + 0.5j, 3.0, -1.0]))
empirical_stieltjes(e, 2.0)
solve, calls = verify.stieltjes_batch, []

def first_point_fails(fc, z, m0=None):
    calls.append(z.size)
    if len(calls) == 1:
        raise ConvergenceError("forced", z=z[:30])
    return solve(fc, z, m0)

verify.stieltjes_batch = first_point_fails
sigma = sample_population(nu, spec.M, rng)
local = verify.check_local_law(sigma, sample_data_matrix(spec, rng), 0.1, 0.1)
verify.check_hat_rate(nu, 0.5, (32, 64, 256), 2, 0)
cfg = verify.ExperimentConfig(gamma0=0.5, nu=nu, f=parse_func("exp:0.5"),
                              N_list=(50,), replicates=100, seed=3)
verify.run_clt_experiment(cfg)
print(len(local.skipped), calls[1] == calls[0] - 30,
      "numpy.ma" in sys.modules)
"""
        assert run_at_threads(code, 1).split() == ["30", "True", "False"]


class TestCltReplicate:
    @pytest.mark.parametrize("entry_law", ENTRY_LAWS)
    @pytest.mark.parametrize("shape", [(40, 80), (160, 80)])
    @pytest.mark.parametrize("f", ["poly:0,0,1", "exp:0.5"])
    def test_equals_two_step_statistic(self, uniform_half, entry_law, shape,
                                       f):
        M, N = shape
        f = parse_func(f)
        gamma0 = M / N
        got = _clt_replicate((77, M, N, entry_law, uniform_half, f, 0.3,
                              gamma0))
        rng = np.random.default_rng(77)
        sigma = sample_population(uniform_half, M, rng)
        X = sample_data_matrix(DataMatrixSpec(M, N, entry_law), rng)
        want = linear_statistic(eigenvalues(sigma, X), f, 0.3, gamma0)
        assert got == want

    @pytest.mark.parametrize("entry_law, bound", [
        ("gaussian", 1.6), ("uniform", 1.6), ("rademacher", 2.1)])
    def test_one_matrix_per_draw(self, uniform_half, entry_law, bound):
        # one M x N array plus the M x M Gram form (0.5 M N); rademacher's
        # int64 draw briefly lives next to its float copy
        M, N = 400, 800
        task = (5, M, N, entry_law, uniform_half, parse_func("poly:0,0,1"),
                0.0, 0.5)
        _clt_replicate(task)
        tracemalloc.start()
        try:
            _clt_replicate(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * M * N * 8


class TestCltGates:
    def test_mean_gate_alone_fails(self):
        V, n, tol = 0.05, 500, GateTolerances()
        centered = norm.ppf((np.arange(n) + 0.5) / n) * math.sqrt(V)
        shifted = centered + 3.5 * math.sqrt(V / n)
        assert _clt_gates(centered, V, tol)[2]
        _, p, passed = _clt_gates(shifted, V, tol)
        band = tol.variance_band * math.sqrt(2.0 / n)
        assert abs(np.var(shifted, ddof=1) / V - 1.0) < band
        assert p > tol.ks_pvalue_min
        assert abs(np.mean(shifted)) > tol.mean_band * math.sqrt(V / n)
        assert not passed


class TestCltInvariants:
    def test_variance_stable_across_n(self, uniform_half):
        base = dict(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                    replicates=150)
        r1 = run_clt_experiment(ExperimentConfig(N_list=(200,), seed=9001,
                                                 **base))
        r2 = run_clt_experiment(ExperimentConfig(N_list=(800,), seed=9002,
                                                 **base))
        assert r1.theoretical_variance == pytest.approx(
            r2.theoretical_variance, rel=1e-12)
        band = 3.0 * r1.theoretical_variance * math.sqrt(2.0 / 150 + 2.0 / 150)
        assert abs(r1.empirical_variance - r2.empirical_variance) < band

    def test_entry_law_universality(self, uniform_half):
        base = dict(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                    N_list=(200,), replicates=150, seed=9003)
        rg = run_clt_experiment(ExperimentConfig(entry_law="gaussian", **base))
        rr = run_clt_experiment(ExperimentConfig(entry_law="rademacher",
                                                 **base))
        band = 3.0 * rg.theoretical_variance * math.sqrt(2.0 / 150 + 2.0 / 150)
        assert abs(rg.empirical_variance - rr.empirical_variance) < band

    # a report needs one seed per sample and a variance of at least 0
    @pytest.mark.parametrize("seeds, variance, match", [
        (np.arange(2, dtype=np.uint64), 0.1, "one seed per sample"),
        (np.arange(3, dtype=np.uint64), -1e-300, "negative empirical")],
        ids=["seeds", "variance"])
    def test_report_guards(self, seeds, variance, match):
        with pytest.raises(DomainError, match=match):
            CltReport(samples=np.zeros(3), replicate_seeds=seeds,
                      empirical_variance=variance, theoretical_variance=0.1,
                      mean=0.0, ks_statistic=0.1, ks_pvalue=0.5, passed=True,
                      degenerate=False, N=400, M=200, d=0.05)


class TestLocalLaw:
    def test_ratio_bounded(self, local_law_sample):
        sigma, X = local_law_sample
        before = X.tobytes()
        report = check_local_law(sigma, X, tau=0.1, eps=0.1)
        assert X.tobytes() == before        # callers reuse X across checks
        assert report.passed
        assert report.max_ratio <= 10.0
        assert report.skipped == ()
        assert report.points == 800

    def test_easiest_point(self, local_law_sample):
        sigma, X = local_law_sample
        e = eigenvalues(sigma, X)
        fc = hat_fc(sigma, *X.shape)
        z = 1.0 + 10.0j
        gap = abs(empirical_stieltjes(e, np.array([z]))[0] - stieltjes(fc, z))
        assert gap < 2.0 * 1000.0 ** (0.1 - 1.0) * 0.1

    def test_flat_population_against_closed_form(self):
        rng = np.random.default_rng(55)
        spec = DataMatrixSpec.from_ratio(0.5, 600)
        sigma = np.ones(spec.M)
        X = sample_data_matrix(spec, rng)
        report = check_local_law(sigma, X, tau=0.1, eps=0.1)
        assert report.passed
        # the deterministic equivalent is then the closed-form law
        fc = hat_fc(sigma, spec.M, spec.N)
        for z in (1.0 + 0.3j, 0.4 + 0.05j, 3.0 + 1.0j):
            assert stieltjes(fc, z) == pytest.approx(
                mp_stieltjes(z, 0.5), abs=1e-10)

    def test_gates_on_shared_tolerances(self, local_law_sample, monkeypatch):
        sigma, X = local_law_sample
        loose = check_local_law(sigma, X, tau=0.1, eps=0.1)
        monkeypatch.setattr(
            "freemp.verify.GATES",
            GateTolerances(local_law_ratio=0.5 * loose.max_ratio))
        strict = check_local_law(sigma, X, tau=0.1, eps=0.1)
        assert loose.passed and not strict.passed
        assert strict.max_ratio == loose.max_ratio

    def test_guards(self, local_law_sample):
        sigma, X = local_law_sample
        with pytest.raises(DomainError):
            check_local_law(sigma, X, tau=0.6, eps=0.1)
        with pytest.raises(DomainError):
            check_local_law(sigma, X, tau=0.1, eps=0.0)

    # a law whose transforms read NaN where |m| > 1.5 stalls the solve at
    # every z whose continuation passes there; the check drops exactly the
    # points that fail alone, all carried by the first solve's error, and
    # solves the others once more with their own bits
    def test_skips_exactly_the_points_that_fail_alone(self, uniform_half,
                                                      monkeypatch):
        transforms = LawStack.transforms

        def blind(self, row, m):
            s, t2 = transforms(self, row, m)
            far = np.abs(m) > 1.5
            return np.where(far, np.nan, s), np.where(far, np.nan, t2)

        monkeypatch.setattr(LawStack, "transforms", blind)
        rng = np.random.default_rng(101)
        spec = DataMatrixSpec.from_ratio(0.5, 200)
        sigma = sample_population(uniform_half, spec.M, rng)
        X = sample_data_matrix(spec, rng)
        calls = []

        def spy(fc, z, m0=None):
            calls.append(z.size)
            return stieltjes_batch(fc, z, m0)

        monkeypatch.setattr("freemp.verify.stieltjes_batch", spy)
        report = check_local_law(sigma, X, tau=0.1, eps=0.1)
        assert calls == [800, 628]
        assert report.points + len(report.skipped) == 800

        fc = hat_fc(sigma, *X.shape)
        etas = np.geomspace(200 ** -0.9, 10.0, 40)
        z = (np.geomspace(0.1, 10.0, 20)[:, None] + 1j * etas[None, :]).ravel()
        alone = []
        for zk in z:
            try:
                stieltjes_batch(fc, np.array([zk]))
            except ConvergenceError:
                alone.append(complex(zk))
        skipped = [zk for zk, _ in report.skipped]
        assert alone and sorted(skipped, key=str) == sorted(alone, key=str)
        kept = z[~np.isin(z, alone)]
        m_emp = empirical_stieltjes(eigenvalues(sigma, X), kept)
        ratio = (np.abs(m_emp - stieltjes_batch(fc, kept)) * 200 * kept.imag
                 / 200 ** 0.1)
        assert report.max_ratio == float(ratio.max())

    # an error that carries no lattice point is not an exceptional z: it
    # propagates after the one solve
    @pytest.mark.parametrize("carried", [(), (100.0 + 5.0j,)])
    def test_error_without_lattice_points_propagates(self, local_law_sample,
                                                     carried, monkeypatch):
        sigma, X = local_law_sample
        calls = []

        def fail(fc, z, m0=None):
            calls.append(z.size)
            raise ConvergenceError("synthetic failure",
                                   z=np.array(carried, dtype=complex))

        monkeypatch.setattr("freemp.verify.stieltjes_batch", fail)
        with pytest.raises(ConvergenceError, match="synthetic failure"):
            check_local_law(sigma, X, tau=0.1, eps=0.1)
        assert calls == [800]


class TestEdges:
    def test_confined_sample_accepted(self, uniform_half):
        rng = np.random.default_rng(404)
        spec = DataMatrixSpec.from_ratio(0.5, 500)
        sigma = sample_population(uniform_half, spec.M, rng)
        e = eigenvalues(sigma, sample_data_matrix(spec, rng))
        fc = hat_fc(sigma, spec.M, spec.N)
        assert check_edges(e, fc, 0.1)

    def test_injected_outlier_rejected(self, uniform_half):
        rng = np.random.default_rng(404)
        spec = DataMatrixSpec.from_ratio(0.5, 500)
        sigma = sample_population(uniform_half, spec.M, rng)
        e = eigenvalues(sigma, sample_data_matrix(spec, rng))
        fc = hat_fc(sigma, spec.M, spec.N)
        top = support_edges(fc).L_plus + 0.2
        values = np.sort(np.append(e.values, top))[::-1]
        bad = EigenSample(values=values, M=spec.M, N=spec.N + 1)
        assert not check_edges(bad, fc, 0.1)

    def test_all_zero_sample_trivially_inside(self, uniform_half):
        fc = hat_fc(np.full(4, 0.75), 4, 8)
        e = EigenSample(values=np.zeros(8), M=4, N=8)
        assert check_edges(e, fc, 0.1)
        with pytest.raises(DomainError):
            check_edges(e, fc, 0.0)


class TestHatRate:
    def test_preconditions(self, uniform_half):
        with pytest.raises(DomainError):
            check_hat_rate(uniform_half, 0.5, (250, 2000), 5, 1)
        with pytest.raises(DomainError):
            check_hat_rate(uniform_half, 0.5, (250, 500, 1000), 5, 1)
        with pytest.raises(DomainError):
            check_hat_rate(uniform_half, 0.5, (250, 250, 2000), 5, 1)
        with pytest.raises(DomainError):
            check_hat_rate(uniform_half, 0.5, (250, 500, 2000), 0, 1)

    # both entry points that take a worker count refuse 0 before any draw
    @pytest.mark.parametrize("call", [
        lambda nu: check_hat_rate(nu, 0.5, (50, 100, 400), 2, 1, workers=0),
        lambda nu: run_clt_experiment(
            ExperimentConfig(gamma0=0.5, nu=nu, f=F_IDENTITY, N_list=(50,),
                             replicates=100, seed=1), workers=0)],
        ids=["check_hat_rate", "run_clt_experiment"])
    def test_worker_count_below_one_rejected(self, uniform_half, call):
        with pytest.raises(DomainError,
                           match="worker count 0 must be at least 1"):
            call(uniform_half)

    def test_dispersionless_population_rejected(self):
        with pytest.raises(DomainError):
            check_hat_rate(AtomicLaw([0.7], [1.0]), 0.5, (250, 500, 2000), 5, 1)

    # round(0.995 N) = N at N = 50 and 100: rejected by size before a draw
    def test_realized_ratio_one_names_the_sizes(self, uniform_half,
                                                 monkeypatch):
        def no_draws(*args):
            raise AssertionError("replicates ran")

        monkeypatch.setattr("freemp.verify._rate_sups", no_draws)
        with pytest.raises(DomainError, match=r"N = \[50, 100\]"):
            check_hat_rate(uniform_half, 0.995, (50, 100, 400), 2, 1)

    def test_gap_decays(self, uniform_half):
        report = check_hat_rate(uniform_half, 0.5, (100, 200, 800),
                                reps=12, seed=2024)
        assert report.N_values == (100, 200, 800)
        assert all(a > 0.0 for a in report.averages)
        assert report.averages[0] > report.averages[-1]
        assert report.slope < -0.15

    # A work count, not a correctness check: the terms (points x nodes)
    # that _rule_sums sums in check_hat_rate at the benchmark's rate
    # configuration, the exact atom sums among them.  Summing 64-term rules
    # gave 1,636,832.  The count repeats exactly; a change that moves it on
    # purpose sets the new count, printed by the failure, here and states
    # both counts in CHANGES.md.
    def test_rate_terms_summed(self, uniform_half, monkeypatch):
        terms, rule_sums = [0], measures._rule_sums

        def count(t, w, m, row=None):
            terms[0] += m.size * t.shape[-1]
            return rule_sums(t, w, m, row)

        monkeypatch.setattr(measures, "_rule_sums", count)
        check_hat_rate(uniform_half, 0.5, (250, 500, 1000, 2000), 5, 20240817)
        assert terms[0] == 916_610

    def test_gates_on_shared_tolerances(self, uniform_half, monkeypatch):
        args = (uniform_half, 0.5, (50, 100, 400), 8, 2024)
        loose = check_hat_rate(*args)
        # a band that stops just short of the fitted slope
        monkeypatch.setattr("freemp.verify.GATES",
                            GateTolerances(rate_slope_lo=loose.slope + 0.01))
        strict = check_hat_rate(*args)
        assert loose.passed and not strict.passed
        assert strict.slope == loose.slope


class TestBatchedRate:
    """check_hat_rate solves every draw of every size as one row of one
    warm solve; each draw's sup has the bits of its own stieltjes_batch."""

    ARGS = (0.5, (32, 64, 128, 256), 3, 0)

    @staticmethod
    def per_law_sups(nu, gamma0, n_list, reps, seed):
        fc = FreeConvolution(nu, gamma0)
        xi, _ = default_contour(fc).nodes(0)
        m_pop = stieltjes_batch(fc, xi)
        sups = []
        children = np.random.SeedSequence(seed).spawn(len(n_list))
        for child, N in zip(children, n_list):
            spec = DataMatrixSpec.from_ratio(gamma0, N)
            for s in child.generate_state(reps, np.uint64):
                rng = np.random.default_rng(int(s))
                fc_hat = hat_fc(sample_population(nu, spec.M, rng),
                                spec.M, N)
                m_hat = stieltjes_batch(fc_hat, xi, m0=m_pop)
                sups.append(float(np.abs(m_hat - m_pop).max()))
        return xi, sups

    # at M = RULE_NODES/4, RULE_NODES/2 and RULE_NODES a law has no rule
    # and sums its atoms at every point; at 2 RULE_NODES it has RULE_NODES
    # Chebyshev points, stacked with the other rows of that M; some draws
    # miss warm Newton and go cold at shared nodes, where the first
    # continuation iterates of two rows coincide
    def test_sups_equal_per_law_solves(self, uniform_half, monkeypatch):
        args = (0.5, tuple(RULE_NODES * k // 2 for k in (1, 2, 4, 8)), 3, 0)
        seen = {"sups": [], "cold": [], "exact": 0, "sizes": set()}
        rate_sups, cont = verify._rate_sups, freeconv._continuation
        exact, rule_sums = measures.AtomicLaw._exact_sums, measures._rule_sums

        def spy_sups(task):
            seen["sups"].append(rate_sups(task))
            return seen["sups"][-1]

        def spy_cont(laws, ratio, row, z):
            if ratio.size > 1:
                seen["cold"].append((row.copy(), z.copy()))
            return cont(laws, ratio, row, z)

        def spy_exact(law, m):
            seen["exact"] += m.size
            return exact(law, m)

        def spy_rule(t, w, m, row=None):
            if row is not None:
                seen["sizes"].add(t.shape[-1])
            return rule_sums(t, w, m, row)

        monkeypatch.setattr(verify, "_rate_sups", spy_sups)
        monkeypatch.setattr(freeconv, "_continuation", spy_cont)
        monkeypatch.setattr(measures.AtomicLaw, "_exact_sums", spy_exact)
        monkeypatch.setattr(measures, "_rule_sums", spy_rule)
        report = check_hat_rate(uniform_half, *args)
        assert seen["sizes"] == {RULE_NODES}
        assert seen["exact"] > 0
        cold_rows = np.concatenate([row for row, _ in seen["cold"]])
        assert np.unique(cold_rows).size > 1
        assert any(np.unique(z).size < z.size for _, z in seen["cold"])

        _, want = self.per_law_sups(uniform_half, *args)
        got = np.concatenate(seen["sups"])
        assert np.array_equal(got, want)
        reps = args[2]
        assert report.averages == tuple(
            float(np.mean(got[k:k + reps])) for k in range(0, got.size, reps))

    # a budget of five draws splits the twelve into solves of 5, 5 and 2
    # rows; the batch boundaries leave every sup, average and the slope
    # bit-identical to one stieltjes_batch per draw
    def test_batches_equal_per_draw_solves(self, uniform_half, monkeypatch):
        rows = []

        def spy(fcs, z, m0=None):
            rows.append(len(fcs))
            return stieltjes_rows(fcs, z, m0)

        monkeypatch.setattr(verify, "_RATE_BATCH_POINTS", 5 * 256)
        monkeypatch.setattr(verify, "stieltjes_rows", spy)
        report = check_hat_rate(uniform_half, *self.ARGS)
        assert rows == [5, 5, 2]
        _, sups = self.per_law_sups(uniform_half, *self.ARGS)
        n_values, reps = self.ARGS[1], self.ARGS[2]
        averages = [float(np.mean(sups[k:k + reps]))
                    for k in range(0, len(sups), reps)]
        assert report.averages == tuple(averages)
        assert report.slope == float(
            np.polyfit(np.log(n_values), np.log(averages), 1)[0])

    # 35 draws at 5 replicates fill one 32-draw solve already, so 280 at
    # 40 replicates take no more memory
    def test_memory_flat_in_replicates(self, uniform_half):
        sizes = (8, 12, 16, 24, 32, 48, 64)
        check_hat_rate(uniform_half, 0.5, sizes, 1, 0)
        peaks = []
        for reps in (5, 40):
            tracemalloc.start()
            try:
                check_hat_rate(uniform_half, 0.5, sizes, reps, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]

    # the draws are dealt round-robin, one deal per worker
    def test_workers_give_the_same_bits(self, uniform_half):
        serial = check_hat_rate(uniform_half, *self.ARGS, workers=1)
        pooled = check_hat_rate(uniform_half, *self.ARGS, workers=2)
        assert pooled == serial

    # with more workers than sizes, each batch mixes sizes (draws[w::5]),
    # and the sups go back in draw order; run in process, five batches
    def test_dealt_batches_keep_draw_order(self, uniform_half, monkeypatch):
        serial = check_hat_rate(uniform_half, *self.ARGS, workers=1)
        dealt = []

        def in_process(worker, tasks, workers):
            dealt.extend([draw[2:] for draw in task[3]] for task in tasks)
            return map(worker, tasks)

        monkeypatch.setattr(verify, "_imap", in_process)
        assert check_hat_rate(uniform_half, *self.ARGS, workers=5) == serial
        sizes, reps = self.ARGS[1], self.ARGS[2]
        draws = [(N, k + 1) for N in sizes for k in range(reps)]
        assert dealt == [draws[w::5] for w in range(5)]

    # a forced stall in one draw's row names its size and replicate, and
    # the first failed node, the first of the rectangle's upper half
    def test_failure_names_size_and_replicate(self, uniform_half,
                                              monkeypatch):
        transforms = LawStack.transforms

        def blind(self, row, m):
            s, t2 = transforms(self, row, m)
            if len(self.laws) == 1:
                return s, t2
            dead = row == 4                # N = 64, replicate 2
            return np.where(dead, np.nan, s), np.where(dead, np.nan, t2)

        monkeypatch.setattr(LawStack, "transforms", blind)
        with pytest.raises(ConvergenceError) as err:
            check_hat_rate(uniform_half, *self.ARGS)
        msg = str(err.value)
        xi, _ = default_contour(FreeConvolution(uniform_half, 0.5)).nodes(0)
        xi = xi[xi.imag > 0.0]
        assert msg.startswith("rate check at N = 64, replicate 2: ")
        assert "continuation stalled" in msg
        assert f"z = {complex(xi[0])!r}:" in msg
        assert np.array_equal(err.value.z, xi)

    # the lower half mirrors the upper, so only the 256 upper-half nodes
    # of the default rectangle are solved, for the population and each draw
    def test_solves_the_upper_half_only(self, uniform_half, monkeypatch):
        seen = []

        def spy(fcs, z, m0=None):
            seen.append(z.copy())
            return stieltjes_rows(fcs, z, m0)

        monkeypatch.setattr(verify, "stieltjes_rows", spy)
        monkeypatch.setattr(verify, "stieltjes_batch",
                            lambda fc, z, m0=None: spy((fc,), z, m0)[0])
        check_hat_rate(uniform_half, *self.ARGS)
        xi, _ = default_contour(FreeConvolution(uniform_half, 0.5)).nodes(0)
        assert len(seen) == 2
        for z in seen:
            assert z.size == 256 and (z.imag > 0.0).all()
            assert np.array_equal(z, xi[xi.imag > 0.0])


def _exact_sums(monkeypatch):
    """Make hat_fc convolve laws that sum every atom at every m."""
    monkeypatch.setattr("freemp.rmt.empirical_measure",
                        exact_empirical_measure)


def _close(a, b, rtol=1e-12) -> bool:
    return bool(np.all(np.abs(np.subtract(a, b)) <= rtol * np.abs(b)))


# The compressed atom sums against the exact ones, end to end, at the
# acceptance suite's configurations of checks 08, 09 and 10: values within
# 1e-12 relative, the same verdicts
class TestCompressedSumsAgreeWithExact:
    SEED = 20240817

    # the batched solve sums a law with no rule over its atoms, so the
    # oracle states it has none: the reference stacks no rule and sums
    # every atom
    def test_hat_rate(self, uniform_half, monkeypatch):
        args = (uniform_half, 0.5, (250, 500, 1000, 2000), 50, self.SEED)
        rep = check_hat_rate(*args)
        _exact_sums(monkeypatch)
        rule_sums, stacked, alone = measures._rule_sums, set(), set()

        def spy(t, w, m, row=None):
            (alone if row is None else stacked).add(t.shape[-1])
            return rule_sums(t, w, m, row)

        monkeypatch.setattr(measures, "_rule_sums", spy)
        ref = check_hat_rate(*args)
        # the population's rule alone, and each realized law's atoms
        assert stacked == set()
        assert alone == {RULE_NODES, 125, 250, 500, 1000}
        assert _close(rep.averages, ref.averages)
        assert _close(rep.slope, ref.slope)
        assert rep.passed == ref.passed

    def test_hat_law_edges(self, uniform_half, monkeypatch):
        spec = DataMatrixSpec.from_ratio(0.5, 1000)
        draws = []
        for ss in np.random.SeedSequence(918273645).spawn(100):
            rng = np.random.default_rng(ss)
            sigma = sample_population(uniform_half, spec.M, rng)
            e = eigenvalues(sigma, sample_data_matrix(spec, rng))
            fc = hat_fc(sigma, spec.M, spec.N)
            draws.append((sigma, e, support_edges(fc),
                          check_edges(e, fc, 0.1)))
        _exact_sums(monkeypatch)
        for sigma, e, edges, ok in draws:
            fc = hat_fc(sigma, spec.M, spec.N)
            assert isinstance(fc.base, ExactAtomicLaw)
            ref = support_edges(fc)
            assert _close([edges.L_minus, edges.L_plus],
                          [ref.L_minus, ref.L_plus])
            assert ok == check_edges(e, fc, 0.1)

    def test_local_law(self, uniform_half, monkeypatch):
        spec = DataMatrixSpec.from_ratio(0.5, 1000)
        draws = []
        for ss in np.random.SeedSequence(self.SEED).spawn(10):
            rng = np.random.default_rng(ss)
            sigma = sample_population(uniform_half, spec.M, rng)
            draws.append((sigma, sample_data_matrix(spec, rng)))
        reps = [check_local_law(sigma, X, tau=0.1, eps=0.1)
                for sigma, X in draws]
        _exact_sums(monkeypatch)
        for rep, (sigma, X) in zip(reps, draws):
            ref = check_local_law(sigma, X, tau=0.1, eps=0.1)
            assert _close(rep.max_ratio, ref.max_ratio)
            assert (rep.passed, rep.points, rep.skipped) == (
                ref.passed, ref.points, ref.skipped)


class TestSerializers:
    def test_json_contract(self, clt_small):
        cfg, report = clt_small
        doc = json.loads(report_to_json(cfg, report))
        assert sorted(doc.keys()) == ["config", "empirical_variance",
                                      "ks_pvalue", "ks_statistic", "pass",
                                      "samples", "seed",
                                      "theoretical_variance"]
        assert doc["samples"] == sorted(doc["samples"])
        assert len(doc["samples"]) == 120
        assert doc["pass"] is True
        assert doc["seed"] == 42
        assert parse_law(doc["config"]["nu"]) == cfg.nu
        assert parse_func(doc["config"]["f"]) == cfg.f
        assert doc["config"]["M"] == 50
        assert doc["config"]["d"] > 0.0

    def test_json_degenerate_uses_null(self, clt_degenerate):
        cfg, report = clt_degenerate
        doc = json.loads(report_to_json(cfg, report))
        assert doc["ks_statistic"] is None
        assert doc["ks_pvalue"] is None
        assert doc["config"]["degenerate"] is True

    def test_json_deterministic(self, clt_small):
        cfg, report = clt_small
        again = run_clt_experiment(cfg, workers=2)
        assert report_to_json(cfg, report) == report_to_json(cfg, again)

    def test_csv_round_trips(self, clt_small):
        cfg, report = clt_small
        lines = report_to_csv(cfg, report).strip().split("\n")
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert all("=" in c for c in comments)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 120
        for i, row in enumerate(rows[1:]):
            rep, seed, stat = row.split(",")
            assert int(rep) == i
            assert int(seed) == report.replicate_seeds[i]
            assert float(stat) == report.samples[i]
