import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import freemp
from freemp.errors import DomainError, ReplicateError
from freemp.grammar import parse_func, parse_law
from freemp.measures import PointLaw, UniformLaw, sample_population
from freemp.rmt import (DataMatrixSpec, EigenSample, eigenvalues,
                        empirical_stieltjes, hat_fc, sample_data_matrix)
from freemp.freeconv import stieltjes, support_edges
from freemp.verify import (CSV_HEADER, ExperimentConfig, GateTolerances,
                           _clt_gates, _kolmogorov_sf, _map_tasks, check_edges,
                           check_hat_rate, check_local_law, ks_normality,
                           report_to_csv, report_to_json, run_clt_experiment)
from oracles import kolmogorov_sf, mp_stieltjes

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

    def test_invalid_configs_rejected(self, uniform_half):
        good = dict(gamma0=0.5, nu=uniform_half, f=F_IDENTITY,
                    N_list=(100,), replicates=100, seed=1)
        for bad in (dict(gamma0=1.0), dict(gamma0=-2.0),
                    dict(N_list=(49,)), dict(N_list=()),
                    dict(N_list=(100, 200)),
                    dict(replicates=99), dict(seed=-1),
                    dict(entry_law="cauchy"), dict(d=0.0)):
            with pytest.raises(DomainError):
                ExperimentConfig(**{**good, **bad})


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


class TestLocalLaw:
    def test_ratio_bounded(self, local_law_sample):
        sigma, X = local_law_sample
        report = check_local_law(sigma, X, tau=0.1, eps=0.1)
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

    def test_guards(self, local_law_sample):
        sigma, X = local_law_sample
        with pytest.raises(DomainError):
            check_local_law(sigma, X, tau=0.6, eps=0.1)
        with pytest.raises(DomainError):
            check_local_law(sigma, X, tau=0.1, eps=0.0)


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

    def test_dispersionless_population_rejected(self):
        with pytest.raises(DomainError):
            check_hat_rate(PointLaw(0.7), 0.5, (250, 500, 2000), 5, 1)

    def test_gap_decays(self, uniform_half):
        report = check_hat_rate(uniform_half, 0.5, (100, 200, 800),
                                reps=12, seed=2024)
        assert report.N_values == (100, 200, 800)
        assert all(a > 0.0 for a in report.averages)
        assert report.averages[0] > report.averages[-1]
        assert report.slope < -0.15


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
