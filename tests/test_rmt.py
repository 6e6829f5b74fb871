import numpy as np
import pytest

from freemp.errors import DomainError
from freemp.freeconv import support_edges
from freemp.measures import sample_population
from freemp.rmt import (DataMatrixSpec, EigenSample, empirical_stieltjes,
                        eigenvalues, hat_fc, linear_statistic,
                        sample_data_matrix)
from freemp.freeconv import FreeConvolution, density_batch, stieltjes
from freemp.measures import SpectralMeasure


class TestDataMatrixSpec:
    def test_from_ratio_rounds(self):
        spec = DataMatrixSpec.from_ratio(0.5, 400)
        assert (spec.M, spec.N) == (200, 400)
        spec = DataMatrixSpec.from_ratio(1.0 / 3.0, 1000)
        assert spec.M == 333

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            DataMatrixSpec.from_ratio(-0.5, 400)
        with pytest.raises(DomainError):
            DataMatrixSpec(M=0, N=4)
        with pytest.raises(DomainError):
            DataMatrixSpec(M=2, N=4, entry_law="cauchy")


class TestSampleDataMatrix:
    def test_rademacher_two_point(self, rng):
        X = sample_data_matrix(DataMatrixSpec(2, 2, "rademacher"), rng)
        assert np.all(np.isin(np.abs(X), [1.0 / np.sqrt(2.0)]))

    def test_gaussian_grand_mean(self, rng):
        spec = DataMatrixSpec(100, 200, "gaussian")
        X = sample_data_matrix(spec, rng)
        bound = 4.0 / np.sqrt(spec.M * spec.N * spec.N)
        assert abs(X.mean()) < bound

    def test_uniform_unit_variance(self, rng):
        spec = DataMatrixSpec(100, 200, "uniform")
        X = sample_data_matrix(spec, rng)
        assert np.var(X * np.sqrt(spec.N)) == pytest.approx(1.0, rel=0.05)

    def test_deterministic_given_seed(self):
        spec = DataMatrixSpec(20, 30, "gaussian")
        a = sample_data_matrix(spec, np.random.default_rng(7))
        b = sample_data_matrix(spec, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestEigenvalues:
    def test_scalar_case(self):
        e = eigenvalues([0.7], np.array([[1.3]]))
        assert e.values == pytest.approx([0.7 * 1.3 ** 2])

    def test_hand_built_two_by_three(self):
        X = np.array([[0.6, 0.0, 0.0], [0.0, 1.1, 0.0]])
        e = eigenvalues([0.9, 0.5], X)
        want = sorted([0.9 * 0.36, 0.5 * 1.21], reverse=True) + [0.0]
        assert e.values == pytest.approx(want, abs=1e-14)
        assert (e.M, e.N) == (2, 3)

    def test_identity_population_matches_svd(self, rng):
        X = sample_data_matrix(DataMatrixSpec(30, 50), rng)
        e = eigenvalues(np.ones(30), X)
        sv = np.linalg.svd(X, compute_uv=False)
        want = np.zeros(50)
        want[:30] = np.sort(sv ** 2)[::-1]
        assert np.max(np.abs(e.values - want)) < 1e-10

    def test_gram_forms_agree(self, rng):
        sigma = rng.uniform(0.5, 1.0, 50)
        X = sample_data_matrix(DataMatrixSpec(50, 80), rng)
        e = eigenvalues(sigma, X)
        big = X.T @ (sigma[:, None] * X)      # N x N form, explicit
        want = np.sort(np.maximum(np.linalg.eigvalsh(big), 0.0))[::-1]
        nz = want > 1e-12
        assert np.max(np.abs(e.values[nz] - want[nz]) / want[nz]) < 1e-8

    def test_zero_padding(self, rng):
        X = sample_data_matrix(DataMatrixSpec(3, 7), rng)
        e = eigenvalues(rng.uniform(0.5, 1.0, 3), X)
        assert e.values.size == 7
        assert np.all(e.values[3:] == 0.0)
        assert np.all(np.diff(e.values) <= 0.0)

    def test_trace_identity(self, rng):
        for (m, n) in ((40, 60), (60, 40)):
            sigma = rng.uniform(0.5, 1.0, m)
            X = sample_data_matrix(DataMatrixSpec(m, n), rng)
            e = eigenvalues(sigma, X)
            tr = float(np.einsum("i,ij,ij->", sigma, X, X))
            assert abs(e.values.sum() - tr) < 1e-8 * abs(tr)

    def test_population_values_validated(self, rng):
        X = sample_data_matrix(DataMatrixSpec(3, 4), rng)
        with pytest.raises(DomainError):
            eigenvalues([0.5, 0.5], X)             # wrong length
        with pytest.raises(DomainError):
            eigenvalues([0.5, -0.1, 0.5], X)
        with pytest.raises(DomainError):
            eigenvalues([0.5, 1.5, 0.5], X)


class TestEmpiricalStieltjes:
    def test_hand_sum(self):
        e = EigenSample(values=np.array([1.0, 0.0]), M=1, N=2)
        got = empirical_stieltjes(e, 1j)
        assert got == pytest.approx(0.25 + 0.75j)

    def test_far_field(self, rng):
        sigma = rng.uniform(0.5, 1.0, 50)
        X = sample_data_matrix(DataMatrixSpec(50, 100), rng)
        e = eigenvalues(sigma, X)
        z = 100j
        assert abs(empirical_stieltjes(e, z) + 1.0 / z) < 0.03

    def test_conjugate_symmetry(self, rng):
        sigma = rng.uniform(0.5, 1.0, 20)
        X = sample_data_matrix(DataMatrixSpec(20, 40), rng)
        e = eigenvalues(sigma, X)
        zs = np.array([0.5 + 0.3j, 2.0 + 1e-3j, -1.0 + 2j])
        up = empirical_stieltjes(e, zs)
        dn = empirical_stieltjes(e, np.conj(zs))
        assert np.max(np.abs(dn - np.conj(up))) < 1e-15

    def test_eigenvalue_on_axis_rejected(self):
        e = EigenSample(values=np.array([1.0, 0.0]), M=1, N=2)
        with pytest.raises(DomainError):
            empirical_stieltjes(e, 1.0)

    def test_local_law_scale(self, uniform_half):
        rng = np.random.default_rng(41)
        N = 1000
        spec = DataMatrixSpec.from_ratio(0.5, N)
        sigma = sample_population(uniform_half, spec.M, rng)
        X = sample_data_matrix(spec, rng)
        e = eigenvalues(sigma, X)
        hat = hat_fc(sigma, spec.M, spec.N)
        z = 2.0 + 1j
        gap = abs(empirical_stieltjes(e, z) - stieltjes(hat, z))
        assert gap < 5.0 * N ** (-0.9)


class TestHatFc:
    def test_all_ones_reduces_to_point_mass(self):
        hat = hat_fc(np.ones(40), 10, 40)
        e = support_edges(hat)
        assert abs(e.L_minus - 0.25) < 1e-8
        assert abs(e.L_plus - 2.25) < 1e-8

    def test_repeated_sample_is_degenerate(self):
        hat = hat_fc(np.full(25, 0.7), 10, 20)
        ref = FreeConvolution(SpectralMeasure.discrete([(0.7, 1.0)]), 0.5)
        eh, er = support_edges(hat), support_edges(ref)
        assert abs(eh.L_minus - er.L_minus) < 1e-10
        assert abs(eh.L_plus - er.L_plus) < 1e-10

    def test_sampled_edges_near_population_edges(self, uniform_half, fc_uniform):
        rng = np.random.default_rng(11)
        sigma = sample_population(uniform_half, 1000, rng)
        hat = hat_fc(sigma, 1000, 2000)
        eh = support_edges(hat)
        ep = support_edges(fc_uniform)
        assert abs(eh.L_minus - ep.L_minus) < 0.1
        assert abs(eh.L_plus - ep.L_plus) < 0.1


class TestLinearStatistic:
    def test_constant_f_exactly_zero(self, rng, uniform_half):
        spec = DataMatrixSpec.from_ratio(0.5, 100)
        sigma = sample_population(uniform_half, spec.M, rng)
        e = eigenvalues(sigma, sample_data_matrix(spec, rng))
        got = linear_statistic(e, lambda x: np.ones_like(np.asarray(x, float)),
                               mean_inside=0.5, gamma0=0.5)
        assert got == 0.0

    def test_linear_f_matches_trace(self, rng, uniform_half):
        spec = DataMatrixSpec.from_ratio(0.5, 100)
        sigma = sample_population(uniform_half, spec.M, rng)
        X = sample_data_matrix(spec, rng)
        e = eigenvalues(sigma, X)
        mean_inside = 0.375                      # ratio * E[t]
        got = linear_statistic(e, lambda x: np.asarray(x, float),
                               mean_inside=mean_inside, gamma0=0.5)
        tr = float(np.einsum("i,ij,ij->", sigma, X, X))
        want = (tr - spec.N * mean_inside) / np.sqrt(spec.N)
        assert got == pytest.approx(want, abs=1e-10)


class TestBulkConvergence:
    def _ks_distance(self, fc, e):
        # empirical CDF evaluated right-continuously at unique values; ties
        # (the zero padding) must count as one jump, matching the model atom.
        # The AC grid starts just below L_minus: the density vanishes between
        # the atom at 0 and the support, and the atom is added separately.
        edges = support_edges(fc)
        xs = np.linspace(max(edges.L_minus - 0.03, 1e-3),
                         edges.L_plus + 0.2, 2500)
        rho = density_batch(fc, xs, warn=False)
        cdf_grid = np.concatenate([[0.0], np.cumsum(
            0.5 * (rho[1:] + rho[:-1]) * np.diff(xs))])
        atom = max(0.0, 1.0 - fc.ratio)
        lams = np.sort(e.values)
        uniq = np.unique(lams)
        emp = np.searchsorted(lams, uniq, side="right") / lams.size
        model = atom * (uniq >= 0.0) + np.interp(uniq, xs, cdf_grid)
        return float(np.max(np.abs(emp - model)))

    def test_kolmogorov_distance_shrinks(self, uniform_half, fc_uniform):
        dists = []
        for N in (200, 2000):
            rng = np.random.default_rng(100 + N)
            spec = DataMatrixSpec.from_ratio(0.5, N)
            sigma = sample_population(uniform_half, spec.M, rng)
            e = eigenvalues(sigma, sample_data_matrix(spec, rng))
            dists.append(self._ks_distance(fc_uniform, e))
        assert dists[1] < dists[0]

    def test_extreme_eigenvalues_confined(self, uniform_half, fc_uniform):
        edges = support_edges(fc_uniform)
        inside = 0
        for rep in range(10):
            rng = np.random.default_rng(500 + rep)
            spec = DataMatrixSpec.from_ratio(0.5, 1000)
            sigma = sample_population(uniform_half, spec.M, rng)
            e = eigenvalues(sigma, sample_data_matrix(spec, rng))
            nz = e.values[e.values > 0.0]
            inside += (nz.max() <= edges.L_plus + 0.1
                       and nz.min() >= edges.L_minus - 0.1)
        assert inside >= 9
