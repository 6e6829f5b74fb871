import tracemalloc

import numpy as np
import pytest

from freemp.contour import Exponential, Polynomial, RationalShift
from freemp.errors import DomainError, PsdViolationError
from freemp.freeconv import support_edges
from freemp.measures import sample_population
from freemp.rmt import (EIG_CLAMP, ENTRY_LAWS, DataMatrixSpec, EigenSample,
                        _certify_psd, draw_sample, empirical_stieltjes,
                        eigenvalues, hat_fc, linear_statistic,
                        sample_data_matrix)
from freemp.freeconv import FreeConvolution, density_batch, stieltjes
from freemp.measures import AtomicLaw


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

    @pytest.mark.parametrize("gamma0, N, fragment", [
        (0.5, 1, "N = 1 must be at least 2"),
        (0.001, 100, r"round\(0.001 \* 100\) gives an empty matrix"),
        (float("nan"), 100, "dimension ratio nan must be positive")])
    def test_from_ratio_refusals_name_the_input(self, gamma0, N, fragment):
        with pytest.raises(DomainError, match=fragment):
            DataMatrixSpec.from_ratio(gamma0, N)


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

    def test_non_finite_inputs_rejected(self, rng):
        X = sample_data_matrix(DataMatrixSpec(3, 4), rng)
        with pytest.raises(DomainError, match="population values"):
            eigenvalues([0.5, np.nan, 0.5], X)
        X[1, 2] = np.inf
        with pytest.raises(DomainError, match="non-finite"):
            eigenvalues([0.5, 0.5, 0.5], X)

    # G = diag(r) (X X^T) diag(r) is scaled in place: at ratio 1/4 the
    # M x M Gram form is a quarter of X, and no scaled copy of X is made
    def test_no_m_by_n_allocation(self, rng):
        M, N = 200, 800
        sigma = rng.uniform(0.5, 1.0, M)
        X = sample_data_matrix(DataMatrixSpec(M, N), rng)
        eigenvalues(sigma, X)
        tracemalloc.start()
        try:
            eigenvalues(sigma, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * M * N * 8

    @pytest.mark.parametrize("shape", [(40, 80), (80, 40)])
    def test_leaves_x_unchanged(self, rng, shape):
        X = sample_data_matrix(DataMatrixSpec(*shape), rng)
        before = X.tobytes()
        eigenvalues(rng.uniform(0.5, 1.0, shape[0]), X).values
        assert X.tobytes() == before


class TestDrawSample:
    @pytest.mark.parametrize("entry_law", ENTRY_LAWS)
    @pytest.mark.parametrize("shape", [(40, 80), (160, 80)])
    def test_bit_identical_to_two_steps(self, entry_law, shape):
        spec = DataMatrixSpec(*shape, entry_law)
        sigma = np.random.default_rng(3).uniform(0.5, 1.0, spec.M)
        one = draw_sample(sigma, spec, np.random.default_rng(29))
        two = eigenvalues(sigma, sample_data_matrix(spec,
                                                    np.random.default_rng(29)))
        assert one.power_sums == two.power_sums
        assert one.values.tobytes() == two.values.tobytes()

    def test_population_validated(self, rng):
        with pytest.raises(DomainError):
            draw_sample([0.5, 0.5], DataMatrixSpec(3, 4), rng)
        with pytest.raises(DomainError):
            draw_sample([0.5, 1.5, 0.5], DataMatrixSpec(3, 4), rng)


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

    # real z are looked up in the descending values, repeated and zero
    # ones included; off the axis, or between eigenvalues, z is accepted
    @pytest.mark.parametrize("z", [3.0, 1.0, 0.0, [0.5, 2.0, 1.0]])
    def test_repeated_and_zero_eigenvalues_rejected(self, z):
        e = EigenSample(values=np.array([3.0, 1.0, 1.0, 0.0]), M=3, N=4)
        with pytest.raises(DomainError, match="coincides"):
            empirical_stieltjes(e, z)

    @pytest.mark.parametrize("z", [-1.0, 0.5, 2.0, 4.0, 1.0 + 1e-3j,
                                   [1.0 + 1j, 2.0, -0.5]])
    def test_real_z_off_the_spectrum_accepted(self, z):
        e = EigenSample(values=np.array([3.0, 1.0, 1.0, 0.0]), M=3, N=4)
        got = np.atleast_1d(empirical_stieltjes(e, z))
        want = np.mean(1.0 / (e.values - np.atleast_1d(z)[:, None]), axis=1)
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)

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

    # the reciprocal form against 1/(lambda - z) in long double, next to an
    # eigenvalue, on the local-law lattice and far out
    def test_reciprocal_form_accuracy(self, uniform_half):
        rng = np.random.default_rng(43)
        spec = DataMatrixSpec.from_ratio(0.5, 400)
        e = draw_sample(sample_population(uniform_half, spec.M, rng), spec,
                        rng)
        lam = e.values[[0, 50, 150]]
        z = np.concatenate([lam + 1e-6j, lam + 1e-9j,
                            np.geomspace(0.1, 10.0, 9) + 1e-3j,
                            [0.05 + 1j, -2.0 + 1e-3j, 1e8j, 1e9 + 1.0j]])
        got = empirical_stieltjes(e, z)
        diff = (e.values.astype(np.longdouble)
                - z.astype(np.clongdouble)[:, None])
        want = (1.0 / diff).mean(axis=-1)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    # chunked terms: the whole local-law lattice at N = 1000 would be one
    # 12.8 MB array; a chunk and the reductions take about 0.8 MB
    def test_chunked_memory(self, uniform_half):
        rng = np.random.default_rng(47)
        spec = DataMatrixSpec.from_ratio(0.5, 1000)
        e = draw_sample(sample_population(uniform_half, spec.M, rng), spec,
                        rng)
        e.values  # the eigensolve is not part of the peak
        etas = np.geomspace(1000 ** -0.9, 10.0, 40)
        energies = np.geomspace(0.1, 10.0, 20)
        z = (energies[:, None] + 1j * etas[None, :]).ravel()
        empirical_stieltjes(e, z)
        tracemalloc.start()
        try:
            empirical_stieltjes(e, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20 + 2 * z.nbytes


class TestHatFc:
    def test_all_ones_reduces_to_point_mass(self):
        hat = hat_fc(np.ones(10), 10, 40)
        e = support_edges(hat)
        assert abs(e.L_minus - 0.25) < 1e-8
        assert abs(e.L_plus - 2.25) < 1e-8

    def test_repeated_sample_is_degenerate(self):
        hat = hat_fc(np.full(10, 0.7), 10, 20)
        ref = FreeConvolution(AtomicLaw([0.7], [1.0]), 0.5)
        eh, er = support_edges(hat), support_edges(ref)
        assert abs(eh.L_minus - er.L_minus) < 1e-10
        assert abs(eh.L_plus - er.L_plus) < 1e-10

    # M = round(0.999 * 100) = N: the realized ratio is 1, not gamma0
    def test_realized_ratio_one_names_m_and_n(self):
        with pytest.raises(DomainError, match="M = 100 and N = 100"):
            hat_fc(np.full(100, 0.7), 100, 100)

    # the population is checked as eigenvalues checks it: M values in
    # (0, 1], not a law of any sample
    @pytest.mark.parametrize("sigma, match", [
        ([0.5, 0.7], "2 population values for 10 rows"),
        (np.full(11, 0.7), "11 population values for 10 rows"),
        (np.r_[np.full(9, 0.7), 1.5], "must lie in \\(0, 1\\]"),
        (np.r_[np.full(9, 0.7), 0.0], "must lie in \\(0, 1\\]")],
        ids=["short", "long", "above-one", "zero"])
    def test_population_checked(self, sigma, match):
        with pytest.raises(DomainError, match=match):
            hat_fc(np.asarray(sigma), 10, 20)

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


def _draw(ratio, N, seed):
    rng = np.random.default_rng(seed)
    spec = DataMatrixSpec.from_ratio(ratio, N)
    return rng.uniform(0.5, 1.0, spec.M), sample_data_matrix(spec, rng)


class TestLazyValues:
    @pytest.mark.parametrize("ratio", [0.5, 4.0])
    def test_values_are_the_eigvalsh_spectrum(self, ratio):
        sigma, X = _draw(ratio, 120, 17)
        M, N = X.shape
        r = np.sqrt(sigma)
        if M <= N:
            gram = (X @ X.T) * r[:, None] * r
        else:
            A = r[:, None] * X
            gram = A.T @ A
        want = np.maximum(np.linalg.eigvalsh(gram), 0.0)
        want = np.sort(np.concatenate([want, np.zeros(N - want.size)]))[::-1]
        got = eigenvalues(sigma, X).values
        assert got.shape == (N,)
        assert got.tobytes() == want.tobytes()

    def test_read_only_and_gram_released(self):
        sigma, X = _draw(0.5, 60, 18)
        e = eigenvalues(sigma, X)
        assert e._gram is not None
        values = e.values
        assert e._gram is None
        assert e.values is values
        with pytest.raises(ValueError):
            values[0] = 0.0

    # a Gram eigenvalue below -EIG_CLAMP is refused, not clamped to 0
    def test_negative_eigenvalue_refused(self, monkeypatch):
        sigma, X = _draw(0.5, 60, 18)
        e = eigenvalues(sigma, X)
        eigvalsh = np.linalg.eigvalsh

        def dented(gram):
            vals = eigvalsh(gram)
            vals[0] = -2.0 * EIG_CLAMP
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", dented)
        with pytest.raises(PsdViolationError, match="below the"):
            e.values

    def test_constructs_from_values(self):
        e = EigenSample(values=np.array([2.0, 1.0, 0.0]), M=2, N=3)
        assert e.power_sums == (3.0, 5.0)
        assert not e.values.flags.writeable

    # one value per eigenvalue of the N x N matrix: a statistic centred
    # with N would otherwise sum over the wrong count
    @pytest.mark.parametrize("values", [np.ones(2), np.ones(4),
                                        np.ones((1, 3))],
                             ids=["short", "long", "2d"])
    def test_values_must_number_n(self, values):
        with pytest.raises(DomainError, match=r"N = 3 .* got "
                           + str(values.size)):
            EigenSample(values=values, M=2, N=3)


class TestTraceRoute:
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("coeffs", [(0.7,), (0.0, 1.0), (0.0, 0.0, 1.0),
                                        (0.3, -1.0, 2.0)])
    def test_matches_sum_over_values(self, ratio, coeffs):
        sigma, X = _draw(ratio, 200, 19)
        e = eigenvalues(sigma, X)
        f = Polynomial(coeffs)
        got = linear_statistic(e, f, mean_inside=0.0, gamma0=ratio)
        assert e._gram is not None              # no eigensolve so far
        want = linear_statistic(e, lambda x: f(x), mean_inside=0.0,
                                gamma0=ratio)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_only_higher_statistics_reach_eigvalsh(self, monkeypatch):
        sigma, X = _draw(0.5, 100, 20)
        e = eigenvalues(sigma, X)

        def refuse(*args, **kwargs):
            raise RuntimeError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert np.isfinite(linear_statistic(
            e, Polynomial((0.3, -1.0, 2.0)), mean_inside=1.0, gamma0=0.5))
        for f in (Polynomial((0.0, 0.0, 0.0, 1.0)), Exponential(1.0),
                  RationalShift(-1.0)):
            with pytest.raises(RuntimeError, match="eigvalsh called"):
                linear_statistic(e, f, mean_inside=1.0, gamma0=0.5)

    # |G|_F^2 is a numpy reduction, so it does not follow the BLAS
    # library's split of a long dot product across threads
    def test_same_bits_at_one_and_two_blas_threads(self, run_at_threads):
        code = ("import numpy as np\n"
                "from freemp.rmt import DataMatrixSpec, EigenSample, "
                "draw_sample\n"
                "rng = np.random.default_rng(20240817)\n"
                "sigma = rng.uniform(0.5, 1.0, 400)\n"
                "e = draw_sample(sigma, DataMatrixSpec(400, 800), rng)\n"
                "v = EigenSample(rng.uniform(0.0, 2.0, 200_000), 100_000, "
                "200_000)\n"
                "print([x.hex() for x in e.power_sums + v.power_sums])\n")
        assert run_at_threads(code, 1) == run_at_threads(code, 2)


class TestPsdGuard:
    def _spy_cholesky(self, monkeypatch):
        calls = []
        real = np.linalg.cholesky

        def spy(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        return calls

    def _certifies_without_factoring(self, monkeypatch, N):
        calls = self._spy_cholesky(monkeypatch)
        sigma, X = _draw(0.5, N, 21)
        e = eigenvalues(sigma, X)
        linear_statistic(e, Polynomial((0.0, 0.0, 1.0)), mean_inside=0.0,
                         gamma0=0.5)
        assert calls == []

    # the scaled Gram's bound gamma_(N+2) tr G stays under EIG_CLAMP at the
    # clt default (400 x 800) and at the local law's draws (500 x 1000)
    def test_default_clt_shape_certifies_without_factoring(self, monkeypatch):
        self._certifies_without_factoring(monkeypatch, 800)

    def test_local_law_shape_certifies_without_factoring(self, monkeypatch):
        self._certifies_without_factoring(monkeypatch, 1000)

    def test_large_shape_falls_back_to_cholesky(self, monkeypatch):
        calls = self._spy_cholesky(monkeypatch)
        sigma, X = _draw(0.5, 1200, 22)
        eigenvalues(sigma, X)
        assert calls == [(600, 600)]

    def test_indefinite_gram_rejected(self):
        gram = np.diag([1.0, -1e-6])
        with pytest.raises(PsdViolationError, match="Cholesky"):
            _certify_psd(gram, float(np.trace(gram)), K=10 ** 6)

    def test_semidefinite_gram_accepted_by_cholesky(self, monkeypatch):
        calls = self._spy_cholesky(monkeypatch)
        _certify_psd(np.diag([1.0, 0.0]), 1.0, K=10 ** 6)
        assert calls == [(2, 2)]


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
