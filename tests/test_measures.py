import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemp.errors import DomainError
from freemp.freeconv import FreeConvolution
from freemp.measures import (LinearLaw, PointLaw, SpectralMeasure, UniformLaw,
                             empirical_measure, sample_population)

from oracles import DensityLaw, integrate


class TestSpectralMeasure:
    def test_discrete_merges_exact_duplicates(self):
        m = SpectralMeasure.discrete([(0.5, 0.5), (0.5, 0.3), (0.7, 0.2)])
        assert m.locs.tolist() == [0.5, 0.7]
        assert m.weights.tolist() == [0.8, 0.2]

    def test_discrete_sorted_by_location(self):
        m = SpectralMeasure.discrete([(0.9, 0.25), (0.2, 0.75)])
        assert m.locs.tolist() == [0.2, 0.9]
        assert m.weights.tolist() == [0.75, 0.25]
        assert m.lo == 0.2 and m.hi == 0.9

    def test_mass_must_be_one(self):
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(1.0, 0.5)])

    def test_nonpositive_locations_rejected(self):
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(0.0, 1.0)])
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(-1.0, 1.0)])

    def test_point_law_rule_is_its_atom(self):
        atom = SpectralMeasure.discrete([(0.7, 1.0)])
        for n in (1, 32, 256):
            t, w = PointLaw(0.7).quad_rule(n)
            t_ref, w_ref = atom.quad_rule(n)
            assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref)


class TestIntegrate:
    def test_dirac_moments_all_one(self, dirac_one):
        for k in range(9):
            val = integrate(dirac_one, lambda t: t ** k)
            assert val == pytest.approx(1.0, abs=1e-15)

    def test_uniform_first_two_moments(self, uniform_half):
        first = integrate(uniform_half, lambda t: t)
        second = integrate(uniform_half, lambda t: t ** 2)
        assert first == pytest.approx(0.75, abs=1e-12)
        assert second == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_against_scipy_quad(self, uniform_half):
        ours = integrate(uniform_half, lambda t: np.exp(3.0 * t))
        ref, _ = sp_integrate.quad(lambda t: 2.0 * np.exp(3.0 * t), 0.5, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_linearity_property(self, uniform_half, rng):
        for _ in range(20):
            c = rng.normal(size=6)
            g = lambda t: c[0] + c[1] * t + c[2] * t ** 2
            h = lambda t: c[3] * np.sin(c[4] * t) + c[5] * t ** 3
            lhs = integrate(uniform_half, lambda t: g(t) + h(t))
            rhs = integrate(uniform_half, g) + integrate(uniform_half, h)
            assert abs(lhs - rhs) < 1e-9

    def test_complex_integrand(self, uniform_half):
        z = 2.0 + 0.5j
        val = integrate(uniform_half, lambda t: 1.0 / (t - z))
        ref = sp_integrate.quad(
            lambda t: (2.0 / (t - z)).real, 0.5, 1.0, epsabs=1e-13)[0] \
            + 1j * sp_integrate.quad(
            lambda t: (2.0 / (t - z)).imag, 0.5, 1.0, epsabs=1e-13)[0]
        assert abs(val - ref) < 1e-10

    # the mass check runs on the solver's own fixed rule: a normalized
    # density with an endpoint singularity misses mass 1 there by 1.7e-3,
    # and an unnormalized one by its excess, and both raise at once
    def test_unsettled_integral_raises(self):
        singular = DensityLaw(0.5, 1.0,
                              lambda t: 1.0 / np.sqrt(2.0 * (t - 0.5)))
        flat = DensityLaw(0.5, 1.0, lambda t: 1.8 * np.ones_like(t))
        for base in (singular, flat):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="mass"):
                FreeConvolution(base, 0.5)
            assert time.perf_counter() - t0 < 1.0


class TestPopulationLaws:
    def test_uniform_quantile_roundtrip(self, uniform_half):
        u = np.linspace(0.0, 1.0, 101)
        t = uniform_half.quantile(u)
        cdf = (t - 0.5) / 0.5
        assert np.max(np.abs(cdf - u)) < 1e-14

    def test_linear_law_normalized_and_positive(self):
        law = LinearLaw(0.5, 1.0, slope=3.0)
        assert integrate(law, np.ones_like) == pytest.approx(1.0, abs=1e-9)
        t = np.linspace(0.5, 1.0, 64)
        dens = law.density(t)
        ends = law.density(np.array([0.5, 1.0]))   # the affine extremes
        assert dens.min() >= ends.min() - 1e-12 > 0.0
        assert dens.max() <= ends.max() + 1e-12

    def test_linear_law_quantile_inverts_cdf(self):
        law = LinearLaw(0.5, 1.0, slope=-2.0)
        u = np.linspace(0.0, 1.0, 201)
        t = law.quantile(u)
        alpha = law._alpha
        cdf = alpha * (t - 0.5) + 0.5 * law.slope * (t - 0.5) ** 2
        assert np.max(np.abs(cdf - u)) < 1e-12
        assert np.all(np.diff(t) > 0.0)

    def test_linear_law_slope_limit(self):
        with pytest.raises(DomainError):
            LinearLaw(0.5, 1.0, slope=8.1)   # 2/(hi-lo)^2 = 8
        with pytest.raises(DomainError):
            LinearLaw(0.5, 1.0, slope=float("nan"))

    # the same expressions as the explicit Gauss-Legendre mapping, bit for bit
    @pytest.mark.parametrize("law, n", [
        (UniformLaw(0.5, 1.0), 256), (LinearLaw(0.2, 1.0, 1.0), 512)],
        ids=["uniform", "linear"])
    def test_quad_rule_is_mapped_gauss_legendre(self, law, n):
        x, w = np.polynomial.legendre.leggauss(n)
        a, b = law.lo, law.hi
        t_ref = 0.5 * (b - a) * x + 0.5 * (b + a)
        t, w_eff = law.quad_rule(n)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(w_eff, 0.5 * (b - a) * w * law.density(t_ref))

    @pytest.mark.parametrize("law", [
        UniformLaw(0.5, 1.0), LinearLaw(0.2, 1.0, 1.0), PointLaw(0.7)],
        ids=["uniform", "linear", "point"])
    def test_law_is_its_own_measure(self, law):
        assert law.as_measure() is law

    def test_support_bounds_validated(self):
        with pytest.raises(DomainError):
            UniformLaw(0.0, 1.0)
        with pytest.raises(DomainError):
            UniformLaw(0.5, 1.2)


class TestSampling:
    # Uniform[0.5, 1]: mean 3/4, variance 1/48
    def test_sample_mean_within_three_se(self, uniform_half, rng):
        m = 100_000
        draws = sample_population(uniform_half, m, rng)
        se = np.sqrt(1.0 / 48.0 / m)
        assert abs(draws.mean() - 0.75) < 3.0 * se
        assert draws.min() >= 0.5 and draws.max() <= 1.0

    def test_empirical_first_moment_close(self, uniform_half, rng):
        draws = sample_population(uniform_half, 10_000, rng)
        emp = empirical_measure(draws)
        assert abs(integrate(emp, lambda t: t) - 0.75) < 0.01

    def test_empirical_moments_converge(self, uniform_half, rng):
        ref = np.array([integrate(uniform_half, lambda t: t ** k)
                        for k in range(1, 5)])

        def gap(m_samples):
            emp = empirical_measure(sample_population(uniform_half, m_samples, rng))
            got = np.array([integrate(emp, lambda t: t ** k)
                            for k in range(1, 5)])
            return np.max(np.abs(got - ref))

        g_small, g_big = gap(1_000), gap(100_000)
        assert g_big < g_small

    def test_empirical_measure_merges_duplicates(self):
        emp = empirical_measure(np.array([0.5, 0.5, 1.0, 0.75]))
        assert emp.locs.tolist() == [0.5, 0.75, 1.0]
        assert emp.weights.tolist() == [0.5, 0.25, 0.25]

    def test_empirical_measure_is_discrete_bit_for_bit(self, uniform_half,
                                                         rng):
        draws = sample_population(uniform_half, 1000, rng)
        emp = empirical_measure(draws)
        ref = SpectralMeasure.discrete([(x, 1.0 / draws.size) for x in draws])
        assert np.array_equal(emp.locs, ref.locs)
        assert np.array_equal(emp.weights, ref.weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5])
    def test_empirical_measure_rejects_bad_samples(self, bad):
        with pytest.raises(DomainError):
            empirical_measure(np.array([0.5, bad, 0.75]))

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            empirical_measure(np.array([]))

    def test_bad_sample_size(self, uniform_half, rng):
        with pytest.raises(DomainError):
            sample_population(uniform_half, 0, rng)
