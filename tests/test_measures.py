import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemp.errors import ConvergenceError, DomainError
from freemp.measures import (LinearLaw, SpectralMeasure, UniformLaw,
                             empirical_measure, integrate, moment,
                             sample_population)


class TestSpectralMeasure:
    def test_discrete_merges_exact_duplicates(self):
        m = SpectralMeasure.discrete([(0.5, 0.5), (0.5, 0.3), (0.7, 0.2)])
        assert m.atoms == ((0.5, 0.8), (0.7, 0.2))

    def test_discrete_sorted_by_location(self):
        m = SpectralMeasure.discrete([(0.9, 0.25), (0.2, 0.75)])
        assert m.atoms == ((0.2, 0.75), (0.9, 0.25))
        assert m.min_support == 0.2 and m.max_support == 0.9

    def test_mass_must_be_one(self):
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(1.0, 0.5)])

    def test_nonpositive_locations_rejected(self):
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(0.0, 1.0)])
        with pytest.raises(DomainError):
            SpectralMeasure.discrete([(-1.0, 1.0)])

    def test_abs_continuous_mass_checked(self):
        with pytest.raises(DomainError):
            SpectralMeasure.abs_continuous((0.5, 1.0), lambda t: 3.0 * np.ones_like(t))


class TestIntegrate:
    def test_dirac_moments_all_one(self, dirac_one):
        for k in range(9):
            assert moment(dirac_one, k) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_first_two_moments(self, uniform_half):
        m = uniform_half.as_measure()
        assert moment(m, 1) == pytest.approx(0.75, abs=1e-12)
        assert moment(m, 2) == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_against_scipy_quad(self, uniform_half):
        m = uniform_half.as_measure()
        ours = integrate(m, lambda t: np.exp(3.0 * t))
        ref, _ = sp_integrate.quad(lambda t: 2.0 * np.exp(3.0 * t), 0.5, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_linearity_property(self, uniform_half, rng):
        m = uniform_half.as_measure()
        for _ in range(20):
            c = rng.normal(size=6)
            g = lambda t: c[0] + c[1] * t + c[2] * t ** 2
            h = lambda t: c[3] * np.sin(c[4] * t) + c[5] * t ** 3
            lhs = integrate(m, lambda t: g(t) + h(t))
            rhs = integrate(m, g) + integrate(m, h)
            assert abs(lhs - rhs) < 1e-9

    def test_complex_integrand(self, uniform_half):
        m = uniform_half.as_measure()
        z = 2.0 + 0.5j
        val = integrate(m, lambda t: 1.0 / (t - z))
        ref = sp_integrate.quad(
            lambda t: (2.0 / (t - z)).real, 0.5, 1.0, epsabs=1e-13)[0] \
            + 1j * sp_integrate.quad(
            lambda t: (2.0 / (t - z)).imag, 0.5, 1.0, epsabs=1e-13)[0]
        assert abs(val - ref) < 1e-10

    def test_nonfinite_integrand_reports_node(self, uniform_half):
        m = uniform_half.as_measure()
        with pytest.raises(DomainError, match="non-finite"):
            integrate(m, lambda t: np.where(t > 0.75, np.nan, t))

    # an endpoint singularity settles too slowly for the node cap: both the
    # value (exact 2 sqrt 2) and a normalized density's mass check raise
    # instead of returning the last level
    def test_unsettled_integral_raises(self, uniform_half):
        with pytest.raises(ConvergenceError, match="4096 .* differ by"):
            integrate(uniform_half.as_measure(),
                      lambda t: 1.0 / np.sqrt(t - 0.5))
        with pytest.raises(ConvergenceError, match="not settled"):
            SpectralMeasure.abs_continuous(
                (0.5, 1.0), lambda t: 0.7071 / np.sqrt(t - 0.5))

    def test_moment_order_cap(self, dirac_one):
        with pytest.raises(DomainError):
            moment(dirac_one, 9)


class TestPopulationLaws:
    def test_uniform_quantile_roundtrip(self, uniform_half):
        u = np.linspace(0.0, 1.0, 101)
        t = uniform_half.quantile(u)
        cdf = (t - 0.5) / 0.5
        assert np.max(np.abs(cdf - u)) < 1e-14

    def test_linear_law_normalized_and_positive(self):
        law = LinearLaw(0.5, 1.0, slope=3.0)
        m = law.as_measure()   # construction itself validates the mass
        assert moment(m, 0) == pytest.approx(1.0, abs=1e-9)
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
        assert abs(moment(emp, 1) - 0.75) < 0.01

    def test_empirical_moments_converge(self, uniform_half, rng):
        m_ref = uniform_half.as_measure()
        ref = np.array([moment(m_ref, k) for k in range(1, 5)])

        def gap(m_samples):
            emp = empirical_measure(sample_population(uniform_half, m_samples, rng))
            got = np.array([moment(emp, k) for k in range(1, 5)])
            return np.max(np.abs(got - ref))

        g_small, g_big = gap(1_000), gap(100_000)
        assert g_big < g_small

    def test_empirical_measure_merges_duplicates(self):
        emp = empirical_measure(np.array([0.5, 0.5, 1.0, 0.75]))
        assert emp.atoms == ((0.5, 0.5), (0.75, 0.25), (1.0, 0.25))

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            empirical_measure(np.array([]))

    def test_bad_sample_size(self, uniform_half, rng):
        with pytest.raises(DomainError):
            sample_population(uniform_half, 0, rng)
