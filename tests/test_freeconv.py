import numpy as np
import pytest

from freemp.errors import (AccuracyWarning, DomainError)
from freemp.freeconv import (FreeConvolution, atom_at_zero, density,
                             density_batch, stieltjes, stieltjes_batch,
                             stieltjes_derivative, support_edges)
from freemp.measures import (SpectralMeasure, empirical_measure, integrate,
                             sample_population)

from oracles import (mp_density, mp_edge_roots, mp_edges, mp_stieltjes,
                     mp_stieltjes_derivative)


def contract_residual(fc, m, z):
    """Residual measured with the public adaptive quadrature (independent of
    the solver's internal fixed rule)."""
    s = integrate(fc.base, lambda t: t / (1.0 + m * t))
    return abs(1.0 / m + z - fc.ratio * s)


def random_z(rng, n, eta_lo=1e-2, eta_hi=10.0):
    re = rng.uniform(-3.0, 12.0, n)
    im = np.exp(rng.uniform(np.log(eta_lo), np.log(eta_hi), n))
    sign = rng.choice([-1.0, 1.0], n)
    return re + 1j * im * sign


class TestStieltjesMarchenkoPastur:
    @pytest.mark.parametrize("r", [0.25, 4.0])
    def test_matches_quadratic_closed_form(self, dirac_one, r, rng):
        fc = FreeConvolution(dirac_one, r)
        zs = random_z(rng, 50)
        got = stieltjes_batch(fc, zs)
        want = np.array([mp_stieltjes(z, r) for z in zs])
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("z", [2.5, -1.0, 0.1, 100.0])
    def test_real_axis_branch(self, mp_quarter, z):
        got = stieltjes(mp_quarter, z)
        want = mp_stieltjes(z, 0.25)
        assert got.imag == 0.0
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("r", [0.25, 4.0])
    @pytest.mark.parametrize("eta", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_deep_continuation(self, dirac_one, r, eta):
        # the continuation runs from eta = 2(1 + r) down to the target, inside
        # the bulk and just outside either edge
        fc = FreeConvolution(dirac_one, r)
        lo, hi = mp_edges(r)
        xs = np.concatenate([np.linspace(lo + 1e-3, hi - 1e-3, 60),
                             [0.5 * lo, lo - 1e-2, hi + 1e-2, 2.0 * hi]])
        zs = xs + 1j * eta
        got = stieltjes_batch(fc, zs)
        want = np.array([mp_stieltjes(z, r) for z in zs])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_far_field_decay(self, mp_four):
        z = 1e6 + 1j
        assert abs(stieltjes(mp_four, z) - (-1.0 / z)) < 1e-5


class TestSelfConsistency:
    def test_residual_on_random_grid(self, fc_uniform, rng):
        zs = random_z(rng, 200)
        ms = stieltjes_batch(fc_uniform, zs)
        res = np.array([contract_residual(fc_uniform, m, z)
                        for m, z in zip(ms, zs)])
        assert res.max() < 1e-12

    def test_herglotz(self, fc_uniform, rng):
        zs = random_z(rng, 100)
        zs = zs.real + 1j * np.abs(zs.imag)
        ms = stieltjes_batch(fc_uniform, zs)
        assert np.all(ms.imag > 0.0)

    def test_conjugate_symmetry(self, fc_uniform, rng):
        zs = random_z(rng, 60)
        zs = zs.real + 1j * np.abs(zs.imag)
        up = stieltjes_batch(fc_uniform, zs)
        dn = stieltjes_batch(fc_uniform, np.conj(zs))
        assert np.max(np.abs(dn - np.conj(up))) < 1e-12

    def test_discrete_base_residual(self, uniform_half, rng):
        draws = sample_population(uniform_half, 500, rng)
        fc = FreeConvolution(empirical_measure(draws), 500.0 / 1000.0)
        zs = random_z(rng, 50)
        ms = stieltjes_batch(fc, zs)
        res = np.array([contract_residual(fc, m, z) for m, z in zip(ms, zs)])
        assert res.max() < 1e-12

    # a warm start that converges to the wrong half plane (conj, negated)
    # or misses the tolerance falls back to the cold continuation per point
    @pytest.mark.parametrize("perturb", [lambda m: m * (1.0 + 1e-3), np.conj,
                                         np.negative, lambda m: 10.0 * m],
                             ids=["near", "conj", "neg", "scaled"])
    def test_warm_start_agrees_with_cold(self, fc_uniform, rng, perturb):
        zs = random_z(rng, 30, eta_lo=5e-3, eta_hi=1.0)
        cold = stieltjes_batch(fc_uniform, zs)
        warm = stieltjes_batch(fc_uniform, zs, m0=perturb(cold))
        assert np.max(np.abs(warm - cold)) < 1e-10


class TestDerivative:
    def test_against_closed_form(self, mp_quarter, rng):
        zs = random_z(rng, 40)
        for z in zs:
            got = stieltjes_derivative(mp_quarter, z)
            want = mp_stieltjes_derivative(z, 0.25)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_against_finite_differences(self, fc_uniform, rng):
        zs = random_z(rng, 50, eta_lo=5e-2)
        for z in zs:
            h = 1e-6 * max(1.0, abs(z))
            fd = (stieltjes(fc_uniform, z + h) - stieltjes(fc_uniform, z - h)) / (2 * h)
            got = stieltjes_derivative(fc_uniform, z)
            assert abs(got - fd) < 1e-5 * (1.0 + abs(got))


class TestDensity:
    def test_matches_mp_closed_form_inside(self, mp_quarter):
        xs = np.linspace(0.35, 2.15, 25)
        got = density_batch(mp_quarter, xs)
        want = np.array([mp_density(x, 0.25) for x in xs])
        assert np.max(np.abs(got - want)) < 5e-6

    def test_zero_outside_support(self, mp_quarter):
        for x in (2.5, 3.0, 0.1, 0.15):
            assert density(mp_quarter, x, warn=False) == pytest.approx(0.0, abs=1e-6)

    def test_mass_and_first_moment(self, mp_quarter):
        lo, hi = mp_edges(0.25)
        xs = np.linspace(lo - 0.05, hi + 0.05, 3001)
        rho = density_batch(mp_quarter, xs, warn=False)
        mass = np.trapezoid(rho, xs)
        first = np.trapezoid(rho * xs, xs)
        assert abs(mass - 0.25) < 1e-4       # 1 - (1 - r)^+
        assert abs(first - 0.25) < 1e-4      # ratio * first moment of base

    def test_edge_point_warns(self, mp_quarter):
        with pytest.warns(AccuracyWarning):
            density(mp_quarter, mp_edges(0.25)[1])

    def test_atom_at_zero(self, mp_quarter, mp_four, fc_uniform):
        assert atom_at_zero(mp_quarter) == 0.75
        assert atom_at_zero(mp_four) == 0.0
        assert atom_at_zero(fc_uniform) == 0.5


class TestSupportEdges:
    def test_mp_quarter_closed_form(self, mp_quarter):
        e = support_edges(mp_quarter)
        lo, hi = mp_edges(0.25)
        xm, xp = mp_edge_roots(0.25)
        assert abs(e.L_minus - lo) < 1e-8 and abs(e.L_plus - hi) < 1e-8
        assert abs(e.x_plus - xp) < 1e-10 and abs(e.x_minus - xm) < 1e-10

    def test_mp_four_closed_form(self, mp_four):
        e = support_edges(mp_four)
        lo, hi = mp_edges(4.0)
        xm, xp = mp_edge_roots(4.0)
        assert abs(e.L_minus - lo) < 1e-8 and abs(e.L_plus - hi) < 1e-8
        assert abs(e.x_plus - xp) < 1e-10 and abs(e.x_minus - xm) < 1e-10
        assert e.x_minus < 0.0

    def test_uniform_half_edge_residual(self, fc_uniform):
        e = support_edges(fc_uniform)
        assert 0.0 < e.L_minus < e.L_plus
        for x in (e.x_plus, e.x_minus):
            h = integrate(fc_uniform.base,
                          lambda t: (x * t / (1.0 - x * t)) ** 2)
            assert abs(h - 1.0 / fc_uniform.ratio) < 1e-10

    def test_h_monotone_on_right_branch(self, fc_uniform):
        from freemp.freeconv import _h_value
        xs = np.linspace(1e-3, 1.0 / fc_uniform.base.max_support - 1e-3, 50)
        hs = np.array([_h_value(fc_uniform, x) for x in xs])
        assert np.all(np.diff(hs) > 0.0)

    def test_discretized_edges_approach_population_edges(self, uniform_half, rng):
        ref = support_edges(FreeConvolution(uniform_half.as_measure(), 0.5))

        def gap(m):
            draws = sample_population(uniform_half, m, rng)
            e = support_edges(FreeConvolution(empirical_measure(draws), 0.5),
                              probes=False)
            return max(abs(e.L_minus - ref.L_minus), abs(e.L_plus - ref.L_plus))

        g3, g4 = gap(1_000), gap(10_000)
        assert g4 < 0.05
        assert g4 < g3


class TestGuards:
    def test_zero_rejected(self, mp_quarter):
        with pytest.raises(DomainError):
            stieltjes(mp_quarter, 0.0)

    def test_real_z_near_support_rejected(self, mp_quarter):
        with pytest.raises(DomainError):
            stieltjes(mp_quarter, 1.0)          # inside [0.25, 2.25]
        with pytest.raises(DomainError):
            stieltjes(mp_quarter, 2.25 + 1e-7)  # within the guard band

    def test_ratio_one_rejected(self, dirac_one):
        with pytest.raises(DomainError):
            FreeConvolution(dirac_one, 1.0)

    def test_base_support_outside_unit_interval_rejected(self):
        m = SpectralMeasure.discrete([(1.5, 1.0)])
        with pytest.raises(DomainError):
            FreeConvolution(m, 0.5)
