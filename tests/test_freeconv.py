import numpy as np
import pytest

from freemp import freeconv
from freemp.errors import DomainError, EdgeBracketError, EdgeProbeError
from freemp.freeconv import (FreeConvolution, atom_at_zero, density,
                             density_batch, stieltjes, stieltjes_batch,
                             stieltjes_derivative, support_edges)
from freemp.grammar import parse_law
from freemp.measures import (SpectralMeasure, empirical_measure,
                             sample_population)
from freemp.rmt import hat_fc

from oracles import (DensityLaw, integrate, mp_density, mp_edge_roots,
                     mp_edges, mp_stieltjes, mp_stieltjes_derivative)


def contract_residual(fc, m, z):
    """Residual measured with the oracle's adaptive quadrature (independent
    of the solver's fixed rule)."""
    s = integrate(fc.base, lambda t: t / (1.0 + m * t))
    return abs(1.0 / m + z - fc.ratio * s)


def random_z(rng, n, eta_lo=1e-2, eta_hi=10.0):
    re = rng.uniform(-3.0, 12.0, n)
    im = np.exp(rng.uniform(np.log(eta_lo), np.log(eta_hi), n))
    sign = rng.choice([-1.0, 1.0], n)
    return re + 1j * im * sign


@pytest.fixture(scope="module")
def hat_500(uniform_half):
    """Empirical population of 500 atoms at ratio 1/2."""
    rng = np.random.default_rng(20240817)
    return hat_fc(sample_population(uniform_half, 500, rng), 500, 1000)


# real z by where they sit: the fixed mp_quarter points, and for the other
# laws a point below L_minus, one above L_plus and a negative one
REAL_AXIS_CASES = (
    [pytest.param("mp_quarter", z, id=repr(z)) for z in (2.5, -1.0, 0.1, 100.0)]
    + [pytest.param(name, where, id=f"{name}-{where}")
       for name in ("mp_four", "hat_500")
       for where in ("below", "above", "negative")])


class TestStieltjesMarchenkoPastur:
    @pytest.mark.parametrize("r", [0.25, 4.0])
    def test_matches_quadratic_closed_form(self, dirac_one, r, rng):
        fc = FreeConvolution(dirac_one, r)
        zs = random_z(rng, 50)
        got = stieltjes_batch(fc, zs)
        want = np.array([mp_stieltjes(z, r) for z in zs])
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("name, z", REAL_AXIS_CASES)
    def test_real_axis_branch(self, request, name, z):
        fc = request.getfixturevalue(name)
        if isinstance(z, str):
            e = support_edges(fc)
            z = {"below": 0.5 * e.L_minus, "above": e.L_plus + 1.0,
                 "negative": -1.0}[z]
        got = stieltjes(fc, z)
        assert got.imag == 0.0
        assert contract_residual(fc, got, z) <= 1e-12 * max(1.0, abs(z))
        if name != "hat_500":
            assert abs(got - mp_stieltjes(z, fc.ratio)) < 1e-10

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

    # Newton keeps a full step only where the residual drops, so from any
    # start no point ends above its starting residual
    @pytest.mark.parametrize("name", ["fc_uniform", "hat_500"])
    @pytest.mark.parametrize("start", ["random", "conj", "neg"])
    def test_newton_never_raises_a_residual(self, request, name, start, rng):
        fc = request.getfixturevalue(name)
        zs = random_z(rng, 100)
        m0 = {"random": lambda: rng.normal(size=zs.size)
              + 1j * rng.normal(size=zs.size),
              "conj": lambda: np.conj(stieltjes_batch(fc, zs)),
              "neg": lambda: -stieltjes_batch(fc, zs)}[start]()
        tol = freeconv.RESIDUAL_TOL * np.maximum(1.0, np.abs(zs))
        res0 = freeconv._residual(fc, m0, zs)
        m, res = freeconv._newton(fc, zs, m0.copy(), tol, freeconv.NEWTON_ITERS)
        assert np.all(res <= res0)
        assert np.array_equal(res, freeconv._residual(fc, m, zs))


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
            assert density(mp_quarter, x) == pytest.approx(0.0, abs=1e-6)

    def test_mass_and_first_moment(self, mp_quarter):
        lo, hi = mp_edges(0.25)
        xs = np.linspace(lo - 0.05, hi + 0.05, 3001)
        rho = density_batch(mp_quarter, xs, warn=False)
        mass = np.trapezoid(rho, xs)
        first = np.trapezoid(rho * xs, xs)
        assert abs(mass - 0.25) < 1e-4       # 1 - (1 - r)^+
        assert abs(first - 0.25) < 1e-4      # ratio * first moment of base

    # the grid includes both square-root edges, where the residual
    # tolerance bounds m only to about its square root
    @pytest.mark.parametrize("r", [0.25, 4.0])
    def test_matches_mp_closed_form_edge_to_edge(self, dirac_one, r):
        lo, hi = mp_edges(r)
        xs = np.linspace(lo, hi, 201)
        err = np.abs(density_batch(FreeConvolution(dirac_one, r), xs)
                     - np.array([mp_density(x, r) for x in xs]))
        assert err.max() <= 1e-6
        interior = (xs >= lo + 1e-3) & (xs <= hi - 1e-3)
        assert err[interior].max() <= 1e-12

    def test_zero_between_atom_and_support(self, mp_quarter):
        xs = np.geomspace(1e-4, mp_edges(0.25)[0] - 1e-3, 200)
        assert density_batch(mp_quarter, xs).max() <= 1e-6

    def test_point_mass_at_zero_rejected(self, fc_uniform, mp_four):
        with pytest.raises(DomainError, match="x = 0"):
            density_batch(fc_uniform, np.array([0.0, 0.6]))
        # no atom when ratio > 1: 0 lies outside the support
        assert density(mp_four, 0.0) == pytest.approx(0.0, abs=1e-12)

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

    # the edge roots solve h = 1/ratio under the independent adaptive
    # quadrature, on both sides of ratio 1 and far from it
    @pytest.mark.parametrize("ratio", [0.01, 0.5, 0.98, 1.02, 20.0])
    @pytest.mark.parametrize("law", ["uniform:0.5,1", "linear:0.2,1,1"])
    def test_edge_root_residual(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        e = support_edges(fc)
        assert 0.0 < e.L_minus < e.L_plus
        for x in (e.x_plus, e.x_minus):
            h = integrate(fc.base, lambda t: (x * t / (1.0 - x * t)) ** 2)
            assert abs(ratio * h - 1.0) < 1e-10

    def test_h_monotone_on_right_branch(self, fc_uniform):
        from freemp.freeconv import _h_value
        xs = np.linspace(1e-3, 1.0 / fc_uniform.base.hi - 1e-3, 50)
        hs = np.array([_h_value(fc_uniform, x) for x in xs])
        assert np.all(np.diff(hs) > 0.0)

    def test_discretized_edges_approach_population_edges(self, uniform_half, rng):
        ref = support_edges(FreeConvolution(uniform_half, 0.5))

        def gap(m):
            draws = sample_population(uniform_half, m, rng)
            e = support_edges(FreeConvolution(empirical_measure(draws), 0.5))
            return max(abs(e.L_minus - ref.L_minus), abs(e.L_plus - ref.L_plus))

        g3, g4 = gap(1_000), gap(10_000)
        assert g4 < 0.05
        assert g4 < g3

    # next to ratio 1 the left root sits near +-2e6, where the float spacing
    # exceeds EDGE_BISECT_XTOL: the bisection stops when the midpoint no
    # longer splits the bracket
    @pytest.mark.parametrize("r", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_ratio_next_to_one(self, dirac_one, r):
        e = support_edges(FreeConvolution(dirac_one, r))
        lo, hi = mp_edges(r)
        assert e.L_minus == pytest.approx(lo, rel=1e-6)
        assert e.L_plus == pytest.approx(hi, rel=1e-12)

    # a density vanishing to fourth order at an end of its support keeps h
    # finite at that pole, below 1/ratio at these ratios: no edge root
    @pytest.mark.parametrize("density, ratio, edge", [
        (lambda t: 160.0 * (1.0 - t) ** 4, 0.3, "right edge"),
        (lambda t: 160.0 * (t - 0.5) ** 4, 0.1, "left edge")],
        ids=["right", "left"])
    def test_no_root_before_pole_names_the_edge(self, density, ratio, edge):
        base = DensityLaw(0.5, 1.0, density)
        with pytest.raises(EdgeBracketError, match=edge):
            support_edges(FreeConvolution(base, ratio))

    def test_failed_probe_raises(self, dirac_one, monkeypatch):
        # a fresh instance: the probes run once, inside the cached edges
        monkeypatch.setattr(freeconv, "density", lambda fc, x: 1.0)
        with pytest.raises(EdgeProbeError, match="L_plus"):
            support_edges(FreeConvolution(dirac_one, 0.25))


class TestGuards:
    def test_zero_rejected(self, mp_quarter):
        with pytest.raises(DomainError):
            stieltjes(mp_quarter, 0.0)

    def test_zero_without_point_mass(self, mp_four):
        # no atom at 0 for ratio > 1: m(0) = 1/(ratio - 1)
        assert abs(stieltjes(mp_four, 0.0) - 1.0 / 3.0) < 1e-12

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

    def test_base_mass_must_be_one(self):
        base = DensityLaw(0.5, 1.0, lambda t: 3.0 * np.ones_like(t))
        with pytest.raises(DomainError, match="mass 1.5"):
            FreeConvolution(base, 0.5)
