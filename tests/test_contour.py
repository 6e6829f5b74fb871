import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemp import contour
from freemp.contour import (Exponential, Polynomial, RationalShift,
                            build_contour, clt_variance, default_contour,
                            f_sigma, mean_statistic, _m_circle)
from freemp.errors import ContourError, DomainError, NearSingularityError
from freemp.freeconv import (FreeConvolution, density_batch, stieltjes,
                             support_edges)
from freemp.grammar import parse_law

from oracles import (NODE_LEVELS, rectangle_clt_variance, rectangle_f_sigma,
                     rectangle_integral)

ONE = Polynomial((1.0,))
LIN = Polynomial((0.0, 1.0))
SQ = Polynomial((0.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def c_mpq(mp_quarter):
    return build_contour(support_edges(mp_quarter), d=0.02)


def _mid(c):
    return 0.5 * (c.L_minus + c.L_plus)


class TestConstruction:
    def test_geometry(self, c_mpq):
        assert c_mpq.left > 0.0
        assert c_mpq.left < c_mpq.L_minus < c_mpq.L_plus < c_mpq.right
        assert c_mpq.right - c_mpq.L_plus == pytest.approx(0.04)
        xi, _ = c_mpq.nodes(0)
        assert np.max(np.abs(xi.imag)) == pytest.approx(0.04)

    def test_margin_validation(self, mp_quarter):
        e = support_edges(mp_quarter)          # L_minus = 0.25
        with pytest.raises(DomainError):
            build_contour(e, d=0.025)          # = L_minus/10, not strictly below
        with pytest.raises(DomainError):
            build_contour(e, d=0.0)

    def test_thin_default_cached_per_instance(self, fc_uniform):
        # L_minus ~ 0.06 forces a sliver rectangle, built once per
        # convolution
        c = default_contour(fc_uniform)
        assert c.d < 0.004
        assert default_contour(fc_uniform) is c

    def test_node_closure_exact(self, c_mpq, fc_uniform):
        # oint dxi = 0 and (1/2i) oint conj(xi) dxi = area: both integrands
        # are affine on each side, so Gauss-Legendre is exact, and any
        # orientation, corner or weight-scaling error shows
        for c in (c_mpq, default_contour(fc_uniform)):
            height = 4.0 * c.d
            scale = abs(c.right) + abs(c.left) + height
            area = (c.right - c.left) * height
            for lvl in range(NODE_LEVELS):
                xi, w = c.nodes(lvl)
                assert xi.size == 4 * (128 << lvl)
                assert abs(w.sum()) < 1e-12 * scale
                signed = complex((np.conj(xi) * w).sum()) / 2j
                assert abs(signed - area) < 1e-10 * area

    def test_level_zero_nodes_pinned(self, mp_quarter):
        # check_hat_rate solves on these nodes, so their bits are part of
        # every rate artifact
        c = default_contour(mp_quarter)
        s, w = np.polynomial.legendre.leggauss(128)
        h = 2.0 * c.d
        cs = (complex(c.L_minus - h, -h), complex(c.L_plus + h, -h),
              complex(c.L_plus + h, h), complex(c.L_minus - h, h))
        want_xi = np.concatenate([a + (b - a) * 0.5 * (s + 1.0)
                                  for a, b in zip(cs, cs[1:] + cs[:1])])
        want_w = np.concatenate([w * ((b - a) * 0.5)
                                 for a, b in zip(cs, cs[1:] + cs[:1])])
        xi, wts = c.nodes(0)
        assert np.array_equal(xi, want_xi)
        assert np.array_equal(wts, want_w)


class TestContourIntegral:
    def test_cauchy_pole_inside(self, c_mpq):
        got = rectangle_integral(c_mpq, lambda x: 1.0 / (x - 1.0))
        assert abs(got - 2j * np.pi) < 1e-10

    def test_pole_outside(self, c_mpq):
        got = rectangle_integral(c_mpq, lambda x: 1.0 / (x + 1.0))
        assert abs(got) < 1e-10

    def test_entire_integrand(self, c_mpq):
        got = rectangle_integral(c_mpq, lambda x: x ** 3)
        assert abs(got) < 1e-10

    def test_constant(self, c_mpq):
        got = rectangle_integral(c_mpq, lambda x: np.ones_like(x))
        assert abs(got) < 1e-12

    def test_second_order_pole(self, c_mpq):
        c = _mid(c_mpq)
        got = rectangle_integral(c_mpq, lambda x: 1.0 / (x - c) ** 2)
        assert abs(got) < 1e-9

    def test_refinement_is_cauchy(self, c_mpq):
        c = _mid(c_mpq)
        vals = []
        for lvl in range(NODE_LEVELS):
            xi, w = c_mpq.nodes(lvl)
            vals.append(complex((w / (xi - c)).sum()))
        gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestFSigma:
    def test_constant_f_counts_winding(self, mp_quarter, mp_four):
        # F(sigma; f=1) is the winding number of 1 + sigma*m around 0: equal
        # to 1 exactly when -1/sigma falls between the edge boundary values
        # m(L_minus) = -2 and m(L_plus) = -2/3, i.e. sigma in (1/2, 3/2).
        assert abs(f_sigma(mp_quarter, ONE, 0.37)) < 1e-10
        assert abs(f_sigma(mp_quarter, ONE, 1.0) - 1.0) < 1e-10
        # ratio 4: boundary values -x_minus = 1 > 0, so no sign change and
        # no winding for any sigma in (0, 1]
        for s in (0.37, 1.0):
            assert abs(f_sigma(mp_four, ONE, s)) < 1e-10

    def test_linear_f_is_identity(self, mp_quarter, fc_uniform):
        assert abs(f_sigma(mp_quarter, LIN, 1.0) - 1.0) < 1e-6
        for s in (0.6, 0.75, 0.9):
            assert abs(f_sigma(fc_uniform, LIN, s) - s) < 1e-8

    def test_sigma_positive_required(self, mp_quarter):
        with pytest.raises(DomainError):
            f_sigma(mp_quarter, LIN, -0.5)


class TestCltVariance:
    def test_linear_f_closed_form(self, fc_uniform):
        # F(sigma; x) = sigma, so V = ratio * Var(sigma) = 0.5/48 = 1/96
        assert abs(clt_variance(fc_uniform, LIN) - 1.0 / 96.0) < 1e-8

    def test_constant_f_degenerate(self, fc_uniform, mp_four):
        assert clt_variance(fc_uniform, ONE) < 1e-7
        assert clt_variance(mp_four, ONE) < 1e-7

    def test_quadratic_f_closed_form(self, fc_uniform):
        # F(sigma; x^2) = sigma^2 + 2*ratio*E[t]*sigma + const, so with
        # c = 2*0.5*0.75: V = 0.5*Var(sigma^2 + 0.75 sigma) = 1219/23040
        assert abs(clt_variance(fc_uniform, SQ) - 1219.0 / 23040.0) < 1e-10

    def test_contour_invariance(self, fc_uniform):
        e = support_edges(fc_uniform)
        d = min(e.L_minus / 20.0, 0.05)
        half = build_contour(e, d=d / 2.0)
        for f in (SQ, Exponential(0.5)):
            v0 = clt_variance(fc_uniform, f)
            v1 = clt_variance(fc_uniform, f, contour=half)
            assert abs(v0 - v1) < 1e-6

    def test_exponential_regression(self, fc_uniform):
        assert clt_variance(fc_uniform, Exponential(0.5)) == pytest.approx(
            0.008665473155232473, abs=1e-9)

    def test_nonnegative(self, fc_uniform, mp_quarter):
        for fc in (fc_uniform, mp_quarter):
            for f in (ONE, LIN, SQ, Exponential(0.3), RationalShift(-5.0)):
                assert clt_variance(fc, f) >= 0.0


class TestRectangleOracle:
    """The m-plane circle against Stieltjes solves on the rectangle."""

    SIGMAS = (0.37, 0.6, 1.0, 1.5, 3.0)   # the population is the atom at 1

    @pytest.mark.parametrize("f", [ONE, LIN, SQ, Exponential(0.5),
                                   RationalShift(-5.0)])
    def test_f_sigma_mp_quarter(self, mp_quarter, c_mpq, f):
        want = rectangle_f_sigma(mp_quarter, f, self.SIGMAS, c_mpq)
        got = [f_sigma(mp_quarter, f, s, contour=c_mpq) for s in self.SIGMAS]
        assert np.max(np.abs(want.imag)) < 1e-12
        assert np.max(np.abs(np.array(got) - want.real)) < 1e-10

    def test_margin_moves_winding(self, mp_quarter, c_mpq):
        # -1/0.37 lies inside the image of the d = 0.02 rectangle but outside
        # that of the default d = 0.0125 one, and the circle follows suit
        assert abs(f_sigma(mp_quarter, ONE, 0.37, contour=c_mpq) - 1.0) < 1e-10
        assert abs(f_sigma(mp_quarter, ONE, 0.37)) < 1e-10

    @pytest.mark.parametrize("law, ratio", [("uniform:0.5,1", 0.5),
                                            ("linear:0.2,1,1", 2.0)])
    def test_near_edge_pole_variance(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        c = default_contour(fc)
        # 0.05 beyond the bound RationalShift.validate enforces
        f = RationalShift(c.L_plus + 4.0 * c.d + 0.05)
        want = rectangle_clt_variance(fc, f, c)
        got = clt_variance(fc, f, contour=c)
        assert want > 1e-2
        assert abs(got - want) < 1e-10 * want


def _moments(law: str):
    """E[t^k], k = 0..4, by scipy quadrature of the population density."""
    pop = parse_law(law)
    return [sp_integrate.quad(lambda t: t ** k * float(pop.density(t)),
                              pop.lo, pop.hi, epsabs=0.0,
                              epsrel=1e-13)[0] for k in range(5)]


class TestClosedFormsAcrossRatios:
    """F(sigma; x) = sigma and F(sigma; x^2) = sigma^2 + 2 ratio E[t] sigma
    + const hold for every ratio, as do mean(x^2) = ratio E[t^2] +
    ratio^2 E[t]^2 and mean(1) = min(ratio, 1)."""

    CASES = [("uniform:0.5,1", 0.25), ("uniform:0.5,1", 4.0),
             ("linear:0.2,1,1", 2.0)]

    @pytest.mark.parametrize("law, ratio", CASES)
    def test_variances_and_means(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        _, e1, e2, e3, e4 = _moments(law)
        c = 2.0 * ratio * e1
        var_x = e2 - e1 * e1
        var_x2 = (e4 - e2 * e2) + 2.0 * c * (e3 - e2 * e1) + c * c * var_x
        want = {
            "V(x)": ratio * var_x,
            "V(x^2)": ratio * var_x2,
            "mean(x^2)": ratio * e2 + ratio * ratio * e1 * e1,
            "mean(1)": min(ratio, 1.0),
        }
        got = {
            "V(x)": clt_variance(fc, LIN),
            "V(x^2)": clt_variance(fc, SQ),
            "mean(x^2)": mean_statistic(fc, SQ),
            "mean(1)": mean_statistic(fc, ONE),
        }
        for key, value in want.items():
            assert abs(got[key] - value) < 1e-10 * max(1.0, abs(value)), key


class TestMeanStatistic:
    def test_mass_inside(self, mp_quarter):
        assert abs(mean_statistic(mp_quarter, ONE) - 0.25) < 1e-6

    def test_first_moment(self, mp_quarter, fc_uniform):
        assert abs(mean_statistic(mp_quarter, LIN) - 0.25) < 1e-4
        assert abs(mean_statistic(fc_uniform, LIN) - 0.375) < 1e-4

    def test_against_density_quadrature(self, fc_uniform):
        c = default_contour(fc_uniform)
        xs = np.linspace(c.L_minus - c.d, c.L_plus + c.d, 4001)
        rho = density_batch(fc_uniform, xs, warn=False)
        direct = np.trapezoid(rho * xs * xs, xs)
        assert abs(mean_statistic(fc_uniform, SQ) - direct) < 1e-4


class TestDenominatorSafety:
    def test_margin_exceeds_floor(self, mp_quarter, fc_uniform):
        for fc, sigmas in ((mp_quarter, [1.0]), (fc_uniform, [0.5, 1.0])):
            circle = _m_circle(fc, default_contour(fc))
            assert contour._margin(circle, sigmas) > 1e-4

    def test_sigma_on_the_circle_rejected(self, mp_quarter, c_mpq):
        center, radius, _ = _m_circle(mp_quarter, c_mpq)
        sigma = -1.0 / (center + radius)      # -1/sigma = m(c_mpq.right)
        with pytest.raises(NearSingularityError):
            f_sigma(mp_quarter, LIN, sigma, contour=c_mpq)

    def test_unsettled_refinement_raises(self, fc_uniform, monkeypatch):
        monkeypatch.setattr(contour, "MAX_CIRCLE_NODES", contour.CIRCLE_NODES)
        with pytest.raises(ContourError, match="F\\(sigma\\) not settled at 64"):
            clt_variance(fc_uniform, SQ)


class TestMCircle:
    @pytest.mark.parametrize("name", ["mp_quarter", "mp_four", "fc_uniform"])
    def test_crossings_are_real_stieltjes_values(self, request, name):
        fc = request.getfixturevalue(name)
        c = default_contour(fc)
        center, radius, turn = _m_circle(fc, c)
        a, b = center - turn * radius, center + turn * radius
        for got, x in ((a, c.left), (b, c.right)):
            want = stieltjes(fc, x)
            assert want.imag == 0.0
            assert abs(got - want.real) <= 1e-12 * abs(want.real)

    def test_margin_below_the_real_axis_guard(self, fc_uniform):
        # d = 1e-9 puts the crossings inside stieltjes_batch's 1e-6 guard;
        # the circle takes them from the solver directly
        c = build_contour(support_edges(fc_uniform), d=1e-9)
        got = clt_variance(fc_uniform, SQ, contour=c)
        assert abs(got - 1219.0 / 23040.0) < 1e-12


class TestFunctionValidation:
    def test_polynomial_eval(self):
        assert Polynomial((1.0, 2.0, 3.0))(2.0) == pytest.approx(17.0)

    def test_exponential_eval(self):
        assert Exponential(0.5)(2.0) == pytest.approx(np.e)

    def test_rational_shift_pole_inside_rejected(self, c_mpq):
        with pytest.raises(DomainError):
            RationalShift(2.0).validate(c_mpq)
        RationalShift(-5.0).validate(c_mpq)
        RationalShift(c_mpq.L_plus + 4.0 * c_mpq.d + 0.01).validate(c_mpq)

    def test_empty_polynomial_rejected(self):
        with pytest.raises(DomainError):
            Polynomial(())
