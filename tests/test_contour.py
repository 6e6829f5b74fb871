from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemp import contour, freeconv, measures
from freemp.contour import (Exponential, Polynomial, RationalShift,
                            build_contour, clt_variance, default_contour,
                            f_sigma, mean_statistic, _circle)
from freemp.errors import ContourError, DomainError
from freemp.freeconv import (FreeConvolution, density_batch, stieltjes,
                             support_edges)
from freemp.grammar import parse_func, parse_law

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

    @pytest.mark.parametrize("L_plus", [0.4, 0.5])
    def test_edges_out_of_order_rejected(self, L_plus):
        with pytest.raises(DomainError,
                           match=rf"bad edge interval \[0.5, {L_plus}\]"):
            contour.RectContour(0.01, 0.5, L_plus)

    def test_thin_default_rebuilt_equal(self, fc_uniform):
        # L_minus ~ 0.06 forces a sliver rectangle, rebuilt from the
        # cached edges on every call
        c = default_contour(fc_uniform)
        assert c.d < 0.004
        assert default_contour(fc_uniform) == c

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
        # every rate artifact: the top side from right to left, the bottom
        # side its mirror, the vertical sides at heights h s
        c = default_contour(mp_quarter)
        s, w = measures._leggauss(128)
        h = 2.0 * c.d
        left, right = c.L_minus - h, c.L_plus + h
        top = right + (left - right) * 0.5 * (s + 1.0)
        y = h * s
        want_xi = np.concatenate([top[::-1] - 1j * h, right + 1j * y,
                                  top + 1j * h, left - 1j * y])
        cs = (complex(left, -h), complex(right, -h), complex(right, h),
              complex(left, h))
        want_w = np.concatenate([w * ((b - a) * 0.5)
                                 for a, b in zip(cs, cs[1:] + cs[:1])])
        xi, wts = c.nodes(0)
        assert np.array_equal(xi, want_xi)
        assert np.array_equal(wts, want_w)

    # every level comes in exact conjugate pairs: each side's nodes
    # reversed are the conjugates of its mirror side's, and the weights at
    # mirrored nodes are minus each other's conjugates
    @pytest.mark.parametrize("level", range(NODE_LEVELS))
    def test_nodes_are_conjugate_pairs(self, c_mpq, fc_uniform, level):
        for c in (c_mpq, default_contour(fc_uniform)):
            xi, w = c.nodes(level)
            pts, wts = xi.reshape(4, -1), w.reshape(4, -1)
            # bottom 0 and top 2 mirror each other; right 1 and left 3
            # each mirror themselves
            for i, j in ((0, 2), (1, 1), (3, 3)):
                assert np.array_equal(pts[i], np.conj(pts[j][::-1]))
                assert np.array_equal(wts[i], -np.conj(wts[j][::-1]))
            assert np.all(pts[2].imag > 0.0) and np.all(pts[0].imag < 0.0)
            assert not np.any(xi.imag == 0.0)


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
    def test_constant_f_counts_winding(self, mp_quarter, mp_four,
                                       fc_uniform):
        # F(sigma; f=1) is the winding number of 1 + sigma*m around 0 along
        # the support: 1 for sigma on the population's support where ratio
        # < 1 (the point mass at 0 lies outside), 0 where ratio > 1
        assert abs(f_sigma(mp_quarter, ONE, 1.0) - 1.0) < 1e-10
        assert abs(f_sigma(mp_four, ONE, 1.0)) < 1e-10
        for s in (0.5, 0.75, 1.0):
            assert abs(f_sigma(fc_uniform, ONE, s) - 1.0) < 1e-10

    def test_linear_f_is_identity(self, mp_quarter, fc_uniform):
        assert abs(f_sigma(mp_quarter, LIN, 1.0) - 1.0) < 1e-6
        for s in (0.6, 0.75, 0.9):
            assert abs(f_sigma(fc_uniform, LIN, s) - s) < 1e-8

    def test_sigma_positive_required(self, mp_quarter):
        with pytest.raises(DomainError):
            f_sigma(mp_quarter, LIN, -0.5)

    # off the support F would depend on the contour, so it is refused
    @pytest.mark.parametrize("sigma", [0.37, 0.5 - 1e-12, 1.0 + 1e-12, 3.0,
                                       float("nan")])
    def test_sigma_outside_the_law_rejected(self, fc_uniform, sigma):
        with pytest.raises(DomainError, match=r"outside the population's "
                                              r"support \[0.5, 1.0\]"):
            f_sigma(fc_uniform, LIN, sigma)


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

    def test_contour_invariance(self, fc_uniform, monkeypatch):
        # the circle's radius rho against rho/2
        funcs = (SQ, Exponential(0.5), RationalShift(-1.0))
        v0 = [clt_variance(fc_uniform, f) for f in funcs]
        monkeypatch.setattr(contour, "RADIUS_FRACTION",
                            contour.RADIUS_FRACTION / 2.0)
        v1 = [clt_variance(fc_uniform, f) for f in funcs]
        assert np.max(np.abs(np.subtract(v0, v1))) < 1e-12

    def test_exponential_regression(self, fc_uniform):
        assert clt_variance(fc_uniform, Exponential(0.5)) == pytest.approx(
            0.008665473155232473, abs=1e-9)

    # F(sigma; x^2) = sigma^2 + 2 ratio E[t] sigma varies by about 1e-5
    # over a law of width 1e-5, so E[F^2] - (E F)^2 would cancel about 10
    # of its 16 digits; the exact V is a rational in the law's ends
    @pytest.mark.parametrize("ratio", [0.5, 10.0])
    def test_narrow_law_quadratic_f(self, ratio):
        a, b = Fraction(0.5), Fraction(0.50001)
        r = Fraction(ratio)
        moment = [(b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
                  for k in range(5)]
        c = 2 * r * moment[1]
        mean = moment[2] + c * moment[1]
        second = moment[4] + 2 * c * moment[3] + c * c * moment[2]
        want = float(r * (second - mean * mean))
        fc = FreeConvolution(parse_law("uniform:0.5,0.50001"), ratio)
        assert abs(clt_variance(fc, SQ) - want) <= 1e-10 * want

    def test_nonnegative(self, fc_uniform, mp_quarter):
        for fc in (fc_uniform, mp_quarter):
            for f in (ONE, LIN, SQ, Exponential(0.3), RationalShift(-5.0)):
                assert clt_variance(fc, f) >= 0.0


class TestRectangleOracle:
    """The m-plane circle against Stieltjes solves on the rectangle, for
    sigma on the population's support, where F does not depend on the
    contour."""

    FUNCS = [ONE, LIN, SQ, Exponential(0.5), RationalShift(-5.0)]

    @pytest.mark.parametrize("f", FUNCS)
    def test_f_sigma_mp_quarter(self, mp_quarter, c_mpq, f):
        want = rectangle_f_sigma(mp_quarter, f, [1.0], c_mpq)
        assert abs(want[0].imag) < 1e-12
        assert abs(f_sigma(mp_quarter, f, 1.0) - want[0].real) < 1e-10

    @pytest.mark.parametrize("f", FUNCS)
    def test_f_sigma_uniform(self, fc_uniform, f):
        sigmas = (0.5, 0.75, 1.0)
        want = rectangle_f_sigma(fc_uniform, f, sigmas,
                                 default_contour(fc_uniform))
        got = [f_sigma(fc_uniform, f, s) for s in sigmas]
        assert np.max(np.abs(want.imag)) < 1e-12
        assert np.max(np.abs(np.array(got) - want.real)) < 1e-10

    @pytest.mark.parametrize("law, ratio", [("uniform:0.5,1", 0.5),
                                            ("linear:0.2,1,1", 2.0)])
    def test_near_edge_pole_variance(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        c = default_contour(fc)
        # 0.05 beyond the rectangle's right side and its reach 2d
        f = RationalShift(c.L_plus + 4.0 * c.d + 0.05)
        want = rectangle_clt_variance(fc, f, c)
        got = clt_variance(fc, f, contour=c)
        assert want > 1e-2
        assert abs(got - want) < 1e-10 * want

    # a pole in the gap (0, L_minus) lies inside the circle's z-image and
    # outside the rectangle; its residue takes F back to the support
    @pytest.mark.parametrize("law, ratio", [("uniform:0.5,1", 0.5),
                                            ("linear:0.2,1,1", 2.0),
                                            ("dirac:1", 0.25)])
    def test_gap_pole(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        c = default_contour(fc)
        f = RationalShift(0.5 * c.L_minus)
        sigmas = np.unique([fc.base.lo, fc.base.hi])
        want = rectangle_f_sigma(fc, f, sigmas, c)
        got = [f_sigma(fc, f, s) for s in sigmas]
        assert np.max(np.abs(np.array(got) - want.real)) < 1e-10
        want_v = rectangle_clt_variance(fc, f, c)
        assert abs(clt_variance(fc, f) - want_v) <= 1e-10 * max(want_v, 1.0)
        # int rho(x)/(x - p) dx is m(p) less the point mass's (1 - r)^+/(0 - p)
        p = f.pole
        want_mean = stieltjes(fc, p).real + max(0.0, 1.0 - ratio) / p
        assert abs(mean_statistic(fc, f) - want_mean) <= 1e-10 * want_mean


class TestLargeF:
    """The realness check is relative to |Re| where |Re| > 1: exp:s on
    uniform:0.5,1 at ratio 1/2 has F(sigma) near 1e20 at s = 20, where the
    trapezoid's |Im| of order 1e3 is rounding."""

    @pytest.mark.parametrize("scale", [10.0, 20.0, 30.0])
    def test_matches_rectangle_oracle(self, fc_uniform, scale):
        f = Exponential(scale)
        c = default_contour(fc_uniform)
        want = rectangle_clt_variance(fc_uniform, f, c)
        assert abs(clt_variance(fc_uniform, f) - want) <= 1e-12 * want

    def test_complex_valued_f_rejected(self, fc_uniform):
        class ImaginaryLine(contour.TestFunction):
            def __call__(self, x):
                return 1j * np.asarray(x)

        with pytest.raises(ContourError, match="came out non-real"):
            clt_variance(fc_uniform, ImaginaryLine())


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
    # x_plus < 1/hi, so for sigma in [lo, hi] the integrand's pole -1/sigma
    # stays outside the circle and |1 + sigma m| >= 1 - sigma rho on it
    def test_margin_exceeds_floor(self, mp_quarter, mp_four, fc_uniform):
        for fc in (mp_quarter, mp_four, fc_uniform):
            rho, _ = _circle(fc, SQ)
            assert 1.0 - fc.base.hi * rho >= 1.0 - contour.RADIUS_FRACTION

    def test_sigma_on_the_circle_rejected(self, mp_quarter):
        rho, _ = _circle(mp_quarter, LIN)
        with pytest.raises(DomainError, match="outside the population's"):
            f_sigma(mp_quarter, LIN, 1.0 / rho)     # -1/sigma = -rho

    def test_unsettled_refinement_raises(self, fc_uniform, monkeypatch):
        monkeypatch.setattr(contour, "MAX_CIRCLE_NODES", contour.CIRCLE_NODES)
        with pytest.raises(ContourError, match="F\\(sigma\\) not settled at 64"):
            clt_variance(fc_uniform, SQ)


class TestMCircle:
    # the circle's real crossings +-rho are the real Stieltjes values of
    # their images z(+-rho): the circle stays inside the edge roots, where
    # z inverts m
    @pytest.mark.parametrize("name", ["mp_quarter", "mp_four", "fc_uniform"])
    def test_crossings_are_real_stieltjes_values(self, request, name):
        fc = request.getfixturevalue(name)
        rho, _ = _circle(fc, SQ)
        m = np.array([-rho, rho])
        for x, want in zip(-1.0 / m + fc.ratio * fc.base.transforms(m)[0],
                           m):
            got = stieltjes(fc, x)
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-12 * rho

    # the variance and the mean evaluate the law's transforms on one
    # circle |m| = rho around 0
    def test_functionals_share_one_circle(self, monkeypatch):
        fc = FreeConvolution(parse_law("uniform:0.5,1"), 0.5)
        rho, _ = _circle(fc, SQ)         # the edge search runs here
        seen = []
        transforms = measures.PopulationLaw.transforms

        def spy(law, m):
            seen.append(np.abs(m))
            return transforms(law, m)

        monkeypatch.setattr(measures.PopulationLaw, "transforms", spy)
        mean_statistic(fc, SQ)
        clt_variance(fc, SQ)
        radii = np.concatenate(seen)
        assert np.max(np.abs(radii - rho)) <= 1e-15

    def test_margin_below_the_real_axis_guard(self, fc_uniform):
        # the contour keyword is accepted and ignored: a d = 1e-9 rectangle,
        # inside stieltjes_batch's 1e-6 guard, changes nothing
        c = build_contour(support_edges(fc_uniform), d=1e-9)
        got = clt_variance(fc_uniform, SQ, contour=c)
        assert got == clt_variance(fc_uniform, SQ)
        assert abs(got - 1219.0 / 23040.0) < 1e-12


class TestFunctionValidation:
    def test_polynomial_eval(self):
        assert Polynomial((1.0, 2.0, 3.0))(2.0) == pytest.approx(17.0)

    def test_exponential_eval(self):
        assert Exponential(0.5)(2.0) == pytest.approx(np.e)

    # mp_quarter's support is [0.25, 2.25] with the point mass 0.75 at 0
    def test_rational_shift_pole_inside_rejected(self, mp_quarter):
        for pole, why in ((2.0, "within 1e-06 of the support"),
                          (2.25 + 1e-7, "within 1e-06 of the support"),
                          (0.0, "undefined at z = 0")):
            f = RationalShift(pole)
            for functional in (clt_variance, mean_statistic):
                with pytest.raises(DomainError,
                                   match=rf"pole {pole!r} of f .*{why}"):
                    functional(mp_quarter, f)

    def test_empty_polynomial_rejected(self):
        with pytest.raises(DomainError):
            Polynomial(())


def _exact_moments(law: str):
    """E[t^k], k = 0..4, as Fractions of the law's float parameters: a
    narrow law's variance survives the subtraction of its moments."""
    head, _, tail = law.partition(":")
    args = [Fraction(float(tok)) for tok in tail.split(",")]
    if head == "dirac":
        return [args[0] ** k for k in range(5)]
    lo, hi = args[0], args[1]
    slope = args[2] if head == "linear" else Fraction(0)
    width = hi - lo
    a0 = 1 / width - slope * width / 2 - slope * lo   # density a0 + slope t
    return [a0 * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
            + slope * (hi ** (k + 2) - lo ** (k + 2)) / (k + 2)
            for k in range(5)]


class TestValiditySweep:
    """Every law x ratio x f case of the grid succeeds with a finite V and
    mean, and x and x^2 match their closed forms V(x) = r Var t, V(x^2) =
    r Var(t^2 + 2 r E[t] t), mean(x^2) = r E[t^2] + r^2 E[t]^2 and
    mean(1) = min(r, 1) within 1e-10 relative.  The grid reaches wide laws,
    narrow ones, point masses and ratios next to 1 on both sides."""

    LAWS = ["uniform:1e-6,1", "uniform:0.001,1", "uniform:0.003,1",
            "uniform:0.01,1", "uniform:0.1,1", "uniform:0.5,1",
            "uniform:0.9,1", "uniform:0.99,1", "uniform:0.5,0.50001",
            "linear:0.2,1,-1", "linear:0.2,1,1", "dirac:1", "dirac:0.01"]
    RATIOS = [0.01, 0.1, 0.5, 0.9, 0.97, 0.99, 0.999, 1.001, 1.01, 1.03,
              1.1, 2.0, 10.0, 100.0]
    FUNCS = ["poly:0,1", "poly:0,0,1", "exp:0.5", "ratshift:-1"]

    @pytest.mark.parametrize("law", LAWS)
    def test_grid(self, law):
        e = _exact_moments(law)
        for ratio in self.RATIOS:
            fc = FreeConvolution(parse_law(law), ratio)
            r = Fraction(ratio)
            c = 2 * r * e[1]
            want = {
                ("poly:0,1", "V"): r * (e[2] - e[1] ** 2),
                ("poly:0,0,1", "V"): r * (e[4] + 2 * c * e[3] + c * c * e[2]
                                          - (e[2] + c * e[1]) ** 2),
                ("poly:0,0,1", "mean"): r * e[2] + r * r * e[1] ** 2,
            }
            for spec in self.FUNCS:
                f = parse_func(spec)
                got = {"V": clt_variance(fc, f), "mean": mean_statistic(fc, f)}
                for key, value in got.items():
                    assert np.isfinite(value), (law, ratio, spec, key)
                    exact = want.get((spec, key))
                    if exact is not None:
                        assert abs(value - float(exact)) <= 1e-10 * float(
                            exact), (law, ratio, spec, key, value)
            mass = mean_statistic(fc, ONE)
            assert abs(mass - min(ratio, 1.0)) <= 1e-10 * min(ratio, 1.0)

    # the density's continuation accepts its steps on the way down at a
    # residual of 0.1 Im zeta; on 40 interior points of every law x ratio
    # case it lands without a stall or a ConvergenceError, and every m
    # meets the solver's tolerance
    @pytest.mark.parametrize("law", LAWS)
    def test_density_grid_lands(self, law):
        for ratio in self.RATIOS:
            fc = FreeConvolution(parse_law(law), ratio)
            e = support_edges(fc)
            x = np.linspace(e.L_minus, e.L_plus, 42)[1:-1]
            laws, ratios = freeconv._rows((fc,))
            m = freeconv._solve(laws, ratios, x.astype(complex))[0]
            row = np.zeros(x.size, np.intp)
            res = np.abs(freeconv._phi(laws, ratios, row, m, x)[0])
            assert np.all(res <= freeconv.RESIDUAL_TOL
                          * np.maximum(1.0, np.abs(x))), (law, ratio)
            assert np.array_equal(density_batch(fc, x),
                                  np.abs(m.imag) / np.pi), (law, ratio)

    @pytest.mark.parametrize("law, ratio", [
        ("uniform:0.5,1", 0.5), ("uniform:0.1,1", 0.1),
        ("linear:0.2,1,-1", 2.0), ("uniform:0.9,1", 10.0)])
    def test_against_rectangle_oracle(self, law, ratio):
        fc = FreeConvolution(parse_law(law), ratio)
        c = default_contour(fc)
        for spec in ("exp:0.5", "ratshift:-1"):
            f = parse_func(spec)
            want = rectangle_clt_variance(fc, f, c)
            assert abs(clt_variance(fc, f) - want) <= 1e-10 * want, spec
