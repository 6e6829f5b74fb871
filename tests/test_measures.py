import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from freemp import measures
from freemp.contour import RADIUS_FRACTION
from freemp.errors import DomainError
from freemp.freeconv import FreeConvolution, stieltjes_batch, support_edges
from freemp.grammar import format_func, format_law, parse_func, parse_law
from freemp.measures import (_CHUNK_ELEMS, CHEB_RHO_MIN, MASS_TOL,
                             RULE_NODES, SUPPORT_MIN, AtomicLaw, LawStack,
                             LinearLaw, _cheb_table, _focal_sum, _pole_is_far,
                             _rule_sums, empirical_measure, sample_population)

from oracles import DensityLaw, integrate, quad_transforms


class TestAtomicLaw:
    @pytest.mark.parametrize("locs, weights", [
        ([], []), ([0.5, 0.7], [1.0]), ([[0.5]], [[1.0]]),
        ([0.7, 0.5], [0.5, 0.5]), ([0.5, 0.5], [0.5, 0.5]),
        ([0.0], [1.0]), ([-1.0], [1.0]), ([1.5], [1.0]),
        ([np.nan], [1.0]), ([0.2, np.nan, 0.9], [0.25, 0.5, 0.25]),
        ([0.5, 0.7], [1.0, 0.0]), ([0.5, 0.7], [1.5, -0.5]),
        ([0.5, 0.7], [np.nan, 1.0])],
        ids=["empty", "shape", "2d", "unsorted", "duplicate", "zero",
             "negative", "above-one", "nan", "inner-nan", "zero-weight",
             "negative-weight", "nan-weight"])
    def test_constructor_rejects(self, locs, weights):
        with pytest.raises(DomainError):
            AtomicLaw(locs, weights)

    def test_mass_must_be_one(self):
        for off in (-0.25, 2 * MASS_TOL, -2 * MASS_TOL):
            with pytest.raises(DomainError, match="sum to"):
                AtomicLaw([0.5, 1.0], [0.5, 0.5 + off])
        law = AtomicLaw([1.0], [1.0 + 0.5 * MASS_TOL])
        assert law.weights.tolist() == [1.0 + 0.5 * MASS_TOL]

    def test_rule_is_its_atoms(self):
        law = AtomicLaw([0.2, 0.9], [0.75, 0.25])
        assert law.lo == 0.2 and law.hi == 0.9
        for n in (1, 32, 256):
            t, w = law.quad_rule(n)
            assert t.tolist() == [0.2, 0.9] and w.tolist() == [0.75, 0.25]
            t, w = parse_law("dirac:0.7").quad_rule(n)
            assert t.tolist() == [0.7] and w.tolist() == [1.0]

    def test_quantile_steps_at_cumulative_weights(self):
        law = AtomicLaw([0.2, 0.5, 0.9], [0.25, 0.5, 0.25])
        u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25,
                      np.nextafter(0.75, 0.0), 0.75, np.nextafter(1.0, 0.0),
                      1.0])
        assert law.quantile(u).tolist() == [0.2, 0.2, 0.5, 0.5, 0.9, 0.9,
                                            0.9]

    def test_two_atom_draw_frequencies(self, rng):
        law = AtomicLaw([0.25, 1.0], [0.25, 0.75])
        m = 100_000
        draws = sample_population(law, m, rng)
        assert set(np.unique(draws).tolist()) == {0.25, 1.0}
        se = np.sqrt(0.25 * 0.75 / m)
        assert abs(np.mean(draws == 0.25) - 0.25) < 3.0 * se

    # a one-atom law draws the constant and consumes exactly m uniforms,
    # so seeded dirac:c runs keep their generator streams
    def test_one_atom_draws_are_the_atom(self):
        m = 257
        rng = np.random.default_rng(3)
        draws = sample_population(parse_law("dirac:0.7"), m, rng)
        assert np.array_equal(draws, np.full(m, 0.7))
        ref = np.random.default_rng(3)
        ref.random(m)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_atom_law_parsed_twice_compares_equal(self):
        assert parse_law("dirac:0.7") == parse_law("dirac:0.7")
        assert parse_law("dirac:0.7") == AtomicLaw([0.7], [1.0])
        assert parse_law("dirac:0.7") != parse_law("dirac:0.8")
        assert parse_law("dirac:1") != LinearLaw(0.5, 1.0)

    def test_format_law_round_trip(self):
        assert format_law(parse_law("dirac:0.7")) == "dirac:0.7"
        assert format_law(parse_law("dirac:1")) == "dirac:1.0"
        assert format_func(parse_func("ratshift:-0.5")) == "ratshift:-0.5"
        with pytest.raises(DomainError, match="no spec form"):
            format_law(AtomicLaw([0.2, 0.9], [0.75, 0.25]))


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


class TestPopulationLaws:
    # uniform:a,b is the slope-0 LinearLaw; its quantile and density are
    # the uniform expressions bit for bit, so seeded draws and rules keep
    # their bytes
    def test_uniform_quantile_roundtrip(self, uniform_half):
        u = np.linspace(0.0, 1.0, 101)
        t = uniform_half.quantile(u)
        cdf = (t - 0.5) / 0.5
        assert np.max(np.abs(cdf - u)) < 1e-14
        u = np.random.default_rng(5).random(1000)
        for lo, hi in ((0.3, 0.7), (0.05, 1.0), (0.9, 1.0), (0.5, 1.0)):
            law = parse_law(f"uniform:{lo},{hi}")
            assert law == LinearLaw(lo, hi, 0.0)
            assert np.array_equal(law.quantile(u), lo + (hi - lo) * u)
            assert np.array_equal(law.density(law.quantile(u)),
                                  np.full(u.size, 1.0 / (hi - lo)))

    def test_slope_zero_formats_as_uniform(self):
        law = parse_law("linear:0.5,1,0")
        assert law == parse_law("uniform:0.5,1")
        assert format_law(law) == "uniform:0.5,1.0"
        for spec in ("uniform:0.3,0.7", "linear:0.2,1.0,1.0"):
            assert format_law(parse_law(spec)) == spec
            assert parse_law(format_law(parse_law(spec))) == parse_law(spec)

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

    # the nodes are the explicit Gauss-Legendre mapping, bit for bit; the
    # weights take the density at the exact nodes, which for slope 0 is the
    # density at the rounded ones, bit for bit
    @pytest.mark.parametrize("law, n", [
        (LinearLaw(0.5, 1.0), 256), (LinearLaw(0.2, 1.0, 1.0), 512)],
        ids=["uniform", "linear"])
    def test_quad_rule_is_mapped_gauss_legendre(self, law, n):
        x, w = measures._leggauss(n)
        a, b = law.lo, law.hi
        t_ref = 0.5 * (b - a) * x + 0.5 * (b + a)
        t, w_eff = law.quad_rule(n)
        assert np.array_equal(t, t_ref)
        w_ref = 0.5 * (b - a) * w * law.density(t_ref)
        if law.slope == 0.0:
            assert np.array_equal(w_eff, w_ref)
        assert np.allclose(w_eff, w_ref, rtol=1e-14, atol=0.0)

    # a law of small spread and a slope near its limit 2/width^2: the
    # density at the rounded nodes would miss the mass by about
    # slope width eps, 5.5e-11 at width 1e-6 and half the limit
    @pytest.mark.parametrize("width", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("slope_frac", [0.99, -0.99])
    def test_steep_narrow_rule_keeps_mass(self, width, slope_frac):
        law = LinearLaw(0.5, 0.5 + width, slope_frac * 2.0 / width ** 2)
        t, w = law.quad_rule(RULE_NODES)
        lo, hi = np.longdouble(law.lo), np.longdouble(law.hi)
        mean = 0.5 * (lo + hi) + law.slope * (hi - lo) ** 3 / 12.0
        assert abs(w.sum() - 1.0) <= 4e-16
        assert abs(np.sum(w.astype(np.longdouble) * t) - mean) <= 1e-15

    @pytest.mark.parametrize("law", [
        LinearLaw(0.5, 1.0), LinearLaw(0.2, 1.0, 1.0), AtomicLaw([0.7], [1.0])],
        ids=["uniform", "linear", "point"])
    def test_law_is_its_own_measure(self, law):
        assert law.as_measure() is law

    def test_support_bounds_validated(self):
        with pytest.raises(DomainError):
            LinearLaw(0.0, 1.0)
        with pytest.raises(DomainError):
            LinearLaw(0.5, 1.2)


def mp_legendre_roots(n: int, x0: np.ndarray):
    """The positive roots of P_n and their Gauss weights to 40 digits: one
    Newton pass on the recurrence from the double roots x0 > 0, whose
    error squares to below 1e-30, then P_n' at the result."""
    mpmath = pytest.importorskip("mpmath")
    roots, weights = [], []
    with mpmath.workdps(40):
        for start in x0:
            x = mpmath.mpf(float(start))
            for newton in (True, False):
                p0, p1 = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (p0 - x * p1) / ((1 - x) * (1 + x))
                if newton:
                    x -= p1 / dp
            roots.append(x)
            weights.append(2 / ((1 - x) * (1 + x) * dp * dp))
    return roots, weights


class TestGaussLegendre:
    ORDERS = (32, 128, 256, 512)

    # numpy's leggauss misses the weight bound from n = 128 on (1.4e-11
    # at 128, 1.1e-10 at 512) and the node bound at 512 (5 ulp)
    @pytest.mark.parametrize("n", ORDERS)
    def test_against_40_digit_reference(self, n):
        x, w = measures._leggauss(n)
        roots, weights = mp_legendre_roots(n, x[n // 2:])
        ulp = np.spacing(x[n // 2:])
        node_err = [abs(float(r - float(a))) / u
                    for a, r, u in zip(x[n // 2:], roots, ulp)]
        weight_err = [abs(float((float(a) - b) / b))
                      for a, b in zip(w[n // 2:], weights)]
        assert max(node_err) <= 2.0
        assert max(weight_err) <= 1e-12

    # the even moments of [-1, 1], exact for the rule up to x^(2n - 2)
    @pytest.mark.parametrize("n", ORDERS)
    def test_symmetric_and_exact_on_even_powers(self, n):
        x, w = measures._leggauss(n)
        assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        for k in range(n):
            assert abs((w * x ** (2 * k)).sum() - 2.0 / (2 * k + 1)) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1, 33])
    def test_odd_or_empty_order_refused(self, n):
        with pytest.raises(DomainError, match=f"order {n} must be even"):
            measures._leggauss.__wrapped__(n)


def ellipse_points(lo: float, hi: float, rho: float, k: int = 48):
    """The m whose poles -1/m lie on the Bernstein ellipse E_rho of
    [lo, hi], k points around it, none on the real axis."""
    w = rho * np.exp(2j * np.pi * (np.arange(k) + 0.25) / k)
    return -1.0 / (0.5 * (lo + hi) + 0.25 * (hi - lo) * (w + 1.0 / w))


def is_far(law, m: np.ndarray) -> np.ndarray:
    """Where law.transforms sums m over the law's fixed rule: nowhere for a
    law with no rule."""
    if law._reach is None:
        return np.zeros(m.shape, dtype=bool)
    return _pole_is_far(law.lo, law.hi, m,
                        _focal_sum(law.lo, law.hi, law._reach))


def transform_points(law) -> np.ndarray:
    """m = 0; real m whose poles sit on both sides of the ellipse of the
    law's reach where it crosses the real axis; real m next to the poles
    -1/hi and -1/lo and beyond -1/lo; off-axis m next to the poles; and m
    whose poles go around ellipses just inside and outside the reach, near
    the support and far from it."""
    lo, hi, reach = law.lo, law.hi, law._reach
    c = 0.5 * (lo + hi)
    a = 0.25 * (hi - lo) * (reach + 1.0 / reach)
    real = [0.0, 0.1 / hi, 5.0 / hi, 40.0, -(1.0 - 1e-3) / hi,
            -(1.0 + 1e-3) / lo, -2.0 / lo]
    real += [-1.0 / (c + f * side * a) for side in (1.0, -1.0)
             for f in (0.98, 0.999, 1.001, 1.02)]
    poles = [-(1.0 + 1e-2j) / hi, -(1.0 - 1e-2j) / lo,
             -(1.0 + 0.1j) / (0.5 * (lo + hi))]
    rings = [ellipse_points(lo, hi, rho * reach, 12)
             for rho in (0.6, 0.98, 1.02, 2.0, 8.0)]
    return np.concatenate([np.array(real + poles, dtype=complex)] + rings)


class TestLinearLawTransforms:
    # S and T against scipy's quad split at the pole -1/m, within 1e-13
    # relative, on both branches of the law's evaluation
    @pytest.mark.parametrize("lo, hi, slope", [
        (0.5, 1.0, 0.0), (0.2, 1.0, 1.0), (0.05, 1.0, 0.0),
        (0.001, 1.0, -1.5), (0.3, 0.7, 5.0)])
    def test_against_quad(self, lo, hi, slope):
        law = LinearLaw(lo, hi, slope)
        p = lambda t: 1.0 / (hi - lo) + slope * (t - 0.5 * (lo + hi))
        m = transform_points(law)
        far = is_far(law, m)
        assert far.any() and not far.all()
        S, T = law.transforms(m)
        for k, mk in enumerate(m):
            s_ref, t_ref = quad_transforms(p, lo, hi, mk)
            assert abs(S[k] - s_ref) <= 1e-13 * abs(s_ref), mk
            assert abs(T[k] - t_ref) <= 1e-13 * abs(t_ref), mk

    # a value does not depend on its neighbours in the batch, which the
    # solver's accept-if-the-residual-drops step relies on
    @pytest.mark.parametrize("lo, hi, slope", [
        (0.5, 1.0, 0.0), (0.05, 1.0, 0.0), (0.2, 1.0, 1.0)])
    def test_batch_bit_identical_to_alone(self, lo, hi, slope, rng):
        law = LinearLaw(lo, hi, slope)
        m = np.concatenate([transform_points(law),
                            rng.normal(size=200) + 1j * rng.normal(size=200)])
        S, T = law.transforms(m)
        for k in range(m.size):
            s1, t1 = law.transforms(m[k:k + 1])
            assert s1[0] == S[k] and t1[0] == T[k]
        # real m, as the edge search passes them, stay in real arithmetic
        on_axis = m.imag == 0.0
        real_s, real_t = law.transforms(m.real[on_axis])
        assert real_s.dtype == float and real_t.dtype == float
        assert np.allclose(real_s, S.real[on_axis], rtol=1e-14, atol=0.0)

    # an AtomicLaw's transforms are the weighted sums over its atoms
    def test_atomic_law_sums_its_atoms(self):
        law = AtomicLaw([0.5, 0.75], [0.25, 0.75])
        m = np.array([0.0, 1.0 + 2.0j, -3.0])
        S, T = law.transforms(m)
        u = np.multiply.outer(m, law.locs) + 1.0
        assert np.allclose(S, (law.weights * law.locs / u).sum(-1),
                           rtol=1e-15, atol=0.0)
        assert np.allclose(T, (law.weights * law.locs ** 2 / u ** 2).sum(-1),
                           rtol=1e-15, atol=0.0)


def random_atomic_law(atoms: int, seed: int) -> AtomicLaw:
    """atoms distinct atoms on [0.05, 1] with unequal weights, two of them
    at 0.25 and 0.5, where m = -(1 +- d)/t gives 1 + m t exactly."""
    rng = np.random.default_rng(seed)
    locs = np.unique(np.concatenate([rng.uniform(0.05, 1.0, atoms - 2),
                                     [0.25, 0.5]]))
    weights = rng.uniform(0.5, 1.5, locs.size)
    return AtomicLaw(locs, weights / weights.sum())


def longdouble_sums(t, w, m):
    """S and T of the division form w t/(1+mt), w t^2/(1+mt)^2 in long
    double."""
    t, w = t.astype(np.longdouble), w.astype(np.longdouble)
    u = 1.0 + np.multiply.outer(np.asarray(m, dtype=np.clongdouble), t)
    return (w * t / u).sum(-1), (w * t * t / (u * u)).sum(-1)


class TestAtomicLawTransforms:
    # a value does not depend on its neighbours in the batch, across the
    # chunks of the atom sums too
    @pytest.mark.parametrize("atoms", [125, 1000])
    def test_batch_bit_identical_to_alone(self, atoms, rng):
        law = random_atomic_law(atoms, atoms)
        step = _CHUNK_ELEMS // law.locs.size
        base = transform_points(law)
        extra = max(2 * step + 3 - base.size, 200)
        m = np.concatenate([base, rng.normal(size=extra)
                            + 1j * rng.normal(size=extra)])
        S, T = law.transforms(m)
        sizes = {1: range(m.size), 2: range(m.size - 1)}
        for size in (step - 1, step, step + 1, 2 * step + 1):
            sizes[size] = (0, 1, step // 2, m.size - size)
        for size, starts in sizes.items():
            for i in starts:
                s, t = law.transforms(m[i:i + size])
                assert np.array_equal(s, S[i:i + size]), (size, i)
                assert np.array_equal(t, T[i:i + size]), (size, i)
        # real m, as the edge search passes them, stay in real arithmetic
        real = m.real[m.imag == 0.0]
        real_s, real_t = law.transforms(real)
        assert real_s.dtype == float and real_t.dtype == float
        for k in range(real.size):
            s, t = law.transforms(real[k:k + 1])
            assert s[0] == real_s[k] and t[0] == real_t[k]

    # one chunk buffer serves every chunk of a call, the last one partial
    # at all but the batch of exactly one chunk: each row matches the same
    # m alone, on 500 atoms and on LinearLaw's fixed rule near m = 0
    @pytest.mark.parametrize("rule", ["atoms-500", "linear-near"])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_rule_sums_reused_buffer_per_point(self, rule, kind, rng):
        if rule == "atoms-500":
            t, w = random_atomic_law(500, 11).quad_rule(0)
            scale = 3.0
        else:
            law = LinearLaw(0.2, 1.0, 1.0)
            t, w = law._rule
            assert t.size == RULE_NODES
            scale = 0.375 / law.hi
        step = _CHUNK_ELEMS // t.size
        for size in (step - 1, step, step + 1, 2 * step + 3):
            m = scale * rng.uniform(-1.0, 1.0, size)
            if kind == "complex":
                m = m + 1j * scale * rng.uniform(-1.0, 1.0, size)
            S, T = _rule_sums(t, w, m)
            assert S.dtype == T.dtype == m.dtype
            for k in range(size):
                s, t2 = _rule_sums(t, w, m[k:k + 1])
                assert s[0] == S[k] and t2[0] == T[k], (size, k)

    # numpy multiplies a one-element complex array on another path than a
    # longer one, so squaring r in place broke this for a point mass
    def test_one_atom_batch_bit_identical_to_alone(self, dirac_one, rng):
        m = np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300),
                            rng.normal(size=300)])
        S, T = dirac_one.transforms(m)
        for size in (1, 2, 3):
            for i in range(m.size - size + 1):
                s, t = dirac_one.transforms(m[i:i + size])
                assert np.array_equal(s, S[i:i + size]), (size, i)
                assert np.array_equal(t, T[i:i + size]), (size, i)

    def test_same_bits_at_one_and_two_blas_threads(self, run_at_threads):
        code = ("import numpy as np\n"
                "from freemp.measures import empirical_measure\n"
                "rng = np.random.default_rng(4)\n"
                "law = empirical_measure(rng.uniform(0.05, 1.0, 1000))\n"
                "m = rng.normal(size=512) + 1j * rng.uniform(1e-3, 1.0, 512)\n"
                "S, T = law.transforms(m)\n"
                "print(S.tobytes().hex(), T.tobytes().hex())\n")
        assert run_at_threads(code, 1) == run_at_threads(code, 2)

    # the reciprocal form against the division form in long double: next
    # to the exact poles -1/0.25 and -1/0.5, on the axis and just off it,
    # at m = 0, off the axis outside the poles, and at large |m|
    def test_reciprocal_form_accuracy(self):
        law = random_atomic_law(1000, 3)
        m = [-(1.0 + d) / tj for tj in (0.25, 0.5) for d in (1e-6, -1e-6)]
        m += [-(1.0 + d) / tj + 1j * eta for tj in (0.25, 0.5)
              for d in (0.0, 1e-6) for eta in (1e-6, 1e-9)]
        m += [0.0, 0.7 + 1e-3j, -0.5 + 1e-6j, -3.0 + 1e-3j, 2.0 + 1e-9j,
              1e8, -1e9, 1e8 + 1e8j, -1e10 + 1e3j, 1e12j]
        m = np.array(m, dtype=complex)
        S, T = _rule_sums(law.locs, law.weights, m)
        s_ref, t_ref = longdouble_sums(law.locs, law.weights, m)
        assert np.all(np.abs(S - s_ref) <= 1e-13 * np.abs(s_ref))
        assert np.all(np.abs(T - t_ref) <= 1e-13 * np.abs(t_ref))

    # one chunk of terms at a time: 1000 atoms at 512 points held whole
    # would be an 8 MB array; the bound leaves room for a chunk and einsum's
    # iteration buffers, about 0.8 MB together
    def test_chunked_memory(self):
        law = random_atomic_law(1000, 6)
        m = np.random.default_rng(7).normal(size=512) + 0.5j
        law.transforms(m)
        tracemalloc.start()
        try:
            law.transforms(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20 + 2 * m.nbytes


def two_cluster_law() -> AtomicLaw:
    """600 equal atoms, half on [0.1, 0.2] and half on [0.8, 0.9]."""
    rng = np.random.default_rng(12)
    locs = np.sort(np.concatenate([rng.uniform(0.1, 0.2, 300),
                                   rng.uniform(0.8, 0.9, 300)]))
    return AtomicLaw(locs, np.full(locs.size, 1.0 / locs.size))


class TestCompressedTransforms:
    # the rule integrates every polynomial of degree < RULE_NODES as the
    # atoms do
    def test_rule_reproduces_moments(self):
        law = random_atomic_law(1000, 8)
        tau, W = law._rule
        assert tau.size == W.size == RULE_NODES
        assert tau.min() > law.lo and tau.max() < law.hi
        s = (2.0 * law.locs - law.lo - law.hi) / (law.hi - law.lo)
        x = (2.0 * tau - law.lo - law.hi) / (law.hi - law.lo)
        for k in (0, 1, 2, 7, RULE_NODES // 2, RULE_NODES - 1):
            ref = law.weights @ np.cos(k * np.arccos(s))
            assert abs(W @ np.cos(k * np.arccos(x)) - ref) <= 1e-14, k

    # the cached table T_k(x_j) is the Chebyshev-Vandermonde matrix at the
    # points, and its rows are cos(k theta_j) to the recurrence's rounding
    def test_table_is_the_vandermonde_matrix(self):
        n = RULE_NODES
        x, table = _cheb_table(n)
        assert table.shape == (n, n) and not table.flags.writeable
        theta = np.pi * (np.arange(n) + 0.5) / n
        assert np.array_equal(x, np.cos(theta))
        ref = np.polynomial.chebyshev.chebvander(x, n - 1).T
        assert np.all(np.abs(table - ref) <= 4 * np.spacing(1.0))
        k = np.arange(n)[:, None]
        assert np.all(np.abs(table - np.cos(k * theta)) <= n * 1e-15)
        assert _cheb_table(n) is _cheb_table(n)

    # just outside rho = CHEB_RHO_MIN the compressed rule, just inside the
    # atoms: both within the 1e-13 bound of the long-double sums, from the
    # least law that is compressed, RULE_NODES + 1 atoms, up
    @pytest.mark.parametrize("law", [random_atomic_law(RULE_NODES + 1, 5),
                                     random_atomic_law(2 * RULE_NODES, 5),
                                     random_atomic_law(1000, 5),
                                     two_cluster_law()],
                             ids=[f"atoms-{RULE_NODES + 1}",
                                  f"atoms-{2 * RULE_NODES}", "atoms-1000",
                                  "two-cluster"])
    def test_accuracy_on_both_sides_of_the_threshold(self, law):
        assert law._rule[0].size == RULE_NODES < law.locs.size
        for rho, far in ((CHEB_RHO_MIN * (1.0 + 1e-6), True),
                         (CHEB_RHO_MIN * (1.0 - 1e-6), False),
                         (1.2 * CHEB_RHO_MIN, True), (1.05, False)):
            m = ellipse_points(law.lo, law.hi, rho)
            assert np.all(is_far(law, m) == far), rho
            S, T = law.transforms(m)
            s_ref, t_ref = longdouble_sums(law.locs, law.weights, m)
            assert np.all(np.abs(S - s_ref) <= 1e-13 * np.abs(s_ref)), rho
            assert np.all(np.abs(T - t_ref) <= 1e-13 * np.abs(t_ref)), rho

    # poles in the gap of the two clusters lie inside [lo, hi]'s ellipse:
    # the exact sums take over there, and match their own kernel bit for bit
    def test_gap_poles_take_the_exact_path(self):
        law = two_cluster_law()
        p = np.linspace(0.25, 0.75, 41)
        m = -1.0 / np.concatenate([p + 1e-3j, p - 0.1j])
        assert not is_far(law, m).any()
        S, T = law.transforms(m)
        s_ref, t_ref = _rule_sums(law.locs, law.weights, m)
        assert np.array_equal(S, s_ref) and np.array_equal(T, t_ref)
        s_ld, t_ld = longdouble_sums(law.locs, law.weights, m)
        assert np.all(np.abs(S - s_ld) <= 1e-13 * np.abs(s_ld))
        assert np.all(np.abs(T - t_ld) <= 1e-13 * np.abs(t_ld))

    # m = 0 is always far; real m stay real on both paths
    def test_zero_and_real_m(self):
        law = random_atomic_law(1000, 9)
        m = np.array([0.0, 0.3, -0.5, 4.0, -(1.0 / law.lo + 5.0), -40.0])
        far = is_far(law, m)
        assert far[0] and far.any() and not far.all()
        S, T = law.transforms(m)
        assert S.dtype == T.dtype == float
        s_ref, t_ref = longdouble_sums(law.locs, law.weights, m)
        assert np.all(np.abs(S - s_ref.real) <= 1e-13 * np.abs(s_ref))
        assert np.all(np.abs(T - t_ref.real) <= 1e-13 * np.abs(t_ref))
        s0, t0 = law.transforms(np.zeros(1))
        assert s0.dtype == float
        assert abs(s0[0] - law.weights @ law.locs) <= 1e-15
        assert abs(t0[0] - law.weights @ law.locs ** 2) <= 1e-15

    # a batch that mixes both paths gives each row the bits of its m alone,
    # across the chunk boundaries of both rules
    def test_mixed_batch_bit_identical_to_alone(self, rng):
        law = random_atomic_law(1000, 10)
        steps = (_CHUNK_ELEMS // RULE_NODES, _CHUNK_ELEMS // law.locs.size)
        size = 2 * steps[0] + 3
        far = law.hi ** -1 * (rng.uniform(0.05, 0.3, size)
                              * np.exp(2j * np.pi * rng.random(size)))
        near = ellipse_points(law.lo, law.hi, 1.5, size)
        m = np.ravel(np.column_stack([far, near]))
        assert is_far(law, m).tolist() == [True, False] * size
        S, T = law.transforms(m)
        for step in steps:
            for n in (1, 2 * step - 1, 2 * step, 2 * step + 1, 4 * step + 3):
                for i in (0, 1, step, m.size - n):
                    s, t = law.transforms(m[i:i + n])
                    assert np.array_equal(s, S[i:i + n]), (n, i)
                    assert np.array_equal(t, T[i:i + n]), (n, i)

    # a law of at most RULE_NODES atoms, dirac:c among them, has no rule:
    # it sums its atoms at every m, m = 0 among them, and builds nothing
    @pytest.mark.parametrize("atoms", [1, RULE_NODES])
    def test_small_laws_sum_their_atoms(self, atoms):
        locs = np.linspace(0.2, 1.0, atoms)
        law = AtomicLaw(locs, np.full(atoms, 1.0 / atoms))
        assert law._reach is None
        m = np.array([0.0, 0.1 + 0.1j, -0.3 + 1e-3j, 2.0])
        S, T = law.transforms(m)
        s_ref, t_ref = _rule_sums(law.locs, law.weights, m)
        assert np.array_equal(S, s_ref) and np.array_equal(T, t_ref)
        assert "_rule" not in vars(law)

    # the rule is built once, from vectors of the atoms: no atoms-by-nodes
    # array, RULE_NODES atom-length vectors, is allocated; the peak stays
    # under 8 of them
    def test_rule_allocates_no_atoms_by_nodes_array(self):
        law = random_atomic_law(1000, 6)
        tracemalloc.start()
        try:
            rule = law._rule
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 < RULE_NODES
        assert peak < 8 * law.locs.nbytes
        assert law._rule is rule


def count_rule_builds(monkeypatch, cls) -> list:
    """Patch cls._rule to record each build of the cached rule."""
    builds, build = [], cls.__dict__["_rule"].func

    def counted(self):
        builds.append(self)
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, "_rule")
    monkeypatch.setattr(cls, "_rule", prop)
    return builds


def log_sums(monkeypatch, cls) -> list:
    """Log "rule" for each _rule_sums call and "exact" for each
    _exact_sums call, in order; an AtomicLaw's exact sums are themselves a
    _rule_sums call over its atoms."""
    log, rule_sums, exact_sums = [], measures._rule_sums, cls._exact_sums

    def rule(t, w, m):
        log.append("rule")
        return rule_sums(t, w, m)

    def exact(self, m):
        log.append("exact")
        return exact_sums(self, m)

    monkeypatch.setattr(measures, "_rule_sums", rule)
    monkeypatch.setattr(cls, "_exact_sums", exact)
    return log


ONE_RULE_LAWS = {
    "uniform": lambda: LinearLaw(0.5, 1.0),
    "linear": lambda: LinearLaw(0.2, 1.0, 1.0),
    "narrow": lambda: LinearLaw(0.5, 0.5 + 1e-8, 1e15),
    "two-atoms": lambda: AtomicLaw([0.2, 0.9], [0.75, 0.25]),
    "atoms-1000": lambda: random_atomic_law(1000, 13)}


class TestOneRuleChoice:
    # PopulationLaw.transforms chooses for every law: the fixed rule where
    # the pole is far, the exact sums elsewhere and on a law with no rule

    @staticmethod
    def batches(law):
        """m = 0 and m whose poles lie beyond the law's reach, or beyond
        CHEB_RHO_MIN for a law with no rule; and m whose poles lie near
        [lo, hi]."""
        reach = CHEB_RHO_MIN if law._reach is None else law._reach
        far = np.concatenate([[0.0], ellipse_points(law.lo, law.hi,
                                                    1.5 * reach, 40)])
        near = ellipse_points(law.lo, law.hi, 1.5, 40)
        assert is_far(law, far).all() == (law._reach is not None)
        assert not is_far(law, near).any()
        return far, near

    # the rule is built on first use and never again, and an empty batch
    # does not build it; a law with no rule never builds it
    @pytest.mark.parametrize("name", ONE_RULE_LAWS)
    def test_rule_built_at_most_once(self, monkeypatch, name):
        law = ONE_RULE_LAWS[name]()
        builds = count_rule_builds(monkeypatch, type(law))
        for empty in (np.empty(0), np.empty(0, complex)):
            s, t = law.transforms(empty)
            assert s.size == t.size == 0
        assert builds == []
        far, near = self.batches(law)
        w = law.hi - law.lo
        real = np.concatenate([[0.0], -1.0 / (np.array([law.lo, law.hi])
                                              + w * np.array([-0.1, 0.1]))])
        for k in range(10):
            law.transforms(far[k:])
            law.transforms(near[k:])
            law.transforms(np.concatenate([far[k:], near[k:]]))
            law.transforms(real)
        assert builds == ([] if law._reach is None else [law])

    # a batch wholly on one side makes one sums call, a mixed batch one of
    # each; on a law with no rule every batch makes one exact call
    @pytest.mark.parametrize("name", ONE_RULE_LAWS)
    def test_one_sided_batch_one_sums_call(self, monkeypatch, name):
        law = ONE_RULE_LAWS[name]()
        far, near = self.batches(law)
        exact = ["exact", "rule"] if isinstance(law, AtomicLaw) else ["exact"]
        rule = exact if law._reach is None else ["rule"]
        log = log_sums(monkeypatch, type(law))
        law.transforms(far)
        assert log == rule
        log.clear()
        law.transforms(near)
        assert log == exact
        log.clear()
        law.transforms(np.concatenate([near, far]))
        assert log == (exact if law._reach is None else ["rule"] + exact)


class TestLawStack:
    # the stack sums each law through its _rule and _exact_sums, so a law
    # that states its S and T by overriding transforms is refused, not
    # silently summed another way
    def test_transforms_override_refused(self):
        law = DensityLaw(0.5, 1.0, lambda t: 2.0 * np.ones_like(t))
        with pytest.raises(TypeError, match="DensityLaw overrides"):
            LawStack((LinearLaw(0.5, 1.0), law))
        with pytest.raises(TypeError, match="DensityLaw overrides"):
            stieltjes_batch(FreeConvolution(law, 0.5), np.array([1.0 + 1j]))

    # each point is summed on its own law, far or near, in a shuffled
    # batch of six laws: three with a rule, stacked on RULE_NODES nodes and
    # each tested against its own reach, and three of at most RULE_NODES
    # atoms, dirac:0.6 among them, which have none and sum their atoms at
    # every point
    def test_points_on_their_own_laws(self, rng):
        laws = (LinearLaw(0.2, 1.0, 1.0), random_atomic_law(500, 1),
                random_atomic_law(300, 2), AtomicLaw([0.3, 0.7], [0.5, 0.5]),
                AtomicLaw([0.6], [1.0]), random_atomic_law(RULE_NODES, 3))
        small = [j for j, law in enumerate(laws) if law._reach is None]
        assert small == [3, 4, 5] and laws[5].locs.size == RULE_NODES
        # dirac:0.6's own ellipses are the point 0.6: its poles go round
        # those of [0.2, 1] instead
        m = np.concatenate([
            ellipse_points(*((law.lo, law.hi) if law.lo < law.hi
                             else (0.2, 1.0)), rho, 20)
            for law in laws for rho in (1.5 * (law._reach or CHEB_RHO_MIN),
                                        1.5)])
        row = np.repeat(np.arange(len(laws)), 40)
        shuffle = rng.permutation(m.size)
        m, row = m[shuffle], row[shuffle]
        S, T = LawStack(laws).transforms(row, m)
        for j, law in enumerate(laws):
            s, t = law.transforms(m[row == j])
            assert np.array_equal(S[row == j], s)
            assert np.array_equal(T[row == j], t)
            if j in small:
                s, t = _rule_sums(law.locs, law.weights, m[row == j])
                assert np.array_equal(S[row == j], s)
                assert np.array_equal(T[row == j], t)

    # a stacked rule's two chunk buffers, the terms and the gathered
    # weights, hold at most _CHUNK_ELEMS terms together, as a lone rule's
    # one buffer does: the stacked sums take no more memory than the lone
    # ones but for the rows' weights in m's type
    def test_stacked_chunks_hold_chunk_elems(self, rng):
        rules = [random_atomic_law(500, seed)._rule for seed in range(4)]
        t, w = (np.stack([r[i] for r in rules]) for i in (0, 1))
        n = 4096
        m = rng.normal(size=n) + 1j * rng.normal(size=n)
        row = rng.integers(0, 4, n)
        tracemalloc.start()
        try:
            _rule_sums(t[0], w[0], m)
            alone = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _rule_sums(t, w, m, row)
            stacked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stacked <= alone + 5 * t.size * 16 + 8192


class TestSupportFloor:
    # below SUPPORT_MIN = 2^-288 the edge brackets' x^3 overflows: such
    # laws are refused at construction, with the bound in the message
    @pytest.mark.parametrize("make", [
        lambda: LinearLaw(1e-200, 2e-200), lambda: LinearLaw(1e-103, 1.0),
        lambda: LinearLaw(0.5 * SUPPORT_MIN, 1.0),
        lambda: AtomicLaw([1e-300], [1.0]),
        lambda: AtomicLaw([1e-300, 0.5], [0.5, 0.5])],
        ids=["tiny-uniform", "tiny-lo", "half-floor", "tiny-dirac",
             "tiny-atom"])
    def test_below_the_floor_refused(self, make):
        with pytest.raises(DomainError, match=f"{SUPPORT_MIN:.4g}, 1]"):
            make()

    # at the floor, next to ratio 1 on both sides the left bracket reaches
    # 2^53/lo = 2^341 and the closed forms run with x^3 near 2^1023: the
    # edges come out finite and ordered, with no floating-point warning
    # (warnings are errors in this suite)
    @pytest.mark.parametrize("law, ratios", [
        (LinearLaw(SUPPORT_MIN, 1.0), (1.0 - 2.0 ** -53, 1.0 + 2.0 ** -51,
                                       100.0)),
        (LinearLaw(SUPPORT_MIN, 1.0, 1.9), (1.0 - 2.0 ** -53,
                                            1.0 + 2.0 ** -51)),
        (LinearLaw(SUPPORT_MIN, 2.0 * SUPPORT_MIN), (0.5, 2.0)),
        (AtomicLaw([SUPPORT_MIN], [1.0]), (0.5, 1.0 + 2.0 ** -51, 100.0))],
        ids=["uniform", "linear", "narrow", "dirac"])
    def test_edges_at_the_floor(self, law, ratios):
        for ratio in ratios:
            e = support_edges(FreeConvolution(law, ratio))
            assert 0.0 < e.L_minus < e.L_plus < np.inf, ratio


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

    # repeated draws of one location pool their weight into a single atom
    def test_empirical_measure_merges_exact_duplicates(self):
        emp = empirical_measure(np.array([0.5] * 8 + [0.7] * 2))
        assert emp.locs.tolist() == [0.5, 0.7]
        assert emp.weights.tolist() == [0.8, 0.2]

    def test_empirical_measure_sorted_by_location(self):
        emp = empirical_measure(np.array([0.9, 0.2, 0.2, 0.2]))
        assert emp.locs.tolist() == [0.2, 0.9]
        assert emp.weights.tolist() == [0.75, 0.25]
        assert emp.lo == 0.2 and emp.hi == 0.9

    # distinct draws: the equal-weight atomic law, bit for bit
    def test_empirical_measure_is_discrete_bit_for_bit(self, uniform_half,
                                                         rng):
        draws = sample_population(uniform_half, 1000, rng)
        ref = AtomicLaw(np.sort(draws), np.full(draws.size, 1.0 / draws.size))
        assert empirical_measure(draws) == ref

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.5, 1.5])
    def test_empirical_measure_rejects_bad_samples(self, bad):
        with pytest.raises(DomainError):
            empirical_measure(np.array([0.5, bad, 0.75]))

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            empirical_measure(np.array([]))

    def test_bad_sample_size(self, uniform_half, rng):
        with pytest.raises(DomainError):
            sample_population(uniform_half, 0, rng)

    # a quantile that leaves the support by more than 1e-12 is refused, not
    # clipped back into it
    @pytest.mark.parametrize("shift", [-0.1, 0.1])
    def test_quantile_leaving_the_support_refused(self, rng, shift):
        class Leaky(LinearLaw):
            def quantile(self, u):
                return super().quantile(u) + shift

        with pytest.raises(DomainError, match="outside the support"):
            sample_population(Leaky(0.5, 1.0), 100, rng)


class TestRealizedLawsAtFiniteM:
    """The population layer against its exact finite-M law.  A realized
    law's S(m) = (1/M) sum_i g_m(sigma_i), g_m(t) = t/(1 + tm), is a mean
    of M iid terms, so at every M and m, with dS = S_nuhat - S_nu,
    E dS = 0 and M E|dS|^2 = E_nu|g_m - E_nu g_m|^2, and likewise for the
    pseudo-variance M E dS^2.  2000 realized laws of uniform:0.5,1 at
    M = 200 go through sample_population, empirical_measure and one
    LawStack on 64 nodes of the functionals' circle at ratio 1/2, where
    every node is far enough to take the stacked Chebyshev rules."""

    M, LAWS, NODES, SEED = 200, 2000, 64, 20240817

    @pytest.fixture(scope="class")
    def deviations(self, uniform_half):
        e = support_edges(FreeConvolution(uniform_half, 0.5))
        rho = RADIUS_FRACTION * min(e.x_plus, abs(e.x_minus))
        m = rho * np.exp(-2j * np.pi * np.arange(self.NODES) / self.NODES)
        rng = np.random.default_rng(self.SEED)
        laws = [empirical_measure(sample_population(uniform_half, self.M, rng))
                for _ in range(self.LAWS)]
        s_hat = LawStack(laws).transforms(
            np.repeat(np.arange(self.LAWS), self.NODES),
            np.tile(m, self.LAWS))[0].reshape(self.LAWS, self.NODES)
        t, w = uniform_half.quad_rule(256)
        g = t[:, None] / (1.0 + t[:, None] * m)
        dg = g - w @ g
        return s_hat - uniform_half.transforms(m)[0], dg, w

    def test_unbiased_at_every_node(self, deviations):
        ds, _, _ = deviations
        mean = ds.mean(axis=0)
        se = np.sqrt((np.abs(ds - mean) ** 2).sum(axis=0)
                     / (self.LAWS * (self.LAWS - 1)))
        assert np.max(np.abs(mean) / se) < 4.5

    # pooled over the nodes: sum of M mean|dS|^2 (or M mean dS^2) over the
    # sum of the nu side; 0.9762 and 0.9777 at this seed
    @pytest.mark.parametrize("pseudo", [False, True],
                             ids=["variance", "pseudo-variance"])
    def test_pooled_variance_ratio(self, deviations, pseudo):
        ds, dg, w = deviations
        if pseudo:
            got, want = (ds * ds).mean(axis=0), w @ (dg * dg)
        else:
            got, want = (np.abs(ds) ** 2).mean(axis=0), w @ np.abs(dg) ** 2
        assert abs(self.M * got.sum() / want.sum() - 1.0) <= 0.1
