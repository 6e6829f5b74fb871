import numpy as np
import pytest

from freemp import freeconv
from freemp.errors import (ConvergenceError, DomainError, EdgeBracketError,
                           SingularDerivativeError)
from freemp.freeconv import (FreeConvolution, atom_at_zero, density,
                             density_batch, stieltjes, stieltjes_batch,
                             stieltjes_derivative,
                             stieltjes_derivative_batch, stieltjes_rows,
                             support_edges)
from freemp.grammar import parse_law
from freemp.measures import (RULE_NODES, AtomicLaw, LawStack, LinearLaw,
                             empirical_measure, sample_population)
from freemp.rmt import hat_fc

from oracles import (DensityLaw, gl_transforms, integrate, mp_density,
                     mp_edge_roots, mp_edges, mp_stieltjes,
                     mp_stieltjes_derivative, precise_edges, quad_density,
                     uniform_edges)


def contract_residual(fc, m, z):
    """Residual measured with the oracle's adaptive quadrature (independent
    of the law's own transforms)."""
    s = integrate(fc.base, lambda t: t / (1.0 + m * t))
    return abs(1.0 / m + z - fc.ratio * s)


def random_z(rng, n, eta_lo=1e-2, eta_hi=10.0):
    re = rng.uniform(-3.0, 12.0, n)
    im = np.exp(rng.uniform(np.log(eta_lo), np.log(eta_hi), n))
    sign = rng.choice([-1.0, 1.0], n)
    return re + 1j * im * sign


def one_row(fc, n):
    """The solver's (laws, ratio) and per-point row for n points on fc
    alone."""
    return (*freeconv._rows((fc,)), np.zeros(n, np.intp))


def spy_transforms(monkeypatch, fc):
    """Record a copy of every m array whose S and T are evaluated, by the
    solver or by fc's law: every law's transforms is a LawStack's."""
    transforms, seen = LawStack.transforms, []

    def spy(self, row, m):
        seen.append(m.copy())
        return transforms(self, row, m)

    monkeypatch.setattr(LawStack, "transforms", spy)
    return seen


def blind_beyond(monkeypatch, bound):
    """Make every S and T read NaN where |m| > bound."""
    transforms = LawStack.transforms

    def blind(self, row, m):
        s, t2 = transforms(self, row, m)
        far = np.abs(m) > bound
        return np.where(far, np.nan, s), np.where(far, np.nan, t2)

    monkeypatch.setattr(LawStack, "transforms", blind)


@pytest.fixture(scope="module")
def fc_linear():
    """linear:0.2,1,1 at ratio 4, no point mass at 0."""
    return FreeConvolution(LinearLaw(0.2, 1.0, 1.0), 4.0)


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
        laws, ratio, row = one_row(fc, zs.size)
        res0 = np.abs(freeconv._phi(laws, ratio, row, m0, zs)[0])
        m, res, (s, t2) = freeconv._newton(laws, ratio, row, zs, m0.copy(),
                                           tol, freeconv.NEWTON_ITERS)
        assert np.all(res <= res0)
        assert np.array_equal(res, np.abs(freeconv._phi(laws, ratio, row, m,
                                                        zs)[0]))
        S, T = fc.base.transforms(m)
        assert np.array_equal(s, S) and np.array_equal(t2, T)

    # phi and phi' of the current iterate are kept, so each iteration
    # evaluates the transforms once, on its trials, after one call at the
    # start
    @pytest.mark.parametrize("name", ["fc_uniform", "hat_500"])
    @pytest.mark.parametrize("iters", [1, 3, freeconv.NEWTON_ITERS])
    def test_newton_one_transforms_call_per_iterate(self, request, name,
                                                    iters, rng, monkeypatch):
        fc = request.getfixturevalue(name)
        zs = random_z(rng, 100)
        m0 = rng.normal(size=zs.size) + 1j * rng.normal(size=zs.size)
        calls = spy_transforms(monkeypatch, fc)
        tol = freeconv.RESIDUAL_TOL * np.maximum(1.0, np.abs(zs))
        freeconv._newton(*one_row(fc, zs.size), zs, m0, tol, iters)
        assert 1 < len(calls) <= iters + 1

    # with the start's S and T handed in, Newton skips the call at the
    # start and walks the same path to the same bits
    @pytest.mark.parametrize("name", ["fc_uniform", "hat_500"])
    @pytest.mark.parametrize("iters", [1, 3, freeconv.NEWTON_ITERS])
    def test_newton_with_start_sums(self, request, name, iters, rng,
                                    monkeypatch):
        fc = request.getfixturevalue(name)
        zs = random_z(rng, 100)
        m0 = rng.normal(size=zs.size) + 1j * rng.normal(size=zs.size)
        tol = freeconv.RESIDUAL_TOL * np.maximum(1.0, np.abs(zs))
        laws, ratio, row = one_row(fc, zs.size)
        m_ref, res_ref, sums_ref = freeconv._newton(laws, ratio, row, zs,
                                                    m0.copy(), tol, iters)
        sums0 = fc.base.transforms(m0)
        calls = spy_transforms(monkeypatch, fc)
        m, res, sums = freeconv._newton(laws, ratio, row, zs, m0.copy(), tol,
                                        iters, sums0)
        assert 0 < len(calls) <= iters
        assert np.array_equal(m, m_ref) and np.array_equal(res, res_ref)
        assert all(np.array_equal(a, b) for a, b in zip(sums, sums_ref))

    # every accepted iterate hands its S and T on, to the next
    # continuation step or to the polish: no m is evaluated twice in a
    # solve, cold, warm or landing on the real axis, and the real-axis
    # re-check evaluates only the m that dropping Im m moved
    @pytest.mark.parametrize("name", ["fc_uniform", "hat_500", "fc_linear"])
    @pytest.mark.parametrize("case", ["cold", "warm", "density", "real"])
    def test_no_m_evaluated_twice_in_a_solve(self, request, name, case, rng,
                                             monkeypatch):
        fc = request.getfixturevalue(name)
        zs = random_z(rng, 300, eta_lo=1e-4)
        e = support_edges(fc)
        outside = np.concatenate([
            np.linspace(-3.0, -0.01, 100),
            np.linspace(0.01, e.L_minus - 0.01, 100),
            np.linspace(e.L_plus + 0.01, 12.0, 100)]).astype(complex)
        solve = {
            "cold": lambda: stieltjes_batch(fc, zs),
            "warm": lambda: stieltjes_batch(fc, zs, m0=warm),
            "density": lambda: density_batch(
                fc, np.linspace(e.L_minus, e.L_plus, 300)[1:-1]),
            "real": lambda: stieltjes_batch(fc, outside)}[case]
        warm = stieltjes_batch(fc, zs) * (1.0 + 1e-3)
        seen = spy_transforms(monkeypatch, fc)
        solve()
        seen = np.concatenate(seen)
        assert seen.size > zs.size
        assert np.unique(seen).size == seen.size


class TestSharedContinuation:
    """Points that share a real part and a side climb down one eta ladder
    until each leaves it for its own target; each step is solved once."""

    @staticmethod
    def lattice():
        """check_local_law's lattice at N = 1000, tau = 0.1."""
        etas = np.geomspace(1000 ** -0.9, 10.0, 40)
        energies = np.geomspace(0.1, 10.0, 20)
        z = (energies[:, None] + 1j * etas[None, :]).ravel()
        return z[np.abs(z) >= 0.1]

    # sharing is exact: a batch gives each point the bits it gets alone
    def test_lattice_equals_per_point_solves(self, hat_500):
        e = support_edges(hat_500)
        z = self.lattice()
        real = np.array([e.L_minus / 2.0, e.L_plus + 0.5, 3.0 * e.L_plus,
                         -0.2, -1.0], dtype=complex)
        z = np.concatenate([z, np.conj(z), real])
        batch = stieltjes_batch(hat_500, z)
        alone = np.array([stieltjes_batch(hat_500, np.array([zk]))[0]
                          for zk in z])
        assert np.array_equal(batch.view(float), alone.view(float))

    # 14.3 per point when each point climbed its own ladder
    def test_lattice_evaluations_per_point(self, hat_500, monkeypatch):
        z = self.lattice()
        seen = spy_transforms(monkeypatch, hat_500)
        stieltjes_batch(hat_500, z)
        assert sum(m.size for m in seen) < 7 * z.size

    # a step shared by three targets that stalls names one of them
    def test_stalled_shared_step_names_a_target(self, hat_500, monkeypatch):
        blind_beyond(monkeypatch, 0.6)
        targets = 1.0 + 1j * np.array([1e-3, 1e-2, 1e-1])
        with pytest.raises(ConvergenceError,
                           match="continuation stalled") as err:
            stieltjes_batch(hat_500, targets)
        msg = str(err.value)
        assert any(f"z = {complex(t)!r}" in msg for t in targets)
        assert err.value.z.size and np.isin(err.value.z, targets).all()
        eta = float(msg.split("eta reached ")[1].split(",")[0])
        assert eta > targets.imag.max()


class TestFailurePath:
    """A solve fails by one rule, residual and half plane together, and
    each ConvergenceError carries the points that failed as its z."""

    # a polish that lands on conj(m) leaves every non-real z in the wrong
    # half plane; the rule is a no-op for real z
    def test_half_plane_failure_names_the_points(self, fc_uniform, rng,
                                                monkeypatch):
        zs = random_z(rng, 20)
        real = np.array([-1.0, 5.0], dtype=complex)
        newton = freeconv._newton

        def conj_polish(laws, ratio, row, z, m, tol, iters, sums=None):
            m, res, sums = newton(laws, ratio, row, z, m, tol, iters, sums)
            return (np.conj(m) if iters == 2 else m), res, sums

        monkeypatch.setattr(freeconv, "_newton", conj_polish)
        with pytest.raises(ConvergenceError, match="solve failed") as err:
            stieltjes_batch(fc_uniform, np.concatenate([zs, real]))
        assert f"z = {complex(zs[0])!r}" in str(err.value)
        assert np.array_equal(err.value.z, zs)

    def test_real_axis_recheck_names_the_points(self, fc_uniform,
                                                monkeypatch):
        zs = np.array([1.0 + 0.5j, -1.0, 5.0, 2.0 - 0.1j])
        solve = freeconv._solve

        def off_axis(laws, ratio, z, m0=None):
            return solve(laws, ratio, z, m0) + (1e-3 + 1e-3j)

        monkeypatch.setattr(freeconv, "_solve", off_axis)
        with pytest.raises(ConvergenceError, match="real-axis value") as err:
            stieltjes_batch(fc_uniform, zs)
        assert any(f"z = {complex(x)!r}" in str(err.value)
                   for x in zs.real[1:3])
        assert np.array_equal(err.value.z, [-1.0, 5.0])

    # the local-law lattice at N = 200, where S and T read NaN beyond
    # |m| = 1.5: a stall stops only its own point, so one batch's error
    # carries, in the caller's order, exactly the points that fail alone
    def test_one_error_carries_every_failure(self, fc_uniform, monkeypatch):
        blind_beyond(monkeypatch, 1.5)
        etas = np.geomspace(200 ** -0.9, 10.0, 40)
        z = (np.geomspace(0.1, 10.0, 20)[:, None]
             + 1j * etas[None, :]).ravel()
        alone = np.zeros(z.size, dtype=bool)
        for k, zk in enumerate(z):
            try:
                stieltjes_batch(fc_uniform, np.array([zk]))
            except ConvergenceError:
                alone[k] = True
        with pytest.raises(ConvergenceError, match="stalled") as err:
            stieltjes_batch(fc_uniform, z)
        assert alone.sum() == 173
        assert np.array_equal(err.value.z, z[alone])
        assert f"z = {complex(z[alone][0])!r}:" in str(err.value)


def fold_laws():
    """A density law, a compressed atomic law and dirac:1."""
    rng = np.random.default_rng(20240817)
    compressed = empirical_measure(
        sample_population(LinearLaw(0.5, 1.0), 500, rng))
    assert compressed._rule[0].size == RULE_NODES < compressed.locs.size
    return {"linear": LinearLaw(0.2, 1.0, 1.0), "compressed": compressed,
            "dirac": AtomicLaw([1.0], [1.0])}


FOLD_LAWS = fold_laws()


class TestConjugateFold:
    """A point below the real axis is solved as the conjugate of its
    mirror, m(conj z) = conj m(z), and a pair shares only the steps of its
    continuation."""

    # conjugating z and the start conjugates m, bit for bit
    @pytest.mark.parametrize("name", sorted(FOLD_LAWS))
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_conjugate_in_conjugate_out(self, name, ratio, start, rng):
        fc = FreeConvolution(FOLD_LAWS[name], ratio)
        z = random_z(rng, 60, eta_lo=1e-3)
        m0 = None
        if start == "warm":
            m0 = stieltjes_batch(fc, z) * (1.0 + 1e-3)
        up = stieltjes_batch(fc, z, m0)
        down = stieltjes_batch(fc, np.conj(z),
                               None if m0 is None else np.conj(m0))
        assert np.array_equal(down.view(float), np.conj(up).view(float))

    # a point and its mirror in one batch give conjugate bits; they share
    # the continuation's steps, while the warm Newton and the polish run
    # for each, so a caller that wants each pair solved once passes one
    # point of it
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_mirror_pairs_in_one_batch(self, hat_500, start, rng,
                                       monkeypatch):
        z = random_z(rng, 40)
        z = z.real + 1j * np.abs(z.imag)
        m0 = None if start == "cold" else stieltjes_batch(hat_500, z) * 1.01
        pair_m0 = None if m0 is None else np.concatenate([m0, np.conj(m0)])
        seen = spy_transforms(monkeypatch, hat_500)
        alone = stieltjes_batch(hat_500, z, m0)
        n_alone = sum(m.size for m in seen)
        seen.clear()
        pair = stieltjes_batch(hat_500, np.concatenate([z, np.conj(z)]),
                               pair_m0)
        if start == "cold":     # at most two polish steps per mirror
            assert sum(m.size for m in seen) <= n_alone + 2 * z.size
        assert np.array_equal(pair, np.concatenate([alone, np.conj(alone)]))

    # a stalled continuation names the caller's point, not its mirror,
    # and carries both points of a stalled pair
    def test_stall_names_the_callers_points(self, hat_500, monkeypatch):
        blind_beyond(monkeypatch, 0.6)
        below = 1.0 - 1j * np.array([1e-3, 1e-2, 1e-1])
        z = np.concatenate([below, np.conj(below)])
        with pytest.raises(ConvergenceError,
                           match="continuation stalled") as err:
            stieltjes_batch(hat_500, z)
        got = err.value.z
        assert got.size and np.isin(got, z).all()
        assert got[0].imag < 0.0
        assert f"z = {complex(got[0])!r}:" in str(err.value)
        assert np.array_equal(np.sort_complex(got),
                              np.sort_complex(np.conj(got)))


class TestRows:
    """stieltjes_rows solves several convolutions at once, one row each,
    with the bits each gets alone."""

    FCS = (FreeConvolution(FOLD_LAWS["linear"], 2.0),
           FreeConvolution(FOLD_LAWS["compressed"], 0.5),
           FreeConvolution(FOLD_LAWS["dirac"], 0.25),
           FreeConvolution(FOLD_LAWS["compressed"], 2.0))

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_rows_equal_lone_solves(self, start, rng):
        z = np.concatenate([random_z(rng, 80, eta_lo=1e-4),
                            [-2.0, -0.5, 20.0]])
        m0 = None
        if start == "warm":
            m0 = stieltjes_batch(self.FCS[0], z)
        rows = stieltjes_rows(self.FCS, z, m0)
        alone = np.array([stieltjes_batch(fc, z, m0) for fc in self.FCS])
        assert rows.shape == (len(self.FCS), z.size)
        assert np.array_equal(rows.view(float), alone.view(float))

    def test_error_carries_rows(self, rng, monkeypatch):
        transforms = LawStack.transforms

        def blind(self, row, m):
            s, t2 = transforms(self, row, m)
            dead = row == 2
            return np.where(dead, np.nan, s), np.where(dead, np.nan, t2)

        monkeypatch.setattr(LawStack, "transforms", blind)
        z = random_z(rng, 10)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            stieltjes_rows(self.FCS, z)
        assert f"z = {complex(z[0])!r}:" in str(err.value)
        assert np.array_equal(err.value.z, z)
        assert np.array_equal(err.value.row, np.full(z.size, 2))

    # two failed rows: the one error carries both, each with its points
    def test_error_carries_every_failed_row(self, rng, monkeypatch):
        transforms = LawStack.transforms

        def blind(self, row, m):
            s, t2 = transforms(self, row, m)
            dead = (row == 1) | (row == 3)
            return np.where(dead, np.nan, s), np.where(dead, np.nan, t2)

        monkeypatch.setattr(LawStack, "transforms", blind)
        z = random_z(rng, 10)
        with pytest.raises(ConvergenceError, match="stalled") as err:
            stieltjes_rows(self.FCS, z)
        assert np.array_equal(err.value.row, np.repeat([1, 3], z.size))
        assert np.array_equal(err.value.z, np.tile(z, 2))


class TestDerivative:
    # -2 = -x_minus of dirac:1 at ratio 1/4, where 1 - r m^2 T(m) = 0
    # exactly; the message prints z as a Python complex
    def test_singular_denominator_names_z(self):
        fc = FreeConvolution(AtomicLaw([1.0], [1.0]), 0.25)
        with pytest.raises(SingularDerivativeError) as err:
            stieltjes_derivative_batch(fc, [1 + 1j], m=[-2.0])
        assert "z = (1+1j)" in str(err.value)

    # a given m must hold one value per z; otherwise the result would take
    # its length from m and pair no value with its z
    @pytest.mark.parametrize("n_m", [1, 2])
    def test_m_of_wrong_length_rejected(self, mp_quarter, n_m):
        z = np.array([0.5 + 0.1j, 1.0 + 0.1j, 1.5 + 0.1j])
        m = stieltjes_batch(mp_quarter, z)[:n_m]
        with pytest.raises(DomainError, match=f"m has {n_m} values for 3 "
                                              f"points z"):
            stieltjes_derivative_batch(mp_quarter, z, m=m)

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

    # exactly 0 on both sides of the support and at its soft edges, with no
    # solve, not the residual-level values a solve at eta = 0 leaves there
    # (1e-8 to 1e-6 at the edges)
    @pytest.mark.parametrize("spec, ratio", [
        ("dirac:1", 0.25), ("uniform:0.5,1", 0.25), ("uniform:0.5,1", 4.0),
        ("linear:0.2,1,1", 2.0), ("uniform:0.5,1", 0.5)])
    def test_exact_zero_outside_support(self, spec, ratio, monkeypatch):
        fc = FreeConvolution(parse_law(spec), ratio)
        e = support_edges(fc)
        xs = np.concatenate([np.geomspace(1e-4, e.L_minus, 50)[:-1],
                             -np.geomspace(1e-3, 5.0, 10),
                             [np.nextafter(e.L_minus, 0.0), e.L_minus,
                              e.L_plus, np.nextafter(e.L_plus, np.inf)],
                             np.geomspace(e.L_plus, 4.0 * e.L_plus, 50)[1:]])
        seen = spy_transforms(monkeypatch, fc)
        assert np.all(density_batch(fc, xs) == 0.0)
        assert sum(m.size for m in seen) == 0

    def test_zero_between_atom_and_support(self, mp_quarter):
        xs = np.geomspace(1e-4, mp_edges(0.25)[0] - 1e-3, 200)
        assert density_batch(mp_quarter, xs).max() <= 1e-6

    # a wide density law at small ratio: the free convolution lies close to
    # the population law and m(x + i0) has its pole -1/m next to the
    # support, where a fixed rule of the density splits the law into bands
    # with a density of 1e-27 between them
    @pytest.mark.parametrize("ratio", [0.01, 0.02])
    def test_small_ratio_matches_quad_oracle(self, ratio):
        lo, hi = 0.05, 1.0
        L_minus, L_plus, _, _ = uniform_edges(lo, hi, ratio)
        xs = np.linspace(L_minus, L_plus, 402)[1:-1]
        ref = quad_density(lambda t: 1.0 / (hi - lo), lo, hi, ratio, xs)
        got = density_batch(FreeConvolution(LinearLaw(lo, hi), ratio), xs)
        assert np.max(np.abs(got - ref) / ref) < 1e-8

    # the transforms calls of density_batch on the benchmark's limit laws
    # at 200 points: continuation steps on the way down are accepted at a
    # residual of 0.1 Im zeta (53/29/49 calls when every step met the
    # landing's tolerance).  The count repeats exactly; a change that moves
    # it on purpose sets the new count here and states both in CHANGES.md
    @pytest.mark.parametrize("spec, ratio, calls", [
        ("uniform:0.5,1", 0.5, 36), ("linear:0.2,1,1", 2.0, 19),
        ("dirac:1", 0.25, 26)])
    def test_limit_density_calls(self, spec, ratio, calls, monkeypatch):
        fc = FreeConvolution(parse_law(spec), ratio)
        e = support_edges(fc)
        seen = spy_transforms(monkeypatch, fc)
        density_batch(fc, np.linspace(e.L_minus, e.L_plus, 200))
        assert len(seen) == calls

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

    # the left root sits just past the pole 1/lo = 20, where a fixed rule
    # of the density misses the edge (512 Gauss-Legendre nodes by 5.9e-8 at
    # ratio 0.01) and the adaptive integrate does not settle even at 4096
    # nodes; the law's closed-form transforms pin both edges
    @pytest.mark.parametrize("ratio", [0.01, 0.05])
    def test_uniform_closed_form_near_pole(self, ratio):
        e = support_edges(FreeConvolution(parse_law("uniform:0.05,1"), ratio))
        L_minus, L_plus, _, _ = uniform_edges(0.05, 1.0, ratio)
        assert e.L_minus == pytest.approx(L_minus, rel=1e-12, abs=0.0)
        assert e.L_plus == pytest.approx(L_plus, rel=1e-12, abs=0.0)

    def test_h_monotone_on_right_branch(self, fc_uniform):
        xs = np.linspace(1e-3, 1.0 / fc_uniform.base.hi - 1e-3, 50)
        hs = xs * xs * fc_uniform.base.transforms(-xs)[1]
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

    # next to ratio 1 the left root of a point mass sits near +-2e6, at
    # 1/(1 - sqrt(r)), which its bracket of width 0 gives at once
    @pytest.mark.parametrize("r", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_ratio_next_to_one(self, dirac_one, r):
        e = support_edges(FreeConvolution(dirac_one, r))
        lo, hi = mp_edges(r)
        assert e.L_minus == pytest.approx(lo, rel=1e-6)
        assert e.L_plus == pytest.approx(hi, rel=1e-12)

    # far above ratio 1 both roots sit near -+1/(E[t] sqrt(ratio)); the
    # search stops on a relative width, so they keep every digit there
    @pytest.mark.parametrize("ratio", [1e4, 1e12, 1e16])
    def test_large_ratio_roots_within_ulps(self, ratio):
        law = parse_law("uniform:0.5,1")
        want = precise_edges(law, ratio)
        got = support_edges(FreeConvolution(law, ratio))
        for key in ("x_minus", "x_plus", "L_minus", "L_plus"):
            w = getattr(want, key)
            assert abs(getattr(got, key) - w) <= 4.0 * np.spacing(abs(w)), key

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

    # atomic laws whose support has gaps: the edges are the outer ones, the
    # roots of h = 1/ratio nearest the poles 1/hi and 1/lo, here checked
    # against brentq on h summed over the atoms.  At the small ratios the
    # density is below 1e-12 (but positive) at the midpoint of
    # [L_minus, L_plus]: a gap, which lies inside the outer edges
    @pytest.mark.parametrize("locs, weights, ratio, gap", [
        ([0.2, 1.0], [0.5, 0.5], 0.01, True),
        ([0.2, 1.0], [0.5, 0.5], 4.0, False),
        ([0.3, 0.31, 1.0], [0.3, 0.3, 0.4], 0.02, True)])
    def test_multi_atom_outer_edges(self, locs, weights, ratio, gap):
        from scipy.optimize import brentq
        t, w = np.array(locs), np.array(weights)
        fc = FreeConvolution(AtomicLaw(t, w), ratio)

        def g(x):
            return float((w * (x * t / (1.0 - x * t)) ** 2).sum()) - 1.0 / ratio

        def edge(x):
            return 1.0 / x + ratio * float((w * t / (1.0 - x * t)).sum())

        near_pole = 1.0 - 1e-9
        far = 1.0 / (t[0] * (1.0 - np.sqrt(ratio)))
        x_plus = brentq(g, 0.0, near_pole / t[-1], xtol=1e-15)
        x_minus = (brentq(g, far, 1.0 / (near_pole * t[0]), xtol=1e-15)
                   if ratio < 1.0 else brentq(g, far, 0.0, xtol=1e-15))
        e = support_edges(fc)
        assert abs(e.L_plus - edge(x_plus)) <= 1e-12
        assert abs(e.L_minus - edge(x_minus)) <= 1e-12
        assert abs(e.x_plus - x_plus) <= 1e-12
        assert abs(e.x_minus - x_minus) <= 1e-12
        assert (density(fc, 0.5 * (e.L_minus + e.L_plus)) < 1e-12) == gap


def _edge_law(spec):
    """A law of the edge-search matrix: a grammar string, "hat500" for a
    realized 500-atom uniform:0.5,1 sample, or (locs, weights) atoms."""
    if spec == "hat500":
        rng = np.random.default_rng(20240817)
        return empirical_measure(
            sample_population(LinearLaw(0.5, 1.0), 500, rng))
    if isinstance(spec, str):
        return parse_law(spec)
    return AtomicLaw(np.array(spec[0]), np.array(spec[1]))


EDGE_MATRIX = (
    [("uniform:0.5,1", r) for r in (0.01, 0.5, 2.0, 4.0)]
    + [("linear:0.2,1,1", 0.5), ("linear:0.2,1,1", 2.0),
       ("linear:0.3,0.9,-2", 0.8)]
    + [("dirac:1", r) for r in (0.25, 4.0, 1.0 - 1e-6, 1.0 + 1e-6)]
    + [("uniform:0.05,1", 0.01), ("hat500", 0.5), ("hat500", 2.0)]
    + [(([0.2, 1.0], [0.5, 0.5]), 0.01), (([0.2, 1.0], [0.5, 0.5]), 4.0),
       (([0.3, 0.31, 1.0], [0.3, 0.3, 0.4]), 0.02)])
EDGE_IDS = [f"{spec if isinstance(spec, str) else len(spec[0])}@{r!r}"
            for spec, r in EDGE_MATRIX]
EDGE_MATRIX_ULPS = 16


class TestJointEdgeSearch:
    """Both brackets are searched together, their iterates in one
    transforms call per step, and the roots and edge values agree with
    precise_edges, a 40-digit mpmath solve from the law's atoms or
    density that shares no code with the search."""

    # The id is the one this check had when the search was a bisection
    # that it matched bit for bit.  Now the roots lie within EDGE_MATRIX_ULPS
    # of the 40-digit roots (at most 7 over the matrix), apart from the
    # rounding of 1 - sqrt(ratio) in the left bracket, eps relative to it
    # (2e-10 at ratio 1 -+ 1e-6, where a point mass's root is its bracket),
    # and L+- lie within 4 ulp of the scale of the support
    @pytest.mark.parametrize("spec, ratio", EDGE_MATRIX, ids=EDGE_IDS)
    def test_bit_identical_to_scalar_bisection(self, spec, ratio):
        law = _edge_law(spec)
        want = precise_edges(law, ratio)
        got = support_edges(FreeConvolution(law, ratio))
        bracket = np.finfo(float).eps / abs(1.0 - np.sqrt(ratio))
        for key, rel in (("x_minus", bracket), ("x_plus", 0.0)):
            w = getattr(want, key)
            assert abs(getattr(got, key) - w) <= (
                EDGE_MATRIX_ULPS * np.spacing(abs(w)) + rel * abs(w)), key
        for key in ("L_minus", "L_plus"):
            assert abs(getattr(got, key) - getattr(want, key)) <= (
                4.0 * np.spacing(want.L_plus)), key

    @pytest.mark.parametrize("spec, ratio", EDGE_MATRIX, ids=EDGE_IDS)
    def test_one_call_per_step(self, monkeypatch, spec, ratio):
        law = _edge_law(spec)
        fc = FreeConvolution(law, ratio)
        seen = spy_transforms(monkeypatch, fc)
        support_edges(fc)
        sizes = [m.size for m in seen]
        # the first call evaluates the bracket ends that are not poles;
        # then each step evaluates one iterate per live bracket, both
        # until the first bracket stops, and the edge values reuse them
        assert 2 <= sizes[0] <= 4
        steps = sizes[1:]
        assert steps == sorted(steps, reverse=True)
        assert set(steps) <= {1, 2}
        if law.lo == law.hi:
            assert sizes == [4]   # a point mass: brackets of width 0
        else:
            assert 1 < len(sizes) <= 14


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

    @pytest.mark.parametrize("ratio", [0.0, -0.5, np.nan, np.inf])
    def test_ratio_not_positive_and_finite_rejected(self, dirac_one, ratio):
        with pytest.raises(DomainError, match=f"ratio {ratio} must be "
                                              f"positive and finite"):
            FreeConvolution(dirac_one, ratio)

    def test_ratio_one_rejected(self, dirac_one):
        with pytest.raises(DomainError):
            FreeConvolution(dirac_one, 1.0)

    # 1 + 2^-52 has square root 1.0 in floating point, so the left edge
    # bracket 1/(t_min (1 - sqrt(ratio))) would divide by zero; its
    # neighbours on both sides have a bracket and are accepted
    def test_ratio_one_to_rounding_rejected(self, dirac_one):
        with pytest.raises(DomainError, match="1 to rounding"):
            FreeConvolution(dirac_one, 1.0 + 2.0 ** -52)
        for ratio in (1.0 - 2.0 ** -53, 1.0 + 2.0 ** -51):
            assert FreeConvolution(dirac_one, ratio).ratio == ratio

    # NaN or infinite points are refused before any solve, naming the point
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0.5, np.inf),
                                     complex(np.nan, 1.0)],
                             ids=["nan", "inf", "-inf", "inf-imag",
                                  "nan-real"])
    def test_non_finite_z_rejected(self, fc_uniform, monkeypatch, bad):
        seen = spy_transforms(monkeypatch, fc_uniform)
        z = np.array([0.75 + 0.1j, bad, 2.0])
        with pytest.raises(DomainError, match=r"z = .* is not finite"):
            stieltjes_batch(fc_uniform, z)
        if complex(bad).imag == 0.0:
            with pytest.raises(DomainError, match=r"x = .* is not finite"):
                density_batch(fc_uniform, z.real)
        assert seen == []

    # a start needs one value per point: neither a short nor a long m0
    # is broadcast, above the axis or below it
    @pytest.mark.parametrize("size", [1, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_start_of_wrong_length_rejected(self, fc_uniform, size, sign):
        z = np.array([1.0 + 1j * sign, 2.0 + 0.5j])
        m0 = np.full(size, 0.1j)
        match = f"m0 has {size} values for 2 points"
        with pytest.raises(DomainError, match=match):
            stieltjes_batch(fc_uniform, z, m0)
        with pytest.raises(DomainError, match=match):
            stieltjes_rows((fc_uniform, fc_uniform), z, m0)

    # S enters only the edge values L = 1/x + ratio S(-x), so an S pushed
    # down by 1e3 leaves the root search alone and makes L_minus negative
    def test_edge_values_out_of_order_rejected(self, uniform_half,
                                               monkeypatch):
        transforms = LawStack.transforms

        def low_s(self, row, m):
            s, t2 = transforms(self, row, m)
            return s - 1e3, t2

        monkeypatch.setattr(LawStack, "transforms", low_s)
        with pytest.raises(DomainError, match="edge values out of order"):
            support_edges(FreeConvolution(uniform_half, 0.5))

    def test_base_support_outside_unit_interval_rejected(self):
        base = DensityLaw(0.5, 1.5, lambda t: np.ones_like(t))
        with pytest.raises(DomainError, match="inside"):
            FreeConvolution(base, 0.5)


def narrow_case(width: float, slope_frac: float):
    """LinearLaw on [0.5, 0.5 + width] at slope slope_frac of its
    positivity limit 2/width^2, at ratio 1/2, and its density for
    gl_transforms."""
    law = LinearLaw(0.5, 0.5 + width, slope_frac * 2.0 / width ** 2)
    lo, w = np.longdouble(law.lo), np.longdouble(law.hi) - np.longdouble(law.lo)
    alpha = 1.0 / w - 0.5 * law.slope * w
    return FreeConvolution(law, 0.5), lambda t: alpha + law.slope * (t - lo)


def oracle_backward_error(fc, p, m, z):
    """|1/m + z - r S(m)| / max(1, |z|) with S from gl_transforms."""
    s, _ = gl_transforms(p, fc.base.lo, fc.base.hi, m)
    res = np.abs(1.0 / m.astype(np.clongdouble) + z - fc.ratio * s)
    return (res / np.maximum(1.0, np.abs(z))).astype(float)


class TestNarrowLinearLaw:
    """Laws of small spread, on the way to a fixed population.  Their
    closed forms lose about log10(1/width) digits, so the solver must meet
    its tolerance against the exact S, not only against its own."""

    @pytest.mark.parametrize("width", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("slope_frac", [0.0, 0.99, -0.99])
    def test_stieltjes_backward_error(self, width, slope_frac):
        fc, p = narrow_case(width, slope_frac)
        x = np.linspace(-0.5, 2.5, 13)
        z = np.concatenate([x + 1j * eta for eta in (1e-3, 0.1, 3.0)]
                           + [x - 0.1j, [-1.0, 0.01, 2.0, 3.0]])
        m = stieltjes_batch(fc, z)
        assert np.all(oracle_backward_error(fc, p, m, z)
                      <= freeconv.RESIDUAL_TOL)

    @pytest.mark.parametrize("width", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("slope_frac", [0.0, 0.99, -0.99])
    def test_density_backward_error(self, width, slope_frac):
        fc, p = narrow_case(width, slope_frac)
        e = support_edges(fc)
        x = np.linspace(e.L_minus, e.L_plus, 25)[1:-1]
        m = freeconv._solve(*freeconv._rows((fc,)), x.astype(complex))[0]
        assert np.all(m.imag != 0.0)
        assert np.array_equal(density_batch(fc, x), np.abs(m.imag) / np.pi)
        assert np.all(oracle_backward_error(fc, p, m, x)
                      <= freeconv.RESIDUAL_TOL)

