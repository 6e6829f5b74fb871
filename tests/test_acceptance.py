"""Release acceptance gate: eleven end-to-end checks, one line each.

Each check prints an `[NN] PASS/FAIL name: measured values` line and fails
the run with that same line, so a red check always states its numbers.
Checks with a runtime budget assert the elapsed wall time too.

Check 06 drives the full Monte Carlo pipeline at N=400 with 2000
replicates and gates the empirical law of the rescaled statistic against
the predicted Gaussian.  At that matrix size the replicate variance of
Gaussian-entry models carries a finite-size excess (about +18 percent,
decaying with N) that the 2000-replicate bands resolve; the check is
asserted at its stated tolerances regardless, so a failure there reports
the finite-size gap rather than hiding it.  Its verdict must also equal
the library's CltReport.passed, or it fails with a message of its own.
Check 07 contrasts the Gaussian run against Rademacher entries, whose
fourth moment nearly cancels the same excess.
"""

import time

import numpy as np
import pytest

from freemp import contour
from freemp.contour import Polynomial, RectContour, clt_variance
from freemp.freeconv import (FreeConvolution, stieltjes_batch,
                             stieltjes_derivative_batch, density_batch,
                             support_edges)
from freemp.measures import AtomicLaw, LinearLaw, sample_population
from freemp.rmt import (DataMatrixSpec, eigenvalues, hat_fc,
                        sample_data_matrix)
from freemp.verify import (ExperimentConfig, check_edges, check_hat_rate,
                           check_local_law, run_clt_experiment)

from oracles import integrate, mp_stieltjes, rectangle_integral

SEED = 20240817
F_SQUARE = Polynomial((0.0, 0.0, 1.0))
F_IDENT = Polynomial((0.0, 1.0))
F_ONE = Polynomial((1.0,))


def _gate(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def _budget(num: int, name: str, elapsed: float, budget: float) -> None:
    _gate(num, name + " runtime", elapsed < budget,
          f"{elapsed:.2f}s against a {budget:.0f}s budget")


def _random_z(rng, n):
    re = rng.uniform(-3.0, 12.0, n)
    im = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), n))
    return re + 1j * im


@pytest.fixture(scope="module")
def nu_uniform():
    return LinearLaw(0.5, 1.0)


@pytest.fixture(scope="module")
def fc_half(nu_uniform):
    return FreeConvolution(nu_uniform, 0.5)


@pytest.fixture(scope="module")
def clt_config(nu_uniform):
    return ExperimentConfig(gamma0=0.5, nu=nu_uniform, f=F_SQUARE,
                            N_list=(400,), replicates=2000, seed=SEED,
                            entry_law="gaussian")


@pytest.fixture(scope="module")
def clt_gaussian(clt_config):
    return run_clt_experiment(clt_config, workers=1)


def test_01_mp_closed_form():
    t0 = time.perf_counter()
    dirac_one = AtomicLaw([1.0], [1.0])
    rng = np.random.default_rng(SEED)
    edge_err = 0.0
    stj_err = 0.0
    for r in (0.25, 4.0):
        fc = FreeConvolution(dirac_one, r)
        edges = support_edges(fc)
        edge_err = max(edge_err,
                       abs(edges.L_minus - (1.0 - np.sqrt(r)) ** 2),
                       abs(edges.L_plus - (1.0 + np.sqrt(r)) ** 2))
        zs = _random_z(rng, 50)
        got = stieltjes_batch(fc, zs)
        want = np.array([mp_stieltjes(z, r) for z in zs])
        stj_err = max(stj_err, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    _gate(1, "closed-form recovery", edge_err < 1e-8 and stj_err < 1e-10,
          f"edge err {edge_err:.2e} (tol 1e-08), "
          f"transform err {stj_err:.2e} (tol 1e-10)")
    _budget(1, "closed-form recovery", elapsed, 1.0)


def test_02_self_consistency(fc_half):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    zs = _random_z(rng, 200)
    ms = stieltjes_batch(fc_half, zs)
    res = np.array([abs(1.0 / m + z - fc_half.ratio
                        * integrate(fc_half.base,
                                    lambda t: t / (1.0 + m * t)))
                    for m, z in zip(ms, zs)])
    herglotz = bool(np.all(ms.imag > 0.0))
    sym = float(np.max(np.abs(stieltjes_batch(fc_half, np.conj(zs[:60]))
                              - np.conj(ms[:60]))))
    edges = support_edges(fc_half)
    xs = np.linspace(edges.L_minus - 0.02, edges.L_plus + 0.02, 1601)
    rho = density_batch(fc_half, xs, warn=False)
    mass = float(np.trapezoid(rho, xs))
    first = float(np.trapezoid(rho * xs, xs))
    mass_err = abs(mass - 0.5)           # 1 - (1 - ratio)^+
    first_err = abs(first - 0.5 * 0.75)  # ratio * mean of the base
    elapsed = time.perf_counter() - t0
    ok = (res.max() < 1e-12 and herglotz and sym < 1e-12
          and mass_err < 1e-4 and first_err < 1e-4)
    _gate(2, "self-consistency", ok,
          f"max residual {res.max():.2e} (tol 1e-12), herglotz {herglotz}, "
          f"conjugate err {sym:.2e}, mass err {mass_err:.2e}, "
          f"first-moment err {first_err:.2e} (tol 1e-04)")
    _budget(2, "self-consistency", elapsed, 10.0)


def test_03_derivative(fc_half):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    zs = _random_z(rng, 50)
    h = 1e-6
    exact = stieltjes_derivative_batch(fc_half, zs)
    fd = (stieltjes_batch(fc_half, zs + h)
          - stieltjes_batch(fc_half, zs - h)) / (2.0 * h)
    rel = float(np.max(np.abs(exact - fd) / np.abs(exact)))
    elapsed = time.perf_counter() - t0
    _gate(3, "derivative", rel < 1e-5,
          f"max relative error {rel:.2e} against central differences "
          f"(tol 1e-05)")
    _budget(3, "derivative", elapsed, 5.0)


def test_04_contour_calculus(fc_half, monkeypatch):
    # a well-proportioned rectangle keeps the test poles clear of the
    # sides; the m-plane circle of the functionals is exercised by the
    # variance invariance below, the circle's radius rho against rho/2
    c = RectContour(d=0.4, L_minus=6.0, L_plus=8.0)
    inside = 7.0 + 0.3j
    errs = (
        abs(rectangle_integral(c, lambda z: 1.0 / (z - inside))
            - 2j * np.pi),
        abs(rectangle_integral(c, lambda z: 1.0 / (z + 1.0))),
        abs(rectangle_integral(c, lambda z: z * z)),
    )
    v1 = clt_variance(fc_half, F_SQUARE)
    monkeypatch.setattr(contour, "RADIUS_FRACTION",
                        contour.RADIUS_FRACTION / 2.0)
    v2 = clt_variance(fc_half, F_SQUARE)
    dv = abs(v1 - v2)
    _gate(4, "contour calculus", max(errs) < 1e-10 and dv < 1e-6,
          f"cauchy errs {errs[0]:.2e}/{errs[1]:.2e}/{errs[2]:.2e} "
          f"(tol 1e-10), variance shift under rho/2 {dv:.2e} (tol 1e-06)")


def test_05_variance_oracle(fc_half):
    t0 = time.perf_counter()
    v = clt_variance(fc_half, F_IDENT)
    v0 = clt_variance(fc_half, F_ONE)
    err = abs(v - 1.0 / 96.0)
    elapsed = time.perf_counter() - t0
    _gate(5, "variance oracle", err < 1e-4 and abs(v0) < 1e-7,
          f"V(x) err vs 1/96 {err:.2e} (tol 1e-04), "
          f"V(1) {abs(v0):.2e} (tol 1e-07)")
    _budget(5, "variance oracle", elapsed, 30.0)


def test_06_end_to_end_clt(clt_gaussian):
    rep = clt_gaussian
    V = rep.theoretical_variance
    n = rep.samples.size
    var_band = 3.0 * V * np.sqrt(2.0 / n)
    mean_band = 3.0 * np.sqrt(V / n)
    var_gap = abs(rep.empirical_variance - V)
    ok = (var_gap < var_band and rep.ks_pvalue > 0.01
          and abs(rep.mean) < mean_band)
    detail = (f"empirical var {rep.empirical_variance:.6f} vs predicted "
              f"{V:.6f} (gap {var_gap:.2e}, band {var_band:.2e}), "
              f"ks p {rep.ks_pvalue:.2e} (min 0.01), "
              f"|mean| {abs(rep.mean):.2e} (band {mean_band:.2e})")
    # the release gate and the library's verdict must agree
    if ok != rep.passed:
        pytest.fail(f"[06] FAIL release gate and library disagree: check "
                    f"06 gives pass={ok}, CltReport.passed={rep.passed}; "
                    f"{detail}", pytrace=False)
    _gate(6, "end-to-end fluctuations", ok, detail)


def test_07_universality(clt_config, clt_gaussian):
    t0 = time.perf_counter()
    rad_config = ExperimentConfig(
        gamma0=clt_config.gamma0, nu=clt_config.nu, f=clt_config.f,
        N_list=clt_config.N_list, replicates=clt_config.replicates,
        seed=clt_config.seed, entry_law="rademacher")
    rad = run_clt_experiment(rad_config, workers=1)
    n = clt_config.replicates
    vg = clt_gaussian.empirical_variance
    vr = rad.empirical_variance
    se_g = vg * np.sqrt(2.0 / n)
    se_r = vr * np.sqrt(2.0 / n)
    diff = abs(vg - vr)
    band = 3.0 * se_g + 3.0 * se_r   # the two 3-SE bands must overlap
    elapsed = time.perf_counter() - t0
    _gate(7, "universality", diff < band,
          f"gaussian var {vg:.6f}, rademacher var {vr:.6f}, "
          f"|diff| {diff:.2e} vs combined bands {band:.2e} "
          f"(quadrature 3-SE {3.0 * np.hypot(se_g, se_r):.2e})")
    _budget(7, "universality", elapsed, 600.0)


def test_08_local_law(nu_uniform):
    t0 = time.perf_counter()
    spec = DataMatrixSpec.from_ratio(0.5, 1000)
    worst = 0.0
    for ss in np.random.SeedSequence(SEED).spawn(10):
        rng = np.random.default_rng(ss)
        sigma = sample_population(nu_uniform, spec.M, rng)
        X = sample_data_matrix(spec, rng)
        rep = check_local_law(sigma, X, tau=0.1, eps=0.1)
        worst = max(worst, rep.max_ratio)
        if rep.skipped:
            _gate(8, "local law", False,
                  f"{len(rep.skipped)} lattice points failed to solve")
    elapsed = time.perf_counter() - t0
    _gate(8, "local law", worst <= 10.0,
          f"max normalized ratio {worst:.3f} over 10 replicates (tol 10)")
    _budget(8, "local law", elapsed, 300.0)


def test_09_edge_confinement(nu_uniform):
    t0 = time.perf_counter()
    spec = DataMatrixSpec.from_ratio(0.5, 1000)
    inside = 0
    for ss in np.random.SeedSequence(918273645).spawn(100):
        rng = np.random.default_rng(ss)
        sigma = sample_population(nu_uniform, spec.M, rng)
        X = sample_data_matrix(spec, rng)
        e = eigenvalues(sigma, X)
        inside += check_edges(e, hat_fc(sigma, spec.M, spec.N), 0.1)
    elapsed = time.perf_counter() - t0
    _gate(9, "edge confinement", inside >= 99,
          f"{inside}/100 replicates confined to the widened band (min 99)")
    _budget(9, "edge confinement", elapsed, 600.0)


def test_10_hat_rate(nu_uniform):
    t0 = time.perf_counter()
    rep = check_hat_rate(nu_uniform, 0.5, (250, 500, 1000, 2000),
                         reps=50, seed=SEED)
    elapsed = time.perf_counter() - t0
    _gate(10, "hat-transform rate", rep.passed,
          f"fitted slope {rep.slope:.4f} (band [-0.65, -0.35])")
    _budget(10, "hat-transform rate", elapsed, 600.0)


def test_11_determinism(clt_config, clt_gaussian):
    blobs = {1: clt_gaussian.samples.tobytes()}
    for w in (2, 8):
        blobs[w] = run_clt_experiment(clt_config, workers=w).samples.tobytes()
    ok = blobs[1] == blobs[2] == blobs[8]
    _gate(11, "determinism", ok,
          "sample vector bit-identical across 1, 2, 8 workers" if ok
          else "sample vectors differ across worker counts")
