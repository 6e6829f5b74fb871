"""One pass of one benchmark workload, in a fresh interpreter.

perfbench/run.py starts this file once per pass:

    python3 perfbench/workloads.py --workload limit --seed 3 --mode pass \
        --spawned-at <time.monotonic() of the parent just before the start>

and reads the JSON record it prints as its last stdout line. Every
workload has

* a set-up step that builds the workload's inputs from the benchmark seed,
  so the program only ever receives generated inputs;
* an untraced pass through the entry points a user calls;
* a traced pass that wraps each call into a freemp module in a span named
  after that module. For clt and hat it replays the library's checks step
  by step through public calls, and run.py checks that the replay
  reproduces the untraced outputs bit for bit;
* references and checks that decide whether the outputs are correct.

Modes: ``setup`` stops after set-up, ``pass`` runs the untraced pass and
``traced`` the traced one.
"""

import argparse
import hashlib
import json
import platform
import resource
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import freemp
from freemp import (DataMatrixSpec, ExperimentConfig, FreeConvolution,
                    CltReport, GateTolerances, build_contour, check_hat_rate,
                    check_local_law, clt_variance, default_contour,
                    density_batch, eigenvalues, empirical_stieltjes, hat_fc,
                    ks_normality, linear_statistic, mean_statistic,
                    parse_func, parse_law, report_to_csv, report_to_json,
                    sample_data_matrix, sample_population, stieltjes_batch,
                    support_edges)
from freemp.cli import main as cli_main
from freemp.cli import parse_config
from freemp.errors import FreempError
from freemp.verify import LOCAL_LAW_E_POINTS, LOCAL_LAW_ETA_POINTS

import references as ref

ROOT = Path(__file__).resolve().parent.parent
CLT_CONFIG = ROOT / "configs" / "clt_default.cfg"
SCRATCH = ROOT / ".perfbench"

# limit: (label, gamma0, law, runs the contour functionals)
LIMIT_CASES = (
    ("a", 0.5, "uniform:0.5,1", True),    # the paper's workhorse case
    ("b", 2.0, "linear:0.2,1,1", True),   # ratio above 1, sloped density
    ("c", 0.25, "dirac:1", False),        # Marchenko-Pastur, closed form
)
DENSITY_POINTS = 200
STIELTJES_POINTS = 200
VARIANCE_FUNCS = ("poly:0,0,1", "poly:0,1", "exp:1")   # the first call is cold
MEAN_FUNCS = ("poly:0,0,1", "poly:1")
VARIANCE_REFS = {"poly:0,0,1": ref.variance_x2, "poly:0,1": ref.variance_x}
MEAN_REFS = {"poly:0,0,1": ref.mean_x2, "poly:1": lambda law, g: ref.mean_one(g)}

HAT_LAW = "uniform:0.5,1"
HAT_GAMMA0 = 0.5
HAT_N = (250, 500, 1000, 2000)
HAT_REPS = 5
# The rate check's draws are fixed: the seed of the acceptance suite. A
# warm hat solve costs about 130 or about 650 evaluations per node
# depending on the draw, so seeded rate draws made hat.run_s spread by 25%
# (quartiles over median) across benchmark seeds. The seed varies the
# local-law draws instead.
HAT_RATE_SEED = 20240817
LOCAL_LAW_N = 1000
LOCAL_LAW_DRAWS = 3
LOCAL_LAW_TAU = 0.1
LOCAL_LAW_EPS = 0.1

# tolerances of the correctness checks
EDGE_ATOL = 1e-8
STIELTJES_ATOL = 1e-10
RESIDUAL_TOL = 1e-9          # backward error, relative to max(1, |z|)
MASS_ATOL = 1e-2             # trapezoid on 200 points across sqrt edges
DENSITY_INTERIOR_ATOL = 1e-6
DENSITY_EDGE_SKIP = 5        # grid points next to each edge left unchecked
FUNCTIONAL_RTOL = 1e-8


class Tracer:
    """Spans around the benchmark's calls into freemp, kept in memory.

    A span is named ``<module>.<operation>`` and belongs to the phase
    (set-up or run) it was recorded in; spans never nest. With tracing off,
    call() records nothing and only the stage clocks run: those are the
    few coarse sub-timings reported end to end.
    """

    def __init__(self, on: bool):
        self.on = on
        self.phase = "setup"
        self.spans = []
        self.stages = {}
        self.counts = {}
        self.replicate_s = []
        self.solved = []     # (population, ratio, z, m) for backward errors

    @contextmanager
    def call(self, name: str):
        if not self.on:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, self.phase, start, time.perf_counter()))

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = (self.stages.get(name, 0.0)
                                 + time.perf_counter() - start)

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


def _check(name: str, failures: list, attempted: int = 1,
           failed: int | None = None) -> dict:
    """One checked operation; failures are the reasons it missed."""
    if failed is None:
        failed = attempted if failures else 0
    return {"name": name, "attempted": attempted, "failed": failed,
            "detail": "; ".join(failures)}


def _gram_flop(M: int, N: int) -> float:
    """Computed flops of eigenvalues(): the smaller Gram product
    (2 n^2 k) plus a symmetric eigensolve without vectors (4/3 n^3)."""
    n, k = min(M, N), max(M, N)
    return 2.0 * n * n * k + 4.0 / 3.0 * n ** 3


# ---------------------------------------------------------------------------
# limit: deterministic limit quantities, no sampling

def _offaxis_points(rng, n: int) -> np.ndarray:
    """The off-axis z distribution of acceptance check 02."""
    re = rng.uniform(-3.0, 12.0, n)
    im = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), n))
    return re + 1j * im


def limit_setup(seed: int, tr: Tracer) -> dict:
    rng = np.random.default_rng(seed)
    cases = []
    for label, gamma0, law_spec, functionals in LIMIT_CASES:
        with tr.call("grammar.parse"):
            law = parse_law(law_spec)
        with tr.call("measures.as_measure"):
            base = law.as_measure()
        cases.append({"label": label, "gamma0": gamma0, "law": law_spec,
                      "functionals": functionals,
                      "fc": FreeConvolution(base, gamma0),
                      "z": _offaxis_points(rng, STIELTJES_POINTS)})
    with tr.call("grammar.parse"):
        funcs = {s: parse_func(s) for s in VARIANCE_FUNCS + MEAN_FUNCS}
    return {"cases": cases, "funcs": funcs}


def limit_run(inputs: dict, tr: Tracer) -> dict:
    """The same calls traced or not; only the spans differ."""
    out = {}
    funcs = inputs["funcs"]
    for case in inputs["cases"]:
        label, fc, z = case["label"], case["fc"], case["z"]
        with tr.call("freeconv.edges"):
            edges = support_edges(fc)
        out[f"{label}.edges"] = (edges.L_minus, edges.L_plus)
        grid = np.linspace(edges.L_minus, edges.L_plus, DENSITY_POINTS)
        with tr.stage("density"), tr.call("freeconv.density"):
            out[f"{label}.density"] = density_batch(fc, grid, warn=False)
        tr.count("freeconv.density_points", grid.size)
        with tr.call("freeconv.stieltjes"):
            m = out[f"{label}.stieltjes"] = stieltjes_batch(fc, z)
        tr.count("freeconv.stieltjes_points", z.size)
        tr.solved.append((case["law"], case["gamma0"], z, m))
        if not case["functionals"]:
            continue
        cold, *warm = VARIANCE_FUNCS
        with tr.stage("variance"):
            with tr.call("contour.build"):
                default_contour(fc)
            with tr.call("contour.variance_cold"):
                out[f"{label}.variance.{cold}"] = clt_variance(fc, funcs[cold])
        for spec in warm:
            with tr.call("contour.variance_warm"):
                out[f"{label}.variance.{spec}"] = clt_variance(fc, funcs[spec])
            tr.count("contour.warm_calls")
        for spec in MEAN_FUNCS:
            with tr.call("contour.mean"):
                out[f"{label}.mean.{spec}"] = mean_statistic(fc, funcs[spec])
    return out


def limit_references(inputs: dict) -> dict:
    refs = {}
    for case in inputs["cases"]:
        label, g, law = case["label"], case["gamma0"], case["law"]
        refs[f"{label}.density.mass"] = ref.mean_one(g)
        if law == "dirac:1":
            a, b = ref.mp_edges(g)
            refs[f"{label}.edges"] = (a, b)
            refs[f"{label}.density"] = ref.mp_density(
                np.linspace(a, b, DENSITY_POINTS), g)
            refs[f"{label}.stieltjes"] = ref.mp_stieltjes(case["z"], g)
        if case["functionals"]:
            for spec, fn in VARIANCE_REFS.items():
                refs[f"{label}.variance.{spec}"] = fn(law, g)
            for spec, fn in MEAN_REFS.items():
                refs[f"{label}.mean.{spec}"] = fn(law, g)
    return refs


def _rel_miss(got: float, want: float, rtol: float) -> list:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{got!r} vs reference {want!r} (rtol {rtol:g})"]


def limit_evaluate(inputs: dict, out: dict, refs: dict) -> list:
    checks = []
    for case in inputs["cases"]:
        label, g, law, z = (case["label"], case["gamma0"], case["law"],
                            case["z"])
        names = [f"{label}.edges", f"{label}.density", f"{label}.stieltjes"]
        if case["functionals"]:
            names += [f"{label}.variance.{s}" for s in VARIANCE_FUNCS]
            names += [f"{label}.mean.{s}" for s in MEAN_FUNCS]
        for name in names:
            if name not in out:
                checks.append(_check(name, ["not produced"]))
                continue
            got, want, miss = out[name], refs.get(name), []
            op = name.split(".")[1]
            if op == "edges":
                if not 0.0 < got[0] < got[1]:
                    miss.append(f"edges {got} out of order")
                if want is not None and max(abs(got[0] - want[0]),
                                            abs(got[1] - want[1])) > EDGE_ATOL:
                    miss.append(f"edges {got} vs reference {want}")
            elif op == "density":
                lo, hi = out[f"{label}.edges"]
                mass = float(np.trapezoid(got, np.linspace(lo, hi, got.size)))
                if abs(mass - refs[f"{label}.density.mass"]) > MASS_ATOL:
                    miss.append(f"mass {mass!r} vs "
                                f"{refs[f'{label}.density.mass']!r}")
                if want is not None:
                    k = DENSITY_EDGE_SKIP
                    err = float(np.max(np.abs(got - want)[k:-k]))
                    if err > DENSITY_INTERIOR_ATOL:
                        miss.append(f"interior density err {err:.2e}")
            elif op == "stieltjes":
                if not np.all(got.imag > 0.0):
                    miss.append("left the upper half plane")
                rule = ref.law_rule(law, ref.RESIDUAL_NODES)
                res = float(np.max(ref.backward_error(rule, g, z, got)
                                   / np.maximum(1.0, np.abs(z))))
                if res > RESIDUAL_TOL:
                    miss.append(f"backward error {res:.2e}")
                if want is not None:
                    err = float(np.max(np.abs(got - want)))
                    if err > STIELTJES_ATOL:
                        miss.append(f"closed-form err {err:.2e}")
            else:
                if not np.isfinite(got):
                    miss.append(f"non-finite {got!r}")
                elif op == "variance" and got < 0.0:
                    miss.append(f"negative variance {got!r}")
                elif want is not None:
                    miss += _rel_miss(got, want, FUNCTIONAL_RTOL)
            checks.append(_check(name, miss))
    return checks


def limit_key(inputs: dict, out: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(out):
        h.update(np.ascontiguousarray(out[name]).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# clt: the shipped demonstration through the command line

def _read_cfg(path: Path) -> dict:
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def clt_setup(seed: int, tr: Tracer) -> dict:
    cli_seed = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    outdir = SCRATCH / f"clt-{seed}-{'traced' if tr.on else 'pass'}"
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["clt", "--config", str(CLT_CONFIG), "--seed", str(cli_seed),
            "--workers", "1", "--output", str(outdir)]
    return {"argv": argv, "outdir": outdir, "cli_seed": cli_seed}


def clt_run(inputs: dict, tr: Tracer) -> dict:
    return {"exit": cli_main(inputs["argv"])}


def clt_replay(inputs: dict, tr: Tracer) -> dict:
    """run_clt_experiment and the clt subcommand, one public call at a time."""
    with tr.call("cli.parse_config"):
        cfg = parse_config(inputs["argv"])
    p = cfg.parameters
    f, gamma0, reps = p["f"], p["gamma0"], p["reps"]
    experiment = ExperimentConfig(
        gamma0=gamma0, nu=p["nu"], f=f, N_list=(p["n"],), replicates=reps,
        seed=cfg.seed, entry_law=p["entry_law"], d=p["d"],
        output_path=cfg.output)
    spec = DataMatrixSpec.from_ratio(gamma0, p["n"], p["entry_law"])
    with tr.call("measures.as_measure"):
        base = p["nu"].as_measure()
    fc = FreeConvolution(base, gamma0)
    with tr.call("freeconv.edges"):
        edges = support_edges(fc)
    with tr.call("contour.build"):
        contour = (default_contour(fc) if p["d"] is None
                   else build_contour(edges, d=p["d"]))
    with tr.call("contour.mean"):
        mean_inside = mean_statistic(fc, f, contour=contour)
    with tr.call("contour.variance_cold"):
        theoretical = clt_variance(fc, f, contour=contour)

    seeds = np.random.SeedSequence(cfg.seed).generate_state(reps, np.uint64)
    samples = np.empty(reps)
    for i, s in enumerate(seeds):
        start = time.perf_counter()
        rng = np.random.default_rng(int(s))
        with tr.call("measures.sample_population"):
            sigma = sample_population(p["nu"], spec.M, rng)
        with tr.call("rmt.sample_matrix"):
            X = sample_data_matrix(spec, rng)
        with tr.call("rmt.eigenvalues"):
            e = eigenvalues(sigma, X)
        with tr.call("rmt.statistic"):
            samples[i] = linear_statistic(e, f, mean_inside, gamma0)
        tr.replicate_s.append(time.perf_counter() - start)
    tr.count("rmt.eig_flop", reps * _gram_flop(spec.M, spec.N))

    empirical = float(np.var(samples, ddof=1))
    with tr.call("verify.ks"):
        ks_statistic, ks_pvalue = ks_normality(samples, theoretical)
    tol = experiment.tolerances
    band = tol.variance_band * np.sqrt(2.0 / reps)
    gates = (abs(empirical / theoretical - 1.0) < band,
             ks_pvalue > tol.ks_pvalue_min)
    tr.count("verify.gates_run", len(gates))
    tr.count("verify.gates_passed", int(sum(gates)))
    report = CltReport(samples=samples, replicate_seeds=seeds,
                       empirical_variance=empirical,
                       theoretical_variance=theoretical,
                       mean=float(np.mean(samples)),
                       ks_statistic=ks_statistic, ks_pvalue=ks_pvalue,
                       passed=all(gates), degenerate=False,
                       N=spec.N, M=spec.M, d=contour.d)
    with tr.call("cli.artifact_write"):
        inputs["outdir"].mkdir(parents=True, exist_ok=True)
        for name, text in (("clt.json", report_to_json(experiment, report)),
                           ("clt.csv", report_to_csv(experiment, report))):
            data = text.encode("utf-8")
            (inputs["outdir"] / name).write_bytes(data)
            tr.count("cli.artifact_bytes", len(data))
    return {"exit": 0 if report.passed else 2}


def clt_references(inputs: dict) -> dict:
    cfg = _read_cfg(CLT_CONFIG)
    if parse_func(cfg["f"]) != parse_func("poly:0,0,1"):
        raise ValueError(f"no closed-form reference for f = {cfg['f']}")
    return {"clt.prediction": ref.variance_x2(cfg["nu"], float(cfg["gamma0"])),
            "clt.rows": int(cfg["reps"])}


def _clt_artifacts(inputs: dict):
    try:
        doc = json.loads((inputs["outdir"] / "clt.json").read_text())
        csv = (inputs["outdir"] / "clt.csv").read_text()
    except (OSError, ValueError):
        return None, None
    rows = [line for line in csv.splitlines()
            if line and not line.startswith("#")][1:]
    return doc, rows


def clt_evaluate(inputs: dict, out: dict, refs: dict) -> list:
    doc, rows = _clt_artifacts(inputs)
    code = out.get("exit")
    # exit 2 is a statistical gate outcome, not a failure
    miss = [] if code in (0, 2) else [f"exit code {code}"]
    if rows is None:
        miss.append("artifacts missing or unreadable")
    elif len(rows) != refs["clt.rows"]:
        miss.append(f"{len(rows)} csv rows for {refs['clt.rows']} replicates")
    checks = [_check("clt.run", miss)]
    if doc is None:
        checks.append(_check("clt.prediction", ["not produced"]))
    else:
        checks.append(_check("clt.prediction", _rel_miss(
            doc["theoretical_variance"], refs["clt.prediction"],
            FUNCTIONAL_RTOL)))
    return checks


def clt_key(inputs: dict, out: dict) -> str:
    h = hashlib.sha256()
    for name in ("clt.json", "clt.csv"):
        path = inputs["outdir"] / name
        h.update(path.read_bytes() if path.exists() else b"missing")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# hat: empirical populations, warm-started rate solves, cold local-law lattice

def hat_setup(seed: int, tr: Tracer) -> dict:
    with tr.call("grammar.parse"):
        law = parse_law(HAT_LAW)
    spec = DataMatrixSpec.from_ratio(HAT_GAMMA0, LOCAL_LAW_N)
    draws = []
    for seq in np.random.SeedSequence(seed).spawn(LOCAL_LAW_DRAWS):
        rng = np.random.default_rng(seq)
        with tr.call("measures.sample_population"):
            sigma = sample_population(law, spec.M, rng)
        with tr.call("rmt.sample_matrix"):
            X = sample_data_matrix(spec, rng)
        draws.append((sigma, X))
    return {"law": law, "draws": draws}


def _hat_out(averages, slope, local) -> dict:
    return {"averages": list(averages), "slope": slope, "local": local}


def hat_run(inputs: dict, tr: Tracer) -> dict:
    with tr.stage("rate"):
        rate = check_hat_rate(inputs["law"], HAT_GAMMA0, HAT_N, HAT_REPS,
                              HAT_RATE_SEED, workers=1)
    local = []
    with tr.stage("locallaw"):
        for sigma, X in inputs["draws"]:
            r = check_local_law(sigma, X, LOCAL_LAW_TAU, LOCAL_LAW_EPS)
            local.append([r.max_ratio, r.points, len(r.skipped)])
    return _hat_out(rate.averages, rate.slope, local)


def _hat_rate_replay(inputs: dict, tr: Tracer):
    """check_hat_rate, one public call at a time."""
    law = inputs["law"]
    with tr.call("measures.as_measure"):
        base = law.as_measure()
    fc = FreeConvolution(base, HAT_GAMMA0)
    with tr.call("freeconv.edges"):
        support_edges(fc)
    with tr.call("contour.build"):
        xi, _ = default_contour(fc).nodes(0)
    with tr.call("freeconv.stieltjes"):
        m_pop = stieltjes_batch(fc, xi)
    tr.count("freeconv.stieltjes_points", xi.size)
    tr.solved.append((HAT_LAW, HAT_GAMMA0, xi, m_pop))

    n_values = tuple(sorted(HAT_N))
    averages = []
    children = np.random.SeedSequence(HAT_RATE_SEED).spawn(len(n_values))
    for child, N in zip(children, n_values):
        spec = DataMatrixSpec.from_ratio(HAT_GAMMA0, N)
        sups = []
        for s in child.generate_state(HAT_REPS, np.uint64):
            rng = np.random.default_rng(int(s))
            with tr.call("measures.sample_population"):
                sigma = sample_population(law, spec.M, rng)
            with tr.call("rmt.hat_fc"):
                fc_hat = hat_fc(sigma, spec.M, N)
            tr.count("freeconv.warm_attempts")
            try:
                with tr.call("freeconv.warm_solve"):
                    m_hat = stieltjes_batch(fc_hat, xi, m0=m_pop)
                tr.count("freeconv.warm_successes")
            except FreempError:
                with tr.call("freeconv.cold_solve"):
                    m_hat = stieltjes_batch(fc_hat, xi)
                tr.count("freeconv.cold_points", xi.size)
            tr.solved.append((sigma, spec.M / N, xi, m_hat))
            sups.append(float(np.abs(m_hat - m_pop).max()))
        averages.append(float(np.mean(np.array(sups))))
    slope = float(np.polyfit(np.log(n_values), np.log(averages), 1)[0])
    tol = GateTolerances()
    tr.count("verify.gates_run")
    tr.count("verify.gates_passed",
             int(tol.rate_slope_lo <= slope <= tol.rate_slope_hi))
    return averages, slope


def _local_law_replay(sigma, X, tr: Tracer) -> list:
    """check_local_law, one public call at a time."""
    M, N = X.shape
    tau, eps = LOCAL_LAW_TAU, LOCAL_LAW_EPS
    with tr.call("rmt.eigenvalues"):
        e = eigenvalues(sigma, X)
    tr.count("rmt.eig_flop", _gram_flop(M, N))
    with tr.call("rmt.hat_fc"):
        fc = hat_fc(sigma, M, N)
    etas = np.geomspace(N ** (tau - 1.0), 1.0 / tau, LOCAL_LAW_ETA_POINTS)
    energies = np.geomspace(tau, 1.0 / tau, LOCAL_LAW_E_POINTS)
    z = (energies[:, None] + 1j * etas[None, :]).ravel()
    z = z[np.abs(z) >= tau]
    with tr.call("rmt.empirical_stieltjes"):
        m_emp = empirical_stieltjes(e, z)
    skipped = []
    ratios = []
    tr.count("freeconv.cold_points", z.size)
    try:
        with tr.call("freeconv.cold_solve"):
            m_hat = stieltjes_batch(fc, z)
        tr.solved.append((sigma, M / N, z, m_hat))
        ratios.append(np.abs(m_emp - m_hat) * N * z.imag / N ** eps)
    except FreempError:
        for zk, mk in zip(z, m_emp):
            try:
                with tr.call("freeconv.cold_solve"):
                    m_hat_k = stieltjes_batch(fc, np.array([zk]))[0]
            except FreempError as exc:
                skipped.append(str(exc))
                continue
            ratios.append(np.atleast_1d(
                abs(mk - m_hat_k) * N * zk.imag / N ** eps))
    ratio = np.concatenate(ratios) if ratios else np.array([np.inf])
    max_ratio = float(ratio.max())
    tr.count("verify.gates_run")
    tr.count("verify.gates_passed",
             int(max_ratio <= GateTolerances().local_law_ratio))
    return [max_ratio, int(ratio.size), len(skipped)]


def hat_replay(inputs: dict, tr: Tracer) -> dict:
    with tr.stage("rate"):
        averages, slope = _hat_rate_replay(inputs, tr)
    with tr.stage("locallaw"):
        local = [_local_law_replay(sigma, X, tr)
                 for sigma, X in inputs["draws"]]
    return _hat_out(averages, slope, local)


def hat_references(inputs: dict) -> dict:
    return {}


def hat_evaluate(inputs: dict, out: dict, refs: dict) -> list:
    if "averages" not in out:
        return [_check("hat.rate", ["not produced"]),
                _check("hat.locallaw", ["not produced"])]
    avg = np.asarray(out["averages"])
    miss = [] if (avg.size == len(HAT_N) and np.all(np.isfinite(avg))
                  and np.all(avg > 0.0)) else [f"averages {out['averages']}"]
    checks = [_check("hat.rate", miss)]
    for k, (max_ratio, points, skipped) in enumerate(out["local"]):
        miss = [f"{skipped} lattice points skipped"] if skipped else []
        if not np.isfinite(max_ratio):
            miss.append(f"max ratio {max_ratio!r}")
        # every lattice point is one operation; a skipped point failed
        checks.append(_check(f"hat.locallaw.{k}", miss,
                             attempted=points + skipped,
                             failed=skipped + (0 if np.isfinite(max_ratio)
                                               else points)))
    return checks


def hat_key(inputs: dict, out: dict) -> str:
    return hashlib.sha256(repr(sorted(out.items())).encode()).hexdigest()


# ---------------------------------------------------------------------------
# one pass

WORKLOADS = {
    # name: (setup, untraced pass, traced pass, references, evaluate, key)
    "limit": (limit_setup, limit_run, limit_run, limit_references,
              limit_evaluate, limit_key),
    "clt": (clt_setup, clt_run, clt_replay, clt_references, clt_evaluate,
            clt_key),
    "hat": (hat_setup, hat_run, hat_replay, hat_references, hat_evaluate,
            hat_key),
}


def max_backward_error(solved) -> float:
    """Worst backward error over the traced solves, on the benchmark's own
    quadrature (law rules for populations, atoms for sampled spectra)."""
    worst = 0.0
    for population, ratio, z, m in solved:
        rule = (ref.law_rule(population, ref.RESIDUAL_NODES)
                if isinstance(population, str) else ref.atoms_rule(population))
        res = ref.backward_error(rule, ratio, z, m) / np.maximum(1.0, np.abs(z))
        worst = max(worst, float(res.max()))
    return worst


def run_pass(workload: str, seed: int, mode: str, spawned_at: float) -> dict:
    setup, run, replay, references, evaluate, key = WORKLOADS[workload]
    tr = Tracer(on=mode == "traced")
    inputs = setup(seed, tr)
    record = {"setup_s": time.monotonic() - spawned_at,
              "python": platform.python_version(), "numpy": np.__version__}
    if mode == "setup":
        return record
    tr.phase = "run"
    errors = []
    start = time.perf_counter()
    try:
        out = (replay if tr.on else run)(inputs, tr)
    except Exception as exc:   # a failed operation is counted, not fatal
        out = {}
        errors.append(f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    record.update(
        run_s=end - start, run_start=start, run_end=end,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        stages=tr.stages, counts=tr.counts, errors=errors,
        checks=evaluate(inputs, out, references(inputs)),
        key=key(inputs, out))
    if tr.on:
        record.update(spans=tr.spans, replicate_s=tr.replicate_s,
                      max_residual=(max_backward_error(tr.solved)
                                    if tr.solved else None))
    if "outdir" in inputs:
        shutil.rmtree(inputs["outdir"], ignore_errors=True)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--spawned-at", required=True, type=float)
    args = ap.parse_args()
    if not Path(freemp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"freemp imported from {freemp.__file__}, "
                         f"not from {ROOT / 'src'}")
    record = run_pass(args.workload, args.seed, args.mode, args.spawned_at)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
