"""freemp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload limit|clt|hat|all --seed N \
        --seconds S --trace 0|1

Each pass runs in a fresh interpreter (perfbench/workloads.py), pinned to
one thread, so the cold costs a command-line user pays on every call are
in the numbers. A run starts a few set-up-only interpreters for setup_s,
then untraced passes until the next one would overrun --seconds (at least
one), and with --trace 1 one traced pass after them. Every line but the
last is for people; the last is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The full record, spans included, goes to
.perfbench/<workload>-seed<N>-trace<T>.json in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("limit", "clt", "hat")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "FREEMP_WORKERS": "1"}

# the metrics BENCHMARK.json declares, with their units
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "measures.as_measure_s": "s",
    "freeconv.edges_s": "s",
    "freeconv.total_s": "s",
    "contour.build_s": "s",
    "contour.total_s": "s",
    "verify.self_s": "s",
    "trace.overhead_frac": "frac",
}
# end-to-end sub-timings reported for the workloads that have the stage
STAGES = {"limit": ("variance", "density"), "clt": (),
          "hat": ("rate", "locallaw")}


class HarnessError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} pass ran over "
                           f"{CHILD_TIMEOUT_S:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} {mode} pass exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _commit() -> str:
    """HEAD of the checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    nproc = os.cpu_count()
    return {"nproc": nproc, "affinity": len(os.sched_getaffinity(0)),
            "pinned": PINNED, "commit": _commit(),
            # idle: a core is free for the single-threaded pass
            "idle_load_max": nproc - 1}


def per_layer(traced: dict, untraced_run_s: float) -> tuple[dict, list]:
    """Layer metrics from one traced pass, and the reasons (if any) they
    are invalid as a breakdown of that pass."""
    totals, calls = {}, {}
    run_spans = []
    for name, phase, start, end in traced["spans"]:
        totals[name] = totals.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if phase == "run":
            run_spans.append((start, end))
    counts = traced["counts"]
    m = {f"{name}_s": t for name, t in totals.items()}
    m.update({f"{name}_calls": n for name, n in calls.items()})
    m.update(counts)

    # disjoint spans inside the run interval, so that the spans plus the
    # self time (what no span covers) sum to the traced run_s
    problems = []
    run_s = traced["run_s"]
    run_spans.sort()
    prev_end = traced["run_start"]
    for start, end in run_spans:
        if start < prev_end or end > traced["run_end"]:
            problems.append("run-phase spans overlap or leave the run")
            break
        prev_end = end
    m["verify.self_s"] = run_s - sum(end - start for start, end in run_spans)
    m["trace.run_s"] = run_s
    m["trace.overhead_frac"] = run_s / untraced_run_s - 1.0
    for name, t in totals.items():
        layer = name.split(".")[0] + ".total_s"
        m[layer] = m.get(layer, 0.0) + t
    if "freeconv.stieltjes_s" in m:
        m["freeconv.stieltjes_us_per_point"] = (
            1e6 * m["freeconv.stieltjes_s"] / counts["freeconv.stieltjes_points"])
    if "freeconv.warm_attempts" in counts:
        m["freeconv.warm_success_ratio"] = (
            counts.get("freeconv.warm_successes", 0)
            / counts["freeconv.warm_attempts"])
    if traced["max_residual"] is not None:
        m["freeconv.max_residual"] = traced["max_residual"]
    reps = traced["replicate_s"]
    if reps:
        # tail: the highest percentile with at least 10 replicates beyond it
        tail_pct = max(1, int(100 * (1.0 - 10.0 / len(reps))))
        pct = statistics.quantiles(reps, n=100, method="inclusive")
        m["rmt.replicate_ms_p50"] = 1e3 * pct[49]
        m["rmt.replicate_ms_tail"] = 1e3 * pct[tail_pct - 1]
        m["rmt.replicate_tail_pct"] = tail_pct
        m["rmt.replicates"] = len(reps)
    if "rmt.eig_flop" in counts:
        m["rmt.eig_gflop"] = counts["rmt.eig_flop"] / 1e9
        m["rmt.eig_gflops_per_s"] = m["rmt.eig_gflop"] / m["rmt.eigenvalues_s"]
    return m, problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            env: dict) -> dict:
    load_before = os.getloadavg()
    setups = [spawn(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, "pass"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    traced = spawn(workload, seed, "traced") if trace else None
    load_after = os.getloadavg()

    measured = passes + ([traced] if traced else [])
    checks = [c for p in measured for c in p["checks"]]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    problems = [f"{c['name']}: {c['detail']}" for c in checks if c["failed"]]
    problems += [e for p in measured for e in p["errors"]]
    if len({p["key"] for p in passes}) != 1:
        problems.append("passes on the same seed gave different outputs")

    run_s = statistics.median([p["run_s"] for p in passes])
    e2e = {
        "run_s": run_s,
        "setup_s": statistics.median([p["setup_s"] for p in setups + passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }
    stages = {f"{name}_s": statistics.median(p["stages"][name] for p in passes)
              for name in STAGES[workload]}
    layers, layer_problems = {}, []
    if traced:
        layers, layer_problems = per_layer(traced, run_s)
        if traced["key"] != passes[0]["key"]:
            layer_problems.append("traced replay did not reproduce the "
                                  "untraced outputs bit for bit")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "passes": len(passes), "setups": len(setups) + len(passes),
        "load_before": load_before, "load_after": load_after,
        "idle": load_before[0] <= env["idle_load_max"],
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": e2e, "stages": stages,
        "per_layer": layers, "layer_problems": layer_problems,
        "records": {"setup": setups, "pass": passes, "traced": traced},
    }


def report(result: dict, env: dict) -> None:
    w = result["workload"]
    print(f"[{w}] seed {result['seed']}, {result['passes']} pass(es), "
          f"{result['setups']} set-ups, trace {int(result['trace'])}")
    print(f"[{w}] nproc {env['nproc']} (affinity {env['affinity']}), load "
          f"{'/'.join(f'{x:.2f}' for x in result['load_before'])} before, "
          f"{'/'.join(f'{x:.2f}' for x in result['load_after'])} after, "
          f"idle {'yes' if result['idle'] else 'no'}; "
          + " ".join(f"{k}={v}" for k, v in env["pinned"].items())
          + f"; python {result['python']}, numpy {result['numpy']}, "
          f"commit {env['commit']}")
    units = dict(END_TO_END, **{k: "s" for k in result["stages"]})
    for name, value in {**result["end_to_end"], **result["stages"]}.items():
        print(f"[{w}] {name:<30} {value:14.6f} {units[name]}")
    frac = result["failed"] / result["attempted"]
    print(f"[{w}] {'failed_frac':<30} {frac:14.6f} 1 "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"[{w}] FAILED {problem}")
    if result["trace"]:
        for name in sorted(result["per_layer"]):
            value = result["per_layer"][name]
            print(f"[{w}] {name:<36} {value:16.6g}")
        for problem in result["layer_problems"]:
            print(f"[{w}] per-layer numbers INVALID: {problem}")


def save(result: dict, env: dict) -> None:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / (f"{result['workload']}-seed{result['seed']}"
                  f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps({"environment": env, **result}, indent=1))


def summary(results: list) -> dict:
    correct = all(not r["problems"] and not r["layer_problems"]
                  for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        if r["trace"]:
            table = {k: (r["per_layer"][k], u) for k, u in PER_LAYER.items()}
        else:
            table = {k: (r["end_to_end"][k], u) for k, u in END_TO_END.items()}
        for name, (value, unit) in table.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("src/freemp/__init__.py", "configs/clt_default.cfg"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from a freemp "
                  f"checkout", file=sys.stderr)
            return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace),
                             env)
            report(result, env)
            save(result, env)
            results.append(result)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
