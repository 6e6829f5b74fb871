"""Tests of the benchmark itself: python3 -m pytest -q perfbench

The metric tests run each workload once, traced, so this file takes about
two minutes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_every_name_and_unit_is_well_formed():
    spec = _declared()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        assert all(UNIT.fullmatch(m["unit"]) for m in spec[group])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    for table in (run.STAGES, run.PER_LAYER):
        assert all(NAME.fullmatch(n) for n in table)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    result = _run(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    record = json.loads(
        (ROOT / ".perfbench" / f"{workload}-seed5-trace1.json").read_text())
    e2e = record["end_to_end"]
    assert set(e2e) == set(run.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    assert set(record["stages"]) == {f"{s}_s" for s in run.STAGES[workload]}
    assert not record["layer_problems"]


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _run("hat", trace=0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert result["correct"] and result["failed"] == 0


def test_seed_changes_the_clt_and_hat_inputs():
    def clt(seed):
        return workloads.clt_setup(seed, workloads.Tracer(False))["cli_seed"]

    def hat(seed):
        draws = workloads.hat_setup(seed, workloads.Tracer(False))["draws"]
        return np.concatenate([np.concatenate([s, X.ravel()]) for s, X in draws])

    assert clt(1) == clt(1) and clt(1) != clt(2)
    assert np.array_equal(hat(1), hat(1))
    assert not np.array_equal(hat(1), hat(2))


def _failed_frac(checks) -> float:
    return (sum(c["failed"] for c in checks)
            / sum(c["attempted"] for c in checks))


def test_a_wrong_reference_raises_failed_frac():
    tr = workloads.Tracer(False)
    inputs = workloads.limit_setup(7, tr)
    # the Marchenko-Pastur case alone keeps the test fast
    inputs["cases"] = [c for c in inputs["cases"] if c["label"] == "c"]
    out = workloads.limit_run(inputs, tr)
    refs = workloads.limit_references(inputs)
    assert _failed_frac(workloads.limit_evaluate(inputs, out, refs)) == 0.0

    lo, hi = refs["c.edges"]
    refs["c.edges"] = (lo, hi + 1e-6)
    checks = workloads.limit_evaluate(inputs, out, refs)
    assert _failed_frac(checks) > 0.0
    assert [c["name"] for c in checks if c["failed"]] == ["c.edges"]


def test_overlapping_spans_invalidate_the_layer_numbers():
    traced = {"spans": [["freeconv.edges", "run", 1.0, 2.0],
                        ["contour.build", "run", 1.5, 2.5]],
              "counts": {}, "run_s": 2.0, "run_start": 1.0, "run_end": 3.0,
              "max_residual": None, "replicate_s": []}
    layers, problems = run.per_layer(traced, untraced_run_s=2.0)
    assert problems
    traced["spans"][1][2] = 2.0
    layers, problems = run.per_layer(traced, untraced_run_s=2.0)
    assert not problems
    assert layers["verify.self_s"] == pytest.approx(0.5)
