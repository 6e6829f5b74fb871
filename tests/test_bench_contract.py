"""The benchmark's library contract, checked in the tier-1 suite.

perfbench/workloads.py is frozen with the benchmark and imports freemp
names directly (default_contour, build_contour, CltReport, ...).  Importing
it resolves every one of them, and one untraced pass of the limit workload
runs its calls and correctness checks, so a library change that breaks the
benchmark fails here rather than at benchmark time.
"""

import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_limit_workload_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    record = workloads.run_pass("limit", 0, "pass", time.monotonic())
    assert record["errors"] == []
    assert record["checks"]
    failed = [c for c in record["checks"] if c["failed"]]
    assert failed == []

