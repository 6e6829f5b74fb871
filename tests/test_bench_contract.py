"""The benchmark's library contract, checked in the tier-1 suite.

perfbench/workloads.py is frozen with the benchmark and imports freemp
names directly (default_contour, build_contour, CltReport, ...).  Importing
it resolves every one of them.  Untraced and traced passes of the limit
workload, and shrunken ones of clt and hat (its rate check in two solves),
run its calls, replays and correctness checks, so a library change that
breaks the benchmark fails here rather than at benchmark time.  The traced
limit and hat passes must also keep the worst backward error of their
solves within the solver's own RESIDUAL_TOL, so a solver change that keeps
the keys but loses accuracy fails too.
"""

import time
from pathlib import Path

import pytest

from freemp import freeconv, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL_CLT_CFG = """\
gamma0=0.5
nu=uniform:0.5,1.0
f=poly:0,0,1
n=50
reps=100
entry_law=gaussian
seed=20240817
"""


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    cfg = tmp_path / "clt_small.cfg"
    cfg.write_text(SMALL_CLT_CFG, encoding="utf-8")
    monkeypatch.setattr(workloads, "CLT_CONFIG", cfg)
    monkeypatch.setattr(workloads, "HAT_N", (50, 100, 400))
    # 3 sizes x 11 replicates: 33 draws, one more than a rate solve takes
    monkeypatch.setattr(workloads, "HAT_REPS", 11)
    monkeypatch.setattr(workloads, "LOCAL_LAW_N", 100)
    monkeypatch.setattr(workloads, "LOCAL_LAW_DRAWS", 1)
    monkeypatch.setattr(workloads, "SCRATCH", tmp_path / "scratch")
    return workloads


def _clean_pass(workloads, name: str, mode: str) -> dict:
    record = workloads.run_pass(name, 0, mode, time.monotonic())
    assert record["errors"] == []
    assert record["checks"]
    failed = [c for c in record["checks"] if c["failed"]]
    assert failed == []
    return record


def test_limit_workload_pass(workloads):
    untraced = _clean_pass(workloads, "limit", "pass")
    traced = _clean_pass(workloads, "limit", "traced")
    assert traced["key"] == untraced["key"]
    assert traced["max_residual"] <= freeconv.RESIDUAL_TOL


def test_clt_workload_pass_and_replay(workloads):
    # no key equality: the replay's passed leaves out the mean gate, so
    # its clt.json may differ from the command line's on some seeds
    _clean_pass(workloads, "clt", "pass")
    _clean_pass(workloads, "clt", "traced")


def test_hat_workload_replay_reproduces_pass(workloads, monkeypatch):
    rows = []

    def spy(fcs, z, m0=None):
        rows.append(len(fcs))
        return freeconv.stieltjes_rows(fcs, z, m0)

    monkeypatch.setattr(verify, "stieltjes_rows", spy)
    untraced = _clean_pass(workloads, "hat", "pass")
    assert rows == [32, 1]
    traced = _clean_pass(workloads, "hat", "traced")
    assert traced["key"] == untraced["key"]
    assert traced["max_residual"] <= freeconv.RESIDUAL_TOL
