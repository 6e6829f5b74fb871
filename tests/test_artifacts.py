"""Artifact digests: the commands whose artifacts read no eigenvalues, run
in process, against the SHA-256 digests in artifact_digests.json; and the
two that read eigenvalues, against the values in artifact_values.json.

Every JSON artifact is parsed as strict JSON, so a non-finite number in
any of them fails here.  The digested bytes depend on freemp and numpy
alone, not on the BLAS thread count, so a change that moves a last bit of
any of them fails here.
The digests were taken under the numpy version stored beside them; under
another version the tests skip and name both.  A change that moves bytes
on purpose regenerates the file,

    PYTHONPATH=src python tests/test_artifacts.py > tests/artifact_digests.json

and states in CHANGES.md which artifacts moved, by how much and why.

Eigenvalues come from eigvalsh, whose last bits follow the BLAS thread
count, so `simulate` and `locallaw` are held to their values within
VALUE_ATOL and RATIO_RTOL.  Between one and two threads the eigenvalues
moved by 6.0e-15 and max_ratio by 2.9e-14 relative.  The values file is
printed by `PYTHONPATH=src python tests/test_artifacts.py values`.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from freemp.cli import main

from oracles import strict_json

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "clt_default.cfg"
DIGESTS = Path(__file__).with_name("artifact_digests.json")
VALUES = Path(__file__).with_name("artifact_values.json")
VALUE_ATOL = 1e-13        # each eigenvalue of simulate.csv
RATIO_RTOL = 1e-12        # locallaw.json's max_ratio

# name: (argv without --output, the files the command writes)
RUNS = {
    "edges-uniform": (["edges", "--nu", "uniform:0.5,1", "--gamma0", "0.5"],
                      ("edges.json",)),
    "edges-linear": (["edges", "--nu", "linear:0.2,1,1", "--gamma0", "2"],
                     ("edges.json",)),
    "edges-dirac": (["edges", "--nu", "dirac:1", "--gamma0", "0.25"],
                    ("edges.json",)),
    "density-uniform": (["density", "--nu", "uniform:0.5,1", "--gamma0",
                         "0.5"], ("density.csv",)),
    "density-linear": (["density", "--nu", "linear:0.2,1,1", "--gamma0",
                        "2"], ("density.csv",)),
    "variance-uniform": (["variance", "--nu", "uniform:0.5,1", "--gamma0",
                          "0.5", "--f", "poly:0,0,1"], ("variance.json",)),
    "variance-linear": (["variance", "--nu", "linear:0.2,1,1", "--gamma0",
                         "2", "--f", "exp:1"], ("variance.json",)),
    "rate": (["rate", "--nu", "uniform:0.5,1", "--gamma0", "0.5", "--n_list",
              "250,500,1000,2000", "--reps", "5", "--seed", "20240817"],
             ("rate.json",)),
    # f = x^2 reads the Gram form's power sums, no eigenvalue
    "clt-default": (["clt", "--config", str(CONFIG), "--reps", "200"],
                    ("clt.json", "clt.csv")),
}


# name: argv without --output of a command whose artifact reads eigenvalues
VALUE_RUNS = {
    "simulate": ["simulate", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                 "--n", "1000", "--seed", "7"],
    "locallaw": ["locallaw", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                 "--n", "1000", "--seed", "20240817"],
}


def run_digests(name: str, out_dir: str) -> dict:
    """Run RUNS[name] into out_dir; the SHA-256 of each file it writes,
    each JSON file parsed as strict JSON first."""
    argv, files = RUNS[name]
    assert main(argv + ["--output", out_dir]) in (0, 2), name
    for f in files:
        if f.endswith(".json"):
            strict_json(Path(out_dir, f).read_text())
    return {f"{name}/{f}": hashlib.sha256(
        Path(out_dir, f).read_bytes()).hexdigest() for f in files}


@pytest.fixture(scope="module")
def stored() -> dict:
    record = json.loads(DIGESTS.read_text())
    if record["numpy"] != np.__version__:
        pytest.skip(f"digests taken under numpy {record['numpy']}, this is "
                    f"numpy {np.__version__}")
    return record["digests"]


def run_values(name: str, out_dir: str) -> dict:
    """Run VALUE_RUNS[name] into out_dir; the values its artifact holds."""
    code = main(VALUE_RUNS[name] + ["--output", out_dir])
    if name == "simulate":
        lines = Path(out_dir, "simulate.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        return {"code": code, "eigenvalues": [float(row.split(",")[1])
                                              for row in rows]}
    doc = strict_json(Path(out_dir, "locallaw.json").read_text())
    return {"code": code, "max_ratio": doc["max_ratio"],
            "points": doc["points"], "pass": doc["pass"]}


@pytest.mark.parametrize("name", RUNS)
def test_artifact_bytes(name, stored, tmp_path):
    got = run_digests(name, str(tmp_path))
    assert got == {key: stored[key] for key in got}


@pytest.mark.parametrize("name", VALUE_RUNS)
def test_artifact_values(name, tmp_path):
    want = json.loads(VALUES.read_text())[name]
    got = run_values(name, str(tmp_path))
    if name == "simulate":
        assert got["code"] == want["code"] == 0
        assert len(got["eigenvalues"]) == len(want["eigenvalues"]) == 1000
        assert np.max(np.abs(np.subtract(got["eigenvalues"],
                                         want["eigenvalues"]))) <= VALUE_ATOL
    else:
        assert {k: got[k] for k in ("code", "points", "pass")} == \
            {k: want[k] for k in ("code", "points", "pass")}
        assert abs(got["max_ratio"] - want["max_ratio"]) <= \
            RATIO_RTOL * want["max_ratio"]


if __name__ == "__main__":
    values = sys.argv[1:] == ["values"]
    found = {}
    with contextlib.redirect_stdout(sys.stderr):
        for name in VALUE_RUNS if values else RUNS:
            with tempfile.TemporaryDirectory() as out_dir:
                if values:
                    found[name] = run_values(name, out_dir)
                else:
                    found.update(run_digests(name, out_dir))
    print(json.dumps(found if values else {"numpy": np.__version__,
                                           "digests": found}, indent=2))
