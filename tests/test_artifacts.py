"""Artifact digests: the commands whose artifacts read no eigenvalues, run
in process, against the SHA-256 digests in artifact_digests.json.

These bytes depend on freemp and numpy alone, not on the BLAS thread
count, so a change that moves a last bit of any of them fails here.  The
digests were taken under the numpy version stored beside them; under
another version the tests skip and name both.  A change that moves bytes
on purpose regenerates the file,

    PYTHONPATH=src python tests/test_artifacts.py > tests/artifact_digests.json

and states in CHANGES.md which artifacts moved, by how much and why.
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

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "clt_default.cfg"
DIGESTS = Path(__file__).with_name("artifact_digests.json")

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


def run_digests(name: str, out_dir: str) -> dict:
    """Run RUNS[name] into out_dir; the SHA-256 of each file it writes."""
    argv, files = RUNS[name]
    assert main(argv + ["--output", out_dir]) in (0, 2), name
    return {f"{name}/{f}": hashlib.sha256(
        Path(out_dir, f).read_bytes()).hexdigest() for f in files}


@pytest.fixture(scope="module")
def stored() -> dict:
    record = json.loads(DIGESTS.read_text())
    if record["numpy"] != np.__version__:
        pytest.skip(f"digests taken under numpy {record['numpy']}, this is "
                    f"numpy {np.__version__}")
    return record["digests"]


@pytest.mark.parametrize("name", RUNS)
def test_artifact_bytes(name, stored, tmp_path):
    got = run_digests(name, str(tmp_path))
    assert got == {key: stored[key] for key in got}


if __name__ == "__main__":
    digests = {}
    with contextlib.redirect_stdout(sys.stderr):
        for name in RUNS:
            with tempfile.TemporaryDirectory() as out_dir:
                digests.update(run_digests(name, out_dir))
    print(json.dumps({"numpy": np.__version__, "digests": digests},
                     indent=2))
