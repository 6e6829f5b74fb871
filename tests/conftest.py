import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freemp
from freemp.freeconv import FreeConvolution
from freemp.measures import AtomicLaw, LinearLaw


@pytest.fixture(scope="session")
def dirac_one() -> AtomicLaw:
    return AtomicLaw([1.0], [1.0])


@pytest.fixture(scope="session")
def uniform_half() -> LinearLaw:
    return LinearLaw(0.5, 1.0)


@pytest.fixture(scope="session")
def mp_quarter(dirac_one) -> FreeConvolution:
    """Marchenko-Pastur with ratio 0.25 (atom 0.75 at zero)."""
    return FreeConvolution(dirac_one, 0.25)


@pytest.fixture(scope="session")
def mp_four(dirac_one) -> FreeConvolution:
    """Marchenko-Pastur with ratio 4 (no atom at zero)."""
    return FreeConvolution(dirac_one, 4.0)


@pytest.fixture(scope="session")
def fc_uniform(uniform_half) -> FreeConvolution:
    """Uniform[0.5, 1] population at ratio 0.5: the workhorse configuration."""
    return FreeConvolution(uniform_half, 0.5)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def run_at_threads():
    """run(code, threads): the stdout of `python -c code` in a fresh
    interpreter whose BLAS and OpenMP pools have `threads` threads."""
    src = str(Path(freemp.__file__).resolve().parents[1])

    def run(code: str, threads: int) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads),
                   MKL_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout
    return run
