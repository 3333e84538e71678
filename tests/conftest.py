import os

# one BLAS thread, as perfbench runs: the half-size eighs of every profile
# solve lose far more to thread start-up than they gain on two cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from fracgl import ModelParams, build_drift_system, solve_stationary_profile


@pytest.fixture(scope="session")
def params16():
    return ModelParams(16, 1.5, 0.0, 1.0)


@pytest.fixture(scope="session")
def sys16(params16):
    return build_drift_system(params16)


@pytest.fixture(scope="session")
def profile16(params16):
    return solve_stationary_profile(params16)


class ZeroRng:
    """Stands in for a Generator when the noise must be switched off."""

    def standard_normal(self, shape=None):
        return np.zeros(shape) if shape is not None else 0.0
