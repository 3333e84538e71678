"""The dense drift matrix M = n^gamma (P - D - B), assembled independently of
fracgl's kernel array: scipy's Toeplitz matrix of the kernel row, times
n^gamma, with the DriftSystem's diagonal set.  The reference for every test
that needs M as a matrix; fracgl itself only multiplies by it."""
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

from fracgl import ModelParams, build_drift_system, kernel_row


@lru_cache(maxsize=8)
def _dense(n: int, gamma: float) -> np.ndarray:
    params = ModelParams(n, gamma)
    m = toeplitz(kernel_row(params)) * params.speed
    m[np.diag_indices_from(m)] = build_drift_system(params).diagonal
    m.setflags(write=False)
    return m


def dense_drift(params: ModelParams) -> np.ndarray:
    """Read-only M of (params.n, params.gamma), shape (n-1, n-1)."""
    return _dense(params.n, params.gamma)
