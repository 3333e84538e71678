"""Model parameters and lattice conventions.

The model lives on the interior lattice sites x = 1, ..., n-1 of {0, ..., n};
site x sits at the macroscopic coordinate u = x/n in (0, 1).  Grid functions
are plain 1-d numpy arrays of length n-1, with entry i holding the value at
site x = i+1.  Time is macroscopic throughout: the superdiffusive speed-up
n^gamma lives inside the drift matrix and the noise rates, never in a
separate clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Lattice size, jump exponent, and reservoir densities.

    Parameters
    ----------
    n : int
        Lattice size; the interior has n-1 sites.  Must be >= 3.
    gamma : float
        Jump-kernel exponent, strictly between 1 and 2.
    phi_l, phi_r : float
        Left and right reservoir densities.
    """

    n: int
    gamma: float
    phi_l: float = 0.0
    phi_r: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"n must be an integer >= 3, got {self.n!r}")
        if not (1.0 < self.gamma < 2.0):
            raise ValueError(f"gamma must lie in (1, 2), got {self.gamma!r}")
        if not (np.isfinite(self.phi_l) and np.isfinite(self.phi_r)):
            raise ValueError("reservoir densities must be finite")

    @property
    def n_sites(self) -> int:
        """Number of interior sites, n - 1."""
        return self.n - 1

    @property
    def speed(self) -> float:
        """Time speed-up factor n^gamma."""
        return float(self.n) ** self.gamma

    def grid(self) -> np.ndarray:
        """Macroscopic coordinates u = x/n of the interior sites."""
        return np.arange(1, self.n) / self.n


def as_grid_function(params: ModelParams, values) -> np.ndarray:
    """Validate and return `values` as a grid function for `params`.

    Raises ValueError on length mismatch or non-finite entries.
    """
    g = as_grid_batch(params, values)
    if g.ndim != 1:
        raise ValueError(f"grid function must have shape ({params.n_sites},), got {g.shape}")
    return g


def as_grid_batch(params: ModelParams, values) -> np.ndarray:
    """Validate and return `values` as one grid function or as a batch of
    them, shape (times, n-1) with sites last.

    Raises ValueError on a shape mismatch or non-finite entries.
    """
    g = np.asarray(values, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != params.n_sites:
        raise ValueError(f"grid functions must have shape ({params.n_sites},) "
                         f"or (times, {params.n_sites}), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid function contains non-finite entries")
    return g


def step_count(T: float, dt: float) -> int:
    """Number K of equal steps of at most dt that span [0, T]: ceil(T / dt),
    less a 1e-12 so that a T / dt an ulp above an integer (0.45 / 3e-4 is
    1500.0000000000002) takes that integer, and at least 1."""
    return max(1, int(np.ceil(T / dt - 1e-12)))
