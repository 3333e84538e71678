"""Non-equilibrium steady state of the boundary-driven dynamics.

The invariant law is a product of unit-variance Gaussians whose site means
solve the discrete stationary equation

    sum_y p(y-x) (Phi(y) - Phi(x)) + 1_{x=1}(phi_l - Phi(1))
                                   + 1_{x=n-1}(phi_r - Phi(n-1)) = 0,

a symmetric positive-definite linear system, solved directly on the odd
flip sector of the shared DriftSystem.  The same harmonicity gives the
probabilistic representation Phi(x) = phi_l P_x(absorbed at 0) + phi_r P_x(absorbed at n)
for the long-jump walk killed at the two boundary channels, which the tests
simulate as an independent Monte Carlo oracle (`tests/walk_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import build_drift_system
from .params import ModelParams, as_grid_function
from .rng import make_rng

__all__ = [
    "StationaryProfile",
    "reservoir_drift",
    "solve_stationary_profile",
    "sample_ness",
    "static_cumulant",
]


@dataclass(frozen=True)
class StationaryProfile:
    """Solved stationary profile with the max-norm residual of its equation."""

    params: ModelParams
    profile: np.ndarray
    residual: float

    def __post_init__(self):
        lo = min(self.params.phi_l, self.params.phi_r) - 1e-12
        hi = max(self.params.phi_l, self.params.phi_r) + 1e-12
        if self.profile.min() < lo or self.profile.max() > hi:
            raise ValueError("stationary profile violates the maximum principle")
        if self.residual > self.residual_bound:
            raise ValueError(f"stationary residual {self.residual:.2e} exceeds "
                             f"{self.residual_bound:.2e}")

    @property
    def residual_bound(self) -> float:
        """1e-10 times max(1, |phi_l|, |phi_r|): a profile stored near 1e6
        carries an ulp of 1.2e-10, which no solve can beat."""
        return 1e-10 * max(1.0, abs(self.params.phi_l), abs(self.params.phi_r))


def reservoir_drift(params: ModelParams) -> np.ndarray:
    """Affine drift b of the dynamics d phi = (M phi + b) dt + noise:
    b[0] = n^gamma phi_l, b[-1] = n^gamma phi_r, zero elsewhere."""
    b = np.zeros(params.n_sites)
    b[0] = params.speed * params.phi_l
    b[-1] = params.speed * params.phi_r
    return b


def solve_stationary_profile(params: ModelParams) -> StationaryProfile:
    """Solve (D + B - P) Phi = phi_l e_1 + phi_r e_{n-1}, that is M Phi + b = 0
    with b = `reservoir_drift(params)`.

    Since M 1 = -n^gamma (e_1 + e_{n-1}), the solution is
    Phi = (phi_l + phi_r) / 2 + (phi_r - phi_l) / 2 Psi, where the unit
    solve Psi = (-M)^{-1} n^gamma (e_{n-1} - e_1) is one Cholesky solve on
    the odd sector of the shared DriftSystem (`DriftSystem.sector_solve`),
    as its right-hand side is odd under the flip J: x -> n - x.  Equal
    reservoirs give the exact constant; Psi is exactly odd, so
    Phi + J Phi = phi_l + phi_r holds to the rounding of the two sums.  The
    residual reported is the max norm of M Phi + b over n^gamma, with M Phi
    from `DriftSystem.apply`: no (n-1)^2 array.
    """
    sys, b = build_drift_system(params), reservoir_drift(params)
    rhs = np.zeros(params.n_sites)
    rhs[[0, -1]] = -params.speed, params.speed
    psi = sys.sector_solve(-1.0, rhs)
    phi = 0.5 * (params.phi_l + params.phi_r) + 0.5 * (params.phi_r - params.phi_l) * psi
    residual = float(np.max(np.abs(sys.apply(phi) + b))) / params.speed
    return StationaryProfile(params=params, profile=phi, residual=residual)


def sample_ness(profile: StationaryProfile, count: int, seed: int, index: int = 0) -> np.ndarray:
    """Independent NESS draws, phi(x) ~ Normal(Phi_ss(x), 1) across sites,
    from the stream make_rng(seed, "ness-sample", index).

    Returns an array of shape (count, n-1); row i is one configuration.
    """
    draws = make_rng(seed, "ness-sample", index).standard_normal(
        (count, profile.params.n_sites))
    draws += profile.profile
    return draws


def static_cumulant(profile: StationaryProfile, G) -> float:
    """Scaled log moment generating function of the stationary empirical pairing,

        (1/n) log E[exp(sum_x G(x/n) phi(x))] = (1/n) sum_x [G Phi_ss + G^2 / 2],

    exact for the product-Gaussian steady state.
    """
    G = as_grid_function(profile.params, G)
    return float(np.sum(G * profile.profile + 0.5 * G * G) / profile.params.n)
