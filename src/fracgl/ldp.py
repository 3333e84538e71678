"""Large-deviation functionals: dynamical cost, static rate, quasi-potential.

For a path driven by a compactly supported field H the dynamical rate is
I = (1/4) int ||H_t||^2 dt.  The linear functional

    J_G(pi | g) = <pi_T, G_T> - <g, G_0> - int <pi_s, (d_s + L_n) G_s> ds
                  - int ||G_s||^2_{n,gamma/2} ds

certifies it from below: J_G <= I for every test field, with equality at
G = H/2.  The static rate of the stationary law is
W(rho) = (1/2n) sum (rho - Phi_ss)^2, the Legendre transform of the exact
cumulant functional, and the quasi-potential (minimal dynamical cost to
create rho from Phi_ss) equals W.

Discrete energy convention: path costs evaluate squared seminorms through
the full quadratic form <f, (-M) f>/n of the drift matrix.  For fields
vanishing at sites 1 and n-1 (every compactly supported test field) this
is identical to the lattice Gagliardo seminorm; for profile-shaped fields
it additionally carries the reservoir vestige n^(gamma-1)(f_1^2 + f_{n-1}^2),
which is exactly what makes the time-reversal cost identity
int ||lambda*_t - Phi_ss||^2 dt = W(rho) - W(Phi_T1) and the single-mode
path-cost formulas hold at finite n instead of only in the n -> infinity
limit.

Both path costs are therefore evaluated in the (1/n)-orthonormal modes e_k of
-M (rates lambda_k): a field sum_k a_k(t) e_k costs int sum_k lambda_k a_k^2 dt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .hydro import DeterministicTrajectory, l2_distance, weak_residual
from .kernel import discrete_inner_seminorm
from .ness import StationaryProfile
from .operators import dirichlet_spectrum
from .params import ModelParams, as_grid_function
from .simulate import ExternalField

__all__ = [
    "RateReport",
    "rate_from_field",
    "j_functional",
    "static_rate_w",
    "gamma_identity_defect",
    "clever_path",
    "quasipotential",
]

_BRIDGE_TIMES = 2001  # time nodes of the bridge over [0, 1]


@dataclass
class RateReport:
    """Value of a rate functional with its sub-terms and discretization."""

    value: float
    breakdown: dict = field(default_factory=dict)
    discretization: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < -1e-12:
            raise ValueError(f"rate value must be finite and >= 0, got {self.value}")

    def to_json(self) -> str:
        return json.dumps({"value": self.value, "breakdown": self.breakdown,
                           "discretization": self.discretization}, indent=2)


def rate_from_field(params: ModelParams, H: ExternalField, T: float,
                    dt: float = 1e-3) -> float:
    """Dynamical cost (1/4) int_0^T ||H_t||^2_{n,gamma/2} dt, trapezoid in time."""
    ts = np.linspace(0.0, T, max(2, int(np.ceil(T / dt)) + 1))
    hv, _ = H.lattice(params, ts)
    return 0.25 * float(np.trapezoid(discrete_inner_seminorm(params, hv, hv), ts))


def j_functional(traj: DeterministicTrajectory, G: ExternalField) -> float:
    """J_G(pi | g) of a recorded path pi, g = pi_0: the weak-form defect
    `hydro.weak_residual` of the path over its whole span with G as its own
    source.  G must carry a time derivative and vanish at the boundary sites."""
    return weak_residual(replace(traj, field=G), G, traj.times[-1])


def static_rate_w(profile: StationaryProfile, rho) -> float:
    """Static rate W(rho) = (1/2n) sum_x (rho(x) - Phi_ss(x))^2."""
    diff = as_grid_function(profile.params, rho) - profile.profile
    return 0.5 * float(np.sum(diff * diff)) / profile.params.n


def gamma_identity_defect(profile: StationaryProfile, rho):
    """Both sides of the discrete excess-energy identity for Gamma = rho - Phi_ss:

        ||Gamma||^2_{n,gamma/2} - <Gamma, rho>_{n,gamma/2}
            = -n^(gamma-1) [Gamma(1)(phi_l - Phi_ss(1))
                            + Gamma(n-1)(phi_r - Phi_ss(n-1))],

    the right side being the boundary defect produced by the discrete
    harmonicity of the stationary profile (zero only in the continuum limit).
    Returns (lhs, rhs).
    """
    params = profile.params
    rho = as_grid_function(params, rho)
    gam = rho - profile.profile
    lhs = (discrete_inner_seminorm(params, gam, gam)
           - discrete_inner_seminorm(params, gam, rho))
    pref = params.speed / params.n
    rhs = -pref * (gam[0] * (params.phi_l - profile.profile[0])
                   + gam[-1] * (params.phi_r - profile.profile[-1]))
    return float(lhs), float(rhs)


def _stable_path_ratio(lam: np.ndarray, t) -> np.ndarray:
    """(e^{lam t} - 1) / (e^{lam} - 1), overflow-safe for large lam."""
    return np.exp(lam * (t - 1.0)) * (-np.expm1(-lam * t)) / (-np.expm1(-lam))

def _stable_field_ratio(lam: np.ndarray, t) -> np.ndarray:
    """(2 e^{lam t} - 1) / (e^{lam} - 1), overflow-safe for large lam."""
    return (2.0 * np.exp(lam * (t - 1.0)) - np.exp(-lam)) / (-np.expm1(-lam))


def _bridge_cost(lam: np.ndarray, coeff: np.ndarray, ts: np.ndarray) -> float:
    """(1/4) int sum_k lambda_k coeff_k^2 F_k(t)^2 dt of the bridge to the
    modal target `coeff`, F the field ratio; trapezoid over `ts`."""
    ratio = _stable_field_ratio(lam, ts[:, None])
    return 0.25 * float(np.trapezoid((ratio * ratio) @ (lam * coeff * coeff), ts))


def clever_path(profile: StationaryProfile, psi, n_times: int = _BRIDGE_TIMES):
    """Finite-cost bridge from Phi_ss to a target psi over the unit interval.

    The driving source is the spectral interpolation

        T_t = sum_k lambda_k (2 e^{lambda_k t} - 1) / (e^{lambda_k} - 1)
                    <psi - Phi_ss, e_k> e_k,

    over the full spectrum of `profile.params`, the field solves
    (-M) H_t = T_t, and the path integrates d Phi/dt = M Phi + b + T_t from
    Phi_ss over [0, 1].
    Returns (DeterministicTrajectory, cost) with
    cost = (1/4) int_0^1 <H_t, (-M) H_t>/n dt by trapezoid quadrature,
    evaluated in modes.

    Raises RuntimeError if the endpoint misses psi by more than 1e-6 in
    lattice L^2.
    """
    params = profile.params
    spec = dirichlet_spectrum(params)
    psi = as_grid_function(params, psi)
    coeff = spec.project(psi - profile.profile)
    lam = spec.eigenvalues
    ts = np.linspace(0.0, 1.0, n_times)
    profiles = spec.synthesize(coeff * _stable_path_ratio(lam, ts[:, None]))
    profiles += profile.profile
    gap = l2_distance(params, profiles[-1], psi)
    if gap > 1e-6:
        raise RuntimeError(f"clever path misses the target by {gap:.3e}")
    traj = DeterministicTrajectory(params=params, times=ts, profiles=profiles)
    return traj, _bridge_cost(lam, coeff, ts)


def quasipotential(profile: StationaryProfile, rho, T1: float,
                   n_times: int = 4001) -> RateReport:
    """Upper-bound construction for the quasi-potential at a target rho.

    (i) relax rho forward under the free flow for a time T1;
    (ii) bridge Phi_ss -> Phi_T1 along the `clever_path` source;
    (iii) traverse the time-reversed relaxation from Phi_T1 back to rho,
    driven by H* = 2(lambda*_t - Phi_ss), whose cost
    int ||lambda*_t - Phi_ss||^2 dt equals W(rho) - W(Phi_T1).

    The estimate bridge + reversal converges to W(rho) as T1 grows (the
    relative gap is exponentially small once lambda_1 T1 >> 1).  With
    c = <rho - Phi_ss, e_k>_(1/n) the reversal cost is the trapezoid of
    sum_k lambda_k c_k^2 e^{-2 lambda_k t} over a graded grid, independent of
    the W difference reported next to it.
    """
    if T1 <= 0:
        raise ValueError("T1 must be positive")
    params = profile.params
    rho = as_grid_function(params, rho)

    if l2_distance(params, rho, profile.profile) < 1e-14:
        return RateReport(value=0.0,
                          breakdown={"bridge_cost": 0.0, "reversal_cost": 0.0,
                                     "w_target": 0.0, "w_relaxed": 0.0},
                          discretization={"n": params.n, "T1": T1})

    spec = dirichlet_spectrum(params)
    lam = spec.eigenvalues
    coeff = spec.project(rho - profile.profile)
    # graded grid: the energy integrand has its fast transient at t = 0
    ts = T1 * np.linspace(0.0, 1.0, n_times) ** 2
    decay = np.exp(np.multiply.outer(-2.0 * ts, lam))
    reversal_cost = float(np.trapezoid(decay @ (lam * coeff * coeff), ts))

    coeff_t1 = coeff * np.exp(-lam * T1)
    bridge_cost = _bridge_cost(lam, coeff_t1, np.linspace(0.0, 1.0, _BRIDGE_TIMES))

    w_target = static_rate_w(profile, rho)
    w_relaxed = static_rate_w(profile, profile.profile + spec.synthesize(coeff_t1))
    return RateReport(
        value=bridge_cost + reversal_cost,
        breakdown={
            "bridge_cost": bridge_cost,
            "reversal_cost": reversal_cost,
            "w_target": w_target,
            "w_relaxed": w_relaxed,
            "reversal_identity_gap": reversal_cost - (w_target - w_relaxed),
        },
        discretization={"n": params.n, "T1": T1, "n_times": n_times},
    )
