"""Large-deviation functionals: dynamical cost, static rate, quasi-potential.

For a path driven by a compactly supported field H = a(t) B the dynamical
rate is I = (1/4) int ||H_t||^2 dt = (1/4) ||B||^2 int a^2 dt.  The linear
functional

    J_G(pi | g) = <pi_T, G_T> - <g, G_0> - int <pi_s, (d_s + L_n) G_s> ds
                  - int ||G_s||^2_{n,gamma/2} ds

certifies it from below: J_G <= I for every test field, with equality at
G = H/2.  For G = a_G(t) B_G its integrand is
a_G' <pi, B_G> + a_G <pi, L_n B_G> + a_G^2 ||B_G||^2, two matrix-vector
products over the path.  The static rate of the stationary law is
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

from dataclasses import dataclass, field

import numpy as np

from .hydro import DeterministicTrajectory, l2_distance, weak_defects
from .kernel import discrete_inner_seminorm
from .ness import StationaryProfile
from .operators import dirichlet_spectrum
from .params import ModelParams, as_grid_batch, as_grid_function, step_count
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
_REVERSAL_TIMES = 4001  # time nodes of quasipotential's reversal over [0, T1]


@dataclass
class RateReport:
    """Value of a rate functional with its sub-terms and discretization."""

    value: float
    breakdown: dict = field(default_factory=dict)
    discretization: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < -1e-12:
            raise ValueError(f"rate value must be finite and >= 0, got {self.value}")


def rate_from_field(params: ModelParams, H: ExternalField, T: float,
                    dt: float = 1e-3) -> float:
    """Dynamical cost (1/4) int_0^T ||H_t||^2_{n,gamma/2} dt of H = a(t) B, which
    is (1/4) ||B||^2_{n,gamma/2} int_0^T a^2 dt, trapezoid in time."""
    ts = np.linspace(0.0, T, step_count(T, dt) + 1)
    bv, lap = H.lattice_shape(params)   # ||B||^2_{n,gamma/2} = -(1/n) B . L_n B
    return 0.25 * float(-(bv @ lap) / params.n) * float(np.trapezoid(H.a(ts) ** 2, ts))


def j_functional(traj: DeterministicTrajectory, G: ExternalField) -> float:
    """J_G(pi | g) of a recorded path pi, g = pi_0: the weak-form defect of
    the path over its whole span with G as its own source, the one-field
    case of `hydro.weak_defects`.  G must carry a time
    derivative and vanish at the boundary sites."""
    amp, shape = G.a(traj.times)[:, None], G.shape.f(traj.params.grid())
    return float(weak_defects(traj, amp, G.da(traj.times)[:, None], shape, (amp, shape))[0])


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


def _bridge_cost(lam: np.ndarray, coeff: np.ndarray, n_times: int):
    """(1/4) int_0^1 sum_k lambda_k coeff_k^2 F_k(t)^2 dt of the bridge to the modal
    target `coeff` (or one per row), F_k = (2 e^{lambda_k t} - 1) / (e^{lambda_k} - 1),
    by the trapezoid over n_times uniform nodes h apart: (1/4) sum_k lambda_k
    coeff_k^2 r_k, r_k in closed form.  With x = e^{lambda (t-1)}, F^2 = (4x^2 -
    4 e^{-lambda} x + e^{-2 lambda}) / (1 - e^{-lambda})^2, and the trapezoid of the
    geometric series x^m is h (expm1(-m lambda (1+h)) / expm1(-m lambda h)
    - (1 + e^{-m lambda}) / 2)."""
    h = 1.0 / (n_times - 1)
    decay = np.exp(-lam)
    m = np.array([[1.0], [2.0]])  # one row per power x^m
    x1, x2 = h * (np.expm1(-m * lam * (1.0 + h)) / np.expm1(-m * lam * h)
                  - 0.5 * (1.0 + decay ** m))
    r = (4.0 * x2 - 4.0 * decay * x1 + decay * decay) / np.expm1(-lam) ** 2
    return 0.25 * np.vecdot(coeff * coeff, lam * r)


def _reversal_weights(lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """q_k = sum_j w_j e^{-2 lambda_k t_j}, the trapezoid over the nodes ts, each
    mode summed only over the t_j <= 354 / lambda_k: past them e^{-2 lambda_k t_j}
    is below 3.3e-308, subnormal or 0.0, which numpy's exp is slow to make
    and which cannot move a sum whose first term is w_0 > 0."""
    dt = np.diff(ts, append=ts[-1])  # the steps, then 0
    w = 0.5 * (dt + np.roll(dt, 1))  # the trapezoid's weights
    last = np.searchsorted(ts, 354.0 / lam, side="right")
    return np.array([w[:j] @ np.exp(-2.0 * x * ts[:j]) for x, j in zip(lam, last)])


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
    return traj, float(_bridge_cost(lam, coeff, n_times))


def quasipotential(profile: StationaryProfile, rho, T1: float) -> RateReport | list:
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
    the W difference reported next to it, summed per mode: the weights
    q_k = sum_j w_j e^{-2 lambda_k t_j} (`_reversal_weights`) run over the nodes
    where the term is above 3.3e-308, and the bridge's r_k (`_bridge_cost`) are in
    closed form, both once per call for all targets and no (time, mode) table.
    `rho` is one target (n-1,), giving a RateReport, or a batch (targets, n-1),
    giving a list of them.
    """
    if T1 <= 0:
        raise ValueError("T1 must be positive")
    params = profile.params
    rho = as_grid_batch(params, rho)
    targets = np.atleast_2d(rho)
    spec = dirichlet_spectrum(params)
    lam = spec.eigenvalues
    # per-target projections and dot products: a report does not depend on its batch
    coeff = np.array([spec.project(target - profile.profile) for target in targets])
    # graded grid: the energy integrand has its fast transient at t = 0
    ts = T1 * np.linspace(0.0, 1.0, _REVERSAL_TIMES) ** 2
    reversal_costs = np.vecdot(coeff * coeff, lam * _reversal_weights(lam, ts))

    relax = np.exp(-lam * T1)
    bridge_costs = _bridge_cost(lam, coeff * relax, _BRIDGE_TIMES)
    reports = []
    for target, c, bridge, reversal in zip(targets, coeff, bridge_costs, reversal_costs):
        w_target = static_rate_w(profile, target)
        w_relaxed = static_rate_w(profile, profile.profile + spec.synthesize(c * relax))
        breakdown = {"bridge_cost": float(bridge), "reversal_cost": float(reversal),
                     "w_target": w_target, "w_relaxed": w_relaxed,
                     "reversal_identity_gap": float(reversal - (w_target - w_relaxed))}
        reports.append(RateReport(value=float(bridge + reversal), breakdown=breakdown,
                                  discretization={"n": params.n, "T1": T1,
                                                  "n_times": _REVERSAL_TIMES}))
    return reports if rho.ndim == 2 else reports[0]
