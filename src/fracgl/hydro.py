"""Deterministic fractional heat evolution with reservoir boundary driving.

The semi-discrete equation is d Phi/dt = M Phi + b + u_t with the tilt drift
u_t = -(L_n H_t).  Boundary conditions are not pinned: the reservoir
relaxation inside M and b makes Phi_t(0+) -> phi_l an emergent property,
checked through boundary block averages rather than imposed.

The spectral integrator works in the eigenbasis of M and is exact for H = 0
(variation of constants, Phi_t = Phi_ss + e^{Mt}(g - Phi_ss)); with a field
it uses an exponential integrator that treats the per-mode forcing as
piecewise linear on substeps, so stiffness never restricts the step.  The
forcing is evaluated and projected once for every substep of the time grid;
only the per-mode recurrence runs step by step.  The integrator and the
relaxation fit take the StationaryProfile (the model and Phi_ss); the
weak-form defect reads the model, g and the field from the recorded path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import discrete_inner_seminorm
from .ness import StationaryProfile
from .operators import dirichlet_spectrum
from .params import ModelParams, as_grid_function
from .simulate import ExternalField

__all__ = [
    "DeterministicTrajectory",
    "solve_hydrodynamic",
    "weak_residual",
    "relaxation_rate",
    "l2_distance",
]


@dataclass
class DeterministicTrajectory:
    """Profiles on a time grid, with the field that drove them (if any)."""

    params: ModelParams
    times: np.ndarray
    profiles: np.ndarray
    field: Optional[ExternalField] = None


def l2_distance(params: ModelParams, f, g) -> float:
    """Lattice L^2 distance sqrt((1/n) sum (f-g)^2)."""
    f = as_grid_function(params, f)
    g = as_grid_function(params, g)
    return float(np.sqrt(np.sum((f - g) ** 2) / params.n))


def solve_hydrodynamic(profile: StationaryProfile, g, times,
                       field: Optional[ExternalField] = None,
                       substep: float = 1e-3) -> DeterministicTrajectory:
    """Integrate d Phi/dt = M Phi + b + u_t of `profile.params` from Phi_0 = g
    in the eigenbasis of M, around the stationary profile Phi_ss it carries.

    Exact for H = 0; with a field, exponentially integrated with the
    forcing sampled on substeps of length <= `substep`.

    Parameters
    ----------
    times : ascending array starting at 0
        Recording grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be ascending and start at 0")
    params, phiss = profile.params, profile.profile
    g = as_grid_function(params, g)
    spec = dirichlet_spectrum(params)
    lam = spec.eigenvalues
    coeff = spec.project(g - phiss)
    if field is None:
        # variation of constants at every recorded time at once
        coeffs = np.multiply.outer(-times, lam)
        np.exp(coeffs, out=coeffs)
        coeffs *= coeff
    else:
        # forcing at every substep node of the grid, projected in one batch
        n_sub = np.maximum(1, np.ceil(np.diff(times) / substep).astype(int))
        first = np.cumsum(n_sub) - n_sub
        h = np.repeat(np.diff(times) / n_sub, n_sub)[:, None]
        k = np.arange(h.size) - np.repeat(first, n_sub)
        t_sub = np.append(np.repeat(times[:-1], n_sub) + k * h[:, 0], times[-1])
        u = spec.project(field.tilt_drift(params, t_sub))
        decay = np.exp(-h * lam)
        alpha = -np.expm1(-h * lam) / lam            # int_0^h e^{-lam s} ds
        beta = (h - alpha) / (h * lam)               # weight of the forward node
        forcing = u[:-1] * (alpha - beta) + u[1:] * beta
        state = np.empty_like(forcing)               # coefficients after each substep
        c = coeff
        for j in range(h.size):
            c = state[j] = decay[j] * c + forcing[j]
        coeffs = np.vstack([coeff, state[first + n_sub - 1]])
    profiles = spec.synthesize(coeffs)
    profiles += phiss
    profiles[0] = g
    return DeterministicTrajectory(params=params, times=times.copy(),
                                   profiles=profiles, field=field)


def weak_residual(traj: DeterministicTrajectory, G: ExternalField, t: float) -> float:
    """Weak-form defect of a path, driven by its field H, against a
    space-time test field G with a time derivative:

        <Phi_t, G_t> - <g, G_0> - int_0^t <Phi_s, (d_s + L_n) G_s> ds
                                - int_0^t <H_s, G_s>_{n,gamma/2} ds,

    g = Phi_0, lattice pairings (1/n) sum, discrete operator on the sampled
    test field, trapezoid rule in time over the recorded grid.  Vanishes to
    time-quadrature accuracy on true solutions when G is compactly
    supported away from the boundary sites.
    """
    times = traj.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError("t outside the trajectory span")
    mask = times <= t + 1e-12
    ts = times[mask]
    phis = traj.profiles[mask]
    params = traj.params
    n = params.n

    gs, lap = G.lattice(params, ts)
    if abs(float(gs[0, 0])) > 1e-12 or abs(float(gs[0, -1])) > 1e-12:
        raise ValueError("test function must vanish at the boundary sites")

    integrand = np.sum(phis * (G.dt_lattice(params, ts) + lap), axis=-1) / n
    if traj.field is not None:
        hv = gs if traj.field is G else traj.field.lattice(params, ts)[0]
        integrand += discrete_inner_seminorm(params, hv, gs)
    time_int = float(np.trapezoid(integrand, ts))
    return (float(phis[-1] @ gs[-1]) - float(phis[0] @ gs[0])) / n - time_int


def relaxation_rate(profile: StationaryProfile, g, T: float,
                    n_times: int = 256) -> float:
    """Fitted exponential decay rate of ||Phi_t - Phi_ss||_2 on [T/2, T] of
    the free flow of `profile.params` from g.

    Least-squares slope of the log distance over the tail window; raises on
    a degenerate input already at the stationary profile.
    """
    params, phiss = profile.params, profile.profile
    g = as_grid_function(params, g)
    if l2_distance(params, g, phiss) < 1e-13:
        raise ValueError("initial profile already at the stationary state")
    times = np.linspace(0.0, T, n_times)
    traj = solve_hydrodynamic(profile, g, times)
    d = np.array([l2_distance(params, p, phiss) for p in traj.profiles])
    window = times >= T / 2.0
    if np.any(d[window] < 1e-300):
        raise ValueError("profile reaches the stationary state inside the window")
    slope = np.polyfit(times[window], np.log(d[window]), 1)[0]
    return float(-slope)
