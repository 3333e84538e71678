"""Deterministic fractional heat evolution with reservoir boundary driving.

The semi-discrete equation is d Phi/dt = M Phi + b + u_t with the tilt drift
u_t = -(L_n H_t).  Boundary conditions are not pinned: the reservoir
relaxation inside M and b makes Phi_t(0+) -> phi_l an emergent property,
checked through boundary block averages rather than imposed.

The spectral integrator works in the eigenbasis of M and is exact for H = 0
(variation of constants, Phi_t = Phi_ss + e^{Mt}(g - Phi_ss)); with a field
it takes one exponential step per recorded interval, exact for per-mode
forcing linear between the recorded times, so stiffness never restricts the
step and the recording grid alone sets how closely the forcing follows a(t).
For a field H = a(t) B the forcing at the recorded times is a(times) times
the one projection of -(L_n B); only the per-mode recurrence runs step by
step.  The integrator and the relaxation fit take the StationaryProfile (the
model and Phi_ss); the weak-form defect reads the model, g and the field
from the recorded path.  `weak_defects` takes K test fields G_k = a_k(t) B_k
at once, their amplitudes as (times, K) arrays and their shapes as (K, n-1),
and works on the pairings <Phi_t, B_k> and <Phi_t, L_n B_k> along the path,
two matrix products for all K; `weak_residual` and `ldp.j_functional` are
its one-field case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import discrete_fractional_laplacian
from .ness import StationaryProfile
from .operators import dirichlet_spectrum
from .params import ModelParams, as_grid_batch, as_grid_function
from .simulate import ExternalField

__all__ = [
    "DeterministicTrajectory",
    "solve_hydrodynamic",
    "weak_residual",
    "weak_defects",
    "relaxation_rate",
    "l2_distance",
]

_FIT_TIMES = 256  # time nodes of relaxation_rate's flow over [0, T]


@dataclass
class DeterministicTrajectory:
    """Profiles on a time grid, with the field that drove them (if any)."""

    params: ModelParams
    times: np.ndarray
    profiles: np.ndarray
    field: Optional[ExternalField] = None


def l2_distance(params: ModelParams, f, g):
    """Lattice L^2 distance sqrt((1/n) sum (f-g)^2): a float for two grid
    functions, one value per row when either is a (times, n-1) batch."""
    d = as_grid_batch(params, f) - as_grid_batch(params, g)
    d = np.sqrt(np.sum(d ** 2, axis=-1) / params.n)
    return float(d) if d.ndim == 0 else d


def solve_hydrodynamic(profile: StationaryProfile, g, times,
                       field: Optional[ExternalField] = None) -> DeterministicTrajectory:
    """Integrate d Phi/dt = M Phi + b + u_t of `profile.params` from Phi_0 = g
    in the eigenbasis of M, around the stationary profile Phi_ss it carries.

    Exact for H = 0; with a field, one exponential step per interval of
    `times`, with the forcing a(t) u taken linear between the recorded
    times, which is exact for an a(t) linear there.  A finer `times`
    resolves a faster a(t).

    Parameters
    ----------
    times : ascending array starting at 0
        Recording grid, which is also the integration grid.
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
        # forcing at every recorded time, projected in one batch
        u = np.multiply.outer(field.a(times), spec.project(-field.lattice_shape(params)[1]))
        h = np.diff(times)[:, None]
        decay = np.exp(-h * lam)
        alpha = -np.expm1(-h * lam) / lam            # int_0^h e^{-lam s} ds
        beta = (h - alpha) / (h * lam)               # weight of the forward node
        forcing = u[:-1] * (alpha - beta) + u[1:] * beta
        coeffs = np.empty_like(u)                    # coefficients at each recorded time
        c = coeffs[0] = coeff
        for j in range(h.size):
            c = coeffs[j + 1] = decay[j] * c + forcing[j]
    profiles = spec.synthesize(coeffs)
    profiles += phiss
    profiles[0] = g
    return DeterministicTrajectory(params=params, times=times.copy(),
                                   profiles=profiles, field=field)


def weak_residual(traj: DeterministicTrajectory, G: ExternalField, t: float) -> float:
    """Weak-form defect of a path, driven by its field H, against a
    test field G = a_G(t) B_G(u) with a time derivative:

        <Phi_t, G_t> - <g, G_0> - int_0^t <Phi_s, (d_s + L_n) G_s> ds
                                - int_0^t <H_s, G_s>_{n,gamma/2} ds,

    g = Phi_0, lattice pairings (1/n) sum, discrete operator on the sampled
    test field, trapezoid rule in time over the recorded grid.  Vanishes to
    time-quadrature accuracy on true solutions when B_G vanishes at the
    boundary sites, which is checked.  The one-field case of `weak_defects`
    on the path's prefix up to t.
    """
    times = traj.times
    if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
        raise ValueError("t outside the trajectory span")
    k = int(np.count_nonzero(times <= t + 1e-12))   # ascending: a prefix, viewed
    part = DeterministicTrajectory(traj.params, times[:k], traj.profiles[:k], traj.field)
    ts, H = part.times, traj.field
    source = None if H is None else (H.a(ts)[:, None], H.lattice_shape(traj.params)[0])
    return float(weak_defects(part, G.a(ts)[:, None], G.da(ts)[:, None],
                              G.lattice_shape(traj.params)[0], source)[0])


def weak_defects(traj: DeterministicTrajectory, amp, rate, shapes, source=None) -> np.ndarray:
    """Weak-form defects of a path over its whole span against K test fields
    G_k = a_k(t) B_k(u) at once: `weak_residual`'s formula with the driving
    field `source` in place of the path's own.

    `amp` and `rate` hold a_k and a_k' at the recorded times, (times, K);
    `shapes` the B_k on the sites, (K, n-1), each checked to vanish at the
    boundary sites.  `source` is None (no field) or the pair (a_H at the
    recorded times, B_H), broadcasting against `amp` and `shapes`; a field
    that is its own source, as in J_G, passes (amp, shapes).  The integrand
    a_k'<Phi, B_k> + a_k <Phi, L_n B_k> - a_H a_k <B_H, B_k>_{n,gamma/2} takes
    two matrix products over the path for all K fields and one dot per field.
    Returns the K defects.
    """
    params, ts, phis = traj.params, traj.times, traj.profiles
    n = params.n
    shapes = np.atleast_2d(shapes)
    if np.any(np.abs(shapes[:, [0, -1]]) > 1e-12):
        raise ValueError("test function must vanish at the boundary sites")
    lap = discrete_fractional_laplacian(params, shapes)
    on_b, on_lap = phis @ shapes.T / n, phis @ lap.T / n
    integrand = rate * on_b + amp * on_lap
    if source is not None:
        # <B_H, B_k>_{n,gamma/2} = -(1/n) B_H . L_n B_k, L_n B_k in hand
        integrand -= source[0] * amp * np.vecdot(source[1], lap) / n
    return amp[-1] * on_b[-1] - amp[0] * on_b[0] - np.trapezoid(integrand, ts, axis=0)


def relaxation_rate(profile: StationaryProfile, g, T: float) -> float:
    """Fitted exponential decay rate of ||Phi_t - Phi_ss||_2 on [T/2, T] of
    the free flow of `profile.params` from g.

    Least-squares slope of the log distance over the tail window; raises on
    a degenerate input already at the stationary profile.
    """
    params, phiss = profile.params, profile.profile
    g = as_grid_function(params, g)
    if l2_distance(params, g, phiss) < 1e-13:
        raise ValueError("initial profile already at the stationary state")
    times = np.linspace(0.0, T, _FIT_TIMES)
    traj = solve_hydrodynamic(profile, g, times)
    d = l2_distance(params, traj.profiles, phiss)
    window = times >= T / 2.0
    if np.any(d[window] < 1e-300):
        raise ValueError("profile reaches the stationary state inside the window")
    slope = np.polyfit(times[window], np.log(d[window]), 1)[0]
    return float(-slope)
