import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fracgl import (ExternalField, ModelParams, SmoothBump, build_drift_system,
                    dirichlet_spectrum, l2_distance, relaxation_rate,
                    solve_hydrodynamic, solve_stationary_profile, weak_residual,
                    dirichlet_energy)


def bump_field(amp=1.0):
    bump = SmoothBump(0.25, 0.75, amp)
    return ExternalField.separable(
        lambda t: 0.5 + 0.5 * np.cos(3.0 * t),
        lambda t: -1.5 * np.sin(3.0 * t),
        bump)


def space_time_g():
    return ExternalField.separable(lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
                                   lambda t: np.cos(2.0 * t),
                                   SmoothBump(0.3, 0.7, 1.0))


def test_stationary_profile_is_fixed_point():
    params = ModelParams(32, 1.5, 1.0, 2.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 1.0, 5)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    for p in traj.profiles:
        np.testing.assert_allclose(p, prof.profile, atol=1e-11)


def test_spectral_matches_expm():
    # variation of constants with a dense matrix exponential as the reference
    params = ModelParams(64, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    u = params.grid()
    g = prof.profile + SmoothBump(0.3, 0.7, 0.8).f(u)
    times = np.array([0.0, 0.5, 1.0])
    spectral = solve_hydrodynamic(prof, g, times)
    m = build_drift_system(params).m
    reference = prof.profile + expm(m * times[-1]) @ (g - prof.profile)
    assert np.max(np.abs(spectral.profiles[-1] - reference)) < 1e-6


def test_spectral_with_field_matches_radau():
    # the exponential integrator against a stiff implicit ODE solve
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field()
    times = np.array([0.0, 0.25, 0.5])
    spectral = solve_hydrodynamic(prof, prof.profile, times, field=field,
                                  substep=2e-4)
    sys = build_drift_system(params)
    radau = solve_ivp(lambda t, y: sys.drift(y) + field.tilt_drift(params, t),
                      (0.0, times[-1]), prof.profile, method="Radau",
                      rtol=1e-10, atol=1e-12, jac=sys.m)
    assert np.max(np.abs(spectral.profiles[-1] - radau.y[:, -1])) < 1e-6


def test_exponential_decay_bound():
    params = ModelParams(64, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    lam1 = float(dirichlet_spectrum(params).eigenvalues[0])
    u = params.grid()
    g = prof.profile + SmoothBump(0.2, 0.8, 1.0).f(u)
    times = np.linspace(0.0, 2.0, 41)
    traj = solve_hydrodynamic(prof, g, times)
    d0 = l2_distance(params, g, prof.profile)
    dists = np.array([l2_distance(params, p, prof.profile) for p in traj.profiles])
    assert np.all(dists <= d0 * np.exp(-lam1 * times) * (1.0 + 1e-10) + 1e-14)
    assert np.all(np.diff(dists) <= 1e-14)  # monotone Lyapunov decay


def test_energy_balance():
    # ||Phi_t - Phi_ss||^2 = ||g - Phi_ss||^2 - 2 int_0^t E(Phi_s - Phi_ss) ds
    # with E the full drift-matrix energy (exact discrete dissipation law)
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    u = params.grid()
    g = prof.profile + SmoothBump(0.25, 0.75, 0.7).f(u)
    T = 0.5
    times = T * np.linspace(0.0, 1.0, 4001) ** 2
    traj = solve_hydrodynamic(prof, g, times)
    energies = np.array([dirichlet_energy(params, p - prof.profile)
                         for p in traj.profiles])
    lhs = l2_distance(params, traj.profiles[-1], prof.profile) ** 2
    rhs = (l2_distance(params, g, prof.profile) ** 2
           - 2.0 * float(np.trapezoid(energies, times)))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_weak_residual_solution_small():
    params = ModelParams(128, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field()
    times = np.linspace(0.0, 0.5, 501)
    traj = solve_hydrodynamic(prof, prof.profile, times, field=field,
                              substep=2.5e-4)
    res = weak_residual(traj, space_time_g(), 0.5)
    assert abs(res) <= 1e-3


def test_weak_residual_zero_testfunction():
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 0.2, 41)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    zero = lambda t, u: np.zeros_like(u)
    assert weak_residual(traj, ExternalField(h=zero, dh_dt=zero), 0.2) == 0.0


def test_weak_residual_detects_wrong_path():
    params = ModelParams(64, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    u = params.grid()
    g0 = prof.profile + SmoothBump(0.3, 0.7, 1.0).f(u)
    times = np.linspace(0.0, 0.5, 101)
    from fracgl.hydro import DeterministicTrajectory
    frozen = DeterministicTrajectory(params=params, times=times,
                                     profiles=np.tile(g0, (times.size, 1)))
    res = weak_residual(frozen, space_time_g(), 0.5)
    assert abs(res) > 1e-2


def test_weak_residual_support_violation():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 0.1, 11)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    # sin(pi u) vanishes at u = 0 and 1, as a field must, but not at site 1
    sine = ExternalField(h=lambda t, u: np.sin(np.pi * u),
                         dh_dt=lambda t, u: np.zeros_like(u))
    with pytest.raises(ValueError, match="vanish"):
        weak_residual(traj, sine, 0.1)


def test_relaxation_rate_pure_mode():
    params = ModelParams(64, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    spec = dirichlet_spectrum(params)
    lam1 = float(spec.eigenvalues[0])
    g = prof.profile + 0.4 * spec.modes[:, 0]
    fitted = relaxation_rate(prof, g, 6.0 / lam1)
    assert fitted == pytest.approx(lam1, rel=1e-4)


def test_relaxation_rate_scale_invariance():
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    u = params.grid()
    bump = SmoothBump(0.25, 0.75, 1.0).f(u)
    lam1 = float(dirichlet_spectrum(params).eigenvalues[0])
    r1 = relaxation_rate(prof, prof.profile + bump, 6.0 / lam1)
    r2 = relaxation_rate(prof, prof.profile + 1e-3 * bump, 6.0 / lam1)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_relaxation_rate_degenerate_input():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    with pytest.raises(ValueError, match="stationary"):
        relaxation_rate(prof, prof.profile, 1.0)
