import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from fracgl import (ExternalField, ModelParams, SmoothBump, build_drift_system,
                    dirichlet_spectrum, l2_distance, relaxation_rate,
                    reservoir_drift, solve_hydrodynamic, solve_stationary_profile,
                    weak_residual, dirichlet_energy)
from fracgl.hydro import weak_defects
from fracgl.ldp import j_functional
from shapes import SineMode


def bump_field(amp=1.0):
    bump = SmoothBump(0.25, 0.75, amp)
    return ExternalField(
        lambda t: 0.5 + 0.5 * np.cos(3.0 * t),
        lambda t: -1.5 * np.sin(3.0 * t),
        bump)


def space_time_g():
    return ExternalField(lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
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
    times = np.linspace(0.0, 0.5, 2501)
    spectral = solve_hydrodynamic(prof, prof.profile, times, field=field)
    m, b = build_drift_system(params).m, reservoir_drift(params)
    lap = field.lattice_shape(params)[1]
    radau = solve_ivp(lambda t, y: m @ y + b - field.a(t) * lap,
                      (0.0, times[-1]), prof.profile, method="Radau",
                      rtol=1e-10, atol=1e-12, jac=m)
    assert np.max(np.abs(spectral.profiles[-1] - radau.y[:, -1])) < 1e-6


def test_constant_forcing_is_exact_on_an_uneven_grid():
    # one exponential step per interval is exact for forcing linear between
    # the recorded times: with a constant amplitude, each mode follows
    # e^{-lam t} c_0 + u (1 - e^{-lam t}) / lam on any grid
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    spec = dirichlet_spectrum(params)
    g = prof.profile + SmoothBump(0.3, 0.7, 0.8).f(params.grid())
    field = ExternalField(lambda t: 0.7, None, SmoothBump(0.25, 0.75))
    times = 0.4 * np.linspace(0.0, 1.0, 23) ** 3
    traj = solve_hydrodynamic(prof, g, times, field=field)
    lam = spec.eigenvalues
    u_hat = 0.7 * spec.project(-field.lattice_shape(params)[1])
    decay = np.exp(-np.multiply.outer(times, lam))
    want = spec.synthesize(decay * spec.project(g - prof.profile) + u_hat * (1.0 - decay) / lam)
    np.testing.assert_allclose(traj.profiles - prof.profile, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_forcing_read_at_the_recorded_times():
    # linspace spacing lands an ulp above dt on most intervals, as on
    # rate-check's grid; the amplitude is still read once, at exactly `times`
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    T, dt = 0.25, 1e-3
    times = np.linspace(0.0, T, int(np.ceil(T / dt)) + 1)
    assert np.any(np.diff(times) > dt)
    seen = []

    def amplitude(t):
        seen.append(np.copy(t))
        return 0.6 + 0.4 * np.cos(2.0 * t)
    field = ExternalField(amplitude, None, SmoothBump(0.25, 0.75))
    seen.clear()
    solve_hydrodynamic(prof, prof.profile, times, field=field)
    assert len(seen) == 1 and np.array_equal(seen[0], times)


def test_exponential_decay_bound():
    params = ModelParams(64, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    lam1 = float(dirichlet_spectrum(params).eigenvalues[0])
    u = params.grid()
    g = prof.profile + SmoothBump(0.2, 0.8, 1.0).f(u)
    times = np.linspace(0.0, 2.0, 41)
    traj = solve_hydrodynamic(prof, g, times)
    d0 = l2_distance(params, g, prof.profile)
    dists = l2_distance(params, traj.profiles, prof.profile)  # one value per time
    assert type(d0) is float and dists.shape == times.shape
    assert np.array_equal(dists, [l2_distance(params, p, prof.profile) for p in traj.profiles])
    with pytest.raises(ValueError):
        l2_distance(params, traj.profiles[:, 1:], prof.profile[1:])
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
    times = np.linspace(0.0, 0.5, 2001)
    traj = solve_hydrodynamic(prof, prof.profile, times, field=field)
    res = weak_residual(traj, space_time_g(), 0.5)
    assert abs(res) <= 1e-3


def test_weak_residual_zero_testfunction():
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 0.2, 41)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    zero = ExternalField(lambda t: 0.0, lambda t: 0.0, SmoothBump(0.3, 0.7, 1.0))
    assert weak_residual(traj, zero, 0.2) == 0.0


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
    sine = ExternalField(lambda t: 1.0, lambda t: 0.0, SineMode(1))
    with pytest.raises(ValueError, match="vanish"):
        weak_residual(traj, sine, 0.1)


def test_weak_residual_support_check_reads_the_shape():
    # a(0) = 0 hides B at t = 0, but B = sin(pi u) is not zero at site 1
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 0.1, 11)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    late_sine = ExternalField(np.sin, np.cos, SineMode(1))
    with pytest.raises(ValueError, match="vanish"):
        weak_residual(traj, late_sine, 0.1)


def _test_fields(params, count):
    """`count` fields a0 + a1 cos(om t) times bumps of varied supports, as
    ExternalFields and as the arrays of `weak_defects` (amplitude rows)."""
    rng = np.random.default_rng(7)
    rows = rng.uniform([-1.0, -1.0, 0.5, 0.1, 0.6, 0.2], [1.0, 1.0, 6.0, 0.35, 0.9, 1.2],
                       (count, 6))
    fields = [ExternalField(lambda t, a0=a0, a1=a1, om=om: a0 + a1 * np.cos(om * t),
                            lambda t, a1=a1, om=om: -a1 * om * np.sin(om * t),
                            SmoothBump(lo, hi, amp))
              for a0, a1, om, lo, hi, amp in rows]
    shapes = np.array([G.lattice_shape(params)[0] for G in fields])
    return fields, shapes


def test_weak_defects_match_the_one_field_functionals():
    # K fields in one pass give, field by field, j_functional (each field its
    # own source) and weak_residual (the path's field as source)
    params = ModelParams(32, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    field = bump_field()
    times = np.linspace(0.0, 0.3, 601)
    traj = solve_hydrodynamic(prof, prof.profile, times, field=field)
    fields, shapes = _test_fields(params, 12)
    amps = np.stack([G.a(times) for G in fields], axis=1)
    rates = np.stack([G.da(times) for G in fields], axis=1)
    own = weak_defects(traj, amps, rates, shapes, (amps, shapes))
    np.testing.assert_allclose(own, [j_functional(traj, G) for G in fields],
                               rtol=1e-13, atol=0)
    # on the path's own solution these defects are differences of nearly equal
    # terms, below 1e-6, so they are held to 1e-13 absolutely
    driven = weak_defects(traj, amps, rates, shapes,
                          (field.a(times)[:, None], field.lattice_shape(params)[0]))
    np.testing.assert_allclose(driven, [weak_residual(traj, G, 0.3) for G in fields],
                               rtol=0, atol=1e-13)


def test_weak_defects_check_every_shape_at_the_boundary():
    # one shape of the batch, sin(pi u), is not zero at site 1
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    times = np.linspace(0.0, 0.1, 11)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    _, shapes = _test_fields(params, 5)
    shapes[3] = SineMode(1).f(params.grid())
    amps = np.ones((times.size, 5))
    with pytest.raises(ValueError, match="vanish"):
        weak_defects(traj, amps, 0.0 * amps, shapes)


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


@pytest.mark.parametrize("gamma, phi_l, phi_r, T", [
    (1.5, 0.0, 1.0, 0.25), (1.2, -1.0, 3.0, 0.1), (1.9, 2.0, 2.0, 1.0),
    (1.05, 0.3, -0.7, 0.02)])
def test_hydro_limit_reference_matches_full_flow(gamma, phi_l, phi_r, T):
    # the even-sector reference of `hydro-limit` against the whole flow at
    # n = 1024: profile, full spectrum, the last profile paired with sin(pi u)
    from fracgl.experiments import _hydro_mean
    params = ModelParams(1024, gamma, phi_l, phi_r)
    prof = solve_stationary_profile(params)
    u = params.grid()
    traj = solve_hydrodynamic(prof, prof.profile + SmoothBump(0.3, 0.7, 0.75).f(u),
                              np.array([0.0, T]))
    full = float(traj.profiles[-1] @ np.sin(np.pi * u)) / params.n
    reference = _hydro_mean(params, build_drift_system(params), T, params.n)
    assert reference == pytest.approx(full, rel=1e-13, abs=0)


ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def test_hydro_limit_reports_the_exact_pairing_law(tmp_path):
    # each Monte Carlo average comes with the mean and se of its exact law,
    # its z against them and the law's own error against the reference; the
    # law matches the fracgl-free dense one of perfbench's oracles
    from fracgl.cli import main
    from fracgl.experiments import _hydro_law
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    assert main(["hydro-limit", "--out", str(tmp_path)]) in (0, 2)
    summary = json.loads((tmp_path / "summary.json").read_text())
    out, replicas, T = summary["outputs"], summary["config"]["replicas"], summary["config"]["T"]
    for side in ("lo", "hi"):
        n = out[f"n_{side}"]
        mean, var = _hydro_law(n, 1.5, 0.0, 1.0, T)
        u = oracles.grid(n)
        start = oracles.stationary_profile(n, 1.5, 0.0, 1.0) + oracles.smooth_bump(u, 0.3, 0.7, 0.75)
        dense = oracles.exact_pairing_law(n, 1.5, 0.0, 1.0, start, np.sin(np.pi * u), T)
        assert (mean, var) == pytest.approx(dense, rel=1e-12, abs=0)
        se = np.sqrt(var / replicas)
        assert out[f"exact_avg_{side}"] == mean
        assert out[f"avg_se_{side}"] == pytest.approx(se, rel=1e-15)
        assert out[f"avg_z_{side}"] == pytest.approx(abs(out[f"avg_{side}"] - mean) / se, rel=1e-12)
        assert out[f"exact_err_{side}"] == pytest.approx(abs(mean - out["reference"]), rel=1e-12)
        assert out[f"err_{side}"] == pytest.approx(abs(out[f"avg_{side}"] - out["reference"]),
                                                   rel=1e-12)
