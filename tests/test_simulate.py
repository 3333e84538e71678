import numpy as np
import pytest

from conftest import ZeroRng
from edge_oracle import edge_euler
from fracgl import (ExternalField, ModelParams, SmoothBump,
                    boundary_block_average, build_drift_system,
                    dirichlet_spectrum, empirical_pairing, euler_ensemble,
                    euler_stability_limit, girsanov_log_weight_variance,
                    martingale_qv_rate, propagate_exact, sample_ness,
                    solve_stationary_profile)
from fracgl.rng import make_rng
from fracgl.simulate import _euler


class FixedRng:
    """Stands in for a Generator, handing out the given normals in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        z = self.draws.pop(0)
        assert z.shape == tuple(shape)
        return z.copy()


def bump_field(amp=0.8, a=0.25, b=0.75, omega=2.0):
    bump = SmoothBump(a, b, amp)
    return ExternalField.separable(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump)


def test_field_must_vanish_at_ends():
    with pytest.raises(ValueError):
        ExternalField(h=lambda t, u: np.ones_like(u))


def test_field_must_broadcast_over_times():
    # a fixed-length list ignores the shape of u and cannot fill (times, points)
    with pytest.raises(ValueError, match="broadcast"):
        ExternalField(h=lambda t, u: [0.0, 0.0])
    with pytest.raises(ValueError, match="broadcast"):
        ExternalField(h=lambda t, u: np.zeros_like(u), dh_dt=lambda t, u: [0.0, 0.0])


def test_time_independent_field_on_time_array(params16):
    bump = SmoothBump(0.25, 0.75, 0.8)
    field = ExternalField(h=lambda t, u: bump.f(u))
    ts = np.linspace(0.0, 0.5, 4)
    hv, lap = field.lattice(params16, ts)
    assert hv.shape == lap.shape == (ts.size, params16.n_sites)
    for row in hv:
        np.testing.assert_array_equal(row, bump.f(params16.grid()))
    u_one = field.tilt_drift(params16, float(ts[2]))
    np.testing.assert_allclose(field.tilt_drift(params16, ts)[2], u_one, rtol=0,
                               atol=1e-12 * np.abs(u_one).max())


def test_field_tilt_drift_is_minus_laplacian(params16):
    from fracgl import discrete_fractional_laplacian
    field = bump_field()
    hv, lap = field.lattice(params16, 0.3)
    np.testing.assert_allclose(
        lap, discrete_fractional_laplacian(params16, hv), atol=1e-10)
    np.testing.assert_allclose(field.tilt_drift(params16, 0.3), -lap, atol=0)


def test_field_lattice_on_time_array_matches_per_time(params16):
    field = bump_field()
    ts = np.linspace(0.0, 0.5, 6)
    hv, lap = field.lattice(params16, ts)
    dh = field.dt_lattice(params16, ts)
    assert hv.shape == lap.shape == dh.shape == (ts.size, params16.n_sites)
    for i, t in enumerate(ts):
        h_t, lap_t = field.lattice(params16, float(t))
        np.testing.assert_array_equal(hv[i], h_t)
        np.testing.assert_allclose(lap[i], lap_t, rtol=0,
                                   atol=1e-12 * np.abs(lap).max())
        np.testing.assert_array_equal(dh[i], field.dt_lattice(params16, float(t)))


def test_site_tilt_is_half_field(params16, sys16):
    # the site-space Girsanov tilt theta = (-M)^{-1} u / 2 is H / 2 exactly
    # for a field that vanishes at sites 1 and n-1
    field = bump_field()
    hv, _ = field.lattice(params16, 0.2)
    assert hv[0] == hv[-1] == 0.0
    theta = 0.5 * sys16.solve_spd(field.tilt_drift(params16, 0.2))
    np.testing.assert_allclose(theta, 0.5 * hv, rtol=0, atol=1e-12)


def test_step_euler_stability_guard(params16, profile16):
    phi = np.zeros((1, params16.n_sites))
    bad_dt = 1.01 * euler_stability_limit(params16)
    with pytest.raises(ValueError, match="stability"):
        _euler(profile16, phi, 0.0, bad_dt, bad_dt, make_rng(0, "t"))


def test_step_euler_fixed_point_without_noise(profile16):
    out = _euler(profile16, profile16.profile[None, :], 0.0, 1e-4, 1e-4, ZeroRng())
    np.testing.assert_allclose(out["phi"][0], profile16.profile, atol=1e-12)


def test_step_euler_is_site_step_with_modal_noise(params16, sys16, profile16):
    # one step is dt (M phi + b) + sqrt(dt) S z with S S^T = -2 M
    rng = np.random.default_rng(5)
    phi = profile16.profile + rng.standard_normal(params16.n_sites)
    z = rng.standard_normal((1, params16.n_sites))
    spec = dirichlet_spectrum(params16)
    S = spec.modes * np.sqrt(2.0 * spec.eigenvalues / params16.n)
    scale = np.abs(sys16.m).max()
    np.testing.assert_allclose(S @ S.T, -2.0 * sys16.m, rtol=0, atol=1e-12 * scale)
    dt = 1e-4
    out = _euler(profile16, phi[None, :], 0.0, dt, dt, FixedRng(z))["phi"][0]
    expected = dt * (sys16.m @ phi + sys16.b) + np.sqrt(dt) * S @ z[0]
    np.testing.assert_allclose(out - phi, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tilted", [False, True])
def test_girsanov_increment_matches_site_space(params16, sys16, profile16, tilted):
    # the modal log-weight of one step is eta.theta -/+ (dt/2) theta.u with
    # theta = (-M)^{-1} u / 2 in site space
    rng = np.random.default_rng(8)
    phi = profile16.profile + rng.standard_normal((3, params16.n_sites))
    z = rng.standard_normal(phi.shape)
    field, t0, dt = bump_field(), 0.3, 1e-4
    out = _euler(profile16, phi, t0, dt, dt, FixedRng(z), field=field, tilted=tilted)
    spec = dirichlet_spectrum(params16)
    eta = np.sqrt(dt) * z @ (spec.modes * np.sqrt(2.0 * spec.eigenvalues
                                                 / params16.n)).T
    u = field.tilt_drift(params16, t0)
    theta = 0.5 * sys16.solve_spd(u)
    quad = 0.5 * dt * float(theta @ u)
    np.testing.assert_allclose(out["log_weight"],
                               eta @ theta + (quad if tilted else -quad),
                               rtol=0, atol=1e-12)
    step = phi + dt * (sys16.drift(phi) + (u if tilted else 0.0)) + eta
    np.testing.assert_allclose(out["phi"], step, rtol=0, atol=1e-12)


def test_propagate_exact_closed_form(params16, sys16, profile16):
    # mean Phi + e^{Mt}(phi - Phi), noise S z with S S^T = I - e^{2Mt}
    from scipy.linalg import expm
    rng = np.random.default_rng(9)
    phi = profile16.profile + rng.standard_normal(params16.n_sites)
    z = rng.standard_normal(params16.n_sites)
    t = 0.01
    spec = dirichlet_spectrum(params16)
    r = np.exp(-spec.eigenvalues * t)
    S = spec.modes * np.sqrt((1.0 - r ** 2) / params16.n)
    np.testing.assert_allclose(S @ S.T, np.eye(params16.n_sites) - expm(2.0 * t * sys16.m),
                               rtol=0, atol=1e-12)
    out = propagate_exact(phi, profile16, t, FixedRng(z))
    mean = profile16.profile + expm(t * sys16.m) @ (phi - profile16.profile)
    np.testing.assert_allclose(out, mean + S @ z, rtol=0, atol=1e-12)


def test_euler_mean_propagation_order(params16, profile16):
    # one noiseless Euler step vs the exact semigroup: O(dt^2) defect
    rng = np.random.default_rng(2)
    phi0 = profile16.profile + rng.standard_normal(params16.n_sites)
    spec = dirichlet_spectrum(params16)
    gaps = []
    for dt in (2e-4, 1e-4):
        euler_mean = _euler(profile16, phi0[None, :], 0.0, dt, dt, ZeroRng())["phi"][0]
        coeff = spec.project(phi0 - profile16.profile) * np.exp(-spec.eigenvalues * dt)
        exact_mean = profile16.profile + spec.synthesize(coeff)
        gaps.append(np.max(np.abs(euler_mean - exact_mean)))
    assert gaps[1] == pytest.approx(gaps[0] / 4.0, rel=0.1)


def test_single_step_covariance_matches_diffusion():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    sys = build_drift_system(params)
    prof = solve_stationary_profile(params)
    replicas, dt = 40000, 1e-4
    phi0 = np.tile(prof.profile, (replicas, 1))
    out = euler_ensemble(prof, phi0, dt, dt, seed=4)
    inc = out["phi"] - prof.profile
    cov = inc.T @ inc / replicas
    target = -2.0 * sys.m * dt
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    assert np.max(np.abs(cov - target) / scale) <= 5.0 / np.sqrt(replicas) * 3.0


def test_factor_noise_matches_edge_noise_in_law():
    # the modal chain and its log-weights against the edge-by-edge oracle
    params = ModelParams(12, 1.5, 0.0, 1.0)
    sys = build_drift_system(params)
    prof = solve_stationary_profile(params)
    field = bump_field(amp=0.9)
    replicas, T, dt = 20000, 0.02, 5e-4
    phi0 = sample_ness(prof, replicas, seed=1)
    site = euler_ensemble(prof, phi0, T, dt, seed=2, field=field, tilted=False)
    edge_phi, edge_logw, q = edge_euler(sys, phi0, T, dt, make_rng(3, "edges"), field)
    mean_gap = site["phi"].mean(axis=0) - edge_phi.mean(axis=0)
    var = 0.5 * (site["phi"].var(axis=0) + edge_phi.var(axis=0))
    assert np.max(np.abs(mean_gap) / np.sqrt(2.0 * var / replicas)) <= 4.0
    cov_s, cov_e = np.cov(site["phi"].T), np.cov(edge_phi.T)
    d = np.diag(cov_e)
    se_cov = np.sqrt(2.0 * (np.outer(d, d) + cov_e ** 2) / replicas)
    assert np.max(np.abs(cov_s - cov_e) / se_cov) <= 4.5
    # both log-weights are Normal(-Q/2, Q) for the discretized chain
    for logw in (site["log_weight"], edge_logw):
        assert abs(logw.mean() + 0.5 * q) <= 4.0 * np.sqrt(q / replicas)
        assert abs(logw.var(ddof=1) - q) <= 4.0 * q * np.sqrt(2.0 / (replicas - 1))


def test_propagate_exact_limits(params16, profile16):
    rng = np.random.default_rng(3)
    phi0 = profile16.profile + rng.standard_normal(params16.n_sites)
    # short time: output concentrates at the input
    short = propagate_exact(phi0, profile16, 1e-9, make_rng(1, "x"))
    assert np.max(np.abs(short - phi0)) < 1e-3
    # long time: law matches the NESS moments
    lam1 = dirichlet_spectrum(params16).eigenvalues[0]
    t_long = 32.0 / lam1
    reps = 20000
    state = np.broadcast_to(phi0, (reps, params16.n_sites))
    final = propagate_exact(state, profile16, t_long, make_rng(7, "exact-long"))
    assert np.max(np.abs(final.mean(axis=0) - profile16.profile)) <= 4.0 / np.sqrt(reps)
    assert np.max(np.abs(final.var(axis=0) - 1.0)) <= 4.0 * np.sqrt(2.0 / reps)


def test_propagate_exact_stationarity(params16, profile16):
    reps = 20000
    draws = sample_ness(profile16, reps, seed=9)
    out = propagate_exact(draws, profile16, 0.37, make_rng(10, "stat"))
    assert np.max(np.abs(out.mean(axis=0) - profile16.profile)) <= 4.0 / np.sqrt(reps)
    assert np.max(np.abs(out.var(axis=0) - 1.0)) <= 4.0 * np.sqrt(2.0 / reps)


def test_propagate_exact_rejects_nonpositive_time(profile16):
    for t in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            propagate_exact(profile16.profile, profile16, t, make_rng(0, "x"))
    with pytest.raises(ValueError, match="sites last"):
        propagate_exact(profile16.profile[:-1], profile16, 0.1, make_rng(0, "x"))


def test_exact_vs_euler_mean_gap_order_dt():
    # deterministic check on the mean propagators: (I + dt M)^K vs e^{MT}
    params = ModelParams(16, 1.5, 0.0, 1.0)
    spec = dirichlet_spectrum(params)
    T = 0.2
    v = spec.modes @ spec.project(np.sin(np.pi * params.grid()))
    gaps = []
    dts = [4e-4, 2e-4, 1e-4]
    for dt in dts:
        k = int(round(T / dt))
        lam = spec.eigenvalues
        euler_factor = (1.0 - dt * lam) ** k
        exact_factor = np.exp(-lam * T)
        coeff = spec.project(v)
        gaps.append(np.linalg.norm(spec.synthesize((euler_factor - exact_factor) * coeff)))
    slopes = np.diff(np.log(gaps)) / np.diff(np.log(dts))
    assert np.all(np.abs(slopes - 1.0) <= 0.2)


def test_girsanov_weight_mean_one():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field(amp=0.9)
    reps = 20000
    phi0 = sample_ness(prof, reps, seed=21)
    out = euler_ensemble(prof, phi0, 0.3, 1e-3, seed=22, field=field,
                         tilted=False)
    w = np.exp(out["log_weight"])
    z = abs(w.mean() - 1.0) / (w.std(ddof=1) / np.sqrt(reps))
    assert z <= 3.0


def test_girsanov_tilted_vs_weighted():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field(amp=0.9)
    reps = 20000
    G = np.sin(np.pi * params.grid())
    phi0 = sample_ness(prof, reps, seed=31)
    plain = euler_ensemble(prof, phi0, 0.3, 1e-3, seed=32, field=field,
                           tilted=False)
    w = np.exp(plain["log_weight"])
    f_plain = np.tanh(plain["phi"] @ G / params.n_sites)
    phi0b = sample_ness(prof, reps, seed=33)
    tilt = euler_ensemble(prof, phi0b, 0.3, 1e-3, seed=34, field=field,
                          tilted=True)
    f_tilt = np.tanh(tilt["phi"] @ G / params.n_sites)
    est_w, est_t = (w * f_plain).mean(), f_tilt.mean()
    se = np.hypot((w * f_plain).std(ddof=1), f_tilt.std(ddof=1)) / np.sqrt(reps)
    assert abs(est_w - est_t) <= 3.0 * se


def test_girsanov_log_weight_variance_matches_step_loop():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    sys = build_drift_system(params)
    field = bump_field(amp=0.9)
    T, dt = 0.3, 7e-4                        # 429 steps of 0.3 / 429
    k_steps = int(np.ceil(T / dt))
    h = T / k_steps
    loop = 0.0
    for k in range(k_steps):
        u = field.tilt_drift(params, k * h)
        loop += 0.5 * h * float(u @ sys.solve_spd(u))
    q = girsanov_log_weight_variance(params, field, T, dt)
    assert q == pytest.approx(loop, rel=1e-12, abs=0)


def test_girsanov_log_weight_law():
    # theta_t is deterministic, so the untilted log-weight is Normal(-q/2, q)
    params = ModelParams(8, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field(amp=0.9)
    reps, T, dt = 20000, 0.3, 1e-3
    out = euler_ensemble(prof, sample_ness(prof, reps, seed=51), T, dt, seed=52,
                         field=field, tilted=False)
    lw = out["log_weight"]
    q = girsanov_log_weight_variance(params, field, T, dt)
    assert abs(lw.mean() + 0.5 * q) <= 5.0 * np.sqrt(q / reps)
    assert abs(lw.var(ddof=1) - q) <= 5.0 * q * np.sqrt(2.0 / (reps - 1))


def test_empirical_pairing_basics(params16):
    rng = np.random.default_rng(12)
    phi = rng.standard_normal(params16.n_sites)
    ones = np.ones(params16.n_sites)
    assert empirical_pairing(phi, ones) == pytest.approx(phi.mean())
    G1, G2 = rng.standard_normal((2, params16.n_sites))
    lhs = empirical_pairing(phi, 2.0 * G1 - G2)
    assert lhs == pytest.approx(2 * empirical_pairing(phi, G1)
                                - empirical_pairing(phi, G2), rel=1e-12)
    assert empirical_pairing(3.0 * phi, G1) == pytest.approx(
        3.0 * empirical_pairing(phi, G1), rel=1e-12)


def test_empirical_pairing_converges_to_integral():
    gamma, pl, pr = 1.5, 1.0, 2.0
    vals = []
    for n in (64, 512):
        params = ModelParams(n, gamma, pl, pr)
        prof = solve_stationary_profile(params)
        G = np.sin(np.pi * params.grid())
        vals.append(empirical_pairing(prof.profile, G))
    assert abs(vals[1] - vals[0]) < 0.03


def test_boundary_block_average():
    params = ModelParams(16, 1.5)
    phi = np.arange(params.n_sites, dtype=float)
    assert boundary_block_average(phi, "left", 1.0 / 16) == 0.0
    assert boundary_block_average(phi, "right", 1.0 / 16) == 14.0
    const = np.full(params.n_sites, 2.5)
    assert boundary_block_average(const, "left", 0.25) == 2.5
    with pytest.raises(ValueError):
        boundary_block_average(phi, "left", 1.0)
    with pytest.raises(ValueError):
        boundary_block_average(phi, "middle", 0.2)


def test_boundary_block_average_near_reservoir():
    # under the NESS the left block average approaches phi_l as eps shrinks
    # and n grows (two-step limit, checked on means)
    gamma, pl, pr = 1.5, 0.0, 1.0
    first = {}
    for n in (64, 256):
        prof = solve_stationary_profile(ModelParams(n, gamma, pl, pr))
        row = [boundary_block_average(prof.profile, "left", eps)
               for eps in (0.25, 0.1, 0.05)]
        assert row[2] < row[1] < row[0]          # eps -> 0 at fixed n
        first[n] = boundary_block_average(prof.profile, "left", 1.0 / n)
    assert first[256] < first[64]                # innermost block -> phi_l


def test_dynkin_zero_testfunction(params16, profile16):
    zero = np.zeros(params16.n_sites)
    out = euler_ensemble(profile16, np.tile(profile16.profile, (3, 1)), 0.02, 2e-4,
                         seed=5, martingale_g=zero)
    assert np.all(out["martingale"] == 0.0)
    assert martingale_qv_rate(params16, zero) == 0.0


def test_dynkin_martingale_moments():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    G = np.sin(np.pi * params.grid())
    reps, T, dt = 20000, 0.1, 2e-4
    phi0 = sample_ness(prof, reps, seed=41)
    out = euler_ensemble(prof, phi0, T, dt, seed=42, martingale_g=G)
    m = out["martingale"]
    qv = martingale_qv_rate(params, G) * T
    assert abs(m.mean()) <= 3.0 * m.std(ddof=1) / np.sqrt(reps)
    z_var = abs(m.var(ddof=1) - qv) / (m.var(ddof=1) * np.sqrt(2.0 / (reps - 1)))
    assert z_var <= 3.0


def test_dynkin_diagnostics_matches_ensemble_accumulator():
    # oracle: the left-endpoint Dynkin sum of <pi_t, G> along a site-space
    # Euler path driven by the same normals,
    #   sum_k <phi_{k+1} - phi_k - dt (M phi_k + b + u_k), G> / (n-1)
    params = ModelParams(12, 1.5, 0.0, 1.0)
    sys = build_drift_system(params)
    prof = solve_stationary_profile(params)
    G = np.sin(np.pi * params.grid())
    spec = dirichlet_spectrum(params)
    rng = np.random.default_rng(17)
    n_steps, dt, reps = 25, 2e-4, 3
    phi0 = prof.profile + rng.standard_normal((reps, params.n_sites))
    z = rng.standard_normal((n_steps, reps, params.n_sites))
    S = spec.modes * np.sqrt(2.0 * spec.eigenvalues / params.n)
    for field in (None, bump_field()):
        out = _euler(prof, phi0, 0.0, n_steps * dt, dt, FixedRng(*z), field=field,
                     g_vec=G / params.n_sites)
        phi, dynkin = phi0.copy(), np.zeros(reps)
        for k in range(n_steps):
            drift = sys.drift(phi)
            if field is not None:
                drift = drift + field.tilt_drift(params, k * dt)
            step = phi + dt * drift + np.sqrt(dt) * z[k] @ S.T
            dynkin += empirical_pairing(step - phi - dt * drift, G)
            phi = step
        np.testing.assert_allclose(out["phi"], phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out["martingale"], dynkin, rtol=0, atol=1e-12)


def test_martingale_qv_rate_direct_sum_oracle():
    params = ModelParams(12, 1.7, 0.0, 1.0)
    sys = build_drift_system(params)
    rng = np.random.default_rng(6)
    G = rng.standard_normal(params.n_sites)
    row = sys.kernel_matrix
    total = 0.0
    for x in range(params.n_sites):
        for y in range(params.n_sites):
            total += row[x, y] * (G[y] - G[x]) ** 2
    total += 2.0 * G[0] ** 2 + 2.0 * G[-1] ** 2
    expected = params.speed * total / params.n_sites ** 2
    assert martingale_qv_rate(params, G) == pytest.approx(expected, rel=1e-12)
