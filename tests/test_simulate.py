import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

from chain_oracle import euler_loop, loop_law
from conftest import ZeroRng
from dense_oracle import dense_drift
from draw_oracle import draw_whole
from edge_oracle import edge_euler
from fracgl import (DriftSystem, ExternalField, ModelParams, SmoothBump, TestFunction,
                    boundary_block_average,
                    dirichlet_spectrum, empirical_pairing, euler_chain_law,
                    euler_ensemble, euler_stability_limit, girsanov_log_weight_variance,
                    kernel_row, martingale_qv_rate, propagate_exact, reservoir_drift,
                    kernel, sample_ness, solve_stationary_profile, simulate)
from fracgl import cli
from fracgl.experiments import DEFAULTS, ExperimentConfig
from fracgl.params import step_count
from fracgl.rng import make_rng


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
    return ExternalField(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump)


def test_field_must_vanish_at_ends():
    ones = TestFunction(f=np.ones_like, df=np.zeros_like, d2f=np.zeros_like)
    with pytest.raises(ValueError):
        ExternalField(lambda t: 1.0, None, ones)


def test_field_must_broadcast_over_times():
    # a fixed-length list ignores the shape of t and cannot fill (times,)
    bump = SmoothBump(0.25, 0.75)
    with pytest.raises(ValueError, match="broadcast"):
        ExternalField(lambda t: [0.0, 0.0], None, bump)
    with pytest.raises(ValueError, match="broadcast"):
        ExternalField(lambda t: 0.0 * t, lambda t: [0.0, 0.0], bump)


def test_time_independent_field_on_time_array(params16):
    bump = SmoothBump(0.25, 0.75, 0.8)
    field = ExternalField(lambda t: 1.0, None, bump)
    ts = np.linspace(0.0, 0.5, 4)
    np.testing.assert_array_equal(field.a(ts), np.ones(ts.size))
    np.testing.assert_array_equal(field.lattice_shape(params16)[0], bump.f(params16.grid()))


def test_field_tilt_drift_is_minus_laplacian(params16):
    from fracgl import discrete_fractional_laplacian
    # the tilt drift a(t) u has u = -(L_n B)
    field = bump_field()
    bv, lap = field.lattice_shape(params16)
    np.testing.assert_allclose(
        lap, discrete_fractional_laplacian(params16, bv), atol=1e-10)


def test_field_lattice_on_time_array_matches_per_time(params16):
    # the layers scale one lattice shape by the amplitudes of a time array,
    # which are those of the times one at a time
    field = bump_field()
    ts = np.linspace(0.0, 0.5, 6)
    amp, rate = field.a(ts), field.da(ts)
    assert amp.shape == rate.shape == ts.shape
    for i, t in enumerate(ts):
        assert amp[i] == field.a(float(t))
        assert rate[i] == field.da(float(t))


def test_site_tilt_is_half_field(params16, sys16):
    # the site-space Girsanov tilt theta = (-M)^{-1} u / 2 is H / 2 exactly
    # for a field that vanishes at sites 1 and n-1
    field = bump_field()
    bv, lap = field.lattice_shape(params16)
    hv = field.a(0.2) * bv
    assert hv[0] == hv[-1] == 0.0
    theta = 0.5 * np.linalg.solve(-dense_drift(params16), -field.a(0.2) * lap)
    np.testing.assert_allclose(theta, 0.5 * hv, rtol=0, atol=1e-12)


def use_normals(monkeypatch, rng):
    """Point the stream of `euler_ensemble` at a stand-in generator."""
    monkeypatch.setattr(simulate, "make_rng", lambda *key: rng)


def test_stability_limit_reads_the_diagonal_alone(monkeypatch):
    # the limit of the formula on the dense M's diagonal, bit for bit, from a
    # fresh DriftSystem whose spectrum is never read
    params = ModelParams(40, 1.3)
    fresh = DriftSystem(params.n, params.gamma)
    monkeypatch.setattr(kernel, "_drift_system", lambda n, gamma: fresh)
    limit = euler_stability_limit(params)
    assert "_spectrum" not in vars(fresh)
    assert limit == 0.5 / (params.speed + float(-dense_drift(params).diagonal().min()))


def test_step_euler_stability_guard(params16, profile16):
    phi = np.zeros((1, params16.n_sites))
    bad_dt = 1.01 * euler_stability_limit(params16)
    with pytest.raises(ValueError, match="stability"):
        euler_ensemble(profile16, phi, bad_dt, bad_dt, seed=0)


def test_step_euler_fixed_point_without_noise(profile16, monkeypatch):
    use_normals(monkeypatch, ZeroRng())
    out = euler_ensemble(profile16, profile16.profile[None, :], 1e-2, 1e-4, seed=0)
    np.testing.assert_allclose(out["phi"][0], profile16.profile, atol=1e-12)


def test_step_euler_is_site_step_with_modal_noise(params16, sys16, profile16,
                                                  monkeypatch):
    # one step is dt (M phi + b) + sqrt(dt) S z with S S^T = -2 M
    rng = np.random.default_rng(5)
    phi = profile16.profile + rng.standard_normal(params16.n_sites)
    z = rng.standard_normal((1, params16.n_sites))
    spec = dirichlet_spectrum(params16)
    S = spec.modes * np.sqrt(2.0 * spec.eigenvalues / params16.n)
    m = dense_drift(params16)
    scale = np.abs(m).max()
    np.testing.assert_allclose(S @ S.T, -2.0 * m, rtol=0, atol=1e-12 * scale)
    dt = 1e-4
    use_normals(monkeypatch, FixedRng(z))
    out = euler_ensemble(profile16, phi[None, :], dt, dt, seed=0)["phi"][0]
    expected = dt * (m @ phi + reservoir_drift(params16)) + np.sqrt(dt) * S @ z[0]
    np.testing.assert_allclose(out - phi, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tilted", [False, True])
def test_girsanov_increment_matches_site_space(params16, sys16, profile16, tilted,
                                               monkeypatch):
    # the modal log-weight of one step is eta.theta -/+ (dt/2) theta.u with
    # theta = (-M)^{-1} u / 2 in site space; one step leaves the weight no
    # noise of its own, so the second block of normals is all zeros
    rng = np.random.default_rng(8)
    phi = profile16.profile + rng.standard_normal((3, params16.n_sites))
    z = rng.standard_normal(phi.shape)
    field, dt = bump_field(), 1e-4
    use_normals(monkeypatch, FixedRng(z, np.zeros((3, 1))))
    out = euler_ensemble(profile16, phi, dt, dt, seed=0, field=field, tilted=tilted)
    spec = dirichlet_spectrum(params16)
    eta = np.sqrt(dt) * z @ (spec.modes * np.sqrt(2.0 * spec.eigenvalues
                                                 / params16.n)).T
    u = -field.a(0.0) * field.lattice_shape(params16)[1]
    m = dense_drift(params16)
    theta = 0.5 * np.linalg.solve(-m, u)
    quad = 0.5 * dt * float(theta @ u)
    np.testing.assert_allclose(out["log_weight"],
                               eta @ theta + (quad if tilted else -quad),
                               rtol=0, atol=1e-12)
    drift = phi @ m.T + reservoir_drift(params16)
    step = phi + dt * (drift + (u if tilted else 0.0)) + eta
    np.testing.assert_allclose(out["phi"], step, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, T, dt, tilted", [(5, 0.05, 1e-3, True),
                                              (8, 0.02, 4e-4, False),
                                              (8, 0.02, 4e-4, True)])
def test_chain_law_matches_step_recursion(n, T, dt, tilted):
    # the closed-form law of K steps against the loop's exact moments
    params = ModelParams(n, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field, G = bump_field(amp=0.9), np.sin(np.pi * params.grid())
    phi0 = prof.profile + np.cos(3.0 * params.grid())
    spec, law = euler_chain_law(params, T, dt, field, tilted, G)
    mean, cov = loop_law(prof, phi0, T, dt, field, tilted, G / params.n_sites)
    modes = params.n_sites
    exact_mean = np.concatenate([law["decay"] * spec.project(phi0 - prof.profile)
                                 + law["shift"], law["mean"]])
    exact_cov = np.block([[np.diag(law["sd"] ** 2), law["cross"]],
                          [law["cross"].T, law["joint"]]])
    assert law["keys"] == ("martingale", "log_weight")
    np.testing.assert_allclose(mean, exact_mean, rtol=0,
                               atol=1e-13 * np.abs(exact_mean).max())
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    np.testing.assert_allclose(cov / scale, exact_cov / scale, rtol=0, atol=1e-13)
    assert np.diag(cov)[:modes] == pytest.approx(law["sd"] ** 2, rel=1e-13, abs=0)


@pytest.mark.parametrize("tilted", [False, True])
def test_one_shot_draw_matches_loop_law(tilted):
    # n=12: the draw of (modes of phi_T - Phi_ss, martingale, log-weight)
    # against the exact law of the step-by-step loop; over 200 steps the fast
    # modes forget their early noise, so the martingale and the log-weight
    # also carry noise of their own beyond the modes' at T
    params = ModelParams(12, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field, G = bump_field(amp=0.9), np.sin(np.pi * params.grid())
    T, dt, reps = 0.1, 5e-4, 20000
    phi0 = prof.profile + np.cos(3.0 * params.grid())
    mean, cov = loop_law(prof, phi0, T, dt, field, tilted, G / params.n_sites)
    out = euler_ensemble(prof, np.tile(phi0, (reps, 1)), T, dt, seed=61, field=field,
                         tilted=tilted, martingale_g=G)
    spec = dirichlet_spectrum(params)
    x = np.column_stack([spec.project(out["phi"] - prof.profile),
                         out["martingale"], out["log_weight"]])
    d = np.diag(cov)
    assert np.max(np.abs(x.mean(axis=0) - mean) / np.sqrt(d / reps)) <= 4.0
    se_cov = np.sqrt((np.outer(d, d) + cov ** 2) / reps)
    upper = np.triu_indices(d.size)
    assert np.max(np.abs(np.cov(x.T) - cov)[upper] / se_cov[upper]) <= 4.5


def test_step_sums_match_direct_sums(params16):
    # the law's sums over 300 steps, from the amplitudes alone, against the
    # same sums taken over the whole (steps, modes) array of u_jk
    G = np.sin(np.pi * params16.grid())
    field = bump_field()
    spec, law = euler_chain_law(params16, 0.3, 1e-3, field, False, G)
    k_steps, lam = 300, spec.eigenvalues
    h = 0.3 / k_steps
    r = np.exp(np.log1p(-h * lam))
    lap = field.lattice_shape(params16)[1]
    u = np.array([spec.project(-field.a(j * h) * lap) for j in range(k_steps)])
    late = np.sum(r ** np.arange(k_steps - 1, -1, -1)[:, None] * u, axis=0)
    q = 0.5 * h * params16.n * np.sum(u ** 2 / lam)
    g_hat = params16.n * spec.project(G / params16.n_sites)
    np.testing.assert_allclose(law["cross"][:, 1], h * late, rtol=1e-13,
                               atol=1e-15 * np.abs(h * late).max())
    assert law["joint"][1, 1] == pytest.approx(q, rel=1e-13, abs=0)
    assert law["joint"][0, 1] == pytest.approx(h * g_hat @ u.sum(axis=0), rel=1e-13, abs=0)
    assert law["mean"][1] == pytest.approx(-0.5 * q, rel=1e-13, abs=0)


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
    m = dense_drift(params16)
    np.testing.assert_allclose(S @ S.T, np.eye(params16.n_sites) - expm(2.0 * t * m),
                               rtol=0, atol=1e-12)
    out = propagate_exact(phi, profile16, t, FixedRng(z))
    mean = profile16.profile + expm(t * m) @ (phi - profile16.profile)
    np.testing.assert_allclose(out, mean + S @ z, rtol=0, atol=1e-12)


def test_euler_mean_propagation_order(params16, profile16, monkeypatch):
    # one noiseless Euler step vs the exact semigroup: O(dt^2) defect
    rng = np.random.default_rng(2)
    phi0 = profile16.profile + rng.standard_normal(params16.n_sites)
    spec = dirichlet_spectrum(params16)
    use_normals(monkeypatch, ZeroRng())
    gaps = []
    for dt in (2e-4, 1e-4):
        euler_mean = euler_ensemble(profile16, phi0[None, :], dt, dt, seed=0)["phi"][0]
        coeff = spec.project(phi0 - profile16.profile) * np.exp(-spec.eigenvalues * dt)
        exact_mean = profile16.profile + spec.synthesize(coeff)
        gaps.append(np.max(np.abs(euler_mean - exact_mean)))
    assert gaps[1] == pytest.approx(gaps[0] / 4.0, rel=0.1)


def test_single_step_covariance_matches_diffusion():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    replicas, dt = 40000, 1e-4
    phi0 = np.tile(prof.profile, (replicas, 1))
    out = euler_ensemble(prof, phi0, dt, dt, seed=4)
    inc = out["phi"] - prof.profile
    cov = inc.T @ inc / replicas
    target = -2.0 * dense_drift(params) * dt
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    assert np.max(np.abs(cov - target) / scale) <= 5.0 / np.sqrt(replicas) * 3.0


def test_factor_noise_matches_edge_noise_in_law():
    # the modal chain and its log-weights against the edge-by-edge oracle
    params = ModelParams(12, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    field = bump_field(amp=0.9)
    replicas, T, dt = 20000, 0.02, 5e-4
    phi0 = sample_ness(prof, replicas, seed=1)
    site = euler_ensemble(prof, phi0, T, dt, seed=2, field=field, tilted=False)
    edge_phi, edge_logw, q = edge_euler(params, phi0, T, dt, make_rng(3, "edges"), field)
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
    m = dense_drift(params)
    field = bump_field(amp=0.9)
    T, dt = 0.3, 7e-4                        # 429 steps of 0.3 / 429
    k_steps = int(np.ceil(T / dt))
    h = T / k_steps
    loop = 0.0
    for k in range(k_steps):
        u = -field.a(k * h) * field.lattice_shape(params)[1]
        loop += 0.5 * h * float(u @ np.linalg.solve(-m, u))
    q = girsanov_log_weight_variance(params, field, T, dt)
    assert q == pytest.approx(loop, rel=1e-12, abs=0)


def test_girsanov_q_matches_frozen_value():
    frozen = json.loads((Path(__file__).parent / "frozen_paths.json").read_text())
    cfg = ExperimentConfig(experiment="girsanov", **DEFAULTS["girsanov"])
    q = girsanov_log_weight_variance(cfg.params(), bump_field(), cfg.T, cfg.dt)
    assert q == pytest.approx(frozen["girsanov_q"], rel=1e-13, abs=0)


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
    # the step-by-step oracle's martingale is the left-endpoint Dynkin sum of
    # <pi_t, G> along a site-space Euler path driven by the same normals,
    #   sum_k <phi_{k+1} - phi_k - dt (M phi_k + b + u_k), G> / (n-1)
    params = ModelParams(12, 1.5, 0.0, 1.0)
    m, b = dense_drift(params), reservoir_drift(params)
    prof = solve_stationary_profile(params)
    G = np.sin(np.pi * params.grid())
    spec = dirichlet_spectrum(params)
    rng = np.random.default_rng(17)
    n_steps, dt, reps = 25, 2e-4, 3
    phi0 = prof.profile + rng.standard_normal((reps, params.n_sites))
    z = rng.standard_normal((n_steps, reps, params.n_sites))
    S = spec.modes * np.sqrt(2.0 * spec.eigenvalues / params.n)
    for field in (None, bump_field()):
        out = euler_loop(prof, phi0, n_steps * dt, dt, FixedRng(*z), field=field,
                         g_vec=G / params.n_sites)
        phi, dynkin = phi0.copy(), np.zeros(reps)
        for k in range(n_steps):
            drift = phi @ m.T + b
            if field is not None:
                drift = drift - field.a(k * dt) * field.lattice_shape(params)[1]
            step = phi + dt * drift + np.sqrt(dt) * z[k] @ S.T
            dynkin += empirical_pairing(step - phi - dt * drift, G)
            phi = step
        np.testing.assert_allclose(out["phi"], phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out["martingale"], dynkin, rtol=0, atol=1e-12)


def test_martingale_qv_rate_direct_sum_oracle():
    params = ModelParams(12, 1.7, 0.0, 1.0)
    rng = np.random.default_rng(6)
    G = rng.standard_normal(params.n_sites)
    row = toeplitz(kernel_row(params))
    total = 0.0
    for x in range(params.n_sites):
        for y in range(params.n_sites):
            total += row[x, y] * (G[y] - G[x]) ** 2
    total += 2.0 * G[0] ** 2 + 2.0 * G[-1] ** 2
    expected = params.speed * total / params.n_sites ** 2
    assert martingale_qv_rate(params, G) == pytest.approx(expected, rel=1e-12)


ROWS = simulate._ROWS


def _same_as_oracle(monkeypatch, call):
    """`call()` through the row-blocked draw, then through the whole-batch oracle."""
    blocked = call()
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "_draw", draw_whole)
        whole = call()
    assert blocked.keys() == whole.keys()
    for key in whole:
        assert np.array_equal(blocked[key], whole[key]), key


@pytest.mark.parametrize("replicas", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 7])
@pytest.mark.parametrize("outputs", ["none", "martingale", "log_weight", "both"])
def test_blocked_draw_matches_whole_batch_oracle(profile16, replicas, outputs, monkeypatch):
    # the same numbers bit for bit, over block edges and a one-row remainder
    params = profile16.params
    kwargs = {"martingale_g": np.sin(np.pi * params.grid())} if outputs in ("martingale",
                                                                             "both") else {}
    if outputs in ("log_weight", "both"):
        kwargs.update(field=bump_field(), tilted=replicas % 2 == 0)
    phi0 = sample_ness(profile16, replicas, seed=replicas)
    _same_as_oracle(monkeypatch, lambda: euler_ensemble(profile16, phi0, 0.02, 1e-3,
                                                        seed=5, **kwargs))


def test_blocked_draw_from_a_broadcast_start(profile16, monkeypatch):
    start = np.broadcast_to(profile16.profile + 0.3, (2 * ROWS + 3, profile16.params.n_sites))
    _same_as_oracle(monkeypatch, lambda: euler_ensemble(profile16, start, 0.02, 1e-3, seed=6,
                                                        field=bump_field()))


@pytest.mark.parametrize("shape", [(15,), (3, ROWS // 2 + 1, 15)], ids=["1-d", "3-d"])
def test_blocked_exact_transition_matches_oracle(profile16, shape, monkeypatch):
    phi = profile16.profile + make_rng(4, "start").standard_normal(shape)
    _same_as_oracle(monkeypatch, lambda: {"phi": propagate_exact(phi, profile16, 0.2,
                                                                make_rng(9, "exact"))})


def test_chain_noise_drawn_ahead_is_the_same_draw(profile16, monkeypatch):
    phi0 = sample_ness(profile16, 700, seed=2)
    kwargs = dict(field=bump_field(), martingale_g=np.sin(np.pi * profile16.params.grid()))

    def both_chains():
        return [euler_ensemble(profile16, phi0, 0.02, 1e-3, seed=8, index=i, **kwargs)
                for i in (0, 1)]

    plain = both_chains()
    with simulate.chain_noise_ahead(profile16.params, 700, seed=8, indices=(0, 1)):
        ahead = both_chains()
    # the whole-batch oracle takes the handed-over block too
    monkeypatch.setattr(simulate, "_draw", draw_whole)
    with simulate.chain_noise_ahead(profile16.params, 700, seed=8, indices=(0, 1)):
        whole = both_chains()
    for a, b, c in zip(plain, ahead, whole):
        for key in a:
            assert np.array_equal(a[key], b[key]), key
            assert np.array_equal(a[key], c[key]), key


def test_step_count_tolerates_an_ulp_above_an_integer():
    assert 0.45 / 3e-4 > 1500
    assert step_count(0.45, 3e-4) == 1500
    assert step_count(0.005, 5e-5) == 100
    assert step_count(0.25, 5e-5) == 5000
    assert step_count(1e-3, 1.0) == 1
    assert step_count(0.45, 3e-4 * (1 - 1e-9)) == 1501


@pytest.mark.parametrize("name", ["girsanov", "stationarity", "martingale"])
def test_girsanov_scope_starts_one_thread_and_joins_it(name, tmp_path, monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(simulate.threading, "Thread", Counted)
    before = threading.active_count()
    assert cli.main([name, "--replicas", "50", "--t", "0.02", "--out",
                     str(tmp_path)]) in (0, 2)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before
    assert not simulate._AHEAD


@pytest.mark.parametrize("name", ["stationarity", "martingale", "girsanov"])
def test_euler_experiments_leave_the_chain_outputs_intact(name, tmp_path, monkeypatch):
    # perfbench keeps the returned arrays and checks them after the experiment
    inner, kept = simulate.euler_ensemble, []

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        kept.append((out, {key: value.copy() for key, value in out.items()}))
        return out

    monkeypatch.setattr(simulate, "euler_ensemble", recorded)
    assert cli.main([name, "--replicas", "50", "--t", "0.02", "--out",
                     str(tmp_path)]) in (0, 2)
    assert len(kept) == (2 if name == "girsanov" else 1)
    for out, copy in kept:
        assert out.keys() == copy.keys()
        for key in out:
            assert np.array_equal(out[key], copy[key]), key


@pytest.mark.parametrize("name", ["stationarity", "martingale", "girsanov"])
def test_monte_carlo_outputs_match_frozen_values(name, tmp_path):
    frozen = json.loads((Path(__file__).parent / "frozen_ensembles.json").read_text())[name]
    assert cli.main(frozen["argv"] + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["checks"] == frozen["checks"]
    assert summary["outputs"] == frozen["outputs"]
    if name == "girsanov":
        records = json.loads((tmp_path / "replicas.json").read_text())
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == frozen["replicas_sha256"]
