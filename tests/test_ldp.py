import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracgl import (ExternalField, ModelParams, RateReport, SmoothBump,
                    build_drift_system, clever_path, dirichlet_energy,
                    dirichlet_spectrum, discrete_fractional_laplacian,
                    discrete_inner_seminorm,
                    gamma_identity_defect, j_functional,
                    l2_distance, quasipotential, rate_from_field,
                    solve_hydrodynamic, solve_stationary_profile,
                    static_cumulant, static_rate_w)
from fracgl import ldp
from fracgl.experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig
from fracgl.rng import make_rng


@pytest.fixture(scope="module")
def setup32():
    params = ModelParams(32, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    spec = dirichlet_spectrum(params)
    return params, prof, spec


def bump_field(amp=1.0, a=0.25, b=0.75, omega=2.0):
    bump = SmoothBump(a, b, amp)
    return ExternalField(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump)


def half_of(field):
    return ExternalField(lambda t: 0.5 * field.amplitude(t),
                         lambda t: 0.5 * field.rate(t), field.shape)


def test_rate_report_rejects_negative():
    with pytest.raises(ValueError):
        RateReport(value=-1.0)


def test_rate_report_json_round_trip():
    rep = RateReport(value=0.25, breakdown={"a": 0.1},
                     discretization={"n": 32, "dt": 1e-3})
    data = json.loads(rep.to_json())
    assert data["value"] == 0.25
    assert data["breakdown"]["a"] == 0.1
    assert data["discretization"]["n"] == 32


def test_rate_from_field_zero_and_homogeneity(setup32):
    params, prof, spec = setup32
    zero = ExternalField(lambda t: 0.0, lambda t: 0.0, SmoothBump(0.25, 0.75))
    assert rate_from_field(params, zero, 0.5) == 0.0
    field = bump_field()
    double = ExternalField(lambda t: 2.0 * field.amplitude(t),
                           lambda t: 2.0 * field.rate(t), field.shape)
    r1 = rate_from_field(params, field, 0.5)
    r2 = rate_from_field(params, double, 0.5)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-12)


def test_rate_from_field_refinement(setup32):
    params, prof, spec = setup32
    field = bump_field()
    coarse = rate_from_field(params, field, 0.5, dt=2e-3)
    fine = rate_from_field(params, field, 0.5, dt=1e-3)
    assert abs(fine - coarse) < 1e-6
    # doubling n moves the value at the lattice-consistency pace n^(gamma-2);
    # assert the measured band in the resolved regime
    r256 = rate_from_field(ModelParams(256, params.gamma), bump_field(), 0.5, dt=2e-3)
    r512 = rate_from_field(ModelParams(512, params.gamma), bump_field(), 0.5, dt=2e-3)
    assert abs(r512 - r256) / r256 < 0.05


def test_j_functional_zero_field(setup32):
    params, prof, spec = setup32
    times = np.linspace(0.0, 0.3, 301)
    traj = solve_hydrodynamic(prof, prof.profile, times)
    zero = ExternalField(lambda t: 0.0, lambda t: 0.0, SmoothBump(0.25, 0.75))
    assert j_functional(traj, zero) == pytest.approx(0.0, abs=1e-14)


def test_j_identity_and_variational_bound(setup32):
    params, prof, spec = setup32
    field = bump_field()
    T = 0.25
    times = np.linspace(0.0, T, 2501)
    traj = solve_hydrodynamic(prof, prof.profile, times, field=field)
    rate = rate_from_field(params, field, T, dt=T / 2500)
    j_half = j_functional(traj, half_of(field))
    assert j_half == pytest.approx(rate, rel=1e-4)
    rng = make_rng(0, "ldp-fields")
    for _ in range(20):
        amp = rng.uniform(0.2, 1.2)
        om = rng.uniform(0.5, 5.0)
        a = rng.uniform(0.1, 0.35)
        b = rng.uniform(0.6, 0.9)
        test = bump_field(amp=amp, a=a, b=b, omega=om)
        assert j_functional(traj, test) <= rate + 1e-6


def test_j_of_free_path_nonpositive(setup32):
    # the unperturbed solution has zero cost: every J_G certificate is <= 0
    params, prof, spec = setup32
    u = params.grid()
    g = prof.profile + SmoothBump(0.3, 0.7, 0.6).f(u)
    times = np.linspace(0.0, 0.3, 1501)
    traj = solve_hydrodynamic(prof, g, times)
    rng = make_rng(1, "free-path")
    for _ in range(10):
        test = bump_field(amp=rng.uniform(0.2, 1.0), omega=rng.uniform(0.5, 4.0))
        assert j_functional(traj, test) <= 1e-6


@pytest.mark.parametrize("driven", [False, True])
def test_j_functional_matches_explicit_formula(driven):
    # J_G = <pi_T, G_T> - <g, G_0> - int <pi, (d_s + L_n) G> - int ||G||^2,
    # each term built here from G's lattice values, trapezoid on the path's grid
    params = ModelParams(16, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    g = prof.profile + SmoothBump(0.3, 0.7, 0.6).f(params.grid())
    times = np.linspace(0.0, 0.2, 201)
    traj = solve_hydrodynamic(prof, g, times, field=bump_field() if driven else None)
    G = bump_field(amp=0.7, a=0.2, b=0.8, omega=3.0)
    bump = SmoothBump(0.2, 0.8, 0.7).f(params.grid())
    hv = np.outer(0.6 + 0.4 * np.cos(3.0 * times), bump)
    dh = np.outer(-1.2 * np.sin(3.0 * times), bump)
    lap = discrete_fractional_laplacian(params, hv)
    pairing = np.sum(traj.profiles * (dh + lap), axis=1) / params.n
    energy = discrete_inner_seminorm(params, hv, hv)
    expected = ((traj.profiles[-1] @ hv[-1] - g @ hv[0]) / params.n
                - np.trapezoid(pairing, times) - np.trapezoid(energy, times))
    assert j_functional(traj, G) == pytest.approx(expected, rel=1e-14, abs=0)


def test_rate_check_outputs_match_frozen_values(tmp_path):
    frozen = json.loads((Path(__file__).parent / "frozen_paths.json").read_text())
    cfg = ExperimentConfig(experiment="rate-check", out_dir=str(tmp_path),
                           **DEFAULTS["rate-check"])
    outputs = EXPERIMENTS["rate-check"](cfg)["outputs"]
    for key, value in frozen["rate-check"].items():
        assert outputs[key] == pytest.approx(value, rel=1e-13, abs=0), key


def test_rate_grids_take_one_step_count(tmp_path, monkeypatch):
    # 0.45 / 3e-4 = 1500.0000000000002: 1500 intervals, as the Euler chain takes
    params = ModelParams(16, 1.5, 0.0, 1.0)
    sizes = []

    def amplitude(t):
        sizes.append(np.size(t))
        return 1.0 + 0.0 * np.asarray(t)

    field = ExternalField(amplitude, None, SmoothBump(0.25, 0.75))
    sizes.clear()
    rate_from_field(params, field, 0.45, 3e-4)
    assert sizes == [1501]
    from fracgl import hydro
    grids, solve = [], hydro.solve_hydrodynamic
    monkeypatch.setattr(hydro, "solve_hydrodynamic",
                        lambda prof, g, times, **kw: grids.append(times.size)
                        or solve(prof, g, times, **kw))
    cfg = ExperimentConfig(experiment="rate-check", n=12, T=0.45, dt=3e-4,
                           out_dir=str(tmp_path))
    EXPERIMENTS["rate-check"](cfg)
    assert grids == [1501]


def test_static_rate_values(setup32):
    params, prof, spec = setup32
    assert static_rate_w(prof, prof.profile) == 0.0
    delta = 0.37
    rho = prof.profile + delta * spec.modes[:, 0]
    assert static_rate_w(prof, rho) == pytest.approx(delta ** 2 / 2.0, abs=1e-10)


def test_legendre_transform_recovers_w(setup32):
    params, prof, spec = setup32
    u = params.grid()
    rho = prof.profile + SmoothBump(0.25, 0.75, 0.8).f(u)
    w = static_rate_w(prof, rho)
    # analytic maximizer G* = rho - Phi_ss attains the supremum exactly
    g_star = rho - prof.profile
    pairing = float(rho @ g_star) / params.n
    attained = pairing - static_cumulant(prof, g_star)
    assert attained == pytest.approx(w, rel=1e-12)
    rng = make_rng(2, "legendre")
    for _ in range(25):
        G = g_star + rng.standard_normal(params.n_sites) * rng.uniform(0.01, 0.5)
        val = float(rho @ G) / params.n - static_cumulant(prof, G)
        assert val <= w + 1e-12


def test_gamma_identity(setup32):
    params, prof, spec = setup32
    rng = make_rng(3, "gamma-id")
    for _ in range(5):
        rho = prof.profile + rng.standard_normal(params.n_sites)
        lhs, rhs = gamma_identity_defect(prof, rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert abs(rhs) > 0  # boundary-touching perturbations have a defect


def test_clever_path_trivial_target(setup32):
    params, prof, spec = setup32
    traj, cost = clever_path(prof, prof.profile)
    assert cost == pytest.approx(0.0, abs=1e-14)
    for p in traj.profiles[:: len(traj.profiles) // 4]:
        np.testing.assert_allclose(p, prof.profile, atol=1e-12)


def test_clever_path_single_mode_closed_form(setup32):
    params, prof, spec = setup32
    lam1 = float(spec.eigenvalues[0])
    delta = 0.3
    psi = prof.profile + delta * spec.modes[:, 0]
    traj, cost = clever_path(prof, psi)
    assert l2_distance(params, traj.profiles[-1], psi) <= 1e-6
    # closed form: (delta^2 lam/4) (e^lam - 1)^-2 int_0^1 (2 e^{lam t} - 1)^2 dt
    integral = (2.0 * np.expm1(2.0 * lam1) / lam1
                - 4.0 * np.expm1(lam1) / lam1 + 1.0) / np.expm1(lam1) ** 2
    closed = delta ** 2 * lam1 / 4.0 * integral
    assert cost == pytest.approx(closed, abs=1e-6)


def test_clever_path_cost_bounded_by_target_norm(setup32):
    params, prof, spec = setup32
    rng = make_rng(4, "clever")
    ratios = []
    for _ in range(20):
        coeff = rng.standard_normal(params.n_sites) * np.exp(
            -0.6 * np.arange(params.n_sites))
        psi = prof.profile + spec.synthesize(coeff) * 0.3
        _, cost = clever_path(prof, psi, n_times=801)
        norm2 = l2_distance(params, psi, prof.profile) ** 2
        ratios.append(cost / norm2)
    assert max(ratios) < 50.0 * min(ratios) and np.isfinite(max(ratios))


def _closed_form_bridge_cost(spec, target):
    """(1/4) sum_k lambda_k c_k^2 int_0^1 r_k(t)^2 dt, r_k = (2 e^{lambda_k t} - 1)
    / (e^{lambda_k} - 1), written in e^{-lambda_k} so that no term overflows."""
    lam = spec.eigenvalues
    c = spec.project(target)
    q = np.exp(-lam)
    integral = (2.0 * (1.0 - q * q) / lam - 4.0 * q * (1.0 - q) / lam + q * q) / (1.0 - q) ** 2
    return 0.25 * float(np.sum(lam * c * c * integral))


def test_clever_path_reads_spectrum_from_profile():
    # the bridge uses the spectrum of profile.params: a gamma 1.5 profile
    # gives the gamma 1.5 cost (a gamma 1.2 spectrum once gave 0.0751 here)
    for gamma in (1.5, 1.2):
        params = ModelParams(32, gamma, 0.5, 1.5)
        prof = solve_stationary_profile(params)
        psi = prof.profile + SmoothBump(0.25, 0.75, 0.5).f(params.grid())
        _, cost = clever_path(prof, psi)
        closed = _closed_form_bridge_cost(dirichlet_spectrum(params),
                                          psi - prof.profile)
        assert cost == pytest.approx(closed, rel=1e-3)
        if gamma == 1.5:
            assert cost == pytest.approx(0.0310, abs=1e-4)


def test_modal_costs_match_site_space_route(setup32):
    # oracle: the site-space route the modal costs replace.  Relax rho on the
    # sites and integrate the energy of lambda*_t - Phi_ss; synthesize the
    # bridge source, solve (-M) H_t = T_t and integrate the energy of H_t.
    params, prof, spec = setup32
    lam = spec.eigenvalues
    rho = prof.profile + SmoothBump(0.2, 0.6, 0.7).f(params.grid())
    T1 = 3.0 / float(lam[0])
    rep = quasipotential(prof, rho, T1)
    ts = T1 * np.linspace(0.0, 1.0, 4001) ** 2
    relax = solve_hydrodynamic(prof, rho, ts)
    reversal = np.trapezoid(dirichlet_energy(params, relax.profiles - prof.profile), ts)
    assert rep.breakdown["reversal_cost"] == pytest.approx(reversal, rel=1e-10, abs=0)

    psi = relax.profiles[-1]
    tb = np.linspace(0.0, 1.0, 2001)
    coeff = spec.project(psi - prof.profile)
    ratio = (2.0 * np.exp(lam * (tb[:, None] - 1.0)) - np.exp(-lam)) / -np.expm1(-lam)
    source = spec.synthesize(lam * coeff * ratio)
    fields = np.linalg.solve(-build_drift_system(params).m, source.T).T
    bridge = 0.25 * np.trapezoid(dirichlet_energy(params, fields), tb)
    _, cost = clever_path(prof, psi)
    assert cost == pytest.approx(bridge, rel=1e-10, abs=0)
    assert rep.breakdown["bridge_cost"] == pytest.approx(bridge, rel=1e-10, abs=0)


def test_quasipotential_at_stationary_profile(setup32):
    # a complete report, alone or in a batch: callers read every key
    params, prof, spec = setup32
    rho = prof.profile + SmoothBump(0.25, 0.75, 0.5).f(params.grid())
    full = quasipotential(prof, rho, 1.0)
    for rep in (quasipotential(prof, prof.profile, 1.0),
                quasipotential(prof, np.stack([rho, prof.profile]), 1.0)[1]):
        assert rep.value == 0.0
        assert rep.breakdown.keys() == full.breakdown.keys()
        assert all(v == 0.0 for v in rep.breakdown.values())
        assert rep.discretization == full.discretization


def test_quasipotential_batch_matches_single_targets(setup32):
    params, prof, spec = setup32
    u = params.grid()
    rhos = np.stack([prof.profile + SmoothBump(0.25, 0.75, 0.6).f(u),
                     prof.profile - SmoothBump(0.15, 0.55, 0.45).f(u),
                     prof.profile + SmoothBump(0.2, 0.5, 0.4).f(u)
                     - SmoothBump(0.55, 0.9, 0.3).f(u)])
    T1 = 6.5 / float(spec.eigenvalues[0])
    batch = quasipotential(prof, rhos, T1)
    assert isinstance(batch, list) and len(batch) == 3
    for rho, rep in zip(rhos, batch):
        single = quasipotential(prof, rho, T1)
        assert isinstance(single, RateReport)
        for key in ("bridge_cost", "reversal_cost"):
            assert rep.breakdown[key] == pytest.approx(single.breakdown[key], rel=1e-13, abs=0)
        assert rep.value == pytest.approx(single.value, rel=1e-13, abs=0)
        assert rep.breakdown["w_target"] == single.breakdown["w_target"]
        assert rep.breakdown["w_relaxed"] == single.breakdown["w_relaxed"]


def test_exp_quasipotential_builds_bridge_weights_once(tmp_path, monkeypatch):
    calls = []
    bridge_cost = ldp._bridge_cost

    def counted(lam, coeff, n_times):
        calls.append(np.shape(coeff))
        return bridge_cost(lam, coeff, n_times)
    monkeypatch.setattr(ldp, "_bridge_cost", counted)
    cfg = ExperimentConfig(experiment="quasipotential", out_dir=str(tmp_path), n=32)
    result = EXPERIMENTS["quasipotential"](cfg)
    assert len(calls) == 1
    assert all(check["pass"] for check in result["checks"].values())


def _table_bridge_weights(lam, n_times):
    """Oracle: r_k as the (times, modes) table route computed it, the trapezoid of
    F_k(t)^2, F_k = (2 e^{lambda_k t} - 1) / (e^{lambda_k} - 1), over n_times
    uniform nodes of [0, 1]."""
    ts = np.linspace(0.0, 1.0, n_times)
    field = (2.0 * np.exp(lam * (ts[:, None] - 1.0)) - np.exp(-lam)) / -np.expm1(-lam)
    return np.trapezoid(field * field, ts, axis=0)


def _table_reversal_weights(lam, ts):
    """Oracle: q_k as the table route computed it, the trapezoid of e^{-2 lambda_k t}
    over the nodes ts, numpy's exp at every node."""
    return np.trapezoid(np.exp(-2.0 * lam * ts[:, None]), ts, axis=0)


@pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
def test_bridge_and_reversal_weights_match_the_table_route(gamma):
    for n in (32, 256, 1024):
        lam = dirichlet_spectrum(ModelParams(n, gamma, 0.5, 1.5)).eigenvalues
        for n_times in (2001, 101):
            got = ldp._bridge_cost(lam, np.eye(lam.size), n_times)
            np.testing.assert_allclose(got, 0.25 * lam * _table_bridge_weights(lam, n_times),
                                       rtol=1e-12, atol=0)
        for T1 in (0.05, 6.5 / lam[0]):
            ts = T1 * np.linspace(0.0, 1.0, 4001) ** 2
            np.testing.assert_allclose(ldp._reversal_weights(lam, ts),
                                       _table_reversal_weights(lam, ts), rtol=1e-12, atol=0)
    assert np.exp(-lam[-1]) == 0.0  # the top modes' e^{-lambda} underflows at n = 1024


@pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [32, 256, 1024])
def test_reversal_weights_equal_the_full_range_sum(n, gamma):
    # the terms past t_j = 354 / lambda_k are below 3.3e-308: left out, they
    # leave every q_k bit for bit as the sum over all the nodes makes it
    lam = dirichlet_spectrum(ModelParams(n, gamma, 0.5, 1.5)).eigenvalues
    for T1 in (0.05, 6.5 / lam[0]):
        ts = T1 * np.linspace(0.0, 1.0, 4001) ** 2
        w = 0.5 * np.convolve(np.diff(ts), [1.0, 1.0])
        full = np.array([w @ np.exp(-2.0 * x * ts) for x in lam])
        assert np.array_equal(ldp._reversal_weights(lam, ts), full)


def test_quasipotential_makes_no_time_by_mode_table():
    # a (4001, 255) table of e^{-2 lambda t} alone is 8.2 MB
    params = ModelParams(256, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    spec = dirichlet_spectrum(params)
    u = params.grid()
    rhos = np.stack([prof.profile + SmoothBump(0.25, 0.75, 0.6).f(u),
                     prof.profile - SmoothBump(0.15, 0.55, 0.45).f(u),
                     prof.profile + SmoothBump(0.2, 0.5, 0.4).f(u)])
    T1 = 6.5 / float(spec.eigenvalues[0])
    tracemalloc.start()
    try:
        quasipotential(prof, rhos, T1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_quasipotential_converges_to_w(setup32):
    params, prof, spec = setup32
    lam1 = float(spec.eigenvalues[0])
    u = params.grid()
    rho = prof.profile + SmoothBump(0.25, 0.75, 0.5).f(u)
    w = static_rate_w(prof, rho)
    gaps = []
    for t_factor in (3.0, 6.5):
        rep = quasipotential(prof, rho, t_factor / lam1)
        gaps.append(abs(rep.value - w) / w)
        assert abs(rep.breakdown["reversal_identity_gap"]) <= 1e-4
    assert gaps[1] < 0.05
    assert gaps[1] <= gaps[0] + 1e-12


def test_quasipotential_quadratic_scaling(setup32):
    params, prof, spec = setup32
    lam1 = float(spec.eigenvalues[0])
    u = params.grid()
    direction = SmoothBump(0.3, 0.7, 0.6).f(u)
    vals = []
    for delta in (1.0, 0.5, 0.25):
        rep = quasipotential(prof, prof.profile + delta * direction, 6.5 / lam1)
        vals.append(rep.value / delta ** 2)
    assert vals[1] == pytest.approx(vals[0], rel=1e-6)
    assert vals[2] == pytest.approx(vals[0], rel=1e-6)


def test_quasipotential_rejects_bad_horizon(setup32):
    params, prof, spec = setup32
    with pytest.raises(ValueError):
        quasipotential(prof, prof.profile, 0.0)
