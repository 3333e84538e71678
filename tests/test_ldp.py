import numpy as np
import pytest

from fracgl import (ExternalField, ModelParams, RateReport, SmoothBump,
                    build_drift_system, clever_path, dirichlet_energy,
                    dirichlet_spectrum, discrete_inner_seminorm,
                    gamma_identity_defect, j_functional,
                    l2_distance, quasipotential, rate_from_field,
                    solve_hydrodynamic, solve_stationary_profile,
                    static_cumulant, static_rate_w)
from fracgl.ldp import _stable_field_ratio
from fracgl.rng import make_rng


@pytest.fixture(scope="module")
def setup32():
    params = ModelParams(32, 1.5, 0.5, 1.5)
    prof = solve_stationary_profile(params)
    spec = dirichlet_spectrum(params)
    return params, prof, spec


def bump_field(amp=1.0, a=0.25, b=0.75, omega=2.0):
    bump = SmoothBump(a, b, amp)
    return ExternalField.separable(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump)


def half_of(field):
    return ExternalField(h=lambda t, u: 0.5 * field.h(t, u),
                         dh_dt=lambda t, u: 0.5 * field.dh_dt(t, u))


def test_rate_report_rejects_negative():
    with pytest.raises(ValueError):
        RateReport(value=-1.0)


def test_rate_report_json_round_trip():
    import json
    rep = RateReport(value=0.25, breakdown={"a": 0.1},
                     discretization={"n": 32, "dt": 1e-3})
    data = json.loads(rep.to_json())
    assert data["value"] == 0.25
    assert data["breakdown"]["a"] == 0.1
    assert data["discretization"]["n"] == 32


def test_rate_from_field_zero_and_homogeneity(setup32):
    params, prof, spec = setup32
    zero = ExternalField(h=lambda t, u: np.zeros_like(u),
                         dh_dt=lambda t, u: np.zeros_like(u))
    assert rate_from_field(params, zero, 0.5) == 0.0
    field = bump_field()
    double = ExternalField(h=lambda t, u: 2.0 * field.h(t, u),
                           dh_dt=lambda t, u: 2.0 * field.dh_dt(t, u))
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
    zero = ExternalField(h=lambda t, u: np.zeros_like(u),
                         dh_dt=lambda t, u: np.zeros_like(u))
    assert j_functional(traj, zero) == pytest.approx(0.0, abs=1e-14)


def test_j_identity_and_variational_bound(setup32):
    params, prof, spec = setup32
    field = bump_field()
    T = 0.25
    times = np.linspace(0.0, T, 2501)
    traj = solve_hydrodynamic(prof, prof.profile, times, field=field,
                              substep=T / 2500)
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
    hv, lap = G.lattice(params, times)
    pairing = np.sum(traj.profiles * (G.dt_lattice(params, times) + lap), axis=1) / params.n
    energy = discrete_inner_seminorm(params, hv, hv)
    expected = ((traj.profiles[-1] @ hv[-1] - g @ hv[0]) / params.n
                - np.trapezoid(pairing, times) - np.trapezoid(energy, times))
    assert j_functional(traj, G) == pytest.approx(expected, rel=1e-14, abs=0)


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
    source = spec.synthesize(lam * coeff * _stable_field_ratio(lam, tb[:, None]))
    fields = build_drift_system(params).solve_spd(source.T).T
    bridge = 0.25 * np.trapezoid(dirichlet_energy(params, fields), tb)
    _, cost = clever_path(prof, psi)
    assert cost == pytest.approx(bridge, rel=1e-10, abs=0)
    assert rep.breakdown["bridge_cost"] == pytest.approx(bridge, rel=1e-10, abs=0)


def test_quasipotential_at_stationary_profile(setup32):
    params, prof, spec = setup32
    rep = quasipotential(prof, prof.profile, 1.0)
    assert rep.value == 0.0


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
