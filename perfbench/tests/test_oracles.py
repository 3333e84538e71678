"""The benchmark's oracles against closed forms and direct products, at small n.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
from math import comb

import numpy as np
import pytest

from perfbench import oracles as O
from perfbench import workloads
from perfbench.tracer import FUNCTION_METRICS, SELF_LAYERS

GAMMA = 1.5


def test_kernel_is_a_probability_on_the_nonzero_integers():
    z = np.arange(1, 10 ** 6, dtype=float)
    tail = (z[-1] + 0.5) ** -GAMMA / GAMMA
    total = 2.0 * O.kernel_constant(GAMMA) * (np.sum(z ** -(1.0 + GAMMA)) + tail)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_constant_profile_when_reservoirs_agree():
    phi = O.stationary_profile(12, GAMMA, 0.7, 0.7)
    assert np.max(np.abs(phi - 0.7)) < 1e-13


def test_profile_stays_between_the_reservoirs_and_is_antisymmetric():
    phi = O.stationary_profile(17, GAMMA, 1.0, 2.0)
    assert phi.min() > 1.0 and phi.max() < 2.0
    assert np.max(np.abs(phi + phi[::-1] - 3.0)) < 1e-12


def test_noise_covariance_is_the_edge_sum():
    # -2M equals sum_e rate_e v_e v_e^T over bulk pairs and the two boundary drivers
    n = 9
    m = O.drift_matrix(n, GAMMA)
    p = O.kernel_matrix(n, GAMMA)
    k = n - 1
    a = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            v = np.zeros(k)
            v[i], v[j] = -1.0, 1.0
            a += 2.0 * n ** GAMMA * p[i, j] * np.outer(v, v)
    a[0, 0] += 2.0 * n ** GAMMA
    a[-1, -1] += 2.0 * n ** GAMMA
    assert np.max(np.abs(a + 2.0 * m)) < 1e-10 * np.max(np.abs(a))


def test_chain_moments_match_a_direct_product_of_matrices():
    n, dt, steps = 7, 2e-3, 40
    m = O.drift_matrix(n, GAMMA)
    b = O.drift_offset(n, GAMMA, 0.3, 1.1)
    rng = np.random.default_rng(5)
    mean0 = rng.normal(size=n - 1)
    root = rng.normal(size=(n - 1, n - 1))
    cov0 = root @ root.T / n
    a = np.eye(n - 1) + dt * m
    mean, cov = mean0.copy(), cov0.copy()
    for _ in range(steps):
        mean = a @ mean + dt * b
        cov = a @ cov @ a.T - 2.0 * dt * m
    got_mean, got_cov = O.euler_chain_moments(m, b, mean0, cov0, dt, steps)
    assert np.max(np.abs(got_mean - mean)) < 1e-10
    assert np.max(np.abs(got_cov - cov)) < 1e-10


def test_chain_variance_tends_to_the_biased_stationary_law():
    n, dt = 8, 1e-3
    m = O.drift_matrix(n, GAMMA)
    b = O.drift_offset(n, GAMMA, 0.0, 1.0)
    phi = O.stationary_profile(n, GAMMA, 0.0, 1.0)
    _, cov = O.euler_chain_moments(m, b, phi, np.eye(n - 1), dt, 10 ** 6)
    assert np.max(np.abs(cov - np.linalg.inv(np.eye(n - 1) + 0.5 * dt * m))) < 1e-10


def test_dynkin_qv_is_the_carre_du_champ():
    n, T = 11, 0.3
    u = O.grid(n)
    g = np.sin(np.pi * u) * (1.0 + 0.3 * u) / (n - 1)
    p = O.kernel_matrix(n, GAMMA)
    edges = np.sum(p * (g[None, :] - g[:, None]) ** 2)
    expected = T * n ** GAMMA * (edges + 2.0 * g[0] ** 2 + 2.0 * g[-1] ** 2)
    assert O.dynkin_qv(O.drift_matrix(n, GAMMA), g, T) == pytest.approx(expected, rel=1e-12)


def test_seminorm_vanishes_on_constants_and_is_the_energy_inside():
    n = 20
    assert O.seminorm_sq(n, GAMMA, np.full(n - 1, 3.0))[0] == pytest.approx(0.0, abs=1e-12)
    f = O.smooth_bump(O.grid(n), 0.25, 0.75, 1.0)
    energy = f @ (-O.drift_matrix(n, GAMMA)) @ f / n
    assert O.seminorm_sq(n, GAMMA, f)[0] == pytest.approx(energy, rel=1e-12)


def test_log_weight_variance_is_the_edge_tilt_energy():
    n = 8
    h = O.smooth_bump(O.grid(n), 0.25, 0.75, 0.8)
    p = O.kernel_matrix(n, GAMMA)
    per_step = sum(2.0 * n ** GAMMA * p[i, j] * (h[j] - h[i]) ** 2 / 4.0
                   for i in range(n - 1) for j in range(i + 1, n - 1))
    times = np.linspace(0.0, 0.05, 11)
    q = O.girsanov_log_weight_law(n, GAMMA, h, lambda t: 2.0, times)
    assert q == pytest.approx(0.05 * 4.0 * per_step, rel=1e-12)


def test_exact_pairing_law_at_both_ends_of_time():
    n = 10
    u = O.grid(n)
    phi = O.stationary_profile(n, GAMMA, 0.0, 1.0)
    g0 = phi + O.smooth_bump(u, 0.3, 0.7, 0.75)
    G = np.sin(np.pi * u)
    mean, var = O.exact_pairing_law(n, GAMMA, 0.0, 1.0, g0, G, 1e-12)
    assert mean == pytest.approx(g0 @ G / (n - 1), rel=1e-9) and var < 1e-9
    mean, var = O.exact_pairing_law(n, GAMMA, 0.0, 1.0, g0, G, 50.0)
    assert mean == pytest.approx(phi @ G / (n - 1), rel=1e-12)
    assert var == pytest.approx(G @ G / (n - 1) ** 2, rel=1e-12)


def test_bump_second_derivative():
    F = O.bump_function(0.2, 0.6, 1.3)
    for u in (0.25, 0.4, 0.57):
        h = 1e-5
        fd = (F.f(u + h) - 2.0 * F.f(u) + F.f(u - h)) / h ** 2
        assert F.d2f(u) == pytest.approx(fd, rel=1e-5)
        assert F.f(u) == pytest.approx(O.smooth_bump(np.array([u]), 0.2, 0.6, 1.3)[0])


@pytest.mark.parametrize("u", [0.2, 0.5, 0.77, 0.05])
def test_regional_laplacian_of_a_monomial(u):
    # F = v^4: expand around u; the principal value of the j = 1 term and the
    # convergent j >= 2 terms share the closed form below
    c = O.kernel_constant(GAMMA)
    exact = c * sum(comb(4, j) * u ** (4 - j)
                    * ((1.0 - u) ** (j - GAMMA) + (-1) ** j * u ** (j - GAMMA)) / (j - GAMMA)
                    for j in range(1, 5))
    F = O.Smooth(lambda v: v ** 4, lambda v: 12.0 * v * v)
    assert O.regional_laplacian(GAMMA, F, u) == pytest.approx(exact, rel=1e-9)


def test_energy_pairing_scales_with_the_amplitude_squared():
    a = O.energy_pairing(GAMMA, O.bump_function(0.25, 0.75, 1.0), 8, 12)
    b = O.energy_pairing(GAMMA, O.bump_function(0.25, 0.75, 2.0), 8, 12)
    assert a > 0 and b == pytest.approx(4.0 * a, rel=1e-12)


def test_plans_come_from_the_seed():
    for cls in workloads.WORKLOADS.values():
        assert cls(3).plan == cls(3).plan
    assert workloads.Ensemble(3).plan != workloads.Ensemble(4).plan
    assert workloads.Continuum(3).plan != workloads.Continuum(4).plan


def test_benchmark_json_names_the_metrics_the_tracer_makes():
    with open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    made = {f"{name}.{kind}" for name, kind in FUNCTION_METRICS}
    made |= {f"{layer}.self_s" for layer in SELF_LAYERS}
    made |= {"simulate.ns_per_replica_site_step", "simulate.noise_draw_s",
             "simulate.normals_per_replica_step", "operators.integrand_calls",
             "experiments.artifact_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == made
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
