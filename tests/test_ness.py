import numpy as np
import pytest

from fracgl import (ModelParams, kernel_constant, sample_ness, solve_stationary_profile,
                    static_cumulant)
from fracgl.cli import main
from walk_oracle import absorbed_walk_oracle


def test_equilibrium_profile_is_constant():
    p = ModelParams(24, 1.4, 0.8, 0.8)
    prof = solve_stationary_profile(p)
    np.testing.assert_allclose(prof.profile, 0.8, atol=1e-12)
    assert prof.residual <= 1e-10


def test_equal_reservoirs_keep_the_maximum_principle_at_large_n():
    # the mean term carries equal reservoirs alone, so the profile is the exact
    # constant; a dense solve at n=1024 misses it by 2.2e-12, beyond the 1e-12 slack
    prof = solve_stationary_profile(ModelParams(1024, 1.5, 2.0, 2.0))
    assert np.all(prof.profile == 2.0)
    assert prof.residual <= 1e-10


def test_n3_closed_form():
    p1 = kernel_constant(1.5)
    prof = solve_stationary_profile(ModelParams(3, 1.5, 0.0, 1.0))
    assert prof.profile[0] == pytest.approx(p1 / (1.0 + 2.0 * p1), abs=1e-12)
    assert prof.profile[1] == pytest.approx((1.0 + p1) / (1.0 + 2.0 * p1), abs=1e-12)


def test_figure_parameters_profile():
    p = ModelParams(200, 1.5, 1.0, 2.0)
    prof = solve_stationary_profile(p)
    assert prof.profile.min() >= 1.0 - 1e-12
    assert prof.profile.max() <= 2.0 + 1e-12
    # kernel symmetry + boundary swap pins the midpoint exactly
    assert prof.profile[99] == pytest.approx(1.5, abs=1e-12)
    sym = prof.profile + prof.profile[::-1]
    np.testing.assert_allclose(sym, 3.0, atol=1e-12)


@pytest.mark.parametrize("n,gamma,pl,pr", [(8, 1.2, -1.0, 2.0), (33, 1.5, 2.0, 0.5),
                                           (64, 1.9, 0.0, 1.0)])
def test_maximum_principle_and_antisymmetry(n, gamma, pl, pr):
    prof = solve_stationary_profile(ModelParams(n, gamma, pl, pr))
    assert prof.profile.min() >= min(pl, pr) - 1e-12
    assert prof.profile.max() <= max(pl, pr) + 1e-12
    # reflection symmetry: Phi(n-x; a,b) + Phi(x; a,b) = a + b, and the
    # swapped-reservoir profile is the mirror image of the original
    np.testing.assert_allclose(prof.profile + prof.profile[::-1], pl + pr,
                               atol=1e-10)
    swapped = solve_stationary_profile(ModelParams(n, gamma, pr, pl))
    np.testing.assert_allclose(swapped.profile[::-1], prof.profile, atol=1e-10)


def test_affinity_in_reservoir_densities():
    # profile for (pl, pr) is the affine image of the (0, 1) solution
    n, gamma = 32, 1.5
    base = solve_stationary_profile(ModelParams(n, gamma, 0.0, 1.0)).profile
    pl, pr = -0.7, 2.3
    prof = solve_stationary_profile(ModelParams(n, gamma, pl, pr)).profile
    np.testing.assert_allclose(prof, pl + (pr - pl) * base, atol=1e-10)


def test_walk_oracle_symmetry_midpoint():
    p = ModelParams(8, 1.5, 0.0, 1.0)
    p_left, p_right, se = absorbed_walk_oracle(p, 4, samples=20000, seed=11)
    assert p_left + p_right == pytest.approx(1.0, abs=1e-14)
    assert abs(p_left - 0.5) <= 3.0 * se


def test_walk_oracle_n3_closed_form():
    p1 = kernel_constant(1.5)
    closed = p1 / (1.0 + 2.0 * p1)
    p = ModelParams(3, 1.5, 0.0, 1.0)
    _, p_right, se = absorbed_walk_oracle(p, 1, samples=10 ** 5, seed=5)
    assert abs(p_right - closed) <= 3.0 * se


@pytest.mark.parametrize("n,x", [(8, 2), (8, 5), (64, 9)])
def test_walk_oracle_reconstructs_profile(n, x):
    params = ModelParams(n, 1.5, 0.3, 1.9)
    prof = solve_stationary_profile(params)
    samples = 10 ** 5 if n <= 8 else 30000
    p_left, p_right, se = absorbed_walk_oracle(params, x, samples=samples, seed=n + x)
    recon = params.phi_l * p_left + params.phi_r * p_right
    assert abs(recon - prof.profile[x - 1]) <= 3.0 * se * abs(params.phi_r - params.phi_l)


def test_walk_oracle_validation():
    p = ModelParams(8, 1.5)
    with pytest.raises(ValueError):
        absorbed_walk_oracle(p, 0, 10, 1)
    with pytest.raises(ValueError):
        absorbed_walk_oracle(p, 3, 0, 1)


def test_sample_ness_moments():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    count = 40000
    draws = sample_ness(prof, count, seed=3)
    assert draws.shape == (count, params.n_sites)
    tol = 4.0 / np.sqrt(count)
    assert np.max(np.abs(draws.mean(axis=0) - prof.profile)) <= tol
    assert np.max(np.abs(draws.var(axis=0) - 1.0)) <= 4.0 * np.sqrt(2.0 / count)
    centered = draws - prof.profile
    cov = centered.T @ centered / count
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 5.0 / np.sqrt(count)


def test_sample_ness_reproducible():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    a = sample_ness(prof, 10, seed=42)
    b = sample_ness(prof, 10, seed=42)
    np.testing.assert_array_equal(a, b)


def test_static_cumulant_zero_field():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    assert static_cumulant(prof, np.zeros(params.n_sites)) == 0.0


def test_static_cumulant_matches_monte_carlo():
    params = ModelParams(16, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    u = params.grid()
    G = 0.25 * np.sin(2.0 * np.pi * u) + 0.1
    exact = static_cumulant(prof, G)
    draws = sample_ness(prof, 10 ** 5, seed=77)
    w = np.exp(draws @ G)
    est = np.log(w.mean()) / params.n
    se = w.std(ddof=1) / (w.mean() * np.sqrt(len(w))) / params.n
    assert abs(est - exact) <= 4.0 * se


def test_static_cumulant_large_n_limit():
    # converges to the integral (1/n) sum -> int (Phi_ss G + G^2/2)
    gamma, pl, pr = 1.5, 0.0, 1.0
    vals = []
    for n in (64, 512):
        params = ModelParams(n, gamma, pl, pr)
        prof = solve_stationary_profile(params)
        G = np.sin(np.pi * params.grid())
        vals.append(static_cumulant(prof, G))
    assert abs(vals[1] - vals[0]) < 0.02


def test_profile_csv(tmp_path):
    params = ModelParams(8, 1.5, 1.0, 2.0)
    prof = solve_stationary_profile(params)
    assert main(["ness-profile", "--n", "8", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "x,u,phi_ss"
    assert len(lines) == params.n_sites + 1
    x, u, val = lines[1].split(",")
    assert int(x) == 1 and float(u) == 1 / 8
    assert float(val) == prof.profile[0]
