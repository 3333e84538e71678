from dataclasses import replace

import numpy as np
import pytest

from fracgl import (ModelParams, adjoint_defect,
                    adjoint_matrix_poly2, build_drift_system,
                    dirichlet_energy, generator_matrix_poly2,
                    propagate_exact, reservoir_drift, sample_ness,
                    solve_stationary_profile)
from fracgl.rng import make_rng
from poly2_oracle import loop_generator, loop_gram, pencil_defect


@pytest.fixture(scope="module")
def setup8():
    params = ModelParams(8, 1.5, 0.0, 1.0)
    sys = build_drift_system(params)
    prof = solve_stationary_profile(params)
    return params, sys, prof


def eval_poly(basis, coeff, prof, phi):
    """Evaluate a poly-2 observable given by basis coefficients."""
    w = phi - prof.profile
    val = coeff[0]
    k = basis.k
    for i in range(k):
        val += coeff[basis.linear_index(i)] * w[..., i]
        for j in range(i, k):
            val += coeff[basis.pair_index(i, j)] * w[..., i] * w[..., j]
    return val


def test_generator_annihilates_constants(setup8):
    params, sys, prof = setup8
    basis, L = generator_matrix_poly2(prof)
    assert np.max(np.abs(L[:, 0])) == 0.0


def test_generator_linear_rows_reproduce_drift(setup8):
    params, sys, prof = setup8
    basis, L = generator_matrix_poly2(prof)
    k = basis.k
    for i in range(k):
        col = L[:, basis.linear_index(i)]
        # linear part of L phi(x): the drift row of M
        for w in range(k):
            assert col[basis.linear_index(w)] == pytest.approx(sys.m[i, w], rel=1e-14)
        assert abs(col[0]) < 1e-9  # centered coordinates kill the affine part


def test_generator_closed_on_degree_two(setup8):
    params, sys, prof = setup8
    basis, L = generator_matrix_poly2(prof)
    assert L.shape == (basis.size, basis.size)
    assert np.all(np.isfinite(L))


def test_size_guard():
    params = ModelParams(32, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    with pytest.raises(ValueError, match="n <= 16"):
        generator_matrix_poly2(prof)


def test_generator_matches_monte_carlo_time_derivative():
    # d/dt E[f(phi_t)] at t=0 from MC vs the matrix action, random quadratic f
    params = ModelParams(6, 1.5, 0.0, 1.0)
    prof = solve_stationary_profile(params)
    basis, L = generator_matrix_poly2(prof)
    rng = make_rng(5, "poly-mc")
    coeff = rng.standard_normal(basis.size)
    phi0 = prof.profile + rng.standard_normal(params.n_sites)
    lf_coeff = L @ coeff
    lf_at_phi0 = eval_poly(basis, lf_coeff, prof, phi0)
    l2f_at_phi0 = eval_poly(basis, L @ lf_coeff, prof, phi0)

    delta, reps = 1e-3, 200000
    gen = make_rng(6, "poly-mc-steps")
    # one batched call: the normals fill row by row, as in one call per replica
    state = np.broadcast_to(phi0, (reps, params.n_sites))
    vals = eval_poly(basis, coeff, prof, propagate_exact(state, prof, delta, gen))
    f0 = eval_poly(basis, coeff, prof, phi0)
    fd = (vals.mean() - f0) / delta
    stderr = vals.std(ddof=1) / np.sqrt(reps) / delta
    bias = 0.6 * delta * abs(l2f_at_phi0)
    assert abs(fd - lf_at_phi0) <= 3.0 * stderr + bias


def test_adjoint_invariance(setup8):
    params, sys, prof = setup8
    report = adjoint_defect(prof)
    assert report["invariance_residual"] <= 1e-10


def test_adjoint_defect_equilibrium_zero():
    params = ModelParams(8, 1.5, 0.7, 0.7)
    prof = solve_stationary_profile(params)
    report = adjoint_defect(prof)
    assert report["defect_norm"] <= 1e-10
    assert report["invariance_residual"] <= 1e-10


def test_adjoint_defect_reported_out_of_equilibrium(setup8):
    # the defect is an output, not an assertion: substituting the discrete
    # harmonicity cancels the first-order terms, so the computed value sits
    # at machine scale even though phi_l != phi_r
    params, sys, prof = setup8
    report = adjoint_defect(prof)
    assert np.isfinite(report["defect_norm"])
    assert report["defect_norm"] < 1e-6


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 12, 16])
def test_matrices_match_loop_oracle(n):
    # the three matrix identities against the entry-by-entry assembly, bit for bit
    for gamma in (1.1, 1.5, 1.9):
        for phi_l, phi_r in ((0.0, 1.0), (0.7, 0.7), (-3.0, 5.0), (1e3, -2e3)):
            prof = solve_stationary_profile(ModelParams(n, gamma, phi_l, phi_r))
            basis, L = generator_matrix_poly2(prof)
            assert np.array_equal(L, loop_generator(prof))
            assert np.array_equal(basis.gram(), loop_gram(basis))


def test_defect_norm_matches_generalized_eigh(setup8):
    # against scipy's eigensolver on the Gram-Schmidt pencil: on a profile
    # moved off the stationary one, where the residual drift r makes the
    # defect O(1), and at machine scale out of and at equilibrium
    params, sys, prof = setup8
    moved = replace(prof, profile=0.5 + 0.8 * (prof.profile - 0.5)
                    + 0.05 * np.sin(3.0 * params.grid()))
    want = pencil_defect(moved)
    assert want > 1.0
    assert adjoint_defect(moved)["defect_norm"] == pytest.approx(want, rel=1e-12, abs=0)
    for p in (prof, solve_stationary_profile(ModelParams(8, 1.5, 0.7, 0.7))):
        assert adjoint_defect(p)["defect_norm"] == pytest.approx(pencil_defect(p), rel=0, abs=1e-14)


def test_dirichlet_form_nonneg_on_poly2(setup8):
    params, sys, prof = setup8
    basis, L = generator_matrix_poly2(prof)
    G = basis.gram()
    quad = -G @ L
    rng = make_rng(7, "dform")
    for _ in range(50):
        v = rng.standard_normal(basis.size)
        assert float(v @ quad @ v) >= -1e-8 * float(v @ G @ v)


def test_symmetric_part_pairing_identity(setup8):
    params, sys, prof = setup8
    basis, L = generator_matrix_poly2(prof)
    Ls = adjoint_matrix_poly2(basis, L)
    S = 0.5 * (L + Ls)
    G = basis.gram()
    rng = make_rng(8, "sym-part")
    for _ in range(20):
        f, g = rng.standard_normal((2, basis.size))
        lhs = -float(f @ G @ (L @ g)) - float(g @ G @ (L @ f))
        rhs = -2.0 * float(f @ G @ (S @ g))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_dirichlet_form_linear_cases(setup8):
    # the Dirichlet form <f, -L f> under the steady state of a linear
    # f(phi) = sum c_x phi(x) is -c^T M c = n <c, (-M) c> / n, n times the energy
    params, sys, prof = setup8
    assert params.n * dirichlet_energy(params, np.zeros(params.n_sites)) == 0.0
    c = np.full(params.n_sites, 1.3)
    assert params.n * dirichlet_energy(params, c) == pytest.approx(
        params.speed * 2.0 * 1.3 ** 2, rel=1e-12)
    rng = make_rng(9, "dlin")
    v = rng.standard_normal(params.n_sites)
    assert params.n * dirichlet_energy(params, v) == pytest.approx(
        float(v @ (-sys.m) @ v), rel=1e-12)


def test_dirichlet_form_linear_matches_monte_carlo(setup8):
    params, sys, prof = setup8
    rng = make_rng(10, "dlin-mc")
    c = rng.standard_normal(params.n_sites)
    exact = params.n * dirichlet_energy(params, c)
    reps = 200000
    draws = sample_ness(prof, reps, seed=11)
    f_vals = draws @ c
    lf_vals = (draws @ sys.m.T + reservoir_drift(params)) @ c
    prod = -f_vals * lf_vals
    stderr = prod.std(ddof=1) / np.sqrt(reps)
    assert abs(prod.mean() - exact) <= 3.0 * stderr
