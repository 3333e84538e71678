from functools import lru_cache

import numpy as np
import pytest

from dense_oracle import dense_drift
from edge_oracle import edge_vectors
from fracgl import (ModelParams, SmoothBump, build_drift_system, dirichlet_energy,
                    dirichlet_spectrum, discrete_fractional_laplacian,
                    discrete_inner_seminorm, kernel_constant, kernel_row,
                    reservoir_drift, solve_stationary_profile)
from fracgl import kernel, simulate


def oracle_kernel_constant(gamma, cutoff=10 ** 6):
    """Partial sum of 2 sum_{z>=1} z^-(1+gamma) plus integral tail bound,
    then reciprocal."""
    z = np.arange(1, cutoff + 1, dtype=float)
    partial = np.sum(z ** (-(1.0 + gamma)))
    tail = (cutoff + 0.5) ** (-gamma) / gamma
    return 1.0 / (2.0 * (partial + tail))


def test_kernel_constant_against_partial_sum_oracle():
    assert kernel_constant(1.5) == pytest.approx(oracle_kernel_constant(1.5), abs=1e-12)
    assert kernel_constant(1.9) == pytest.approx(oracle_kernel_constant(1.9), abs=1e-12)
    # frozen oracle values
    assert kernel_constant(1.5) == pytest.approx(0.37272064814438854, abs=1e-12)
    assert kernel_constant(1.9) == pytest.approx(0.40878598975918595, abs=1e-12)


def test_kernel_constant_domain():
    for bad in (1.0, 2.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            kernel_constant(bad)


def test_zeta_matches_scipy():
    from scipy.special import zeta
    from fracgl.kernel import _zeta
    gammas = np.concatenate([np.random.default_rng(3).uniform(1.0, 2.0, 500),
                             [1.0 + 1e-9, 2.0 - 1e-9]])
    for g in gammas:
        assert _zeta(1.0 + g) == pytest.approx(zeta(1.0 + g), rel=2e-15, abs=0)


@pytest.mark.parametrize("size", [2, 3, 7, 64])
def test_toeplitz_matches_scipy(size):
    # apply dots with the Toeplitz window of the one scaled kernel array and adds
    # the diagonal: on the identity, bit for bit scipy's Toeplitz matrix of the
    # kernel row, times n^gamma, with the diagonal set
    from scipy.linalg import toeplitz
    p = ModelParams(size + 1, 1.5)
    sys = build_drift_system(p)
    want = toeplitz(kernel_row(p)) * p.speed
    want[np.diag_indices(size)] = sys.diagonal
    assert np.array_equal(sys.apply(np.eye(size)), want)
    assert np.array_equal(dense_drift(p), want)


@pytest.mark.parametrize("n", [3, 4, 9, 64])
def test_apply_batch_matches_rows_and_dense(n):
    # one product for a batch with sites last: each row as its own call, and
    # the dense oracle's product to rounding
    p = ModelParams(n, 1.5)
    sys, m = build_drift_system(p), dense_drift(p)
    phi = np.random.default_rng(n).standard_normal((5, n - 1))
    batch = sys.apply(phi)
    assert batch.shape == phi.shape
    for row, out in zip(phi, batch):
        assert np.array_equal(sys.apply(row), out)
    scale = np.abs(m).max() * np.abs(phi).max() * (n - 1)
    np.testing.assert_allclose(batch, phi @ m, rtol=0, atol=1e-15 * scale)
    assert sys.apply(phi[:, None]).shape == (5, 1, n - 1)


def test_operators_make_no_dense_matrix():
    # at n = 4096 a dense M is 134 MB; the products with M make no copy of it
    import tracemalloc
    p = ModelParams(4096, 1.5)
    f = np.sin(np.pi * p.grid())
    build_drift_system(p)
    tracemalloc.start()
    try:
        discrete_fractional_laplacian(p, f)
        dirichlet_energy(p, f)
        simulate.martingale_qv_rate(p, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_kernel_normalization_monotone():
    gamma = 1.5
    c = kernel_constant(gamma)
    z = np.arange(1, 2001, dtype=float)
    partial = 2.0 * c * np.cumsum(z ** (-(1.0 + gamma)))
    assert np.all(np.diff(partial) > 0)
    assert partial[-1] < 1.0
    assert partial[-1] > 0.999


def test_kernel_row_symmetry():
    p = ModelParams(32, 1.7)
    row = kernel_row(p)
    assert row[0] == 0.0
    m = build_drift_system(p).apply(np.eye(p.n_sites))
    assert np.array_equal(m, m.T)


def test_drift_system_n3_hand_assembled():
    gamma = 1.5
    p1 = kernel_constant(gamma)
    sys = build_drift_system(ModelParams(3, gamma))
    expected = 3.0 ** gamma * np.array([[-(p1 + 1.0), p1], [p1, -(p1 + 1.0)]])
    np.testing.assert_allclose(sys.apply(np.eye(2)), expected, rtol=1e-14)


def test_equilibrium_constant_profile_is_fixed_point():
    phi = 0.7
    p = ModelParams(24, 1.3, phi, phi)
    drift = build_drift_system(p).apply(np.full(p.n_sites, phi)) + reservoir_drift(p)
    assert np.max(np.abs(drift)) < 1e-9


def test_diffusion_matrix_is_minus_two_m():
    # edge-by-edge assembly of sum rate v v^T equals -2 M; the part beyond
    # the bulk pairs is the two boundary drivers of rate 2 n^gamma
    for n, gamma in ((8, 1.2), (16, 1.5), (24, 1.9)):
        params = ModelParams(n, gamma)
        m = dense_drift(params)
        v = edge_vectors(params)
        assert v.shape == ((n - 1) * (n - 2) // 2 + 2, n - 1)
        atol = 1e-11 * np.abs(m).max()
        np.testing.assert_allclose(v.T @ v, -2.0 * m, rtol=0, atol=atol)
        drivers = np.zeros((n - 1, n - 1))
        drivers[0, 0] = drivers[-1, -1] = 2.0 * params.speed
        np.testing.assert_allclose(-2.0 * m - v[:-2].T @ v[:-2], drivers,
                                   rtol=0, atol=atol)


def test_boundary_noise_edges_present():
    # drivers that touch a single site: one at site 1 and one at site n-1,
    # each of rate 2 n^gamma
    p = ModelParams(8, 1.5)
    v = edge_vectors(p)
    boundary = [(int(np.flatnonzero(r)[0]), float(r @ r))
                for r in v if np.count_nonzero(r) == 1]
    assert boundary == [(0, pytest.approx(2 * p.speed)),
                        (p.n_sites - 1, pytest.approx(2 * p.speed))]


def test_drift_matrix_negative_definite():
    for n, gamma in ((8, 1.1), (32, 1.5), (64, 1.9)):
        eig = np.linalg.eigvalsh(dense_drift(ModelParams(n, gamma)))
        assert eig.max() < 0


def test_laplacian_constant_is_zero():
    p = ModelParams(20, 1.6)
    lap = discrete_fractional_laplacian(p, np.full(p.n_sites, 3.2))
    assert np.max(np.abs(lap)) < 1e-9


def test_laplacian_fast_path_matches_dense():
    # the matrix evaluation against the defining double sum over (x, y)
    rng = np.random.default_rng(7)
    for n in (8, 32):
        p = ModelParams(n, 1.5)
        g = rng.standard_normal(p.n_sites)
        c = kernel_constant(p.gamma)
        dense = np.zeros(p.n_sites)
        for x in range(p.n_sites):
            for y in range(p.n_sites):
                if y != x:
                    dense[x] += c * abs(y - x) ** -(1.0 + p.gamma) * (g[y] - g[x])
        dense *= p.speed
        np.testing.assert_allclose(discrete_fractional_laplacian(p, g), dense,
                                   rtol=1e-10, atol=1e-10)


def test_laplacian_of_stationary_profile_hits_boundary_terms_only():
    p = ModelParams(32, 1.5, 1.0, 2.0)
    prof = solve_stationary_profile(p)
    lap = discrete_fractional_laplacian(p, prof.profile)
    expected = np.zeros(p.n_sites)
    expected[0] = -p.speed * (p.phi_l - prof.profile[0])
    expected[-1] = -p.speed * (p.phi_r - prof.profile[-1])
    np.testing.assert_allclose(lap, expected, atol=1e-9)


def test_laplacian_dimension_mismatch():
    p = ModelParams(16, 1.5)
    with pytest.raises(ValueError):
        discrete_fractional_laplacian(p, np.zeros(p.n_sites + 1))


def test_seminorm_constant_vanishes():
    p = ModelParams(16, 1.4)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(p.n_sites)
    assert discrete_inner_seminorm(p, np.ones(p.n_sites), g) == pytest.approx(0.0, abs=1e-12)


def test_seminorm_bilinear_symmetric():
    p = ModelParams(16, 1.5)
    rng = np.random.default_rng(5)
    f, g, h = rng.standard_normal((3, p.n_sites))
    s_fg = discrete_inner_seminorm(p, f, g)
    assert s_fg == pytest.approx(discrete_inner_seminorm(p, g, f), rel=1e-12)
    combined = discrete_inner_seminorm(p, f, 2.0 * g + 3.0 * h)
    assert combined == pytest.approx(2.0 * s_fg + 3.0 * discrete_inner_seminorm(p, f, h),
                                     rel=1e-10)
    assert discrete_inner_seminorm(p, f, f) >= 0.0


@pytest.mark.parametrize("n", [8, 32, 128])
def test_discrete_green_identity(n):
    p = ModelParams(n, 1.5)
    rng = np.random.default_rng(n)
    for _ in range(3):
        f, g = rng.standard_normal((2, p.n_sites))
        lhs = float(g @ discrete_fractional_laplacian(p, f)) / p.n
        rhs = -discrete_inner_seminorm(p, f, g)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_dirichlet_energy_is_drift_quadratic_form():
    p = ModelParams(24, 1.6)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(p.n_sites)
    direct = float(f @ (-dense_drift(p)) @ f) / p.n
    assert dirichlet_energy(p, f) == pytest.approx(direct, rel=1e-12)
    # equals the bulk seminorm for fields vanishing at the end sites
    f[0] = f[-1] = 0.0
    assert dirichlet_energy(p, f) == pytest.approx(
        discrete_inner_seminorm(p, f, f), rel=1e-12)


def test_drift_systems_share_one_operator(monkeypatch):
    # same (n, gamma), different reservoirs: one object, with one read-only
    # kernel array and diagonal, no dense M, and one spectrum, assembled from
    # one eigh of the even then of the odd flip sector of -M; the profile
    # solves make no eigh
    import fracgl.kernel as kernel
    assert not hasattr(kernel, "cho_factor")
    calls, eigh = [], kernel.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(kernel, "eigh", counting)
    pa, pb = ModelParams(24, 1.37, 0.0, 1.0), ModelParams(24, 1.37, 2.0, -1.0)
    sys = build_drift_system(pa)
    assert build_drift_system(pb) is sys
    assert dirichlet_spectrum(pa) is sys and dirichlet_spectrum(pb) is sys
    assert not sys._ext.flags.writeable and not sys.diagonal.flags.writeable
    assert not hasattr(sys, "m") and not hasattr(sys, "row_sums")
    assert not sys.modes.flags.writeable and not sys.eigenvalues.flags.writeable
    assert not np.array_equal(reservoir_drift(pa), reservoir_drift(pb))
    for p in (pa, pb):
        phi = solve_stationary_profile(p).profile
        np.testing.assert_allclose(sys.apply(phi) + reservoir_drift(p), 0.0,
                                   atol=1e-10 * p.speed)
    assert calls == [(12, 12), (11, 11)]


def test_profile_solve_makes_the_odd_sector_alone(monkeypatch):
    # the unit solve's right-hand side is odd: a fresh DriftSystem makes the
    # odd sector's matrix alone and solves with it, with no eigh, and leaves
    # no full spectrum; its arrays stay read-only
    import fracgl.kernel as kernel
    monkeypatch.setattr(kernel, "_drift_system", lru_cache(maxsize=8)(kernel.DriftSystem))
    parities, sector_matrix = [], kernel.DriftSystem._sector_matrix

    def recorded(self, parity):
        parities.append(parity)
        return sector_matrix(self, parity)

    def no_eigh(*args, **kwargs):
        raise AssertionError("the profile solve made an eigh")
    monkeypatch.setattr(kernel.DriftSystem, "_sector_matrix", recorded)
    monkeypatch.setattr(kernel, "eigh", no_eigh)
    p = ModelParams(40, 1.6, 0.3, -1.2)
    solve_stationary_profile(p)
    assert parities == [-1.0]
    sys = build_drift_system(p)
    assert "_spectrum" not in vars(sys)
    assert not sys._ext.flags.writeable and not sys.diagonal.flags.writeable


def _halves(m):
    """-m on its even and odd halves under x -> n - x, sliced from the dense
    matrix, in the bases (e_x +- e_{n-x}) / sqrt 2, x < n/2, plus e_{n/2} in
    the even one if n is even: the test oracle of the sectors' matrices."""
    N, p = m.shape[0], m.shape[0] // 2
    top, flip = m[:N - p, :N - p], m[:N - p, ::-1][:, :N - p]
    even = np.negative(top)
    even -= flip
    even[p:] /= np.sqrt(2.0)
    even[:, p:] /= np.sqrt(2.0)
    return even, flip[:p, :p] - top[:p, :p]


def _basis(n, parity):
    """Columns (e_x + parity e_{n-x}) / sqrt 2, x < n/2, then e_{n/2} if even
    and n even: the orthonormal basis of a sector, as an (n-1)-row matrix."""
    N, p = n - 1, (n - 1) // 2
    q = np.zeros((N, N - p if parity > 0 else p))
    for x in range(p):
        q[x, x], q[N - 1 - x, x] = np.sqrt(0.5), parity * np.sqrt(0.5)
    if parity > 0 and N % 2:
        q[p, p] = 1.0
    return q


@pytest.mark.parametrize("n", [3, 4, 8, 9, 64, 65, 1024])
def test_sector_matrices_from_the_row_match_dense_blocks(n):
    # Toeplitz plus Hankel from the kernel row, in the order of operations of
    # the dense slices: equal bit for bit
    sys, m = build_drift_system(ModelParams(n, 1.5)), dense_drift(ModelParams(n, 1.5))
    even, odd = _halves(m)
    assert np.array_equal(sys._sector_matrix(1.0), even)
    assert np.array_equal(sys._sector_matrix(-1.0), odd)
    for parity, half in ((1.0, even), (-1.0, odd)):
        q = _basis(n, parity)
        np.testing.assert_allclose(half, q.T @ -m @ q, rtol=0,
                                   atol=1e-14 * np.abs(m).max())


@pytest.mark.parametrize("n", [3, 4, 8, 9, 64, 65])
def test_assembled_spectrum_matches_sliced_halves(n):
    # the full spectrum from the two sectors against eigh of the dense
    # halves, embedded by the basis matrices and sorted even first
    sys = build_drift_system(ModelParams(n, 1.7))
    lam, vec = [], []
    for parity, half in zip((1.0, -1.0), _halves(dense_drift(ModelParams(n, 1.7)))):
        w, v = np.linalg.eigh(half)
        lam.append(w)
        vec.append(np.sqrt(n) * _basis(n, parity) @ (v * np.sign(v[0])))
    order = np.argsort(np.concatenate(lam), kind="stable")
    np.testing.assert_allclose(sys.eigenvalues, np.concatenate(lam)[order], rtol=1e-14)
    np.testing.assert_allclose(sys.modes, np.hstack(vec)[:, order], rtol=0, atol=1e-12)


def _parity_columns(sys, parity):
    """The columns of `sys.modes` that are `parity`'s under the flip."""
    return np.sign(sys.modes[0] * sys.modes[-1]) == parity


@pytest.mark.parametrize("n", [3, 4, 9, 64])
def test_sector_project_and_synthesize_match_full_modes(n):
    # the orthonormal fold keeps a sector's inner products, so folded
    # coordinates give the full modes' coefficients of the sector, and
    # `_unfold` mirrors its folded modes back to the same grid functions
    sys = build_drift_system(ModelParams(n, 1.3))
    g = np.random.default_rng(n).standard_normal((3, n - 1))
    coeff = sys.project(g)
    for parity in (1.0, -1.0):
        cols = _parity_columns(sys, parity)
        folded = kernel._fold(sys.modes[:, cols].T, parity)
        np.testing.assert_allclose(kernel._fold(g, parity) @ folded.T / n, coeff[:, cols],
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(kernel._fold(g[0], parity) @ folded.T / n, coeff[0, cols],
                                   rtol=0, atol=1e-14)
        half = sys.modes[:folded.shape[1], cols]
        out = np.zeros((n - 1, half.shape[1]))
        kernel._unfold(half, parity, out)
        assert np.array_equal(out, sys.modes[:, cols])
        assert np.array_equal(out[::-1], parity * out)


@pytest.mark.parametrize("n", [8, 9, 16, 17, 33])
def test_split_spectrum_matches_dense_eigh(n):
    # -M commutes with the flip x -> n - x; its two halves give the spectrum
    sys = build_drift_system(ModelParams(n, 1.5))
    m, lam, modes = dense_drift(ModelParams(n, 1.5)), sys.eigenvalues, sys.modes / np.sqrt(n)
    assert np.array_equal(m, m[::-1, ::-1])
    flipped = modes[::-1]
    assert all(np.array_equal(flipped[:, k], modes[:, k])
               or np.array_equal(flipped[:, k], -modes[:, k]) for k in range(n - 1))
    assert np.all(modes[0] > 0)
    lam_dense, vec_dense = np.linalg.eigh(-m)
    np.testing.assert_allclose(lam, lam_dense, rtol=1e-12)
    np.testing.assert_allclose(modes, vec_dense * np.sign(vec_dense[0]), atol=1e-10)
    assert np.abs(-m @ modes - modes * lam).max() <= 1e-13 * lam[-1]


@pytest.mark.parametrize("n", [8, 9, 16, 17, 33])
def test_spectral_profile_matches_dense_solve(n):
    # the profile from the odd sector's solve solves (-M) Phi = b, and is
    # exactly the mean plus an odd part under the flip, so its even-n
    # midpoint is the mean
    for phi_l, phi_r in ((0.0, 1.0), (2.0, 1.0), (0.7, 0.7), (2.0, 2.0 + 1e-9)):
        p = ModelParams(n, 1.5, phi_l, phi_r)
        phi, scale = solve_stationary_profile(p).profile, max(1.0, abs(phi_l), abs(phi_r))
        dense = np.linalg.solve(-dense_drift(p), reservoir_drift(p))
        np.testing.assert_allclose(phi, dense, rtol=0, atol=1e-12 * scale)
        assert np.abs(phi + phi[::-1] - (phi_l + phi_r)).max() <= 1e-14 * scale
        if n % 2 == 0:
            assert abs(phi[n // 2 - 1] - 0.5 * (phi_l + phi_r)) <= 1e-14 * scale
        if phi_l == phi_r:
            assert np.all(phi == phi_l)


def test_batched_operators_match_row_by_row():
    p = ModelParams(32, 1.6)
    rng = np.random.default_rng(12)
    f, g = rng.standard_normal((2, 7, p.n_sites))
    lap = discrete_fractional_laplacian(p, g)
    semi = discrete_inner_seminorm(p, f, g)
    energy = dirichlet_energy(p, f)
    assert lap.shape == g.shape and semi.shape == energy.shape == (7,)
    for i in range(7):
        np.testing.assert_allclose(lap[i], discrete_fractional_laplacian(p, g[i]),
                                   rtol=0, atol=1e-12 * np.abs(lap).max())
        assert semi[i] == pytest.approx(discrete_inner_seminorm(p, f[i], g[i]),
                                        rel=1e-12, abs=1e-12)
        assert energy[i] == pytest.approx(dirichlet_energy(p, f[i]),
                                          rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 128, 200])
def test_block_cholesky_solves_like_a_dense_solve(size):
    # the in-place factor of 64-column blocks with their diagonal inverses,
    # applied by block substitution, inverts the matrix it was made from
    rng = np.random.default_rng(size)
    x = rng.standard_normal((size, size))
    a = x @ x.T / size + np.eye(size)
    v = rng.standard_normal(size)
    factor = a.copy()
    blocks = kernel._block_cholesky(factor)
    assert [b.start for b in blocks] == list(range(0, size, 64))
    np.testing.assert_allclose(kernel._block_solve(factor, blocks, v), np.linalg.solve(a, v),
                               rtol=1e-12, atol=1e-12)


def _flow(s):
    return np.exp(-s)


def _filled(s):
    return -np.expm1(-s)


def _pairing_data(n):
    """Smooth data of each parity: an even bump paired with sin(pi u), and
    an odd product paired with u - 1/2."""
    u = np.arange(1, n) / n
    bump = SmoothBump(0.3, 0.7, 0.75).f(u)
    return {1.0: (bump, np.sin(np.pi * u)), -1.0: (np.sin(2 * np.pi * u) * (1 + bump), u - 0.5)}


# sectors of one 64-column Cholesky block and of more: n = 257 has two sectors
# of 128 columns, exactly two blocks; n = 200 has 100 and 99, n = 1024 has 512
# and 511, each with more than one block
@pytest.mark.parametrize("gamma", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [9, 64, 200, 257, 1024])
def test_sector_pairing_matches_the_eigh_oracle(n, gamma):
    # shift-and-invert Lanczos against the sum over the sector's eigh modes.
    # A rate x known to relative eps moves e^{-tx} by t x eps relative, so
    # each term of the flow is held to 1e-12 of its size times 1 + t x (and
    # values below 1e-300, subnormal at n = 1024, gamma = 1.9, t = 50,
    # absolutely); -expm1(-tx) moves by at most its own size, plus the
    # 10 eps / (t x) to which the Ritz values resolve x
    system = build_drift_system(ModelParams(n, gamma))
    for parity, (f, g) in _pairing_data(n).items():
        cols = _parity_columns(system, parity)
        lam = system.eigenvalues[cols]
        coeff = np.prod(system.project(np.stack([f, g]))[:, cols], axis=0)
        for t in (1e-3, 1e-2, 0.25, 2.5, 50.0):
            terms = np.exp(-t * lam) * coeff
            got = system.sector_pairing(parity, f, g, t, _flow)
            bound = 1e-12 * np.sum(np.abs(terms) * (1 + t * lam)) + 1e-300
            assert abs(got - np.sum(terms)) <= bound, (parity, t)
            terms = -np.expm1(-t * lam) * coeff
            got = system.sector_pairing(parity, f, g, t, _filled)
            rtol = 1e-12 + 10 * np.finfo(float).eps / (t * lam[0])
            assert abs(got - np.sum(terms)) <= 2 * rtol * np.sum(np.abs(terms)), (parity, t)


@pytest.mark.parametrize("n", [3, 4, 9, 64, 200, 257])
def test_sector_pairing_edge_cases(n):
    # at t = 1e-300, I + sigma A is I to rounding and the first step breaks
    # down; at t = 1e300, sigma A would overflow unless scaled; a start on
    # the slowest mode spans an invariant space (every vector does at n = 3).
    # Each ends in a finite value equal to the oracle's, with no warning
    system = build_drift_system(ModelParams(n, 1.5))
    for parity, (f, g) in _pairing_data(n).items():
        cols = _parity_columns(system, parity)
        lam = system.eigenvalues[cols]
        both = np.sum(np.prod(system.project(np.stack([f, g]))[:, cols], axis=0))
        mode = system.modes[:, cols][:, 0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            assert system.sector_pairing(parity, f, g, 1e-300, _flow) == pytest.approx(
                both, rel=1e-14)
            assert system.sector_pairing(parity, f, g, 1e300, _flow) == 0.0
            assert system.sector_pairing(parity, f, g, 1e-300, _filled) == pytest.approx(
                0.0, abs=1e-290)
            assert system.sector_pairing(parity, f, g, 1e300, _filled) == pytest.approx(
                both, rel=1e-12)
            for t in (1e-300, 0.25, 1e300):
                got = system.sector_pairing(parity, mode, g, t, _flow)
                exact = np.exp(-t * lam[0]) * system.project(g)[cols][0]
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-300), t
