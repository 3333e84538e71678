import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from fracgl import (ModelParams, SmoothBump, TestFunction,
                    continuum_seminorm,
                    dirichlet_spectrum, discrete_fractional_laplacian,
                    discrete_inner_seminorm,
                    kernel_constant, regional_laplacian_pointwise)
from fracgl import operators
from fracgl.hydro import relaxation_rate
from fracgl.cli import main
from dense_oracle import dense_drift
from quadrature_oracle import bump_d2f, bump_df, bump_f, regional_nodes
from shapes import PolyBump, SineMode

FROZEN = json.loads((Path(__file__).parent / "frozen_quadrature.json").read_text())

# Exact values of the regional fractional Laplacian of the C^2 bump
# ((u-1/4)(3/4-u))^3 / (1/16)^3 at gamma = 3/2, obtained by symbolic
# piecewise integration of the Taylor-subtracted principal value (the
# integrand is piecewise polynomial times |v-u|^(-5/2), so every segment
# integrates in closed form).
POLY_EXACT = {
    0.3: 21.140562397540116,
    0.5: -32.52024407398981,
    0.62: 1.5113233409320377,
    0.1: 1.0485950920188647,
}


def quad_oracle(gamma, F, u, delta=3e-5):
    """Adaptive-quadrature oracle: integrate the first-order-subtracted
    integrand away from the singularity with scipy.quad and patch the
    delta-neighborhood with its quadratic Taylor value.  delta trades the
    float64 cancellation noise of the subtracted integrand (~1e-16 w^-(1+g))
    against the quartic Taylor remainder; 3e-5 keeps both below ~2e-9."""
    c = kernel_constant(gamma)
    fu, d1, d2 = float(F.f(u)), float(F.df(u)), float(F.d2f(u))

    def g(v):
        w = v - u
        return (float(F.f(v)) - fu - d1 * w) / abs(w) ** (1.0 + gamma)

    pts = list(F.support) if F.support else []
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if u - delta > 0:
            total += quad(g, 0.0, u - delta, limit=400, epsabs=1e-11,
                          points=[p for p in pts if 0 < p < u - delta] or None)[0]
        if u + delta < 1:
            total += quad(g, u + delta, 1.0, limit=400, epsabs=1e-11,
                          points=[p for p in pts if u + delta < p < 1] or None)[0]
    dl, dr = min(delta, u), min(delta, 1.0 - u)
    total += 0.5 * d2 * (dl ** (2.0 - gamma) + dr ** (2.0 - gamma)) / (2.0 - gamma)
    # principal-value drift term: the epsilon windows of the two sides cancel,
    # leaving the difference of the endpoint powers
    drift = d1 * c / (1.0 - gamma) * ((1.0 - u) ** (1.0 - gamma) - u ** (1.0 - gamma)) \
        if d1 != 0.0 else 0.0
    return c * total + drift


def test_regional_laplacian_zero_function():
    zero = TestFunction(f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                        df=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                        d2f=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                        support=(0.2, 0.8))
    for u in (0.0, 0.3, 0.5, 1.0):
        assert regional_laplacian_pointwise(1.5, zero, u) == 0.0


def test_regional_laplacian_matches_frozen_exact_values():
    F = PolyBump(0.25, 0.75)
    for u, exact in POLY_EXACT.items():
        val = regional_laplacian_pointwise(1.5, F, u)
        assert val == pytest.approx(exact, abs=1e-8)


def test_regional_laplacian_matches_adaptive_oracle():
    F = SmoothBump(0.25, 0.75)
    for u in (0.1, 0.35, 0.5, 0.62, 0.9):
        val = regional_laplacian_pointwise(1.5, F, u)
        assert val == pytest.approx(quad_oracle(1.5, F, u), abs=1e-8)


def test_regional_laplacian_quadrature_refinement():
    F = SmoothBump(0.25, 0.75)
    for u in (0.3, 0.5):
        a = regional_laplacian_pointwise(1.5, F, u, refine=1)
        b = regional_laplacian_pointwise(1.5, F, u, refine=2)
        assert abs(a - b) < 1e-7


def test_regional_laplacian_array_matches_float_calls():
    u = np.array([0.0, 1e-6, 0.1, 0.25, 0.3, 0.5, 0.62, 0.75, 0.9, 1.0])
    for F in (SmoothBump(0.25, 0.75), PolyBump(0.25, 0.75)):
        vals = regional_laplacian_pointwise(1.5, F, u)
        assert isinstance(vals, np.ndarray) and vals.shape == u.shape
        for ui, v in zip(u, vals):
            single = regional_laplacian_pointwise(1.5, F, float(ui))
            assert type(single) is float
            assert v == single
        grid = regional_laplacian_pointwise(1.5, F, u.reshape(2, 5))
        np.testing.assert_array_equal(grid, vals.reshape(2, 5))
    assert type(regional_laplacian_pointwise(1.5, F, np.float64(0.3))) is float


def test_regional_laplacian_domain_errors():
    F = SmoothBump(0.25, 0.75)
    with pytest.raises(ValueError):
        regional_laplacian_pointwise(1.5, F, 1.2)
    with pytest.raises(ValueError):
        regional_laplacian_pointwise(1.5, F, np.array([0.5, -0.1]))
    broken = TestFunction(f=F.f, df=None, d2f=None, support=F.support)
    with pytest.raises(ValueError):
        regional_laplacian_pointwise(1.5, broken, 0.5)


def _counting(F):
    """F with a counter of its calls of f, as `calls["f"]`."""
    calls = {"f": 0}

    def f(u):
        calls["f"] += 1
        return F.f(u)
    return TestFunction(f=f, df=F.df, d2f=F.d2f, support=F.support), calls


@pytest.mark.parametrize("n", [64, 128])
def test_regional_laplacian_matches_frozen_grid_values(n):
    F = SmoothBump(*FROZEN["bump"])
    vals = [regional_laplacian_pointwise(FROZEN["gamma"], F, x / n) for x in range(1, n)]
    np.testing.assert_allclose(vals, FROZEN["regional"][str(n)], rtol=1e-13, atol=0.0)


def _regional_row_nodes():
    """F evaluations per point of the regional operator: u, both sides of the
    window and the outer nodes, the two support edges sorted into each edge row."""
    return 1 + 24 * (2 * (operators._unit_offsets(26, 10).size + 1)
                     + operators._unit_offsets(26, 12).size + 1)


def test_regional_laplacian_calls_f_once_per_point():
    # one F.f call for a point, and for an array one per block of
    # _BLOCK_NODES // (nodes per point) points, not one per point
    F, calls = _counting(SmoothBump(0.25, 0.75, 1.3))
    for u in (0.0, 1e-6, 0.3, 0.5, 0.75, 1.0):
        calls["f"] = 0
        regional_laplacian_pointwise(1.5, F, u)
        assert calls["f"] == 1
    points_per_block = operators._BLOCK_NODES // _regional_row_nodes()
    assert points_per_block > 1
    calls["f"] = 0
    regional_laplacian_pointwise(1.5, F, np.linspace(0.0, 1.0, 9))
    assert calls["f"] == math.ceil(9 / points_per_block)


def test_regional_laplacian_array_calls_f_per_block_inside_unit_interval():
    # one F.f call per block of about _BLOCK_NODES nodes, each point's row of
    # nodes in exactly one block, and no node outside [0, 1], also for points
    # nearer an end than the window cut (their window is empty)
    sizes, lo, hi = [], [], []
    bump = SmoothBump(0.25, 0.75, 1.3)

    def f(v):
        sizes.append(np.size(v))
        lo.append(np.min(v))
        hi.append(np.max(v))
        return bump.f(v)
    F = TestFunction(f=f, df=bump.df, d2f=bump.d2f, support=bump.support)
    u = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1996), [1e-6, 2e-5, 1 - 2e-5, 1 - 1e-6]]))
    vals = regional_laplacian_pointwise(1.5, F, u)
    per_row = _regional_row_nodes()
    assert len(sizes) == math.ceil(u.size / (operators._BLOCK_NODES // per_row))
    assert sum(sizes) == u.size * per_row
    assert max(sizes) <= operators._BLOCK_NODES + per_row
    assert min(lo) >= 0.0 and max(hi) <= 1.0
    for i in range(0, u.size, 97):
        assert vals[i] == regional_laplacian_pointwise(1.5, bump, float(u[i]))


NODE_POINTS = [0.0, 1e-6, 1.5e-5, 0.25, 0.3, 0.5, 0.75, 1.0 - 1e-6, 1.0]


def _f_arguments(F, u):
    """The arrays regional_laplacian_pointwise hands to F.f for the points u."""
    seen = []

    def f(v):
        seen.append(np.array(v))
        return F.f(v)
    regional_laplacian_pointwise(1.5, TestFunction(f=f, df=F.df, d2f=F.d2f, support=F.support), u)
    return seen


@pytest.mark.parametrize("F", [SmoothBump(0.25, 0.75, 1.3), SineMode(2)])
def test_regional_nodes_match_the_two_row_layout(F):
    # one edge row per point, window then far side, hands F.f the nodes of a
    # window row and an outer row each laid out on its own, bit for bit and in
    # order: at the ends, inside the window cut, on the support's edges
    def assert_same(got, expected):
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    for u in NODE_POINTS:
        (got,) = _f_arguments(F, u)
        assert_same(got, regional_nodes(u, F.support).ravel())
    assert_same(np.concatenate(_f_arguments(F, np.array(NODE_POINTS))),
                regional_nodes(NODE_POINTS, F.support).ravel())


def _bump_points(a, b):
    """A dense grid of [0, 1], a and b and one ulp either side of each, and
    points next to the ends where exp(1 - 1/(1 - w^2)) is subnormal."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    edge = half * np.sqrt(1.0 - 1.0 / np.linspace(690.0, 750.0, 2001))
    ulps = [np.nextafter(e, d) for e in (a, b) for d in (-1.0, 2.0)]
    return np.concatenate([np.linspace(0.0, 1.0, 20001), [a, b], ulps, mid - edge, mid + edge])


BUMPS = [(0.25, 0.75, 1.3), (0.0, 0.6, -0.45), (0.1, 0.13, 0.8)]


@pytest.mark.parametrize("a, b, amp", BUMPS)
def test_smooth_bump_f_keeps_every_bit(a, b, amp):
    # girsanov's tilt field is a SmoothBump and frozen_ensembles.json is
    # compared with ==: f, with exp on the support alone, equals the where
    # form on the whole input bit for bit, the sign of zero included, and
    # keeps its shape and type (a 0-d array for a float)
    bump = SmoothBump(a, b, amp)
    u = _bump_points(a, b)
    for x in (u, u[:20000].reshape(100, 200), 0.3, np.float64(a), np.array(b), a - 1e-3):
        got, expected = bump.f(x), bump_f(x, a, b, amp)
        assert type(got) is type(expected) and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("a, b, amp", BUMPS)
def test_smooth_bump_derivatives_within_rounding(a, b, amp):
    # df and d2f in t = 1/(1 - w^2) differ from the where forms by rounding
    # alone: within 8 ulp of the sum of their terms' magnitudes (2 |w| t^2 and
    # 4 w^2 t^4 + 2 t^2 + 8 w^2 t^3, times |f| over half or half^2), and
    # 1e-300 where those underflow
    bump = SmoothBump(a, b, amp)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    u = _bump_points(a, b)
    w = (u - mid) / half
    t = 1.0 / np.where(np.abs(w) < 1.0, 1.0 - w * w, 1.0)
    size = np.abs(bump_f(u, a, b, amp))
    eps = np.finfo(float).eps
    for got, expected, terms in (
            (bump.df(u), bump_df(u, a, b, amp), size * 2.0 * np.abs(w) * t * t / half),
            (bump.d2f(u), bump_d2f(u, a, b, amp),
             size * (4.0 * w * w * t ** 4 + 2.0 * t * t + 8.0 * w * w * t ** 3) / half ** 2)):
        assert np.all(np.abs(got - expected) <= 8.0 * eps * terms + 1e-300)
        assert np.array_equal(got == 0.0, expected == 0.0)


@pytest.mark.parametrize("u, rel", [(0.0, 3e-7), (1e-6, 4e-12)])
def test_regional_laplacian_odd_at_mirrored_ends(u, rel):
    # sin(2 pi u) is odd about 1/2, and so is its regional Laplacian.  At
    # u = 0 the principal value diverges (F'(0) = F'(1) = 2 pi): +inf there,
    # -inf at u = 1, and `rel` plays no part.  At u = 1e-6 the bound lies
    # between the relative defects with distances taken from u (2.2e-12) and
    # as |v - u| from v = 1 - d rounded to ulp(1) (6.7e-12)
    F = SineMode(2)
    left = regional_laplacian_pointwise(1.5, F, u)
    right = regional_laplacian_pointwise(1.5, F, 1.0 - u)
    if u == 0.0:
        assert (left, right) == (np.inf, -np.inf)
    else:
        assert abs(left + right) <= rel * abs(left)


def test_regional_laplacian_signed_infinity_at_divergent_ends():
    # F'(0) != 0 makes (L F)(0) diverge with the sign of F'(0), and (L F)(1)
    # with that of -F'(1); F' = 0 there keeps the finite value, and an array
    # holds both without a warning
    u = np.array([0.0, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for F, ends in ((SineMode(1), (np.inf, np.inf)), (SineMode(1, -2.0), (-np.inf, -np.inf)),
                        (SineMode(3), (np.inf, np.inf)), (SineMode(2), (np.inf, -np.inf))):
            vals = regional_laplacian_pointwise(1.2, F, u)
            assert (vals[0], vals[2]) == ends and np.isfinite(vals[1])
            assert regional_laplacian_pointwise(1.2, F, 1.0) == ends[1]
        F = SmoothBump(0.0, 0.6)
        assert np.all(np.isfinite(regional_laplacian_pointwise(1.2, F, u)))


def _edge_arrays():
    span = 0.37
    geo, lin = span * 0.5 ** np.arange(1, 27), np.linspace(0.0, span, 11)
    graded = np.concatenate([[0.0], geo, lin, [span]])  # 0, span/2 and span twice
    yield graded
    yield np.concatenate([0.1 + graded, [0.1 + lin[3], 0.25, 0.25]])
    yield np.concatenate([np.linspace(0.0, 1.0, 161), [0.2, 0.5, 0.7, 0.5]])
    yield np.random.default_rng(8).integers(0, 20, 200) / 7.0


@pytest.mark.parametrize("edges", list(_edge_arrays()))
def test_distinct_matches_unique(edges):
    from fracgl.operators import _distinct
    assert np.unique(edges).size < edges.size
    assert np.array_equal(_distinct(edges), np.unique(edges))


def test_seminorm_constant_function_zero():
    const = TestFunction(f=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                         df=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                         d2f=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    G = SmoothBump(0.3, 0.7)
    assert continuum_seminorm(1.5, const, G) == pytest.approx(0.0, abs=1e-10)


def test_continuum_green_identity():
    # <F, G>_{gamma/2} = int F (-L G) for compactly supported smooth G
    gamma = 1.5
    F = SmoothBump(0.2, 0.6)
    G = SmoothBump(0.35, 0.85)
    semi = continuum_seminorm(gamma, F, G)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, 81),
                                      [0.2, 0.35, 0.6, 0.85]]))
    mid, hw = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    x = (mid[:, None] + hw[:, None] * nodes).ravel()
    w = (hw[:, None] * weights).ravel()
    pair = float(w @ (F.f(x) * -regional_laplacian_pointwise(gamma, G, x)))
    assert semi == pytest.approx(pair, abs=1e-6)


def test_continuum_seminorm_refinement_stability():
    gamma = 1.5
    F = SmoothBump(0.25, 0.75)
    a = continuum_seminorm(gamma, F, F)
    b = continuum_seminorm(gamma, F, F, refine=2)
    assert type(a) is float
    assert abs(a - b) < 1e-7


@pytest.mark.parametrize("n_outer", [10, 160])
def test_continuum_seminorm_matches_frozen_value(n_outer):
    F = SmoothBump(*FROZEN["bump"])
    value = continuum_seminorm(FROZEN["gamma"], F, F, n_outer=n_outer)
    assert value == pytest.approx(FROZEN["seminorm"][str(n_outer)], rel=1e-13, abs=0.0)


def test_continuum_seminorm_calls_f_per_block_not_per_outer_node():
    # F.f runs once on the outer nodes (shared as G) and then once per block
    # of about _BLOCK_NODES inner nodes, not once per outer node
    F, calls = _counting(SmoothBump(0.25, 0.75, 1.3))
    per_row = 24 * (operators._unit_offsets(30, 8).size + 1)  # both support edges sorted in
    rows_per_block = operators._BLOCK_NODES // per_row
    assert rows_per_block > 1
    for n_outer, outer_panels in ((10, 12), (160, 160)):
        calls["f"] = 0
        continuum_seminorm(1.5, F, F, n_outer=n_outer)
        rows = 24 * outer_panels
        assert calls["f"] == 1 + math.ceil(rows / rows_per_block)


@pytest.mark.parametrize("block_nodes", [1, 2 ** 16])
def test_quadrature_values_do_not_depend_on_the_block_size(monkeypatch, block_nodes):
    # a block is a slice of whole rows, each row summed on its own: one row
    # per block and 2^16 nodes per block give the same bits as the default
    F = SmoothBump(0.25, 0.75, 1.3)
    u = np.linspace(0.0, 1.0, 41)
    regional = regional_laplacian_pointwise(1.5, F, u)
    seminorm = continuum_seminorm(1.5, F, F, n_outer=20)
    monkeypatch.setattr(operators, "_BLOCK_NODES", block_nodes)
    assert np.array_equal(regional_laplacian_pointwise(1.5, F, u), regional)
    assert continuum_seminorm(1.5, F, F, n_outer=20) == seminorm


def test_discrete_seminorm_converges_to_continuum():
    # eq-of-norms consistency for a C^2 function: the gap shrinks with n
    gamma = 1.5
    F = SineMode(1)
    cont = continuum_seminorm(gamma, F, F)
    gaps = []
    for n in (64, 256):
        p = ModelParams(n, gamma)
        vals = F.f(p.grid())
        gaps.append(abs(discrete_inner_seminorm(p, vals, vals) - cont))
    assert gaps[1] < 0.55 * gaps[0]


def test_sup_gap_contraction_rate():
    # sup_x |L_n F - L F| contracts by the measured factor 2^(2-gamma)
    # when n doubles (the central-cell defect of the lattice operator);
    # see the acceptance suite for the band asserted at small gamma.
    gamma = 1.5
    F = SmoothBump(0.25, 0.75)
    gaps = {}
    for n in (64, 128):
        p = ModelParams(n, gamma)
        u = p.grid()
        cont = regional_laplacian_pointwise(gamma, F, u)
        disc = discrete_fractional_laplacian(p, F.f(u))
        gaps[n] = float(np.max(np.abs(cont - disc)))
    ratio = gaps[64] / gaps[128]
    assert ratio == pytest.approx(2.0 ** (2.0 - gamma), rel=0.12)


def test_spectrum_orthonormal_positive_ascending():
    p = ModelParams(64, 1.5)
    spec = dirichlet_spectrum(p)
    lam = spec.eigenvalues
    assert lam[0] > 0
    assert np.all(np.diff(lam) >= -1e-12)
    gram = spec.modes.T @ spec.modes / p.n
    np.testing.assert_allclose(gram, np.eye(p.n_sites), atol=1e-10)
    m = dense_drift(p)
    for k in (0, 5, 19):
        resid = (-m) @ spec.modes[:, k] - lam[k] * spec.modes[:, k]
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, lam[k])


def test_spectrum_cauchy_refinement():
    # the discrete ground eigenvalue refines slowly (measured ~3% per
    # doubling at gamma=1.5 around n=128); assert the measured band and
    # that the refinement step shrinks with n
    lams = {n: dirichlet_spectrum(ModelParams(n, 1.5)).eigenvalues[0]
            for n in (128, 256)}
    assert abs(lams[256] - lams[128]) / lams[128] < 0.04


def test_spectrum_matches_relaxation_rate():
    p = ModelParams(64, 1.5, 0.0, 1.0)
    spec = dirichlet_spectrum(p)
    lam1 = float(spec.eigenvalues[0])
    rng = np.random.default_rng(21)
    from fracgl import solve_stationary_profile
    prof = solve_stationary_profile(p)
    g = prof.profile + 0.5 * np.sin(np.pi * p.grid())
    fitted = relaxation_rate(prof, g, 8.0 / lam1)
    assert fitted == pytest.approx(lam1, rel=0.02)


def test_spectral_parseval_residual_decreases():
    p = ModelParams(64, 1.5)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(p.n_sites)
    norm2 = float(np.sum(f * f)) / p.n
    coeff = dirichlet_spectrum(p).project(f)
    residuals = [norm2 - float(np.sum(coeff[:k] ** 2)) for k in (8, 32, 63)]
    assert residuals[0] > residuals[1] > residuals[2] >= -1e-12
    assert abs(residuals[-1]) < 1e-10


def test_fractional_poincare():
    p = ModelParams(64, 1.5)
    lam1 = float(dirichlet_spectrum(p).eigenvalues[0])
    rng = np.random.default_rng(64)
    for _ in range(100):
        f = rng.standard_normal(p.n_sites)
        f[0] = f[-1] = 0.0
        l2 = float(np.sum(f * f)) / p.n
        semi = discrete_inner_seminorm(p, f, f)
        assert l2 <= semi / lam1 * (1.0 + 1e-10)


def test_spectrum_csv(tmp_path):
    # every mode at n = 16; the 40 slowest alone at n = 64, still at every site
    for n in (16, 64):
        p = ModelParams(n, 1.5)
        spec = dirichlet_spectrum(p)
        assert main(["spectrum", "--n", str(n), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0].startswith("k,lambda_k,e_x1")
        assert lines[0].endswith(f",e_x{p.n_sites}")
        assert len(lines) == 1 + min(40, p.n_sites)
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == spec.eigenvalues[0]
        assert [float(v) for v in first[2:]] == list(spec.modes[:, 0])
