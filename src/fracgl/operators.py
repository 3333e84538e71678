"""Regional fractional Laplacian on [0,1], Gagliardo seminorms, and the
discrete Dirichlet spectrum.

The spectrum is that of the shared `kernel.DriftSystem` of (n, gamma),
assembled once per (n, gamma) from its two flip sectors and handed out as
read-only arrays.

The regional operator is the principal value

    (L F)(u) = c_gamma * pv int_0^1 (F(v) - F(u)) / |v - u|^(1+gamma) dv.

Pointwise evaluation splits the integral at the symmetric window
[u - r, u + r], r = min(u, 1-u), where the principal value reduces to the
absolutely convergent even second difference

    int_0^r (F(u+w) + F(u-w) - 2 F(u)) / w^(1+gamma) dw.

The quadratic Taylor term F''(u) w^2 is integrated in closed form and the
remainder, which vanishes like w^(4-gamma) at the diagonal, by composite
Gauss panels graded toward w = 0.  A cutoff at w = 3e-5 keeps the float64
cancellation noise of the second difference out of the quadrature; the
analytic term compensates the cutoff exactly through second order.

Both quadratures use one panel layout, a row of edges per point: a cached
unit template graded toward the row's lower end, with the support's edges as
distances from the point sorted in (one outside the row's interval makes a
zero-width panel).  A block of rows of about 2**13 nodes costs one call of
F.f (and of G.f when G is not F); at that size no per-block temporary
reaches 128 KiB, which glibc would map afresh, and page-fault, on each
allocation.  The rows are summed one by one, so the values do not depend on
the block size.  The regional operator works in the distance
w from u: the window [3e-5, r] and [r, 1 - r] on the far side; `u` may be an array.

Note: expanding the principal value asymmetrically around u produces a
first-derivative term c_gamma F'(u) [(1-u)^(1-gamma) - u^(1-gamma)]/(1-gamma)
(the epsilon-windows of the two sides cancel, leaving the difference of the
endpoint powers).  The symmetric-window route used here needs no such term.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .kernel import DriftSystem, build_drift_system, kernel_constant
from .params import ModelParams

__all__ = [
    "TestFunction",
    "SmoothBump",
    "regional_laplacian_pointwise",
    "continuum_seminorm",
    "dirichlet_spectrum",
    "spectrum_to_csv",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_CUT = 3e-5
_BLOCK_NODES = 2 ** 13


@dataclass(frozen=True)
class TestFunction:
    """A scalar test function on [0,1] with derivatives up to order two.

    `support` is the closed interval [a, b] outside of which the function
    vanishes identically, or None when the function is not compactly
    supported.  All evaluators accept numpy arrays.
    """

    __test__ = False  # domain type, not a pytest collection target

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]
    support: Optional[tuple] = None


class SmoothBump(TestFunction):
    """C-infinity bump amp * exp(1 - 1/(1 - w^2)) on [a, b], w the affine
    map of [a, b] onto [-1, 1]; peak value amp at the midpoint."""

    def __init__(self, a: float, b: float, amp: float = 1.0):
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("support must satisfy 0 <= a < b <= 1")
        half, mid = 0.5 * (b - a), 0.5 * (a + b)

        def parts(u):
            w = (np.asarray(u, dtype=float) - mid) / half
            inside = np.abs(w) < 1.0
            q = np.where(inside, 1.0 - w * w, 1.0)
            return w, q, np.where(inside, amp * np.exp(1.0 - 1.0 / q), 0.0)

        def f(u):
            return parts(u)[2]

        def df(u):
            w, q, val = parts(u)
            return val * (-2.0 * w / q ** 2) / half

        def d2f(u):
            w, q, val = parts(u)
            return val * (4.0 * w * w / q ** 4 + (-2.0 * q - 8.0 * w * w) / q ** 3) / half ** 2

        super().__init__(f=f, df=df, d2f=d2f, support=(a, b))


def _gauss_panels(p0: np.ndarray, p1: np.ndarray) -> tuple:
    """(nodes, weights) of the 24-point Gauss rule on panels [p0, p1], last axis flat."""
    mid, hw = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    shape = p0.shape[:-1] + (-1,)
    return ((mid[..., None] + hw[..., None] * _GL_X).reshape(shape),
            (hw[..., None] * _GL_W).reshape(shape))


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as from np.unique, which imports numpy.ma (10 ms)."""
    v = np.sort(values)
    return v[np.concatenate([[True], v[1:] > v[:-1]])]


@lru_cache(maxsize=16)
def _unit_offsets(n_geo: int, n_lin: int) -> np.ndarray:
    """Read-only sorted distinct offsets {0, 2^-k (k <= n_geo), j/n_lin, 1}."""
    d = _distinct(np.append(0.5 ** np.arange(1, n_geo + 1), np.linspace(0.0, 1.0, n_lin + 1)))
    d.flags.writeable = False
    return d


def _graded_edges(lo, hi, breaks: np.ndarray, n_geo: int, n_lin: int) -> np.ndarray:
    """Sorted panel edges on [lo, hi], one row per row of `breaks`: the unit
    offsets graded toward lo, and the row's breakpoints.  A breakpoint
    outside (lo, hi) becomes a zero-width panel at hi, of zero weight, so no
    node sits on lo, where the regional kernel is singular at u = 0 and 1."""
    lo, hi = np.asarray(lo).reshape(-1, 1), np.asarray(hi).reshape(-1, 1)
    inside = np.where(breaks > lo, np.minimum(breaks, hi), hi)
    return np.sort(np.concatenate([lo + (hi - lo) * _unit_offsets(n_geo, n_lin), inside],
                                  axis=1))


def _panel_blocks(edge_sets: tuple, evals_per_row: int):
    """Yield (rows, [(nodes, weights) per edge array]) over row slices of about
    _BLOCK_NODES evaluations (at least one row); the blocks bound the memory."""
    rows = max(1, _BLOCK_NODES // evals_per_row)
    for b in range(0, edge_sets[0].shape[0], rows):
        blk = slice(b, b + rows)
        yield blk, [_gauss_panels(e[blk, :-1], e[blk, 1:]) for e in edge_sets]


def regional_laplacian_pointwise(gamma: float, F: TestFunction, u,
                                 refine: int = 1):
    """Pointwise regional fractional Laplacian (L F)(u) for C^2 functions.

    Parameters
    ----------
    gamma : float in (1, 2)
    F : TestFunction
        Must provide first and second derivatives.
    u : float or array of floats in [0, 1]
    refine : int
        Multiplies the panel counts; doubling it changes smooth-bump values
        by less than 1e-7 (used for convergence self-checks).

    Returns
    -------
    float for a float `u`, else an array of the shape of `u`.  At u = 0 or
    1 with F'(u) != 0 the principal value diverges, like F'(0) int v^-gamma
    dv at 0; the value there is inf with the sign of F'(0) at 0 and of
    -F'(1) at 1.
    """
    c = kernel_constant(gamma)
    x = np.asarray(u, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if F.df is None or F.d2f is None:
        raise ValueError("TestFunction must provide df and d2f")
    xs = x.ravel()
    d2 = F.d2f(xs)
    r = np.minimum(xs, 1.0 - xs)
    vals = np.where(r > 0.0, d2 * r ** (2.0 - gamma) / (2.0 - gamma), 0.0)
    # in the distance from u: the window [_CUT, r] (empty if r <= _CUT) and [r, 1 - r]
    far = np.where(xs <= 0.5, 1.0, -1.0)[:, None]
    bks = np.abs(np.asarray(F.support or (), dtype=float) - xs[:, None])
    win = _graded_edges(_CUT, np.maximum(r, _CUT), bks, 26 * refine, 10 * refine)
    out = _graded_edges(r, 1.0 - r, bks, 26 * refine, 12 * refine)
    per_row = 1 + _GL_X.size * (2 * win.shape[1] + out.shape[1] - 3)
    for blk, ((w, wt), (wo, wot)) in _panel_blocks((win, out), per_row):
        ub, m = xs[blk, None], w.shape[1]
        # clipping moves only the zero-weight nodes of an empty window into [0, 1]
        v = np.clip(np.concatenate([ub, ub + w, ub - w, ub + far[blk] * wo], axis=1), 0.0, 1.0)
        fv = F.f(v.ravel()).reshape(v.shape)
        fu, d2b = fv[:, :1], d2[blk, None]
        vals[blk] += np.vecdot(wt, (fv[:, 1:m + 1] + fv[:, m + 1:2 * m + 1] - 2.0 * fu
                                    - d2b * w * w) / w ** (1.0 + gamma))
        vals[blk] += np.vecdot(wot, (fv[:, 2 * m + 1:] - fu) / wo ** (1.0 + gamma))
    ends = np.flatnonzero((xs == 0.0) | (xs == 1.0))
    if ends.size:
        slope = F.df(xs[ends]) * np.where(xs[ends] == 0.0, 1.0, -1.0)
        vals[ends[slope != 0.0]] = np.copysign(np.inf, slope[slope != 0.0])
    return float(c * vals[0]) if x.ndim == 0 else c * vals.reshape(x.shape)


def continuum_seminorm(gamma: float, F: TestFunction, G: TestFunction,
                       n_outer: int = 160, refine: int = 1) -> float:
    """Gagliardo semi-inner product

        <F, G>_{gamma/2} = (c_gamma/2) iint (F(v)-F(u))(G(v)-G(u)) / |u-v|^(1+gamma).

    Evaluated as c_gamma int_0^1 du int_0^(1-u) dw of the one-sided
    differences; the diagonal cells are regularized by integrating the
    leading F'(u) G'(u) w^2 term in closed form per outer node.

    Raises RuntimeError if the result comes out non-finite.
    """
    c = kernel_constant(gamma)
    n_outer *= refine
    sup = np.array(sorted({e for tf in (F, G) if tf.support for e in tf.support}))
    cut = 1e-6
    e = _distinct(np.concatenate([np.linspace(0.0, 1.0, n_outer + 1), sup]))
    keep = e[1:] - e[:-1] >= 1e-15
    um, uw = _gauss_panels(e[:-1][keep], e[1:][keep])
    fus, dfu = F.f(um), F.df(um)
    gus, d1 = (fus, dfu * dfu) if G is F else (G.f(um), dfu * G.df(um))
    big_w = 1.0 - um
    vals = np.where(big_w < 1e-14, 0.0, d1 * big_w ** (2.0 - gamma) / (2.0 - gamma))
    # inner edges on [cut, 1 - u], one row per outer node
    edges = _graded_edges(cut, np.maximum(big_w, cut), np.abs(um[:, None] - sup),
                          30 * refine, 8 * refine)
    for blk, ((w, wt),) in _panel_blocks((edges,), _GL_X.size * (edges.shape[1] - 1)):
        v = (um[blk, None] + w).ravel()
        dfv = F.f(v).reshape(w.shape) - fus[blk, None]
        dgv = dfv if G is F else G.f(v).reshape(w.shape) - gus[blk, None]
        vals[blk] += np.vecdot(wt, (dfv * dgv - d1[blk, None] * w * w) / w ** (1.0 + gamma))
    result = float(c * (uw @ vals))
    if not np.isfinite(result):
        raise RuntimeError("seminorm quadrature returned a non-finite value")
    return result


def dirichlet_spectrum(params: ModelParams) -> DriftSystem:
    """The DriftSystem of (params.n, params.gamma) with all n-1 eigenpairs of
    -M computed: strictly positive ascending `eigenvalues` and read-only
    `modes`, assembled once per (n, gamma) from its two flip sectors.  The
    reservoir densities play no part: M does not depend on them."""
    sys = build_drift_system(params)
    sys.eigenvalues  # the sectors' eigh, each checked positive there
    return sys


def spectrum_to_csv(eigenvalues: np.ndarray, modes: np.ndarray, path) -> None:
    """Write rows k, lambda_k, e_k(1), ..., e_k(n-1) for the given columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda_k"] + [f"e_x{x}" for x in range(1, modes.shape[0] + 1)])
        for k, lam in enumerate(eigenvalues):
            writer.writerow([k + 1, repr(float(lam))] + [repr(float(v)) for v in modes[:, k]])
