"""Regional fractional Laplacian on [0,1], Gagliardo seminorms, and the
discrete Dirichlet spectrum.

The spectrum is that of the shared `kernel.DriftSystem` of (n, gamma),
assembled once per (n, gamma) from one half-size `eigh` of each of its two
flip sectors, the only `eigh` of a sector's matrix, and handed out as
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

Both quadratures use one panel layout, a row of edges per point, part after
part: a cached unit template graded toward the part's lower end, with the
support's edges as distances from the point sorted in (one outside the part
makes a zero-width panel).  The regional operator's row, in w = |v - u|, is
the window [3e-5, r], then [r, 1 - r] on the far side; no F value and no term
come from the panel across the seam.  One dot product with the weights times
w^-(1+gamma) sums each row, so no value depends on the block size: a block of
about 2**13 nodes is one call of F.f (and of G.f when G is not F), with no
temporary of 128 KiB, which glibc would map and page-fault afresh.

Note: expanding the principal value asymmetrically around u produces a
first-derivative term c_gamma F'(u) [(1-u)^(1-gamma) - u^(1-gamma)]/(1-gamma)
(the epsilon-windows of the two sides cancel, leaving the difference of the
endpoint powers).  The symmetric-window route used here needs no such term.
"""

from __future__ import annotations

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

        def on_support(form):
            """Evaluator of form(w, t = 1/(1 - w^2), value) where |w| < 1 and of
            zero elsewhere: exp runs on the support alone."""
            def evaluate(u):
                w = (np.asarray(u, dtype=float) - mid) / half
                out, inside = np.zeros(np.shape(w)), np.abs(w) < 1.0
                w = w[inside]
                t = 1.0 / (1.0 - w * w)
                out[inside] = form(w, t, amp * np.exp(1.0 - t))
                return out
            return evaluate

        super().__init__(  # in d2f, w^2 t = t - 1
            f=on_support(lambda w, t, e: e),
            df=on_support(lambda w, t, e: e * (-2.0 * w * t * t) / half),
            d2f=on_support(lambda w, t, e: e * (t * t * (4.0 * (t - 1.5) ** 2 - 3.0)) / half ** 2),
            support=(a, b))


def _gauss_panels(p0: np.ndarray, p1: np.ndarray) -> tuple:
    """(nodes, weights) of the 24-point Gauss rule on panels [p0, p1], last
    axis flat.  The panels' midpoints and half-widths are repeated, not
    broadcast against the rule: numpy would loop over its short axis."""
    hw = np.repeat(0.5 * (p1 - p0), _GL_X.size, axis=-1)
    x, w = _gauss_rows(p0.shape[-1])
    return np.repeat(0.5 * (p0 + p1), _GL_X.size, axis=-1) + hw * x, hw * w


@lru_cache(maxsize=16)
def _gauss_rows(panels: int) -> tuple:
    """Read-only rows of the rule's nodes and weights, once per panel."""
    rows = np.tile([_GL_X, _GL_W], panels)
    rows.flags.writeable = False
    return tuple(rows)


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


def _graded_edges(breaks: np.ndarray, refine: int, *parts) -> tuple:
    """A row of panel edges per row of `breaks`, and each part's edge count: for
    each (lo, hi, n_geo, n_lin), unit offsets (refine times finer) graded toward
    lo and the breakpoints, sorted; one outside (lo, hi) makes a zero-width panel
    at hi, so no node sits on lo, where the regional kernel is singular for u = 0, 1."""
    rows = [np.sort(np.concatenate([lo + (hi - lo) * _unit_offsets(n_geo * refine, n_lin * refine),
                                    np.minimum(np.where(breaks > lo, breaks, hi), hi)], axis=1))
            for lo, hi, n_geo, n_lin in parts]
    return np.concatenate(rows, axis=1), [e.shape[1] for e in rows]


def _panel_blocks(edges: np.ndarray, evals_per_row: int, gamma: float):
    """Yield (rows, nodes, weights times nodes^-(1+gamma)) of the panels between
    consecutive edges, over row slices of about _BLOCK_NODES evaluations (one row at least)."""
    rows = max(1, _BLOCK_NODES // evals_per_row)
    for blk in (slice(b, b + rows) for b in range(0, edges.shape[0], rows)):
        nodes, weights = _gauss_panels(edges[blk, :-1], edges[blk, 1:])
        yield blk, nodes, weights * nodes ** -(1.0 + gamma)


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
    xs = x.ravel()
    r = np.minimum(xs, 1.0 - xs)
    if not (r >= 0.0).all():
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if F.df is None or F.d2f is None:
        raise ValueError("TestFunction must provide df and d2f")
    d2 = F.d2f(xs)
    vals = d2 * r ** (2.0 - gamma) / (2.0 - gamma)  # zero at u = 0 and 1
    # in the distance from u: the window [_CUT, r] (empty if r <= _CUT), then [r, 1 - r]
    rc, far = r[:, None], np.copysign(1.0, 0.5 - xs)[:, None]
    edges, (n_win, n_out) = _graded_edges(
        np.abs(xs[:, None] - F.support) if F.support else rc[:, :0], refine,
        (_CUT, np.maximum(rc, _CUT), 26, 10), (rc, 1.0 - rc, 26, 12))
    k = _GL_X.size
    m, n_v = k * (n_win - 1), 1 + k * (2 * n_win + n_out - 3)  # window nodes; F values a row
    for blk, w, kw in _panel_blocks(edges, n_v, gamma):
        ub, ww = xs[blk, None], w[:, :m]
        # only an empty window's zero-weight nodes leave [0, 1]: u + w above, u - w below
        v = np.concatenate([ub, np.minimum(ub + ww, 1.0), np.maximum(ub - ww, 0.0),
                            ub + far[blk] * w[:, m + k:]], axis=1)
        fv = F.f(v.ravel()).reshape(v.shape)  # F(u) first
        win = fv[:, 1:m + 1] + fv[:, m + 1:2 * m + 1] - 2.0 * fv[:, :1] - d2[blk, None] * ww * ww
        # the window's panels, then the outer ones: the seam's weights kw[:, m:m + k] go unused
        vals[blk] += (np.vecdot(kw[:, :m], win)
                      + np.vecdot(kw[:, m + k:], fv[:, 2 * m + 1:] - fv[:, :1]))
    ends = (r == 0.0).nonzero()[0]
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
    edges, (n_edges,) = _graded_edges(np.abs(um[:, None] - sup), refine,
                                      (cut, np.maximum(big_w, cut)[:, None], 30, 8))
    for blk, w, kw in _panel_blocks(edges, _GL_X.size * (n_edges - 1), gamma):
        v = (um[blk, None] + w).ravel()
        dfv = F.f(v).reshape(w.shape) - fus[blk, None]
        dgv = dfv if G is F else G.f(v).reshape(w.shape) - gus[blk, None]
        vals[blk] += np.vecdot(kw, dfv * dgv - d1[blk, None] * w * w)
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
