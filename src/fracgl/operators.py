"""Regional fractional Laplacian on [0,1], Gagliardo seminorms, and the
discrete Dirichlet spectrum.

The spectrum is that of the shared `kernel.DriftSystem` of (n, gamma): one
eigendecomposition per (n, gamma), handed out as read-only arrays.

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

Panel edges scale a cached unit template to each interval and sort in the
support's edges.  Each point costs one call of F.f, on u, the window and the
outer nodes; `u` may be an array.  The seminorm puts the inner rules of a block
of outer nodes in one array (a support edge outside a row's interval is a
zero-width panel, of zero weight) and calls F.f and G.f once per block.

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
    "PolyBump",
    "SineMode",
    "regional_laplacian_pointwise",
    "continuum_seminorm",
    "dirichlet_spectrum",
    "spectrum_to_csv",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_CUT = 3e-5
_BLOCK_NODES = 2 ** 16


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

        def w_of(u):
            return (np.asarray(u, dtype=float) - mid) / half

        def f(u):
            w = w_of(u)
            inside = np.abs(w) < 1.0
            q = np.where(inside, 1.0 - w * w, 1.0)
            return np.where(inside, amp * np.exp(1.0 - 1.0 / q), 0.0)

        def df(u):
            w = w_of(u)
            inside = np.abs(w) < 1.0
            q = np.where(inside, 1.0 - w * w, 1.0)
            return np.where(inside, f(u) * (-2.0 * w / q ** 2) / half, 0.0)

        def d2f(u):
            w = w_of(u)
            inside = np.abs(w) < 1.0
            q = np.where(inside, 1.0 - w * w, 1.0)
            val = 4.0 * w * w / q ** 4 + (-2.0 * q - 8.0 * w * w) / q ** 3
            return np.where(inside, f(u) * val / half ** 2, 0.0)

        super().__init__(f=f, df=df, d2f=d2f, support=(a, b))


class PolyBump(TestFunction):
    """C^2 bump amp * ((u-a)(b-u) / s_max)^3 on [a, b]; piecewise polynomial,
    convenient when exact reference values are wanted."""

    def __init__(self, a: float, b: float, amp: float = 1.0):
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("support must satisfy 0 <= a < b <= 1")
        smax = ((b - a) / 2.0) ** 2

        def f(u):
            u = np.asarray(u, dtype=float)
            s = (u - a) * (b - u)
            return np.where(s > 0, amp * (s / smax) ** 3, 0.0)

        def df(u):
            u = np.asarray(u, dtype=float)
            s = (u - a) * (b - u)
            ds = a + b - 2.0 * u
            return np.where(s > 0, amp * 3.0 * s ** 2 * ds / smax ** 3, 0.0)

        def d2f(u):
            u = np.asarray(u, dtype=float)
            s = (u - a) * (b - u)
            ds = a + b - 2.0 * u
            return np.where(s > 0, amp * (6.0 * s * ds ** 2 - 6.0 * s ** 2) / smax ** 3, 0.0)

        super().__init__(f=f, df=df, d2f=d2f, support=(a, b))


class SineMode(TestFunction):
    """sin(k pi u); C^2 on [0,1], vanishing at the endpoints but not
    compactly supported."""

    def __init__(self, k: int = 1, amp: float = 1.0):
        kp = k * np.pi

        def f(u):
            return amp * np.sin(kp * np.asarray(u, dtype=float))

        def df(u):
            return amp * kp * np.cos(kp * np.asarray(u, dtype=float))

        def d2f(u):
            return -amp * kp ** 2 * np.sin(kp * np.asarray(u, dtype=float))

        super().__init__(f=f, df=df, d2f=d2f, support=None)


def _gauss_panels(p0: np.ndarray, p1: np.ndarray) -> tuple:
    """(nodes, weights) of the 24-point Gauss rule on panels [p0, p1], last axis flat."""
    mid, hw = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    shape = p0.shape[:-1] + (-1,)
    return ((mid[..., None] + hw[..., None] * _GL_X).reshape(shape),
            (hw[..., None] * _GL_W).reshape(shape))


def _gauss_nodes(*edge_sets) -> tuple:
    """Flat (nodes, weights) of the composite 24-point Gauss rule on every
    panel of the given edge arrays; panels narrower than 1e-15 are skipped."""
    p0 = np.concatenate([e[:-1] for e in edge_sets])
    p1 = np.concatenate([e[1:] for e in edge_sets])
    keep = p1 - p0 >= 1e-15
    return _gauss_panels(p0[keep], p1[keep])


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


def _graded_edges(lo: float, hi: float, toward_lo: bool,
                  n_geo: int, n_lin: int, breakpoints=()) -> np.ndarray:
    d = (hi - lo) * _unit_offsets(n_geo, n_lin)
    edges = lo + d if toward_lo else hi - d[::-1]
    bks = [b for b in breakpoints if lo < b < hi]
    return _distinct(np.concatenate([edges, bks])) if bks else edges


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
    float for a float `u`, else an array of the shape of `u`.
    """
    c = kernel_constant(gamma)
    x = np.asarray(u, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    if F.df is None or F.d2f is None:
        raise ValueError("TestFunction must provide df and d2f")
    xs = x.ravel()
    d2s = F.d2f(xs)
    sup = F.support or ()
    out = np.empty(xs.size)
    for i, (ui, d2) in enumerate(zip(xs, d2s)):
        r = min(ui, 1.0 - ui)
        total = d2 * r ** (2.0 - gamma) / (2.0 - gamma) if r > 0.0 else 0.0
        # the symmetric window (no panels if r <= _CUT) and both outer sides
        bks = sorted({abs(e - ui) for e in sup if _CUT < abs(e - ui) < r})
        w, wt = _gauss_nodes(_graded_edges(_CUT, r, True, 26 * refine, 10 * refine, bks))
        v, vt = _gauss_nodes(_graded_edges(0.0, ui - r, False, 26 * refine, 12 * refine, sup),
                             _graded_edges(ui + r, 1.0, True, 26 * refine, 12 * refine, sup))
        fv = F.f(np.concatenate([[ui], ui + w, ui - w, v]))
        fu, m = fv[0], w.size
        total += wt @ ((fv[1:m + 1] + fv[m + 1:2 * m + 1] - 2.0 * fu - d2 * w * w)
                       / w ** (1.0 + gamma))
        total += vt @ ((fv[2 * m + 1:] - fu) / np.abs(v - ui) ** (1.0 + gamma))
        out[i] = c * total
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


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
    um, uw = _gauss_nodes(_distinct(np.concatenate([np.linspace(0.0, 1.0, n_outer + 1), sup])))
    fus, gus = F.f(um), G.f(um)
    d1 = F.df(um) * G.df(um)
    big_w = 1.0 - um
    vals = np.where(big_w < 1e-14, 0.0, d1 * big_w ** (2.0 - gamma) / (2.0 - gamma))
    # inner edges on [cut, 1 - u], one row per outer node; blocks bound the memory
    hi = np.maximum(big_w, cut)[:, None]
    edges = np.sort(np.concatenate([cut + (hi - cut) * _unit_offsets(30 * refine, 8 * refine),
                                    np.clip(np.abs(um[:, None] - sup), cut, hi)], axis=1))
    rows = max(1, _BLOCK_NODES // (_GL_X.size * (edges.shape[1] - 1)))
    for blk in (slice(b, b + rows) for b in range(0, um.size, rows)):
        w, wt = _gauss_panels(edges[blk, :-1], edges[blk, 1:])
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
    `modes`, one eigendecomposition per (n, gamma).  The reservoir densities
    play no part: M does not depend on them."""
    sys = build_drift_system(params)
    sys.eigenvalues  # the one eigh of (n, gamma), checked positive there
    return sys


def spectrum_to_csv(eigenvalues: np.ndarray, modes: np.ndarray, path) -> None:
    """Write rows k, lambda_k, e_k(1), ..., e_k(n-1) for the given columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda_k"] + [f"e_x{x}" for x in range(1, modes.shape[0] + 1)])
        for k, lam in enumerate(eigenvalues):
            writer.writerow([k + 1, repr(float(lam))] + [repr(float(v)) for v in modes[:, k]])
