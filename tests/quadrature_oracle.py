"""Plain forms of the regional quadrature's node layout and of the smooth
bump's formulas: the oracles of the faster forms in `fracgl.operators`.

`regional_nodes` builds the arrays `regional_laplacian_pointwise` hands to
F.f: two sorted edge rows per point (the window in the distance from u,
then the far side), one 24-point Gauss layout on each, and
[u, u + w, u - w, u + far w_out] clipped to [0, 1].  `bump_f`, `bump_df`
and `bump_d2f` evaluate amp exp(1 - 1/(1 - w^2)) and its derivatives on
the whole input, with `np.where` masks.
"""
import numpy as np

_X, _W = np.polynomial.legendre.leggauss(24)
_CUT = 3e-5


def _offsets(n_geo, n_lin):
    return np.unique(np.append(0.5 ** np.arange(1, n_geo + 1), np.linspace(0.0, 1.0, n_lin + 1)))


def _graded_edges(lo, hi, breaks, n_geo, n_lin):
    lo, hi = np.asarray(lo).reshape(-1, 1), np.asarray(hi).reshape(-1, 1)
    inside = np.where(breaks > lo, np.minimum(breaks, hi), hi)
    return np.sort(np.concatenate([lo + (hi - lo) * _offsets(n_geo, n_lin), inside], axis=1),
                   axis=1)


def _gauss_nodes(edges):
    p0, p1 = edges[:, :-1], edges[:, 1:]
    mid, hw = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    return (mid[..., None] + hw[..., None] * _X).reshape(p0.shape[0], -1)


def regional_nodes(u, support, refine=1):
    """(points, nodes) array of the F.f arguments for the points `u`."""
    xs = np.atleast_1d(np.asarray(u, dtype=float))
    r = np.minimum(xs, 1.0 - xs)
    far = np.where(xs <= 0.5, 1.0, -1.0)[:, None]
    bks = np.abs(np.asarray(support or (), dtype=float) - xs[:, None])
    w = _gauss_nodes(_graded_edges(_CUT, np.maximum(r, _CUT), bks, 26 * refine, 10 * refine))
    wo = _gauss_nodes(_graded_edges(r, 1.0 - r, bks, 26 * refine, 12 * refine))
    ub = xs[:, None]
    return np.clip(np.concatenate([ub, ub + w, ub - w, ub + far * wo], axis=1), 0.0, 1.0)


def _bump_parts(u, a, b, amp):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    w = (np.asarray(u, dtype=float) - mid) / half
    inside = np.abs(w) < 1.0
    q = np.where(inside, 1.0 - w * w, 1.0)
    return w, q, np.where(inside, amp * np.exp(1.0 - 1.0 / q), 0.0), half


def bump_f(u, a, b, amp=1.0):
    return _bump_parts(u, a, b, amp)[2]


def bump_df(u, a, b, amp=1.0):
    w, q, val, half = _bump_parts(u, a, b, amp)
    return val * (-2.0 * w / q ** 2) / half


def bump_d2f(u, a, b, amp=1.0):
    w, q, val, half = _bump_parts(u, a, b, amp)
    return val * (4.0 * w * w / q ** 4 + (-2.0 * q - 8.0 * w * w) / q ** 3) / half ** 2
