"""Reference computations made apart from fracgl, with numpy and scipy only.

Every function here rebuilds its object from the model's definition (the
kernel from the Riemann zeta function, the drift matrix by broadcasting
|x - y|, integrals by adaptive quadrature), so a check against it does not
share code with the package it checks.  Nothing in this module imports
fracgl.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special


def kernel_constant(gamma: float) -> float:
    """c_gamma = 1 / (2 zeta(1 + gamma)), so that p(z) sums to one over z != 0."""
    return 1.0 / (2.0 * float(special.zeta(1.0 + gamma, 1.0)))


def kernel_matrix(n: int, gamma: float) -> np.ndarray:
    """P[x, y] = c_gamma |x - y|^-(1+gamma) on the interior sites 1..n-1."""
    x = np.arange(1, n, dtype=float)
    dist = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        p = kernel_constant(gamma) * dist ** -(1.0 + gamma)
    p[dist == 0.0] = 0.0
    return p


def drift_matrix(n: int, gamma: float) -> np.ndarray:
    """Dense M = n^gamma (P - diag(row sums) - reservoir relaxation at both ends)."""
    p = kernel_matrix(n, gamma)
    diag = p.sum(axis=1)
    diag[0] += 1.0
    diag[-1] += 1.0
    return n ** gamma * (p - np.diag(diag))


def drift_offset(n: int, gamma: float, phi_l: float, phi_r: float) -> np.ndarray:
    """b = n^gamma (phi_l e_1 + phi_r e_{n-1})."""
    b = np.zeros(n - 1)
    b[0] = n ** gamma * phi_l
    b[-1] = n ** gamma * phi_r
    return b


def stationary_profile(n: int, gamma: float, phi_l: float, phi_r: float) -> np.ndarray:
    """Phi_ss solving M Phi + b = 0 by a dense LU solve."""
    return np.linalg.solve(drift_matrix(n, gamma), -drift_offset(n, gamma, phi_l, phi_r))


def grid(n: int) -> np.ndarray:
    return np.arange(1, n) / n


def smooth_bump(u, a: float, b: float, amp: float = 1.0) -> np.ndarray:
    """amp * exp(1 - 1/(1 - w^2)) for w = (u - mid)/half in (-1, 1), else 0."""
    w = (np.asarray(u, dtype=float) - 0.5 * (a + b)) / (0.5 * (b - a))
    out = np.zeros_like(w)
    inside = np.abs(w) < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - w[inside] ** 2))
    return out


def seminorm_sq(n: int, gamma: float, f: np.ndarray) -> np.ndarray:
    """Lattice seminorm (n^gamma / 2n) sum_{x,y} p(y-x) (f_y - f_x)^2.

    `f` may be a batch (rows are grid functions); the double sum is formed
    explicitly, a block of rows at a time.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    p = kernel_matrix(n, gamma)
    out = np.empty(f.shape[0])
    for lo in range(0, f.shape[0], 128):
        blk = f[lo:lo + 128]
        diff = blk[:, None, :] - blk[:, :, None]
        out[lo:lo + 128] = np.einsum("kxy,xy->k", diff * diff, p)
    return n ** gamma / (2.0 * n) * out


def trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


def euler_chain_moments(m: np.ndarray, b: np.ndarray, mean0: np.ndarray,
                        cov0: np.ndarray, dt: float, steps: int):
    """Exact mean and covariance of the Euler chain after `steps` steps.

    The chain is x' = (I + dt M) x + dt b + sqrt(dt) L z with L L^T = -2M.
    In the eigenbasis of -M (rates lam_k) with r_k = 1 - dt lam_k, the
    deviation from the fixed point decays by r_k per step and the noise adds
    2 dt lam_k, so a mode starting at variance s0 ends at
    r^(2K) s0 + (1 - r^(2K)) / (1 - dt lam / 2).
    """
    lam, vec = np.linalg.eigh(-m)
    r = 1.0 - dt * lam
    fixed = np.linalg.solve(m, -b)
    mean = fixed + vec @ (r ** steps * (vec.T @ (mean0 - fixed)))
    c0 = vec.T @ cov0 @ vec
    rk = r ** steps
    ck = rk[:, None] * c0 * rk[None, :]
    ck += np.diag((1.0 - rk ** 2) / (1.0 - 0.5 * dt * lam))
    return mean, vec @ ck @ vec.T


def dynkin_qv(m: np.ndarray, g: np.ndarray, T: float) -> float:
    """Variance of sum_k sqrt(dt) (L z_k) . g over a horizon T = K dt.

    Each step adds dt g^T (-2M) g, independently of dt.
    """
    return float(T * (g @ (-2.0 * m) @ g))


def girsanov_log_weight_law(n: int, gamma: float, h_space: np.ndarray,
                            time_amp, times: np.ndarray) -> float:
    """Q = sum_k dt |lambda_{t_k}|^2 over the Euler steps' left end points.

    With lambda_e = sigma_e (H_y - H_x)/2 on the bulk edges and
    sigma_e^2 = 2 n^gamma p(y-x), |lambda_t|^2 = (n/2) ||H_t||^2_{n,gamma/2}.
    The log-weight of an untilted path is then exactly Normal(-Q/2, Q), and
    of a tilted path Normal(+Q/2, Q).
    """
    dt = np.diff(times)
    amps = np.array([time_amp(t) for t in times[:-1]])
    unit = float(seminorm_sq(n, gamma, h_space)[0])
    return float(np.sum(dt * amps ** 2) * 0.5 * n * unit)


def exact_pairing_law(n: int, gamma: float, phi_l: float, phi_r: float,
                      g0: np.ndarray, G: np.ndarray, T: float):
    """Mean and variance of <phi_T, G>/(n-1) for the exact Gaussian transition
    from phi_0 = g0: mean Phi + e^{MT}(g0 - Phi), covariance I - e^{2MT}."""
    m = drift_matrix(n, gamma)
    lam, vec = np.linalg.eigh(-m)
    phi = np.linalg.solve(m, -drift_offset(n, gamma, phi_l, phi_r))
    decay = np.exp(-lam * T)
    mean_t = phi + vec @ (decay * (vec.T @ (g0 - phi)))
    proj = vec.T @ G / (n - 1)
    var = float(np.sum(proj ** 2 * (1.0 - decay ** 2)))
    return float(mean_t @ G) / (n - 1), var


def relaxed_pairing(n: int, gamma: float, phi_l: float, phi_r: float,
                    g0: np.ndarray, G: np.ndarray, T: float) -> float:
    """(1/n) <Phi_T, G> for the deterministic flow dPhi/dt = M Phi + b."""
    m = drift_matrix(n, gamma)
    lam, vec = np.linalg.eigh(-m)
    phi = np.linalg.solve(m, -drift_offset(n, gamma, phi_l, phi_r))
    prof = phi + vec @ (np.exp(-lam * T) * (vec.T @ (g0 - phi)))
    return float(prof @ G) / n


class Smooth:
    """A test function on [0, 1] given by f, f'' and its support's end points."""

    def __init__(self, f, d2f, support=()):
        self.f = f
        self.d2f = d2f
        self.support = tuple(support)


def bump_function(a: float, b: float, amp: float) -> Smooth:
    """Scalar smooth_bump with its second derivative written out."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)

    def f(u):
        w = (u - mid) / half
        return amp * math.exp(1.0 - 1.0 / (1.0 - w * w)) if abs(w) < 1.0 else 0.0

    def d2f(u):
        w = (u - mid) / half
        if abs(w) >= 1.0:
            return 0.0
        q = 1.0 - w * w
        # d/dw exp(1 - 1/q) = e * (-2w/q^2); differentiate once more
        g1 = -2.0 * w / q ** 2
        g2 = -2.0 / q ** 2 - 8.0 * w * w / q ** 3
        return f(u) * (g1 * g1 + g2) / half ** 2

    return Smooth(f, d2f, (a, b))


def regional_laplacian(gamma: float, F: Smooth, u: float,
                       delta: float = 1e-4) -> float:
    """(L F)(u) = c_gamma pv int_0^1 (F(v) - F(u)) |v - u|^-(1+gamma) dv by
    adaptive quadrature.

    On the symmetric window [u - r, u + r], r = min(u, 1 - u), the principal
    value is the even second difference; its F''(u) w^2 part integrates in
    closed form and the rest, which is O(w^(3-gamma)), goes to scipy.quad on
    [delta, r].  On [0, delta) the rest is replaced by its quartic Taylor
    term, with F'''' from a second difference of F''; stopping the
    quadrature at delta keeps float cancellation out of it.
    """
    c = kernel_constant(gamma)
    fu, d2 = F.f(u), F.d2f(u)
    r = min(u, 1.0 - u)
    total = d2 * r ** (2.0 - gamma) / (2.0 - gamma) if r > 0.0 else 0.0
    if r > delta:
        # on [0, delta) the even rest is (F''''(u) / 12) w^(3 - gamma)
        d4 = (F.d2f(u + delta) - 2.0 * d2 + F.d2f(u - delta)) / delta ** 2
        total += d4 / 12.0 * delta ** (4.0 - gamma) / (4.0 - gamma)

    def even(w):
        return (F.f(u + w) + F.f(u - w) - 2.0 * fu - d2 * w * w) / w ** (1.0 + gamma)

    def outer(v):
        return (F.f(v) - fu) / abs(v - u) ** (1.0 + gamma)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if r > delta:
            pts = sorted({abs(e - u) for e in F.support if delta < abs(e - u) < r})
            total += integrate.quad(even, delta, r, points=pts or None,
                                    limit=400, epsabs=1e-12, epsrel=1e-12)[0]
        for lo, hi in ((0.0, u - r), (u + r, 1.0)):
            if hi - lo > 1e-15:
                pts = [e for e in F.support if lo < e < hi]
                total += integrate.quad(outer, lo, hi, points=pts or None,
                                        limit=400, epsabs=1e-12, epsrel=1e-12)[0]
    return c * total


def energy_pairing(gamma: float, F: Smooth, panels: int = 16, order: int = 12) -> float:
    """int F (-L F) du over F's support, Gauss-Legendre on equal panels with
    the adaptive `regional_laplacian` at every node."""
    a, b = F.support
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for xi, wi in zip(mid + hw * x, hw * w):
            total += wi * F.f(xi) * -regional_laplacian(gamma, F, float(xi))
    return total
