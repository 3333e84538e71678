"""Long-range jump kernel and the affine drift/diffusion structure.

The jump kernel on the integers is p(z) = c_gamma / |z|^(1+gamma) for z != 0,
with c_gamma chosen so that p sums to one over the nonzero integers.  On the
interior lattice {1, ..., n-1} the dynamics is the linear diffusion

    d phi = (M phi + b) dt + noise,

where M = n^gamma (P - D - B) collects the bulk exchange rates P[x, y] =
p(y - x), the diagonal D of kernel row sums, and the reservoir relaxation B
at sites 1 and n-1; b carries the reservoir densities.  The noise is
Gaussian in site space with covariance -2 M per unit time, drawn through the
cached Cholesky factor of -2 M.  This is the same law as one independent
driver of rate 2 n^gamma p(y - x) per unordered bulk pair {x, y}, acting with
opposite signs at the two sites, plus drivers of rate 2 n^gamma at sites 1
and n-1: those rates assemble to exactly -2 M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.special import zeta

from .params import ModelParams, as_grid_function

__all__ = [
    "kernel_constant",
    "kernel_row",
    "truncation_error_bound",
    "DriftSystem",
    "build_drift_system",
    "discrete_fractional_laplacian",
    "discrete_inner_seminorm",
    "dirichlet_energy",
]


def kernel_constant(gamma: float) -> float:
    """Normalizing constant c_gamma = 1 / (2 sum_{z>=1} z^-(1+gamma)).

    With this constant, p(z) = c_gamma |z|^-(1+gamma) is a probability
    distribution on the nonzero integers.

    Raises
    ------
    ValueError
        If gamma is outside the open interval (1, 2).
    """
    if not (1.0 < gamma < 2.0):
        raise ValueError(f"gamma must lie in (1, 2), got {gamma!r}")
    return 1.0 / (2.0 * zeta(1.0 + gamma))


def kernel_row(params: ModelParams, truncation: int | None = None) -> np.ndarray:
    """Kernel values [p(0), p(1), ..., p(n-2)] with p(0) = 0.

    `truncation` zeroes displacements beyond the given radius (performance
    studies only; the default keeps every lattice displacement).
    """
    c = kernel_constant(params.gamma)
    row = np.zeros(params.n_sites)
    z = np.arange(1, params.n_sites, dtype=float)
    row[1:] = c / z ** (1.0 + params.gamma)
    if truncation is not None:
        if truncation < 1:
            raise ValueError("truncation radius must be >= 1")
        row[truncation + 1:] = 0.0
    return row


def truncation_error_bound(params: ModelParams, truncation: int) -> float:
    """Drift-scale bound n^gamma * sum_{|z| > R} p(z) on the rates dropped by
    truncating the kernel at radius R (tail sum with integral remainder)."""
    if truncation < 1:
        raise ValueError("truncation radius must be >= 1")
    c = kernel_constant(params.gamma)
    z = np.arange(truncation + 1, max(truncation + 2, 10 ** 5), dtype=float)
    tail = float(np.sum(z ** (-(1.0 + params.gamma))))
    tail += (z[-1] + 0.5) ** (-params.gamma) / params.gamma
    return params.speed * 2.0 * c * tail


@dataclass(frozen=True)
class DriftSystem:
    """Drift matrix, affine drift and kernel data of the lattice dynamics.

    Attributes
    ----------
    params : ModelParams
    m : ndarray, shape (n-1, n-1)
        Symmetric negative-definite drift matrix; drift(phi) = m @ phi + b.
    b : ndarray, shape (n-1,)
        Affine drift, b[0] = n^gamma phi_l, b[-1] = n^gamma phi_r.
    kernel_matrix : ndarray
        Toeplitz matrix P[x, y] = p(y - x).
    row_sums : ndarray
        s[x] = sum_{y in lattice} p(y - x).
    """

    params: ModelParams
    m: np.ndarray
    b: np.ndarray
    kernel_matrix: np.ndarray
    row_sums: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def drift(self, phi: np.ndarray) -> np.ndarray:
        """Drift vector M phi + b (phi may be a batch with sites last)."""
        return phi @ self.m.T + self.b

    def noise_factor(self) -> np.ndarray:
        """Cholesky factor L with L L^T = -2 m, cached."""
        if "chol" not in self._cache:
            self._cache["chol"] = np.linalg.cholesky(-2.0 * self.m)
        return self._cache["chol"]

    def solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (-m) x = rhs using a cached Cholesky factorization."""
        if "cho_neg_m" not in self._cache:
            self._cache["cho_neg_m"] = cho_factor(-self.m)
        return cho_solve(self._cache["cho_neg_m"], rhs)


def build_drift_system(params: ModelParams,
                       truncation: int | None = None) -> DriftSystem:
    """Assemble the DriftSystem for the given parameters.

    The constant profile phi = Phi is a fixed point whenever
    phi_l = phi_r = Phi, and m is symmetric negative definite.  A kernel
    truncation radius drops long jumps for performance studies; the rate
    mass discarded is bounded by `truncation_error_bound`.
    """
    row = kernel_row(params, truncation)
    P = toeplitz(row)
    s = P.sum(axis=1)
    k = params.n_sites
    speed = params.speed

    diag = -(s.copy())
    diag[0] -= 1.0
    diag[k - 1] -= 1.0
    m = speed * (P + np.diag(diag))

    b = np.zeros(k)
    b[0] = speed * params.phi_l
    b[k - 1] = speed * params.phi_r

    m.setflags(write=False)
    b.setflags(write=False)
    P.setflags(write=False)
    s.setflags(write=False)
    return DriftSystem(params=params, m=m, b=b, kernel_matrix=P, row_sums=s)


def _circulant_fft(params: ModelParams, row: np.ndarray) -> np.ndarray:
    """FFT of the circulant embedding of the symmetric Toeplitz kernel."""
    k = row.size
    circ = np.zeros(2 * k)
    circ[:k] = row
    circ[k + 1:] = row[1:][::-1]
    return np.fft.rfft(circ)


def discrete_fractional_laplacian(params: ModelParams, g,
                                  method: str = "fft") -> np.ndarray:
    """Discrete fractional Laplacian (L_n g)(x) = n^gamma sum_y p(y-x)(g_y - g_x).

    The sum runs over interior sites only; reservoir relaxation is not part
    of this operator.  `method` selects a dense O(n^2) evaluation or the
    fast Toeplitz convolution via circulant embedding; the two agree to
    better than 1e-10 relative.
    """
    g = as_grid_function(params, g)
    row = kernel_row(params)
    s = toeplitz(row).sum(axis=1) if method == "dense" else None
    if method == "dense":
        P = toeplitz(row)
        return params.speed * (P @ g - s * g)
    if method != "fft":
        raise ValueError(f"unknown method {method!r}")
    k = g.size
    fft = _circulant_fft(params, row)
    conv = np.fft.irfft(fft * np.fft.rfft(g, 2 * k), 2 * k)[:k]
    # row sums of the Toeplitz kernel, via the same convolution on ones
    ones = np.fft.irfft(fft * np.fft.rfft(np.ones(k), 2 * k), 2 * k)[:k]
    return params.speed * (conv - ones * g)


def discrete_inner_seminorm(params: ModelParams, f, g) -> float:
    """Lattice H^{gamma/2} semi-inner product

        <f, g>_{n,gamma/2} = (n^gamma / 2n) sum_{x,y} p(y-x)(f_y - f_x)(g_y - g_x),

    with both sums over the interior sites.  Symmetric, bilinear, positive
    semidefinite; vanishes when either argument is constant.
    """
    f = as_grid_function(params, f)
    g = as_grid_function(params, g)
    row = kernel_row(params)
    P = toeplitz(row)
    s = P.sum(axis=1)
    # sum_{x,y} p (f_y - f_x)(g_y - g_x) = 2 sum_x s_x f_x g_x - 2 f.P.g
    return float(params.speed / params.n * (np.sum(s * f * g) - f @ (P @ g)))


def dirichlet_energy(params: ModelParams, f) -> float:
    """Full quadratic energy <f, (-M) f> / n of the generator's drift matrix.

    Equals the lattice seminorm plus the reservoir vestige
    n^(gamma-1) (f(1)^2 + f(n-1)^2).  This is the discrete realization of
    the continuum squared seminorm used in path costs: for fields vanishing
    at sites 1 and n-1 it coincides with `discrete_inner_seminorm(f, f)`,
    and it makes the modal identities of the spectral calculus exact at
    finite n.
    """
    f = as_grid_function(params, f)
    semi = discrete_inner_seminorm(params, f, f)
    boundary = params.speed / params.n * (f[0] ** 2 + f[-1] ** 2)
    return float(semi + boundary)
