"""Generator algebra on quadratic observables.

On the centered monomials {1} u {w(x)} u {w(x)w(y), x <= y}, with
w(x) = phi(x) - Phi_ss(x), the generator acts as the finite matrix of an
Ornstein-Uhlenbeck operator with drift matrix M and diffusion -2M; degree-2
polynomials map to degree-2 polynomials, so the representation is exact.
The adjoint with respect to the product-Gaussian steady state comes from
the basis Gram matrix (Wick integrals, all analytic at degree <= 2), and
stationarity is the computable statement L* 1 = 0.

Substituting the discrete harmonicity of the stationary profile into the
first-order part of L* - L cancels it identically, so the computed
antisymmetric defect comes out at machine scale; the module reports the
value rather than asserting either sign of the reversibility question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import build_drift_system
from .ness import StationaryProfile, reservoir_drift
from .params import ModelParams

__all__ = [
    "PolyObservableBasis",
    "generator_matrix_poly2",
    "adjoint_matrix_poly2",
    "adjoint_defect",
]

_MAX_N = 16


@dataclass(frozen=True)
class PolyObservableBasis:
    """Index bookkeeping for {1} u {w(x)} u {w(x) w(y), x <= y}."""

    params: ModelParams

    @property
    def k(self) -> int:
        return self.params.n_sites

    @property
    def size(self) -> int:
        k = self.k
        return 1 + k + k * (k + 1) // 2

    def linear_index(self, i: int) -> int:
        return 1 + i

    def pair_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        k = self.k
        # pairs ordered (0,0)..(0,k-1),(1,1)..(1,k-1),...
        return 1 + k + i * k - i * (i - 1) // 2 + (j - i)

    def gram(self) -> np.ndarray:
        """Gram matrix of the basis under the product standard Gaussian."""
        size, k = self.size, self.k
        G = np.zeros((size, size))
        G[0, 0] = 1.0
        for i in range(k):
            G[self.linear_index(i), self.linear_index(i)] = 1.0
            ii = self.pair_index(i, i)
            G[0, ii] = G[ii, 0] = 1.0   # E[w^2] = 1
            for j in range(i, k):
                idx = self.pair_index(i, j)
                if i == j:
                    G[idx, idx] = 3.0   # E[w^4]
                    for p in range(k):
                        if p != i:
                            G[idx, self.pair_index(p, p)] = 1.0
                            G[self.pair_index(p, p), idx] = 1.0
                else:
                    G[idx, idx] = 1.0
        return G


def generator_matrix_poly2(profile: StationaryProfile):
    """Exact matrix L of the generator on the degree-<=2 centered basis.

    Columns hold the coefficients of the image of each basis element; the
    assembly is symbolic in the drift/diffusion coefficients, no sampling.
    Restricted to n <= 16 (basis size grows like n^2 / 2).

    Returns (basis, L).
    """
    params = profile.params
    if params.n > _MAX_N:
        raise ValueError(f"poly-2 representation restricted to n <= {_MAX_N}")
    basis = PolyObservableBasis(params)
    k = basis.k
    m = build_drift_system(params).m
    a = -2.0 * m
    # residual affine drift in centered coordinates; zero up to solve accuracy
    r = m @ profile.profile + reservoir_drift(params)

    L = np.zeros((basis.size, basis.size))
    for i in range(k):
        col = basis.linear_index(i)
        L[0, col] = r[i]
        for w in range(k):
            L[basis.linear_index(w), col] += m[i, w]
    for i in range(k):
        for j in range(i, k):
            col = basis.pair_index(i, j)
            if i == j:
                L[0, col] += a[i, i]
                L[basis.linear_index(i), col] += 2.0 * r[i]
                for w in range(k):
                    L[basis.pair_index(w, i), col] += 2.0 * m[i, w]
            else:
                L[0, col] += a[i, j]
                L[basis.linear_index(j), col] += r[i]
                L[basis.linear_index(i), col] += r[j]
                for w in range(k):
                    L[basis.pair_index(w, j), col] += m[i, w]
                    L[basis.pair_index(w, i), col] += m[j, w]
    return basis, L


def adjoint_matrix_poly2(basis: PolyObservableBasis, L: np.ndarray) -> np.ndarray:
    """Adjoint of L in the Gaussian inner product: L* = G^-1 L^T G."""
    G = basis.gram()
    return np.linalg.solve(G, L.T @ G)


def _generalized_eigvalsh(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Eigenvalues of lhs v = lam rhs v for symmetric lhs and positive-definite
    rhs, as those of C^-1 lhs C^-T with rhs = C C^T (Cholesky)."""
    c = np.linalg.cholesky(rhs)
    return np.linalg.eigvalsh(np.linalg.solve(c, np.linalg.solve(c, lhs).T))


def adjoint_defect(profile: StationaryProfile) -> dict:
    """Antisymmetric defect of the generator on the poly-2 basis.

    Returns a dict with:
      - 'invariance_residual': max |(L* 1)_i|, the computable form of the
        stationarity of the product-Gaussian steady state;
      - 'defect_norm': operator norm of (L - L*)/2 in the Gaussian inner
        product, restricted to mean-zero observables (reported, and expected
        to vanish at equilibrium phi_l = phi_r).
    """
    basis, L = generator_matrix_poly2(profile)
    Ls = adjoint_matrix_poly2(basis, L)
    G = basis.gram()

    e0 = np.zeros(basis.size)
    e0[0] = 1.0
    invariance = float(np.max(np.abs(Ls @ e0)))

    A = 0.5 * (L - Ls)
    # mean-zero subspace: {v : (G e0) . v = 0}
    mean_vec = G @ e0
    basis_v = np.eye(basis.size)[:, 1:].copy()
    # project each column onto the subspace (Gram-Schmidt against mean_vec)
    for c in range(basis_v.shape[1]):
        v = basis_v[:, c]
        v -= mean_vec * (mean_vec @ v) / (mean_vec @ mean_vec)
        basis_v[:, c] = v
    AB = A @ basis_v
    lhs = AB.T @ G @ AB
    rhs = basis_v.T @ G @ basis_v
    vals = _generalized_eigvalsh(lhs, rhs)
    defect = float(np.sqrt(max(vals.max(), 0.0)))
    params = profile.params
    return {
        "n": params.n,
        "gamma": params.gamma,
        "phi_l": params.phi_l,
        "phi_r": params.phi_r,
        "invariance_residual": invariance,
        "defect_norm": defect,
    }

