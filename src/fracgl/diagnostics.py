"""Generator algebra on quadratic observables.

On the centered monomials {1} u {w(x)} u {w(x)w(y), x <= y}, with
w(x) = phi(x) - Phi_ss(x), the generator acts as the finite matrix of an
Ornstein-Uhlenbeck operator with drift matrix M and diffusion A = -2M;
degree-2 polynomials map to degree-2 polynomials, so the representation is
exact.  An observable is a triple (c, v, S), f = c + v.w + w^T S w with S
symmetric; a basis coefficient of the pair (x, y), x < y, carries
S_xy + S_yx.  With r = M Phi_ss + b the residual affine drift,

    L (c, v, S) = (v.r + tr(A S), M v + 2 S r, M S + S M),

and the Wick integrals of the product-Gaussian steady state give the Gram
form <f, f'> = (c + tr S)(c' + tr S') + v.v' + 2 tr(S S').  The matrices of
L and of the Gram form are these maps applied to the basis at once.  The
adjoint in that inner product is L* = G^-1 L^T G, and stationarity is the
computable statement L* 1 = 0.

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
    """Index bookkeeping for {1} u {w(x)} u {w(x) w(y), x <= y}; the pairs
    come in the row-major order of np.triu_indices(k)."""

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
        c, v, S = _unpack(self.k, np.eye(self.size))
        mean = c + np.trace(S, axis1=1, axis2=2)
        flat = S.reshape(len(S), -1)
        return np.multiply.outer(mean, mean) + v.T @ v + 2.0 * (flat @ flat.T)


def _unpack(k: int, coeffs: np.ndarray) -> tuple:
    """(c, v, S) of the observables in the columns of `coeffs`: c (cols,),
    v (k, cols), S (cols, k, k) symmetric."""
    pairs = np.zeros((coeffs.shape[1], k, k))
    pairs[(slice(None),) + np.triu_indices(k)] = coeffs[1 + k:].T
    return coeffs[0], coeffs[1:1 + k], 0.5 * (pairs + pairs.transpose(0, 2, 1))


def _pack(c: np.ndarray, v: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Basis coefficients, one column per observable, of `_unpack`'s triple."""
    i, j = np.triu_indices(S.shape[-1])
    pairs = (S + S.transpose(0, 2, 1))[:, i, j] * np.where(i == j, 0.5, 1.0)
    return np.vstack([c, v, pairs.T])


def generator_matrix_poly2(profile: StationaryProfile):
    """Exact matrix L of the generator on the degree-<=2 centered basis.

    Columns hold the coefficients of the image of each basis element, from
    the map (c, v, S) -> (v.r + tr(A S), M v + 2 S r, M S + S M); no
    sampling.  Restricted to n <= 16 (basis size grows like n^2 / 2).

    Returns (basis, L).
    """
    params = profile.params
    if params.n > _MAX_N:
        raise ValueError(f"poly-2 representation restricted to n <= {_MAX_N}")
    basis = PolyObservableBasis(params)
    m = build_drift_system(params).m
    # residual affine drift in centered coordinates; zero up to solve accuracy
    r = m @ profile.profile + reservoir_drift(params)
    _, v, S = _unpack(basis.k, np.eye(basis.size))
    trace_as = np.einsum("ij,bij->b", -2.0 * m, S)
    return basis, _pack(r @ v + trace_as, m @ v + 2.0 * (S @ r).T, m @ S + S @ m)


def adjoint_matrix_poly2(basis: PolyObservableBasis, L: np.ndarray) -> np.ndarray:
    """Adjoint of L in the Gaussian inner product: L* = G^-1 L^T G."""
    G = basis.gram()
    return np.linalg.solve(G, L.T @ G)


def adjoint_defect(profile: StationaryProfile) -> dict:
    """Antisymmetric defect of the generator on the poly-2 basis.

    Returns a dict with:
      - 'invariance_residual': max |(L* 1)_i|, the computable form of the
        stationarity of the product-Gaussian steady state;
      - 'defect_norm': operator norm of (L - L*)/2 in the Gaussian inner
        product, restricted to mean-zero observables (reported, and expected
        to vanish at equilibrium phi_l = phi_r).  With G = C C^T (Cholesky)
        and B = C^T L C^-T, (L - L*)/2 is (B - B^T)/2 in the Euclidean
        coordinates C^T f, and the mean-zero observables are the complement
        of q = C^T e_0; the norm is the 2-norm of (B - B^T)/2 times the
        projection off q.
    """
    basis, L = generator_matrix_poly2(profile)
    invariance = float(np.max(np.abs(adjoint_matrix_poly2(basis, L)[:, 0])))

    C = np.linalg.cholesky(basis.gram())
    B = C.T @ np.linalg.solve(C, L.T).T
    q = C[0] / np.linalg.norm(C[0])
    antisym = 0.5 * (B - B.T)
    defect = float(np.linalg.norm(antisym - np.outer(antisym @ q, q), 2))
    params = profile.params
    return {
        "n": params.n,
        "gamma": params.gamma,
        "phi_l": params.phi_l,
        "phi_r": params.phi_r,
        "invariance_residual": invariance,
        "defect_norm": defect,
    }
