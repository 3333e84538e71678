"""Entry-by-entry assembly of the generator and the Gaussian Gram matrix on
the poly-2 basis {1} u {w(x)} u {w(x) w(y), x <= y}: the reference for
fracgl.diagnostics, which forms both from three matrix identities.  Each
entry is written from the Ornstein-Uhlenbeck generator of one monomial."""
import numpy as np

from fracgl import build_drift_system, reservoir_drift
from fracgl.diagnostics import PolyObservableBasis


def loop_gram(basis: PolyObservableBasis) -> np.ndarray:
    """Gram matrix of the basis under the product standard Gaussian."""
    size, k = basis.size, basis.k
    G = np.zeros((size, size))
    G[0, 0] = 1.0
    for i in range(k):
        G[basis.linear_index(i), basis.linear_index(i)] = 1.0
        ii = basis.pair_index(i, i)
        G[0, ii] = G[ii, 0] = 1.0   # E[w^2] = 1
        for j in range(i, k):
            idx = basis.pair_index(i, j)
            if i == j:
                G[idx, idx] = 3.0   # E[w^4]
                for p in range(k):
                    if p != i:
                        G[idx, basis.pair_index(p, p)] = 1.0
                        G[basis.pair_index(p, p), idx] = 1.0
            else:
                G[idx, idx] = 1.0
    return G


def loop_generator(profile) -> np.ndarray:
    """Matrix L of the generator: column j holds the coefficients of the
    image of basis element j."""
    params = profile.params
    basis = PolyObservableBasis(params)
    k = basis.k
    m = build_drift_system(params).m
    a = -2.0 * m
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
    return L


def pencil_defect(profile) -> float:
    """The antisymmetric defect as the largest generalized eigenvalue of
    ((A B)^T G (A B), B^T G B), A = (L - L*)/2 and the columns of B the basis
    vectors past the constant, each projected G-orthogonally off the constant
    by Gram-Schmidt; the eigensolver is scipy's."""
    from scipy.linalg import eigh
    basis = PolyObservableBasis(profile.params)
    L, G = loop_generator(profile), loop_gram(basis)
    A = 0.5 * (L - np.linalg.solve(G, L.T @ G))
    mean_vec = G[:, 0]
    B = np.eye(basis.size)[:, 1:].copy()
    for c in range(B.shape[1]):
        v = B[:, c]
        v -= mean_vec * (mean_vec @ v) / (mean_vec @ mean_vec)
    AB = A @ B
    vals = eigh(AB.T @ G @ AB, B.T @ G @ B, eigvals_only=True)
    return float(np.sqrt(max(vals.max(), 0.0)))
