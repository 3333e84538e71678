"""Entry-by-entry assembly of the generator and the Gaussian Gram matrix on
the poly-2 basis {1} u {w(x)} u {w(x) w(y), x <= y}: the reference for
fracgl.diagnostics, which forms both from three matrix identities.  Each
entry is written from the Ornstein-Uhlenbeck generator of one monomial."""
import numpy as np

from dense_oracle import dense_drift
from fracgl import reservoir_drift
from fracgl.diagnostics import PolyObservableBasis


def linear_index(i: int) -> int:
    """Position of w(x_i) in the basis: right after the constant."""
    return 1 + i


def pair_indices(k: int) -> dict:
    """Positions of w(x_i) w(x_j) in the basis, keyed by (i, j) and (j, i):
    after the constant and the k linear terms, in the row-major order of
    np.triu_indices(k)."""
    pairs = {}
    for p, (i, j) in enumerate(zip(*np.triu_indices(k))):
        pairs[int(i), int(j)] = pairs[int(j), int(i)] = 1 + k + p
    return pairs


def loop_gram(basis: PolyObservableBasis) -> np.ndarray:
    """Gram matrix of the basis under the product standard Gaussian."""
    size, k = basis.size, basis.k
    pair = pair_indices(k)
    G = np.zeros((size, size))
    G[0, 0] = 1.0
    for i in range(k):
        G[linear_index(i), linear_index(i)] = 1.0
        ii = pair[i, i]
        G[0, ii] = G[ii, 0] = 1.0   # E[w^2] = 1
        for j in range(i, k):
            idx = pair[i, j]
            if i == j:
                G[idx, idx] = 3.0   # E[w^4]
                for p in range(k):
                    if p != i:
                        G[idx, pair[p, p]] = 1.0
                        G[pair[p, p], idx] = 1.0
            else:
                G[idx, idx] = 1.0
    return G


def loop_generator(profile) -> np.ndarray:
    """Matrix L of the generator: column j holds the coefficients of the
    image of basis element j."""
    params = profile.params
    basis = PolyObservableBasis(params)
    k = basis.k
    pair = pair_indices(k)
    m = dense_drift(params)
    a = -2.0 * m
    r = m @ profile.profile + reservoir_drift(params)

    L = np.zeros((basis.size, basis.size))
    for i in range(k):
        col = linear_index(i)
        L[0, col] = r[i]
        for w in range(k):
            L[linear_index(w), col] += m[i, w]
    for i in range(k):
        for j in range(i, k):
            col = pair[i, j]
            if i == j:
                L[0, col] += a[i, i]
                L[linear_index(i), col] += 2.0 * r[i]
                for w in range(k):
                    L[pair[w, i], col] += 2.0 * m[i, w]
            else:
                L[0, col] += a[i, j]
                L[linear_index(j), col] += r[i]
                L[linear_index(i), col] += r[j]
                for w in range(k):
                    L[pair[w, j], col] += m[i, w]
                    L[pair[w, i], col] += m[j, w]
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
