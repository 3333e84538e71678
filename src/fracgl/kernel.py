"""Long-range jump kernel and the affine drift/diffusion structure.

The jump kernel on the integers is p(z) = c_gamma / |z|^(1+gamma) for z != 0,
with c_gamma chosen so that p sums to one over the nonzero integers.  On the
interior lattice {1, ..., n-1} the dynamics is the linear diffusion

    d phi = (M phi + b) dt + noise,

where M = n^gamma (P - D - B) collects the bulk exchange rates P[x, y] =
p(y - x), the diagonal D of kernel row sums, and the reservoir relaxation B
at sites 1 and n-1; b carries the reservoir densities.  The noise is
Gaussian in site space with covariance -2 M per unit time.  This is the same
law as one independent driver of rate 2 n^gamma p(y - x) per unordered bulk
pair {x, y}, acting with opposite signs at the two sites, plus drivers of
rate 2 n^gamma at sites 1 and n-1: those rates assemble to exactly -2 M.
The chains of `simulate` draw it mode by mode in the eigenbasis of M.

All of these objects but b come from one DriftSystem per (n, gamma), built
once and kept in a bounded cache: the diagonal of M and one kernel array
ext[N-1-k] = ext[N-1+k] = n^gamma p(k) (N = n-1), of which M off its
diagonal is a read-only Toeplitz window, and, when first read, the spectrum
of -M.  `DriftSystem.apply` is the one product M phi, for one grid function
or a batch with sites last, dotted with that window: no (n-1)^2 copy of M
is made.  M commutes with the flip x -> n - x, which only b breaks, so -M
splits into an even and an odd sector, each summed from two windows of ext
(a Toeplitz and a Hankel block) into one half-size matrix in orthonormal
sector coordinates (`_fold`, and `_unfold` back to the grid).  Data of one parity
need that sector's matrix alone, and no modes: the profile's unit solve is
odd, and `DriftSystem.sector_solve` makes it by one Cholesky factor of the
odd sector, made in place by 64-column blocks and applied by block
substitution; a relaxation pairing <g, phi(-t M) f> of one parity, as in
every pairing of `hydro-limit`, is `DriftSystem.sector_pairing`'s
shift-and-invert Lanczos on I + sigma A, factored the same way.  Neither
forms an explicit inverse.  The one `eigh` of a sector is the spectrum's: one
half-size `eigh` per sector, when the sorted full spectrum is first read;
every mode is exactly even or odd.  Every model of that (n, gamma) shares
the system and its read-only arrays, whatever the reservoir densities; b is
`ness.reservoir_drift`.  The Laplacian, the seminorm and the energy below
are the only evaluations of L_n and of the quadratic forms; each multiplies
by M through `apply` and accepts one grid function or a (times, sites)
batch with sites last.  Only numpy is needed: zeta comes from `_zeta`,
the spectrum from `numpy.linalg.eigh`, the factors' diagonal blocks from
`numpy.linalg.cholesky` and `numpy.linalg.inv`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import eigh

from .params import ModelParams, as_grid_batch

__all__ = [
    "kernel_constant",
    "kernel_row",
    "DriftSystem",
    "build_drift_system",
    "discrete_fractional_laplacian",
    "discrete_inner_seminorm",
    "dirichlet_energy",
]


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2, ..., B_12


@lru_cache(maxsize=64)
def _zeta(s: float) -> float:
    """Riemann zeta(s), s > 1, by Euler-Maclaurin (DLMF 25.2.9): 12 terms, the tail
    and 6 Bernoulli terms; the first omitted one is below 1e-16 relative for s in (2, 3)."""
    N = 12
    total = sum(k ** -s for k in range(1, N)) + N ** (1 - s) / (s - 1) + N ** -s / 2
    term = s * N ** (-s - 1) / 2  # s (s+1) ... (s+2j-2) N^(1-s-2j) / (2j)!, j = 1
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * N * N)
    return total


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
    return 1.0 / (2.0 * _zeta(1.0 + gamma))


def kernel_row(params: ModelParams) -> np.ndarray:
    """Kernel values [p(0), p(1), ..., p(n-2)] with p(0) = 0."""
    c = kernel_constant(params.gamma)
    row = np.zeros(params.n_sites)
    z = np.arange(1, params.n_sites, dtype=float)
    row[1:] = c / z ** (1.0 + params.gamma)
    return row


def _fold(g: np.ndarray, parity: float) -> np.ndarray:
    """Coordinates of g (sites last) in the orthonormal basis of `parity`'s
    sector: (g(x) + parity g(n-x)) / sqrt 2 for x < n/2, then g(n/2) if the
    sector is even and n even."""
    pairs = g.shape[-1] // 2
    folded = g[..., :g.shape[-1] - pairs if parity > 0 else pairs].copy()
    folded[..., :pairs] += parity * g[..., ::-1][..., :pairs]
    folded[..., :pairs] /= np.sqrt(2.0)
    return folded


def _unfold(folded: np.ndarray, parity: float, out: np.ndarray, cols=...) -> None:
    """Write a sector's folded values as grid values into `out`, sites first,
    at its columns `cols`: each to its site x < n/2 (and n/2) and mirrored to
    n - x with the sector's parity.  The rest of `out`, an odd sector's site
    n/2, is left as it is."""
    pairs = out.shape[0] // 2
    out[:folded.shape[0], cols] = folded
    out[::-1][:pairs, cols] = parity * folded[:pairs]


_PANEL = 64  # columns per block of the shifted sector's Cholesky factor


def _block_cholesky(a: np.ndarray) -> list:
    """Factor the symmetric positive-definite `a` = L L^T in place, _PANEL
    columns at a time, left to right: one product updates a block's columns
    from the factored ones on their left (the lower part only), its diagonal
    block is factored and inverted, and one product with that inverse makes
    the panel below it L's.  `a` ends with L below its diagonal blocks and
    the inverse of L's diagonal block in each; returns the blocks' slices."""
    size = a.shape[0]
    blocks = [slice(j, min(j + _PANEL, size)) for j in range(0, size, _PANEL)]
    work = np.empty(size * _PANEL)  # both products' output, reused
    for b in blocks:
        col = a[b.start:, b]
        col -= np.matmul(a[b.start:, :b.start], a[b, :b.start].T,
                         out=work[:col.size].reshape(col.shape))
        a[b, b] = np.linalg.inv(np.linalg.cholesky(a[b, b]))
        panel = a[b.stop:, b]
        panel[...] = np.matmul(panel, a[b, b].T, out=work[:panel.size].reshape(panel.shape))
    return blocks


def _block_solve(a: np.ndarray, blocks: list, v: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 v from `_block_cholesky`'s `a`: forward, then back substitution
    block by block, each block through its diagonal inverse."""
    y = v.copy()
    for b in blocks:
        y[b] = a[b, b] @ (y[b] - a[b, :b.start] @ y[:b.start])
    for b in reversed(blocks):
        y[b] = a[b, b].T @ (y[b] - a[b.stop:, b].T @ y[b.stop:])
    return y


class DriftSystem:
    """The lattice operator of one (n, gamma), shared by every model of that
    (n, gamma) whatever its reservoir densities.

    Attributes
    ----------
    n : int
    diagonal : ndarray, shape (n-1,)
        M[x, x] = -n^gamma (s[x] + 1 at sites 1 and n-1), with the row sums
        s[x] = sum_{y in lattice} p(y - x).

    M, the symmetric negative-definite drift matrix n^gamma (P - D - B), is
    never stored: its off-diagonal part is the read-only Toeplitz window
    M[i, j] = ext[N-1-i+j] of the kernel array, which `apply` multiplies
    by, and the drift is apply(phi) + b with b from `ness.reservoir_drift`.
    The arrays are read-only, and M is exactly symmetric under J: x -> n - x.
    The full spectrum of -M is assembled on first use from the two sectors
    of grid functions even and odd under J, by one half-size `eigh` each:
    `eigenvalues` are the ascending rates of -M (the n^gamma factor
    retained), and the columns of `modes` its eigenvectors, each exactly
    even or odd under J and positive at site 1 (like sqrt 2 sin(k pi u)),
    orthonormal under the (1/n)-weighted inner product so that they
    discretize L^2([0,1]) functions.
    """

    def __init__(self, n: int, gamma: float):
        params = ModelParams(n, gamma)
        self.n = n
        row = kernel_row(params)
        cum = np.cumsum(row)  # row x sums p(0..x) and p(0..n-2-x), as row n-2-x does
        relax = cum + cum[::-1]
        relax[[0, -1]] += 1.0
        self.diagonal = -(params.speed * relax)
        # ext[N-1-k] = ext[N-1+k] = n^gamma p(k): its windows are M and both sectors
        scaled = row * params.speed
        self._ext = np.concatenate([scaled[::-1], scaled[1:]])
        for arr in (self.diagonal, self._ext):
            arr.setflags(write=False)
        # the read-only view window[i, j] = ext[N-1-i+j]: M, 0 on its diagonal
        self._window = np.lib.stride_tricks.sliding_window_view(self._ext, n - 1)[::-1]

    def _sector_matrix(self, parity: float) -> np.ndarray:
        """-M on the sector of `parity` in the orthonormal basis
        (e_x + parity e_{n-x}) / sqrt 2, x < n/2, plus e_{n/2} if even and n
        even: the top-left block T[i, j] = M[i, j], a Toeplitz matrix of the
        row, and the flipped block H[i, j] = M[i, n-2-j], a Hankel one, as
        -T - H (the centre's row and column over sqrt 2) or H - T, both read
        as strided views of one array and summed into the one output."""
        N = self.n - 1
        size = N // 2 if parity < 0 else N - N // 2
        # T[i, j] = ext[N-1-i+j], H[i, j] = ext[i+j]: windows of the kernel array
        ext, window = self._ext, np.lib.stride_tricks.sliding_window_view
        top = window(ext[N - size:N + size - 1], size)[::-1]
        flip = window(ext[:2 * size - 1], size)
        # the diagonals: M's own, and H's but at the centre of an odd N, M's
        diag, hank = self.diagonal[:size], flip.diagonal().copy()
        centre = 2 * size - 1 == N
        if centre:
            hank[-1] = diag[-1]
        if parity < 0:
            out = np.subtract(flip, top)
            out[np.diag_indices(size)] = hank - diag
            return out
        out = np.add(top, flip)
        out[np.diag_indices(size)] = diag + hank
        np.negative(out, out=out)
        if centre:
            out[-1] /= np.sqrt(2.0)
            out[:, -1] /= np.sqrt(2.0)
        return out

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """M phi for one grid function or a batch with sites last, as phi's
        rows dotted with the rows of the kernel array's Toeplitz window (its
        diagonal n^gamma p(0) is 0), plus `diagonal` times phi: no copy of M.
        On np.eye(n-1) it is M, bit for bit."""
        return np.vecdot(self._window, phi[..., None, :]) + self.diagonal * phi

    def sector_solve(self, parity: float, g) -> np.ndarray:
        """(-M)^-1 g on the grid for the part of g of `parity` under the flip:
        one solve with the sector's matrix in the orthonormal sector
        coordinates, factored in place by `_block_cholesky`; no `eigh` and no
        (n-1)^2 array."""
        a = self._sector_matrix(parity)
        y = _block_solve(a, _block_cholesky(a), _fold(np.asarray(g, dtype=float), parity))
        y[:(self.n - 1) // 2] /= np.sqrt(2.0)  # the pairs' grid values
        out = np.zeros(self.n - 1)
        _unfold(y, parity, out)
        return out

    def sector_pairing(self, parity: float, f, g, t: float, phi) -> float:
        """<g, phi(-t M) f>_(1/n) for the parts of f and g of `parity` under
        the flip, with t > 0 and phi a function applied elementwise to an
        array of rates times t (np.exp of minus them for the flow over t).

        No `eigh` of the sector's matrix A: shift-and-invert Lanczos on
        (I + sigma A)^-1 with sigma = t / 10, applied by forward and back
        substitution with its Cholesky factor, made in place by 64-column
        blocks (`_block_cholesky`), and fully reorthogonalized, from the
        folded f.
        With T_k its tridiagonal matrix on the orthonormal basis V, the value
        is |f| <V^T g, phi(t A_k) e_1>, A_k = (T_k^-1 - I) / sigma, whose error
        does not grow with the sector's size or |A| (van den Eshof and
        Hochbruck, SIAM J. Sci. Comput. 27, 2006).  The Ritz values of A_k
        resolve a rate x only to about eps / sigma, so a phi(s) ~ s, such as
        -expm1(-s), is accurate to about 10 eps / (t x) relative.  The
        iteration stops when two successive values agree to 1e-15 relative
        to the sum of their terms' magnitudes, on breakdown (the space is
        invariant, so the value is exact) or at the sector's size.
        """
        shifted = self._sector_matrix(parity)  # A, shifted and factored in place below
        size = shifted.shape[0]
        start, target = _fold(np.stack([f, g]).astype(float), parity)
        norm = float(np.linalg.norm(start))
        if norm == 0.0:
            return 0.0
        # (I + sigma A) / max(1, sigma): the same Krylov space, with entries that
        # do not overflow at a large t; its inverse has the eigenvalues
        # mu = scale / (1 + sigma x)
        sigma = t / 10.0
        scale = max(1.0, sigma)
        shifted *= sigma / scale
        shifted[np.diag_indices(size)] += 1.0 / scale
        blocks = _block_cholesky(shifted)
        basis = np.empty((size, size))  # row k holds v_k
        tri = np.zeros((size, size))
        along = np.empty(size)  # V^T g
        v, value = start / norm, None
        for k in range(size):
            basis[k] = v
            along[k] = target @ v
            w = _block_solve(shifted, blocks, v)
            coef = basis[:k + 1] @ w
            # the Rayleigh quotient is exactly 1 when w == v, at a t too small to move it
            tri[k, k] = coef[k] / (v @ v)
            mu, vecs = eigh(tri[:k + 1, :k + 1])
            # t x = 10 (scale / mu - 1): no division by a sigma that may underflow
            terms = phi(10.0 * (scale / mu - 1.0)) * (along[:k + 1] @ vecs) * vecs[0]
            last, value = value, norm * float(np.sum(terms))
            if last is not None and abs(value - last) <= 1e-15 * norm * np.sum(np.abs(terms)):
                break
            r = w - basis[:k + 1].T @ coef
            r -= basis[:k + 1].T @ (basis[:k + 1] @ r)
            beta = float(np.linalg.norm(r))
            if k + 1 == size or beta <= np.finfo(float).eps * np.linalg.norm(w):
                break
            tri[k, k + 1] = tri[k + 1, k] = beta
            v = r / beta
        return value / self.n

    @cached_property
    def _spectrum(self):
        N = self.n - 1
        lam, vec = [], []
        for parity in (1.0, -1.0):
            w, v = eigh(self._sector_matrix(parity))
            if w[0] <= 0:
                raise RuntimeError("drift matrix is not negative definite")
            # the basis (e_x + parity e_{n-x}) / sqrt 2, and e_{n/2}, made grid values
            v *= np.copysign(np.sqrt(self.n / 2.0), v[0])
            v[N // 2:] *= np.sqrt(2.0)
            lam.append(w)
            vec.append(v)
        order = np.argsort(np.concatenate(lam), kind="stable")
        place = np.argsort(order)  # the sorted column of each sector's mode
        modes = np.zeros((N, N))
        # each sector's modes, as grid values, go into their sorted columns
        split = lam[0].size
        _unfold(vec[0], 1.0, modes, place[:split])
        _unfold(vec[1], -1.0, modes, place[split:])
        lam = np.concatenate(lam)[order]
        lam.setflags(write=False)
        modes.setflags(write=False)
        return lam, modes

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def modes(self) -> np.ndarray:
        return self._spectrum[1]

    def project(self, g: np.ndarray, out=None) -> np.ndarray:
        """Coefficients <g, e_k>_(1/n) (sites last), into `out` if given."""
        out = np.matmul(np.asarray(g, dtype=float), self.modes, out=out)
        out /= self.n
        return out

    def synthesize(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """Grid function(s) sum_k coeffs_k e_k (modes last), into `out` if given."""
        return np.matmul(np.asarray(coeffs, dtype=float), self.modes.T, out=out)


@lru_cache(maxsize=8)
def _drift_system(n: int, gamma: float) -> DriftSystem:
    return DriftSystem(n, gamma)


def build_drift_system(params: ModelParams) -> DriftSystem:
    """The shared DriftSystem of (params.n, params.gamma), built on first use
    and kept in a bounded cache; the reservoir densities play no part."""
    return _drift_system(params.n, params.gamma)


def _per_row(values: np.ndarray):
    """A float for one grid function, the array for a batch."""
    return float(values) if values.ndim == 0 else values


def discrete_fractional_laplacian(params: ModelParams, g) -> np.ndarray:
    """Discrete fractional Laplacian (L_n g)(x) = n^gamma sum_y p(y-x)(g_y - g_x).

    The sum runs over interior sites only; reservoir relaxation is not part
    of this operator, so it is M g (`DriftSystem.apply`) with the relaxation
    n^gamma g added back at sites 1 and n-1.  `g` may be a (times, sites)
    batch; the result has its shape.
    """
    g = as_grid_batch(params, g)
    lap = build_drift_system(params).apply(g)
    lap[..., [0, -1]] += params.speed * g[..., [0, -1]]
    return lap


def discrete_inner_seminorm(params: ModelParams, f, g):
    """Lattice H^{gamma/2} semi-inner product

        <f, g>_{n,gamma/2} = (n^gamma / 2n) sum_{x,y} p(y-x)(f_y - f_x)(g_y - g_x)
                           = -(1/n) sum_x f_x (L_n g)_x,

    with both sums over the interior sites.  Symmetric, bilinear, positive
    semidefinite; vanishes when either argument is constant.  A float for
    two grid functions; for (times, sites) batches the array of per-time
    values.
    """
    f = as_grid_batch(params, f)
    lap = discrete_fractional_laplacian(params, g)
    return _per_row(-np.vecdot(f, lap) / params.n)


def dirichlet_energy(params: ModelParams, f):
    """Full quadratic energy <f, (-M) f> / n of the generator's drift matrix.

    Equals the lattice seminorm plus the reservoir vestige
    n^(gamma-1) (f(1)^2 + f(n-1)^2).  This is the discrete realization of
    the continuum squared seminorm used in path costs: for fields vanishing
    at sites 1 and n-1 it coincides with `discrete_inner_seminorm(f, f)`,
    and it makes the modal identities of the spectral calculus exact at
    finite n.  Per time for a (times, sites) batch, with M f from
    `DriftSystem.apply`.
    """
    f = as_grid_batch(params, f)
    return _per_row(-np.vecdot(f, build_drift_system(params).apply(f)) / params.n)
