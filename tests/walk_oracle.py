"""The confined long-jump walk run event by event, the Monte Carlo reference
for the stationary profile: Phi_ss(x) = phi_l P_x(absorbed at 0) + phi_r
P_x(absorbed at n)."""
import numpy as np
from scipy.linalg import toeplitz

from fracgl.kernel import kernel_row
from fracgl.params import ModelParams
from fracgl.rng import make_rng


def absorbed_walk_oracle(params: ModelParams, x: int, samples: int, seed: int):
    """Monte Carlo absorption-site probabilities of the confined long-jump walk.

    The walk moves on the interior sites with rates p(y-x); sites 1 and n-1
    additionally carry unit-rate absorption channels toward 0 and n.  Since
    only the absorption site matters, the embedded jump chain is simulated:
    at a boundary site the walk is absorbed with probability 1/(1+s_x) per
    event, otherwise it jumps inside the lattice with row-normalized kernel
    probabilities (inverse-CDF sampling).

    Returns
    -------
    (p_left, p_right, stderr) : floats
        Estimates of P_x(absorbed at 0), P_x(absorbed at n), and the
        binomial standard error.  p_left + p_right = 1 by construction.
    """
    if not (1 <= x <= params.n_sites):
        raise ValueError(f"site x must lie in [1, {params.n_sites}]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    P = toeplitz(kernel_row(params))
    s = P.sum(axis=1)
    k = params.n_sites
    cdf = np.cumsum(P / s[:, None], axis=1)
    p_absorb = np.zeros(k)
    p_absorb[0] = 1.0 / (1.0 + s[0])
    p_absorb[k - 1] = 1.0 / (1.0 + s[k - 1])

    rng = make_rng(seed, "absorbed-walk")
    pos = np.full(samples, x - 1, dtype=np.intp)
    left = np.zeros(samples, dtype=bool)
    active = np.arange(samples)
    for _ in range(10 ** 7):
        if not active.size:
            break
        p = pos[active]
        r = rng.random(active.size)
        hit = ((p == 0) | (p == k - 1)) & (r < p_absorb[p])
        if hit.any():
            done = active[hit]
            left[done] = pos[done] == 0
            active = active[~hit]
            if not active.size:
                break
            p = pos[active]
        jump = rng.random(active.size)
        pos[active] = (cdf[p] < jump[:, None]).sum(axis=1)
    else:
        raise RuntimeError("absorption did not complete within the step cap")

    p_left = float(left.mean())
    stderr = float(np.sqrt(max(p_left * (1.0 - p_left), 1e-300) / samples))
    return p_left, 1.0 - p_left, stderr
