"""Edge-by-edge noise, the reference for fracgl's modal noise route: one driver
of rate 2 n^gamma p(y-x) per bulk pair x < y, with opposite signs on the two
sites, and one of rate 2 n^gamma at each of sites 1 and n-1."""
import numpy as np

from dense_oracle import dense_drift
from fracgl import kernel_row, reservoir_drift


def edge_vectors(params):
    """Rows sqrt(rate_e) v_e, boundary drivers last: V.T @ V = sum rate v v^T."""
    row, k, root = kernel_row(params), params.n_sites, np.sqrt(2.0 * params.speed)
    eye = np.eye(k)
    bulk = [root * np.sqrt(row[y - x]) * (eye[y] - eye[x])
            for x in range(k) for y in range(x + 1, k)]
    return np.array(bulk + [root * eye[0], root * eye[-1]])


def edge_euler(params, phi, T, dt, rng, field):
    """Untilted edge-noise Euler chain with per-edge log-weights
    sqrt(dt) lam.xi - dt |lam|^2 / 2, lam_e = sigma_e (H_y - H_x) / 2 on the
    bulk edges.  Returns (phi, log_weight, Q = sum_k dt |lam|^2)."""
    v, m, b = edge_vectors(params), dense_drift(params), reservoir_drift(params)
    logw, q = np.zeros(len(phi)), 0.0
    for k in range(int(round(T / dt))):
        lam = 0.5 * v[:-2] @ (field.a(k * dt) * field.lattice_shape(params)[0])
        xi = rng.standard_normal((len(phi), len(v)))
        logw += np.sqrt(dt) * xi[:, :-2] @ lam - 0.5 * dt * lam @ lam
        q += dt * lam @ lam
        phi = phi + dt * (phi @ m.T + b) + np.sqrt(dt) * xi @ v
    return phi, logw, q
