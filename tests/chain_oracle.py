"""The Euler chain run step by step, the reference for fracgl's one-shot draw
of it at T: K = ceil(T / dt) steps of h = T / K of the modal recurrence

    c <- r c + (1 - r) c_ss + s z  (+ h u_j on tilted runs),

r = 1 - h lambda, s = sqrt(2 h lambda / n), with the Girsanov increments
noise . n theta_j -/+ (h / 2) n theta_j . u_j and the Dynkin noise pairings
summed along the way."""
import numpy as np

from fracgl import dirichlet_spectrum


def euler_loop(profile, phi0, T, dt, rng, field=None, tilted=True, g_vec=None):
    """Returns a dict of 'phi', 'log_weight' with a field and 'martingale'
    with g_vec (G / (n-1)), like `euler_ensemble`; rng hands out one
    (replicas, modes) block of normals per step."""
    params = profile.params
    n, spec = params.n, dirichlet_spectrum(params)
    lam = spec.eigenvalues
    k_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    h = T / k_steps
    r, s = 1.0 - h * lam, np.sqrt(2.0 * h * lam / n)
    dev = spec.project(phi0 - profile.profile)
    logw, mart = np.zeros(dev.shape[:-1]), np.zeros(dev.shape[:-1])
    for j in range(k_steps):
        noise = s * rng.standard_normal(dev.shape)
        dev = r * dev + noise
        if field is not None:
            u_hat = spec.project(-field.a(j * h) * field.lattice_shape(params)[1])
            if tilted:
                dev += h * u_hat
            theta = 0.5 * n * u_hat / lam
            quad = 0.5 * h * float(theta @ u_hat)
            logw += noise @ theta + (quad if tilted else -quad)
        if g_vec is not None:
            mart += noise @ (n * spec.project(g_vec))
    out = {"phi": profile.profile + spec.synthesize(dev)}
    if g_vec is not None:
        out["martingale"] = mart
    if field is not None:
        out["log_weight"] = logw
    return out


class _UnitNormals:
    """Hands out, step after step, the next columns of [0; I]: row 0 of the
    batch runs without noise and row 1 + i on the i-th normal alone."""

    def __init__(self, total):
        self.basis = np.vstack([np.zeros(total), np.eye(total)])
        self.used = 0

    def standard_normal(self, shape):
        block = self.basis[:, self.used:self.used + shape[-1]]
        self.used += shape[-1]
        return block


def loop_law(profile, phi0, T, dt, field=None, tilted=True, g_vec=None):
    """Exact mean and covariance of the loop's outputs from one configuration
    phi0: the modal coefficients of phi_T - Phi_ss, then the martingale and
    the log-weight when asked for.  The loop is affine in its normals, so its
    noiseless run is the mean, and its runs on each normal alone, less the
    mean, are the rows of a factor of the covariance."""
    modes = profile.params.n_sites
    total = max(1, int(np.ceil(T / dt - 1e-12))) * modes
    start = np.broadcast_to(phi0, (total + 1, modes))
    out = euler_loop(profile, start, T, dt, _UnitNormals(total), field, tilted, g_vec)
    spec = dirichlet_spectrum(profile.params)
    x = np.column_stack([spec.project(out["phi"] - profile.profile)]
                        + [out[key] for key in ("martingale", "log_weight") if key in out])
    jac = x[1:] - x[0]
    return x[0], jac.T @ jac
