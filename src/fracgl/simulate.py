"""Stochastic simulation of the (optionally tilted) lattice dynamics.

The state evolves by

    d phi = (M phi + b + u_t) dt + dW_t,    Cov(dW_t) = -2 M dt,

where the tilt drift u_t(x) = -(L_n H_t)(x/n) comes from an external field H
compactly supported in (0, 1).  Every chain runs in the (1/n)-orthonormal
modes e_k of -M (rates lambda_k), where both Gaussian transitions are the
one recurrence of c_k = <phi, e_k>_(1/n), with c^ss those of Phi_ss:

    c_k <- r_k c_k + (1 - r_k) c_k^ss + s_k z_k,    z_k standard normal.

An Euler step dt has r_k = 1 - dt lambda_k and s_k = sqrt(2 lambda_k dt / n),
so its noise eta has covariance -2 M dt; a tilt adds dt <u_t, e_k>_(1/n).  The
exact transition over t has r_k = e^{-lambda_k t}, s_k = sqrt((1 - r_k^2) / n):
phi_t ~ Normal(Phi_ss + e^{Mt}(phi_0 - Phi_ss), I - e^{2Mt}).  Sites are
synthesized only at the end.  Each chain has one public entry point:
`euler_ensemble` runs the Euler chain on a batch of replicas, with the
Girsanov weight and the Dynkin martingale of <pi_t, G> accumulated on
request, and `propagate_exact` makes one exact transition of a
configuration or a batch.

Girsanov weights use the noise of the step.  The Euler transition is
Gaussian with covariance -2 M dt, so its exact log-density ratio per step is,
with theta_t = (-M)^{-1} u_t / 2 (in modes <u_t, e_k>_(1/n) / (2 lambda_k)),

    d log M = eta . theta_t  -/+  (dt / 2) theta_t . u_t,

with the minus sign on untilted runs and the plus sign on tilted ones; a dot
product of grid functions is n times that of their coefficients.  This holds
for any field, so E[M_T] = 1 holds exactly for the discrete chain and
weighted untilted averages reproduce tilted averages without discretization
bias.  When H vanishes at sites 1 and n-1, theta_t = H_t / 2 and
theta_t . u_t = (n/2) ||H_t||^2_{n,gamma/2}.

A field is evaluated on the lattice when asked, with no per-time cache; an
array of times gives (times, sites) arrays from one call of the field on a
column of times and one batched Laplacian.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .kernel import DriftSystem, dirichlet_energy, discrete_fractional_laplacian
from .ness import StationaryProfile
from .operators import SpectralData, TestFunction, dirichlet_spectrum
from .params import ModelParams, as_grid_function
from .rng import make_rng

__all__ = [
    "ExternalField",
    "euler_stability_limit",
    "euler_ensemble",
    "propagate_exact",
    "girsanov_log_weight_variance",
    "empirical_pairing",
    "boundary_block_average",
    "martingale_qv_rate",
]

_BLOCK = 20000  # replica rows per block of `euler_ensemble`, each with its stream


class ExternalField:
    """Space-time tilt field H(t, u), compactly supported in (0, 1).

    Parameters
    ----------
    h : callable (t, u_array) -> array
        Field values; must vanish at u = 0 and u = 1 for all t.
    dh_dt : callable or None
        Time derivative, needed by the weak-form functionals.

    The lattice methods take one time or an array of times.  For one time
    `h` and `dh_dt` are called with the time and the 1-d grid; for an array
    of times they are called once, with the times as a (times, 1) column,
    and their result must broadcast to (times, sites).  Both are probed so
    at construction.
    """

    def __init__(self, h: Callable, dh_dt: Optional[Callable] = None):
        self.h = h
        self.dh_dt = dh_dt
        u_probe = np.array([0.0, 0.5, 1.0])
        for fn in (h, dh_dt):
            if fn is not None:
                try:
                    probe = _on_grid(fn, np.array([0.0, 0.37, 1.0]), u_probe)
                except (TypeError, ValueError) as exc:
                    raise ValueError("field callables must broadcast (times, 1) times "
                                     f"and (points,) u to (times, points): {exc}") from None
                if fn is h and np.any(np.abs(probe[:, [0, -1]]) > 1e-12):
                    raise ValueError("field must vanish at u = 0 and u = 1")

    @classmethod
    def separable(cls, time_fn: Callable, time_fn_prime: Optional[Callable],
                  bump: TestFunction) -> "ExternalField":
        """Field a(t) * B(u) from a time amplitude and a spatial TestFunction."""
        def h(t, u):
            return time_fn(t) * bump.f(u)

        dh_dt = None
        if time_fn_prime is not None:
            def dh_dt(t, u):
                return time_fn_prime(t) * bump.f(u)

        return cls(h=h, dh_dt=dh_dt)

    def lattice(self, params: ModelParams, t):
        """(H_t, L_n H_t) on the interior sites; (times, sites) arrays when t
        is an array of times."""
        hv = _on_grid(self.h, t, params.grid())
        return hv, discrete_fractional_laplacian(params, hv)

    def tilt_drift(self, params: ModelParams, t) -> np.ndarray:
        """u_t = -(L_n H_t) on the lattice."""
        return -self.lattice(params, t)[1]

    def dt_lattice(self, params: ModelParams, t) -> np.ndarray:
        if self.dh_dt is None:
            raise ValueError("field has no time derivative")
        return _on_grid(self.dh_dt, t, params.grid())


def _on_grid(fn: Callable, t, u: np.ndarray) -> np.ndarray:
    """fn(t, u) as floats for one time; for an array of times the one call
    fn(t[:, None], u), broadcast to (times, points)."""
    if np.ndim(t) == 0:
        return np.asarray(fn(t, u), dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.empty((t.size, u.size))
    out[...] = fn(t[:, None], u)
    return out


def euler_stability_limit(sys: DriftSystem) -> float:
    """Largest admissible Euler step: dt n^gamma (1 + max row sum) < 1/2,
    the row sum including the boundary relaxation indicators."""
    s = sys.row_sums.copy()
    s[0] += 1.0
    s[-1] += 1.0
    return 0.5 / (sys.params.speed * (1.0 + float(s.max())))


def _gaussian_chain(spec: SpectralData, phi: np.ndarray, fixed: np.ndarray,
                    r: np.ndarray, s: np.ndarray, t0: float, dt: float,
                    n_steps: int, rng: np.random.Generator,
                    field: Optional[ExternalField] = None, tilted: bool = True,
                    girsanov: bool = False, g_vec: Optional[np.ndarray] = None) -> dict:
    """The recurrence c <- r c + (1 - r) c_fixed + s z of the modal
    coefficients of phi and of `fixed` (sites last) over n_steps steps of dt,
    run on c - c_fixed.  With a field, `tilted` adds its tilt drift and `girsanov`
    accumulates the log-weight of the tilted relative to the untilted chain;
    `g_vec` accumulates the Dynkin martingale of phi . g_vec.  Returns a dict
    with 'phi' and, on request, 'log_weight' and 'martingale'.
    """
    if girsanov and field is None:
        raise ValueError("girsanov accounting requires a field")
    n = spec.params.n
    dev = spec.project(phi - fixed)
    # compensated (Kahan) accumulation: the log-weight is a long sum of
    # per-step increments that must stay exact in the exponent
    logw = np.zeros(dev.shape[:-1])
    logw_comp = np.zeros(dev.shape[:-1])
    mart = np.zeros(dev.shape[:-1])
    g_hat = None if g_vec is None else n * spec.project(g_vec)
    for k in range(n_steps):
        noise = rng.standard_normal(dev.shape)
        noise *= s
        dev *= r
        if field is not None:
            u_hat = spec.project(field.tilt_drift(spec.params, t0 + k * dt))
            if tilted:
                dev += dt * u_hat
        if girsanov:
            theta = (0.5 * n) * u_hat / spec.eigenvalues  # n theta_hat
            quad = 0.5 * dt * float(theta @ u_hat)
            y = noise @ theta + (quad if tilted else -quad) - logw_comp
            tot = logw + y
            logw_comp = (tot - logw) - y
            logw = tot
        if g_hat is not None:
            mart += noise @ g_hat
        dev += noise

    out = {"phi": fixed + spec.synthesize(dev)}
    if girsanov:
        out["log_weight"] = logw
    if g_vec is not None:
        out["martingale"] = mart
    return out


def _step_grid(T: float, dt: float) -> tuple:
    """Number of Euler steps over a horizon T and their length T / ceil(T / dt)."""
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    return n_steps, T / n_steps


def _euler(sys: DriftSystem, phi: np.ndarray, t0: float, T: float, dt: float,
           rng: np.random.Generator, **chain) -> dict:
    """Euler-Maruyama chain over [t0, t0 + T] in steps of T / ceil(T / dt),
    below the stability bound; `chain` goes to `_gaussian_chain`."""
    if not (np.isfinite(T) and np.isfinite(dt) and T > 0 and dt > 0):
        raise ValueError(f"T and dt must be positive and finite, got {T!r}, {dt!r}")
    limit = euler_stability_limit(sys)
    if dt >= limit:
        raise ValueError(f"dt={dt:.3e} violates the stability bound {limit:.3e}")
    n_steps, dt = _step_grid(T, dt)
    spec = dirichlet_spectrum(sys.params)
    lam = spec.eigenvalues
    return _gaussian_chain(spec, phi, sys.solve_spd(sys.b), 1.0 - dt * lam,
                           np.sqrt(2.0 * dt * lam / sys.params.n), t0, dt, n_steps,
                           rng, **chain)


def euler_ensemble(sys: DriftSystem, phi0: np.ndarray, T: float, dt: float,
                   seed: int, field: Optional[ExternalField] = None,
                   tilted: bool = True, girsanov: bool = False,
                   martingale_g=None) -> dict:
    """Euler-Maruyama evolution of a batch of replicas over [0, T], the one
    Euler entry point.

    Steps have length T / ceil(T / dt); dt must lie below
    `euler_stability_limit(sys)`.

    Parameters
    ----------
    phi0 : ndarray (replicas, n-1)
        Initial configurations (consumed, not modified).
    field : ExternalField, optional
        Tilt field.  With `tilted=False` the untilted dynamics runs but the
        Girsanov weight of the field is still accumulated (importance
        sampling of the tilted law from untilted paths).
    girsanov : bool
        Accumulate log weights (requires a field).
    martingale_g : grid function, optional
        Accumulate the Dynkin martingale of <pi_t, G>,

            M_T = <pi_T, G> - <pi_0, G> - sum_k dt <M phi_k + b + u_k, G>,

        with the tilt u_k on tilted runs, as the sum of the noise pairings
        <eta_k, G> / (n-1); for the chain this is the left-endpoint Dynkin
        sum exactly.

    Replica blocks of `_BLOCK` rows draw from the stream
    make_rng(seed, "euler-ensemble", first row of the block).

    Returns dict with keys 'phi', and optionally 'log_weight', 'martingale'.
    """
    if phi0.ndim != 2 or phi0.shape[0] == 0:
        raise ValueError(f"phi0 must be a (replicas, n-1) batch, got shape {phi0.shape}")
    g_vec = None
    if martingale_g is not None:
        g_vec = as_grid_function(sys.params, martingale_g) / sys.params.n_sites
    blocks = [_euler(sys, phi0[lo:lo + _BLOCK], 0.0, T, dt,
                     make_rng(seed, "euler-ensemble", lo), field=field,
                     tilted=tilted, girsanov=girsanov, g_vec=g_vec)
              for lo in range(0, phi0.shape[0], _BLOCK)]
    return {key: np.concatenate([block[key] for block in blocks])
            for key in blocks[0]}


def propagate_exact(phi: np.ndarray, profile: StationaryProfile, t: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Exact Gaussian transition over a time t of the untilted dynamics of
    `profile.params`, the one exact entry point:

        phi_t ~ Normal(Phi_ss + e^{Mt}(phi - Phi_ss), I - e^{2Mt}).

    `phi` is one configuration or a batch with sites last, and the result
    has its shape; the standard normals drawn have that shape too, filled
    row by row.  Tilted dynamics has no exact transition here; run it with
    `euler_ensemble`.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    params = profile.params
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1:] != (params.n_sites,) or not np.all(np.isfinite(phi)):
        raise ValueError(f"state must be finite with {params.n_sites} sites last, "
                         f"got shape {phi.shape}")
    spec = dirichlet_spectrum(params)
    r = np.exp(-spec.eigenvalues * t)
    s = np.sqrt(np.maximum(1.0 - r ** 2, 0.0) / params.n)
    return _gaussian_chain(spec, phi, profile.profile, r, s, 0.0, t, 1, rng)["phi"]


def girsanov_log_weight_variance(sys: DriftSystem, field: ExternalField,
                                 T: float, dt: float) -> float:
    """Exact variance q of the log Girsanov weight of `euler_ensemble` over [0, T],

        q = (dt / 2) sum_k u_k . (-M)^{-1} u_k,

    on the chain's step grid t_k = k T / K, K = ceil(T / dt).  Since theta_t
    is deterministic the log-weight is exactly Normal(-q/2, q) on untilted
    paths and Normal(q/2, q) on tilted ones, so an untilted weight has
    variance e^q - 1.
    """
    n_steps, dt = _step_grid(T, dt)
    u = field.tilt_drift(sys.params, dt * np.arange(n_steps))
    return 0.5 * dt * float(np.sum(u * sys.solve_spd(u.T).T))


def empirical_pairing(phi, G) -> float:
    """Empirical-measure pairing <pi, G> = (1/(n-1)) sum_x G(x/n) phi(x)."""
    phi = np.asarray(phi, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.shape != phi.shape[-1:]:
        raise ValueError("G must match the number of interior sites")
    return float(phi @ G) / G.size if phi.ndim == 1 else (phi @ G) / G.size


def boundary_block_average(phi, side: str, eps: float, n: Optional[int] = None) -> float:
    """Average of the first (or last) floor(eps*n) sites of the configuration."""
    phi = np.asarray(phi, dtype=float)
    n = n if n is not None else phi.size + 1
    ell = int(np.floor(eps * n))
    if not (1 <= ell <= n - 2):
        raise ValueError(f"eps={eps} gives block length {ell} outside [1, {n - 2}]")
    if side == "left":
        return float(phi[:ell].mean())
    if side == "right":
        return float(phi[-ell:].mean())
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def martingale_qv_rate(params: ModelParams, G) -> float:
    """Deterministic quadratic-variation rate of the Dynkin martingale of
    <pi, G> (time-independent G):

        n^gamma [ sum_{x,y} p(y-x)(G_y - G_x)^2 + 2 G(1/n)^2 + 2 G((n-1)/n)^2 ]
        / |Lambda_n|^2 ,

    normalized with the same 1/(n-1) convention as `empirical_pairing` so
    that the variance of the accumulated martingale equals rate * T exactly
    for the Euler chain.
    """
    # the bracket is 2 <G, (-M) G> = 2 n dirichlet_energy(G)
    return 2.0 * params.n * dirichlet_energy(params, G) / params.n_sites ** 2
