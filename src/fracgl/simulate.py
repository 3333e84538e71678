"""Stochastic simulation of the (optionally tilted) lattice dynamics.

The state evolves by

    d phi = (M phi + b + u_t) dt + dW_t,    Cov(dW_t) = -2 M dt,

where the tilt drift u_t(x) = -(L_n H_t)(x/n) comes from an external field
H_t = a(t) B, compactly supported in (0, 1), so that u_t = a(t) u with one
lattice vector u = -(L_n B).  Both Gaussian chains are one recurrence of
the coefficients c_k = <phi, e_k>_(1/n) in the (1/n)-orthonormal modes e_k
of -M (rates lambda_k), the spectrum of the shared `kernel.DriftSystem` of
(n, gamma), with c^ss those of Phi_ss:

    c_k <- r_k c_k + (1 - r_k) c_k^ss + s_k z_k  (+ h u_jk at step j, tilted).

An Euler step h has r_k = 1 - h lambda_k, s_k = sqrt(2 lambda_k h / n) and
u_jk = <u_jh, e_k>_(1/n) = a(jh) u_k; the exact transition over t is one
step with r_k = e^{-lambda_k t}, s_k = sqrt((1 - r_k^2) / n).  No chain runs
step by step: K steps are linear in their normals, so the state at T is
drawn from its exact Gaussian law (`_chain_law`), one normal per replica
and mode; for Euler that is the chain's own law, with its (1 - h lambda / 2)
variance bias (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, ch. 3).
`euler_ensemble` draws the Euler chain at T for a batch of replicas, with
the Girsanov log-weight of a field and the Dynkin martingale of <pi_t, G>,
drawn jointly with the state; `propagate_exact` makes one exact transition.
Both take the states from the modes in row blocks through reused buffers.
Inside `chain_noise_ahead` a worker thread draws each chain's first block of
modal normals while the caller solves the profile and samples the start;
`euler_ensemble` hands the block to `_draw`, with the same numbers.

The log-weight is the exact log-density ratio of the tilted and untilted
Euler chains, with eta_j the noise of step j and theta_j = (-M)^{-1} u_j / 2
(in modes u_jk / (2 lambda_k)):

    log M_T = sum_j [eta_j . theta_j  -/+  (h / 2) theta_j . u_j],

minus on untilted runs; a dot product of grid functions is n times that of
their coefficients.  So E[M_T] = 1 exactly for the discrete chain, for any
field, and weighted untilted averages reproduce tilted ones without
discretization bias.  When H vanishes at sites 1 and n-1, theta_j = H_jh / 2.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .kernel import (DriftSystem, build_drift_system, dirichlet_energy,
                     discrete_fractional_laplacian)
from .ness import StationaryProfile
from .operators import TestFunction, dirichlet_spectrum
from .params import ModelParams, as_grid_function, step_count
from .rng import make_rng

__all__ = [
    "ExternalField",
    "euler_stability_limit",
    "euler_ensemble",
    "chain_noise_ahead",
    "euler_chain_law",
    "propagate_exact",
    "girsanov_log_weight_variance",
    "empirical_pairing",
    "boundary_block_average",
    "martingale_qv_rate",
]

class ExternalField:
    """Separable tilt field H(t, u) = a(t) B(u), compactly supported in (0, 1).

    Parameters
    ----------
    amplitude : callable t -> a(t)
        Called with one time or, once, with a 1-d array of times; its result
        must broadcast to the times' shape.
    rate : callable or None
        Its time derivative a'(t), alike; needed by the weak-form functionals.
    shape : TestFunction
        The spatial profile B; must vanish at u = 0 and u = 1.

    Every layer works on the amplitude and one lattice shape: the pair
    (B, L_n B) of `lattice_shape`, evaluated on each call.  Both
    amplitudes and B are probed at construction.
    """

    def __init__(self, amplitude: Callable, rate: Optional[Callable], shape: TestFunction):
        if np.any(np.abs(shape.f(np.array([0.0, 1.0]))) > 1e-12):
            raise ValueError("field must vanish at u = 0 and u = 1")
        for fn in (amplitude, rate):
            if fn is not None:
                try:
                    _on_times(fn, np.array([0.0, 0.37, 1.0]))
                except (TypeError, ValueError) as exc:
                    raise ValueError("field amplitudes must broadcast over an array "
                                     f"of times: {exc}") from None
        self.amplitude, self.rate, self.shape = amplitude, rate, shape

    def a(self, t):
        """a(t): a float for one time, an array for an array of times."""
        return _on_times(self.amplitude, t)

    def da(self, t):
        """a'(t), like `a`."""
        if self.rate is None:
            raise ValueError("field has no time derivative")
        return _on_times(self.rate, t)

    def lattice_shape(self, params: ModelParams) -> tuple:
        """(B, L_n B) on the interior sites of `params`."""
        bv = self.shape.f(params.grid())
        return bv, discrete_fractional_laplacian(params, bv)


def _on_times(fn: Callable, t):
    """fn(t) as a float for one time; for an array of times the one call
    fn(t), broadcast to its shape."""
    if np.ndim(t) == 0:
        return float(fn(t))
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    out[...] = fn(t)
    return out


def euler_stability_limit(params: ModelParams) -> float:
    """Largest admissible Euler step: dt n^gamma (1 + max row sum) < 1/2,
    the row sum including the boundary relaxation indicators, which is
    dt (n^gamma + max -M[x, x]) < 1/2."""
    return 0.5 / (params.speed + float(-build_drift_system(params).diagonal.min()))


def _geometric(log_r: np.ndarray, k: int) -> np.ndarray:
    """sum_{j<k} r^j = (1 - r^k) / (1 - r) for r = e^{log_r}; exactly 1 for k = 1."""
    return np.expm1(k * log_r) / np.expm1(log_r) if k > 1 else np.ones_like(log_r)


def _chain_law(params: ModelParams, log_r: np.ndarray, s: np.ndarray, n_steps: int,
               h: float = 0.0, field: Optional[ExternalField] = None,
               tilted: bool = True, g_vec: Optional[np.ndarray] = None) -> dict:
    """Exact law of n_steps steps of h of the modal recurrence, r = e^{log_r}.

    Per mode, c - c^ss ends as 'decay' = r^K times its start, plus 'shift' =
    h sum_j r^{K-1-j} u_jk on tilted runs, plus independent noise A_k of
    variance 'sd'^2 = s^2 (1 - r^{2K}) / (1 - r^2).  The outputs 'keys' (the
    martingale B = sum_j eta_j . g_vec, then the log-weight C) have means
    'mean' (0, then -/+ q/2), covariance 'joint' and covariances 'cross'
    (modes, keys) with the A_k; with g_k = n <g_vec, e_k>_(1/n),

        Var B = K sum_k s_k^2 g_k^2,   Cov(A_k, B) = s_k^2 g_k (1 - r^K) / (1 - r),
        Var C = q = (h n / 2) sum_j sum_k u_jk^2 / lambda_k,   Cov(B, C) = h g . sum_j u_j,
        Cov(A_k, C) = s_k^2 sum_j r^{K-1-j} n theta_jk = h sum_j r^{K-1-j} u_jk,

    where the field's u_jk = a(jh) u_k, u_k the modes of -(L_n B), so that
    q = (h n / 2) sum_j a_j^2 sum_k u_k^2 / lambda_k and no (steps, modes)
    array is formed.
    """
    spec, outputs, shift = dirichlet_spectrum(params), [], 0.0
    if g_vec is not None:
        g_hat = params.n * spec.project(g_vec)
        outputs.append(("martingale", 0.0, s ** 2 * g_hat * _geometric(log_r, n_steps),
                        n_steps * float(np.sum((s * g_hat) ** 2))))
    if field is not None:
        u_hat = spec.project(-field.lattice_shape(params)[1])
        a = field.a(h * np.arange(n_steps))
        late = u_hat * np.polyval(a, np.exp(log_r))    # sum_j r^{K-1-j} a_j, by Horner
        total = u_hat * a.sum()
        q = 0.5 * h * params.n * float(a @ a) * float(np.sum(u_hat ** 2 / spec.eigenvalues))
        shift = h * late if tilted else 0.0
        outputs.append(("log_weight", 0.5 * q if tilted else -0.5 * q, h * late, q))
    keys, mean, cross, var = zip(*outputs) if outputs else ((),) * 4
    joint = np.diag(var)
    if len(keys) == 2:
        joint[0, 1] = joint[1, 0] = h * float(g_hat @ total)
    return {"decay": np.exp(n_steps * log_r), "shift": shift,
            "sd": s * np.sqrt(_geometric(2.0 * log_r, n_steps)), "keys": keys,
            "mean": np.array(mean), "cross": np.array(cross).T, "joint": joint}


_CHAIN = "euler-ensemble"  # the purpose of the chains' streams
_AHEAD = {}  # (seed, index) -> its chain's block drawn ahead, while the scope is open
# replicas per block of `_draw`: its two (rows, sites) buffers stay in cache
_ROWS = 1024


def _draw(spec: DriftSystem, phi: np.ndarray, fixed: np.ndarray, law: dict,
          rng: np.random.Generator, z: Optional[np.ndarray] = None) -> dict:
    """One draw of `law` from each configuration of phi (sites last): the
    modes' noise from one block of normals (`z` if given, drawn from `rng`,
    which then stands where it ends), then the outputs 'keys' given it from
    one more.  The states are then projected, scaled and synthesized in
    blocks of at most `_ROWS` configurations through two reused buffers,
    into the noise's own array.  Returns a dict of 'phi' and the keys."""
    if z is None:
        z = rng.standard_normal(phi.shape[:-1] + law["sd"].shape)
    out = {}
    if law["keys"]:
        beta = law["cross"] / law["sd"][:, None]    # covariances with the z_k
        # a square root of the residual covariance, safe where it is singular
        w, v = np.linalg.eigh(law["joint"] - beta.T @ beta)
        extra = z @ beta + law["mean"]
        extra += rng.standard_normal(extra.shape) @ (v * np.sqrt(np.maximum(w, 0.0))).T
        out = {key: extra[..., i] for i, key in enumerate(law["keys"])}
    noise = z.reshape(-1, z.shape[-1])
    # near-equal blocks of at most _ROWS rows: none has one row unless the
    # batch has, for a one-row product is a matrix-vector one, rounded otherwise
    count = max(1, -(-len(noise) // _ROWS))
    edges = np.arange(count + 1) * len(noise) // count
    buf = np.empty((-(-len(noise) // count), noise.shape[-1]))
    starts, devs = phi.reshape(noise.shape), np.empty_like(buf)
    for lo, hi in zip(edges[:-1], edges[1:]):
        block, rows = noise[lo:hi], hi - lo
        # the modes' mean at the end, less c^ss: 'decay' times the start's plus 'shift'
        dev = spec.project(np.subtract(starts[lo:hi], fixed, out=buf[:rows]), out=devs[:rows])
        dev *= law["decay"]
        dev += law["shift"]
        block *= law["sd"]
        block += dev
        np.add(spec.synthesize(block, out=buf[:rows]), fixed, out=block)
    out["phi"] = noise.reshape(z.shape)
    return out


def euler_chain_law(params: ModelParams, T: float, dt: float,
                    field: Optional[ExternalField] = None, tilted: bool = True,
                    martingale_g=None) -> tuple:
    """(`dirichlet_spectrum(params)`, `_chain_law`) of the K = ceil(T / dt)
    steps of h = T / K of the Euler chain of `euler_ensemble` with the same
    arguments."""
    if not (np.isfinite(T) and np.isfinite(dt) and T > 0 and dt > 0):
        raise ValueError(f"T and dt must be positive and finite, got {T!r}, {dt!r}")
    limit = euler_stability_limit(params)
    if dt >= limit:
        raise ValueError(f"dt={dt:.3e} violates the stability bound {limit:.3e}")
    n_steps = step_count(T, dt)
    h = T / n_steps
    spec = dirichlet_spectrum(params)
    lam = spec.eigenvalues
    g_vec = (None if martingale_g is None
             else as_grid_function(params, martingale_g) / params.n_sites)
    return spec, _chain_law(params, np.log1p(-h * lam), np.sqrt(2.0 * h * lam / params.n),
                            n_steps, h, field, tilted, g_vec)


def euler_ensemble(profile: StationaryProfile, phi0: np.ndarray, T: float,
                   dt: float, seed: int, field: Optional[ExternalField] = None,
                   tilted: bool = True, martingale_g=None, index: int = 0) -> dict:
    """The Euler-Maruyama chain of `profile.params` over [0, T] in steps of
    T / ceil(T / dt) below `euler_stability_limit`, drawn at T for a batch of
    replicas `phi0` (replicas, n-1): the one Euler entry point.

    With a `field`, its Girsanov log-weight is drawn with the state; with
    `tilted=False` the untilted dynamics runs and the weight is still kept
    (importance sampling of the tilted law).  With `martingale_g`, so is the
    Dynkin martingale of <pi_t, G>, the sum of the noise pairings
    <eta_k, G> / (n-1):

        M_T = <pi_T, G> - <pi_0, G> - sum_k dt <M phi_k + b + u_k, G>,

    with the tilt u_k on tilted runs.  All replicas draw from the stream
    make_rng(seed, "euler-ensemble", index): one normal per replica and mode, then
    one per replica and requested output.  Inside `chain_noise_ahead` it waits
    for the modes' block, drawn on the worker thread, and draws the outputs
    from the filler's generator.  Returns a dict of 'phi', 'log_weight' with
    a field and 'martingale' with G.
    """
    if phi0.ndim != 2 or phi0.shape[0] == 0:
        raise ValueError(f"phi0 must be a (replicas, n-1) batch, got shape {phi0.shape}")
    spec, law = euler_chain_law(profile.params, T, dt, field, tilted, martingale_g)
    ahead = _AHEAD.pop((seed, index), None)
    if ahead is None:
        return _draw(spec, phi0, profile.profile, law, make_rng(seed, _CHAIN, index))
    ahead.done.wait()
    if ahead.error is not None:
        raise ahead.error
    if ahead.z.shape != phi0.shape:
        raise ValueError(f"chain noise drawn ahead has shape {ahead.z.shape}, not {phi0.shape}")
    return _draw(spec, phi0, profile.profile, law, ahead.rng, ahead.z)


@contextmanager
def chain_noise_ahead(params: ModelParams, replicas: int, seed: int, indices=(0,)):
    """Scope in which one worker thread draws the modes' noise of
    `euler_ensemble(..., seed=seed, index=i)` on `replicas` configurations of
    `params`, for each i of `indices` in order, and keeps it with the stream's
    generator (`done`, `rng`, `z`, or the fill's `error`) for that call to
    claim.  On exit it joins the thread and drops unclaimed blocks."""
    shape = (replicas, params.n_sites)
    slots = {(seed, i): SimpleNamespace(done=threading.Event(), error=None) for i in indices}

    def fill_in_order():
        for (_, i), slot in slots.items():
            try:
                slot.rng = make_rng(seed, _CHAIN, i)
                slot.z = slot.rng.standard_normal(shape)
            except BaseException as exc:  # raised by the claiming euler_ensemble
                slot.error = exc
            slot.done.set()

    worker = threading.Thread(target=fill_in_order)
    worker.start()
    _AHEAD.update(slots)
    try:
        yield
    finally:
        worker.join()
        for key in slots:
            _AHEAD.pop(key, None)


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
    log_r = -spec.eigenvalues * t
    s = np.sqrt(np.maximum(1.0 - np.exp(log_r) ** 2, 0.0) / params.n)
    return _draw(spec, phi, profile.profile, _chain_law(params, log_r, s, 1), rng)["phi"]


def girsanov_log_weight_variance(params: ModelParams, field: ExternalField,
                                 T: float, dt: float) -> float:
    """Exact variance q of the log Girsanov weight of `euler_ensemble` over [0, T],

        q = (h / 2) sum_j u_j . (-M)^{-1} u_j = (h n / 2) sum_j sum_k u_jk^2 / lambda_k,

    on the chain's step grid t_j = j h, h = T / ceil(T / dt), as drawn.  The
    log-weight is exactly Normal(-q/2, q) on untilted paths and Normal(q/2, q)
    on tilted ones, so an untilted weight has variance e^q - 1.
    """
    return float(euler_chain_law(params, T, dt, field)[1]["joint"][-1, -1])


def empirical_pairing(phi, G) -> float:
    """Empirical-measure pairing <pi, G> = (1/(n-1)) sum_x G(x/n) phi(x) of
    one configuration or of each row of a batch: the lattice pairings'
    1/(n-1) convention.  `hydro-limit`'s n = 1024 reference pairs with 1/n."""
    phi = np.asarray(phi, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.shape != phi.shape[-1:]:
        raise ValueError("G must match the number of interior sites")
    return float(phi @ G) / G.size if phi.ndim == 1 else (phi @ G) / G.size


def boundary_block_average(phi, side: str, eps: float) -> float:
    """Average of the first (or last) floor(eps*n) of the n - 1 sites of phi."""
    phi = np.asarray(phi, dtype=float)
    n = phi.size + 1
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
