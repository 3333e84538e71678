"""Named batch experiments with pass/fail checks and file artifacts.

Every experiment takes an ExperimentConfig, writes a `summary.json` (inputs
echoed, outputs, one pass/fail record per check with its threshold) plus
experiment-specific CSV/SVG files into the output directory, and returns the
summary dict.  Checks compare against the thresholds recorded in the
summary, so a run is self-describing.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import hydro, ldp, ness, simulate, svg
from .diagnostics import _MAX_N as _ADJOINT_MAX_N, adjoint_defect
from .operators import SmoothBump, dirichlet_spectrum, spectrum_to_csv
from .params import ModelParams
from .rng import make_rng

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run"]


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 32
    gamma: float = 1.5
    phi_l: float = 0.0
    phi_r: float = 1.0
    T: float = 0.5
    dt: float = 1e-4
    replicas: int = 10000
    seed: int = 1234
    out_dir: str = "."

    def params(self) -> ModelParams:
        return ModelParams(self.n, self.gamma, self.phi_l, self.phi_r)


# per-experiment default overrides, applied before user flags
DEFAULTS = {
    "figure1": dict(n=200, gamma=1.5, phi_l=1.0, phi_r=2.0),
    "ness-profile": dict(n=64, phi_l=1.0, phi_r=2.0),
    "stationarity": dict(n=32, T=0.5, dt=1e-4, replicas=10000),
    "hydro-limit": dict(n=128, T=0.25, replicas=4000),
    "martingale": dict(n=32, T=0.25, dt=2e-4, replicas=10000),
    "girsanov": dict(n=16, T=0.5, dt=1e-3, replicas=10000),
    "rate-check": dict(n=64, T=0.25, dt=5e-5),
    "spectrum": dict(n=128, T=2.5),
    "quasipotential": dict(n=128),
    "adjoint": dict(n=8, phi_l=0.0, phi_r=1.0),
}


def _check(value, threshold, passed) -> dict:
    return {"value": float(value), "threshold": float(threshold),
            "pass": bool(passed)}


def _bump_field(a, b, amp, omega=2.0):
    """Separable field amp*(0.6+0.4 cos(omega t)) * bump(u)."""
    bump = SmoothBump(a, b, amp)
    return simulate.ExternalField.separable(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump,
    )


def exp_ness_profile(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    ness.profile_to_csv(prof, os.path.join(cfg.out_dir, "profile.csv"))
    lo = min(params.phi_l, params.phi_r)
    hi = max(params.phi_l, params.phi_r)
    anti = float(np.max(np.abs(prof.profile + prof.profile[::-1]
                               - (params.phi_l + params.phi_r))))
    checks = {
        "residual": _check(prof.residual, 1e-10, prof.residual <= 1e-10),
        "maximum_principle": _check(
            max(lo - prof.profile.min(), prof.profile.max() - hi), 1e-12,
            prof.profile.min() >= lo - 1e-12 and prof.profile.max() <= hi + 1e-12),
        "antisymmetry": _check(anti, 1e-10, anti <= 1e-10),
    }
    return {"checks": checks,
            "outputs": {"phi_mid": float(prof.profile[params.n_sites // 2])}}


def exp_figure1(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    ness.profile_to_csv(prof, os.path.join(cfg.out_dir, "profile.csv"))
    svg.polyline_svg(os.path.join(cfg.out_dir, "profile.svg"), params.grid(),
                     {"phi_ss": prof.profile},
                     title=f"Stationary profile, n={params.n}, gamma={params.gamma}",
                     xlabel="u = x/n", ylabel="phi_ss")
    lo = min(params.phi_l, params.phi_r)
    hi = max(params.phi_l, params.phi_r)
    in_range = prof.profile.min() >= lo - 1e-12 and prof.profile.max() <= hi + 1e-12
    increasing = bool(np.all(np.diff(prof.profile) > 0)) if params.phi_r > params.phi_l \
        else bool(np.all(np.diff(prof.profile) < 0))
    checks = {
        "range": _check(max(lo - prof.profile.min(), prof.profile.max() - hi),
                        1e-12, in_range),
        "monotone": _check(float(np.min(np.diff(prof.profile))
                                 * np.sign(params.phi_r - params.phi_l)),
                           0.0, increasing),
    }
    outputs = {
        "slope_left": float((prof.profile[1] - prof.profile[0]) * params.n),
        "slope_right": float((prof.profile[-1] - prof.profile[-2]) * params.n),
    }
    if params.n % 2 == 0:
        mid = prof.profile[params.n // 2 - 1]
        target = 0.5 * (params.phi_l + params.phi_r)
        checks["midpoint"] = _check(abs(mid - target), 1e-10,
                                    abs(mid - target) <= 1e-10)
        outputs["phi_mid"] = float(mid)
    return {"checks": checks, "outputs": outputs}


def exp_stationarity(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    phi0 = ness.sample_ness(prof, cfg.replicas, cfg.seed)
    out = simulate.euler_ensemble(prof, phi0, cfg.T, cfg.dt, seed=cfg.seed + 1)
    phi = out["phi"]
    mean = phi.mean(axis=0)
    var = phi.var(axis=0, ddof=1)
    se_mean = phi.std(axis=0, ddof=1) / np.sqrt(cfg.replicas)
    se_var = var * np.sqrt(2.0 / (cfg.replicas - 1))
    z_mean = float(np.max(np.abs(mean - prof.profile) / se_mean))
    z_var = float(np.max(np.abs(var - 1.0) / se_var))
    checks = {
        "mean_within_4se": _check(z_mean, 4.0, z_mean <= 4.0),
        "var_within_4se": _check(z_var, 4.0, z_var <= 4.0),
    }
    block_table = {f"eps={eps}": {
        "left": simulate.boundary_block_average(mean, "left", eps),
        "right": simulate.boundary_block_average(mean, "right", eps)}
        for eps in _BLOCK_EPS + (1.0 / params.n,)}
    return {"checks": checks,
            "outputs": {"max_mean_dev": float(np.max(np.abs(mean - prof.profile))),
                        "max_var_dev": float(np.max(np.abs(var - 1.0))),
                        "boundary_block_averages": block_table}}


def _hydro_limit_error(n, gamma, phi_l, phi_r, T, replicas, seed, ref_value):
    params = ModelParams(n, gamma, phi_l, phi_r)
    prof = ness.solve_stationary_profile(params)
    u = params.grid()
    bump = SmoothBump(0.3, 0.7, 0.75)
    g = prof.profile + bump.f(u)
    G = np.sin(np.pi * u)
    rng = make_rng(seed, "hydro-limit", n)
    start = np.broadcast_to(g, (replicas, params.n_sites))
    phi = simulate.propagate_exact(start, prof, T, rng)
    avg = float(np.mean(phi @ G)) / params.n_sites
    return abs(avg - ref_value), avg


def exp_hydro_limit(cfg: ExperimentConfig) -> dict:
    # continuum reference: fine-lattice deterministic solution, same
    # macroscopic data (stationary profile + bump), (1/n)-quadrature pairing
    n_ref = 1024
    ref_params = ModelParams(n_ref, cfg.gamma, cfg.phi_l, cfg.phi_r)
    ref_prof = ness.solve_stationary_profile(ref_params)
    u_ref = ref_params.grid()
    bump = SmoothBump(0.3, 0.7, 0.75)
    g_ref = ref_prof.profile + bump.f(u_ref)
    traj = hydro.solve_hydrodynamic(ref_prof, g_ref, np.array([0.0, cfg.T]))
    ref_value = float(traj.profiles[-1] @ np.sin(np.pi * u_ref)) / n_ref

    n_hi = cfg.n
    n_lo = max(8, cfg.n // 4)
    err_lo, avg_lo = _hydro_limit_error(n_lo, cfg.gamma, cfg.phi_l, cfg.phi_r,
                                        cfg.T, cfg.replicas, cfg.seed, ref_value)
    err_hi, avg_hi = _hydro_limit_error(n_hi, cfg.gamma, cfg.phi_l, cfg.phi_r,
                                        cfg.T, cfg.replicas, cfg.seed, ref_value)
    checks = {
        "error_decreases": _check(err_hi - err_lo, 0.0, err_hi < err_lo),
        "error_small_at_n": _check(err_hi, 0.02, err_hi < 0.02),
    }
    return {"checks": checks,
            "outputs": {"reference": ref_value, "n_lo": n_lo, "avg_lo": avg_lo,
                        "err_lo": err_lo, "n_hi": n_hi, "avg_hi": avg_hi,
                        "err_hi": err_hi}}


def exp_martingale(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    u = params.grid()
    G = np.sin(np.pi * u) * (1.0 + 0.3 * u)
    phi0 = ness.sample_ness(prof, cfg.replicas, cfg.seed)
    out = simulate.euler_ensemble(prof, phi0, cfg.T, cfg.dt, seed=cfg.seed + 1,
                                  martingale_g=G)
    m = out["martingale"]
    qv = simulate.martingale_qv_rate(params, G) * cfg.T
    se_mean = m.std(ddof=1) / np.sqrt(cfg.replicas)
    var = m.var(ddof=1)
    se_var = var * np.sqrt(2.0 / (cfg.replicas - 1))
    z_mean = abs(m.mean()) / se_mean
    z_var = abs(var - qv) / se_var
    checks = {
        "mean_zero_3se": _check(z_mean, 3.0, z_mean <= 3.0),
        "qv_match_3se": _check(z_var, 3.0, z_var <= 3.0),
    }
    return {"checks": checks,
            "outputs": {"mc_mean": float(m.mean()), "mc_var": float(var),
                        "predicted_qv": qv}}


def _weight_health(log_weight: np.ndarray) -> dict:
    """Effective sample size (sum w)^2 / sum w^2 and the log-weight range."""
    w = np.exp(log_weight - log_weight.max())
    return {"ess": float(w.sum() ** 2 / np.sum(w * w)),
            "log_weight_max": float(log_weight.max()),
            "log_weight_min": float(log_weight.min())}


def exp_girsanov(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    field = _bump_field(0.25, 0.75, 0.8)
    u = params.grid()
    G = np.sin(np.pi * u)

    phi0 = ness.sample_ness(prof, cfg.replicas, cfg.seed)
    plain = simulate.euler_ensemble(prof, phi0, cfg.T, cfg.dt, seed=cfg.seed + 1,
                                    field=field, tilted=False)
    w = np.exp(plain["log_weight"])
    se_w = w.std(ddof=1) / np.sqrt(cfg.replicas)
    dev_one = abs(w.mean() - 1.0)
    # equal weights (q below the last bit) have se 0; no deviation then reads 0
    z_mean_one = dev_one / se_w if se_w > 0 else (0.0 if dev_one == 0 else np.inf)

    f_plain = np.tanh(plain["phi"] @ G / params.n_sites)
    wf = w * f_plain
    est_weighted = wf.mean()
    se_weighted = wf.std(ddof=1) / np.sqrt(cfg.replicas)

    phi0b = ness.sample_ness(prof, cfg.replicas, cfg.seed + 7)
    tilted = simulate.euler_ensemble(prof, phi0b, cfg.T, cfg.dt, seed=cfg.seed + 8,
                                     field=field, tilted=True)
    f_tilt = np.tanh(tilted["phi"] @ G / params.n_sites)
    est_tilted = f_tilt.mean()
    se_tilted = f_tilt.std(ddof=1) / np.sqrt(cfg.replicas)

    q = simulate.girsanov_log_weight_variance(params, field, cfg.T, cfg.dt)
    se_comb = float(np.hypot(se_weighted, se_tilted))
    z_obs = abs(est_weighted - est_tilted) / se_comb
    checks = {
        "mean_one_3se": _check(z_mean_one, 3.0, z_mean_one <= 3.0),
        "tilted_vs_weighted_3se": _check(z_obs, 3.0, z_obs <= 3.0),
    }
    # the log-weight is exactly Normal(-q/2, q) untilted and Normal(q/2, q) tilted
    se_log_mean = np.sqrt(q / cfg.replicas)
    se_log_var = q * np.sqrt(2.0 / (cfg.replicas - 1))
    for label, log_weight, mean in (("untilted", plain["log_weight"], -0.5 * q),
                                    ("tilted", tilted["log_weight"], 0.5 * q)):
        z_lm = abs(log_weight.mean() - mean) / se_log_mean
        z_lv = abs(log_weight.var(ddof=1) - q) / se_log_var
        checks[f"{label}_log_weight_mean_5se"] = _check(z_lm, 5.0, z_lm <= 5.0)
        checks[f"{label}_log_weight_var_5se"] = _check(z_lv, 5.0, z_lv <= 5.0)
    with open(os.path.join(cfg.out_dir, "replicas.json"), "w") as fh:
        records = [{"replica": i, "seed": cfg.seed + 1,
                    "logweight": float(plain["log_weight"][i]),
                    "observables": {"tanh_pairing": float(f_plain[i])}}
                   for i in range(min(cfg.replicas, 200))]
        json.dump(records, fh, indent=1)
    # a reported z, not a gate: the weight itself is log-normal, far from normal
    se_w_exact = np.sqrt(np.expm1(q) / cfg.replicas)
    return {"checks": checks,
            "outputs": {"weight_mean": float(w.mean()),
                        "weighted_observable": float(est_weighted),
                        "tilted_observable": float(est_tilted),
                        "q": q,
                        "weight_var_exact": float(np.expm1(q)),
                        "weight_mean_se_exact": float(se_w_exact),
                        "weight_mean_z_exact": float(abs(w.mean() - 1.0) / se_w_exact),
                        "untilted_weights": _weight_health(plain["log_weight"]),
                        "tilted_weights": _weight_health(tilted["log_weight"])}}


def exp_rate_check(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    field = _bump_field(0.25, 0.75, 1.0)
    times = np.linspace(0.0, cfg.T, int(np.ceil(cfg.T / cfg.dt)) + 1)
    traj = hydro.solve_hydrodynamic(prof, prof.profile, times, field=field,
                                    substep=cfg.dt)
    rate = ldp.rate_from_field(params, field, cfg.T, dt=cfg.dt)

    half = simulate.ExternalField(h=lambda t, u: 0.5 * field.h(t, u),
                                  dh_dt=lambda t, u: 0.5 * field.dh_dt(t, u))
    j_half = ldp.j_functional(traj, half)
    rel = abs(j_half - rate) / rate

    rng = make_rng(cfg.seed, "rate-check")
    max_excess = -np.inf
    for _ in range(50):
        a0, a1 = rng.uniform(-1.0, 1.0, 2)
        om = rng.uniform(0.5, 6.0)
        lo = rng.uniform(0.1, 0.35)
        hi = rng.uniform(0.6, 0.9)
        amp = rng.uniform(0.2, 1.2)
        test = simulate.ExternalField.separable(
            lambda t, a0=a0, a1=a1, om=om: a0 + a1 * np.cos(om * t),
            lambda t, a1=a1, om=om: -a1 * om * np.sin(om * t),
            SmoothBump(lo, hi, amp))
        j_val = ldp.j_functional(traj, test)
        max_excess = max(max_excess, j_val - rate)
    checks = {
        "optimal_field_identity": _check(rel, 1e-4, rel <= 1e-4),
        "variational_bound": _check(max_excess, 1e-6, max_excess <= 1e-6),
    }
    return {"checks": checks,
            "outputs": {"j_half": j_half, "quarter_energy": rate,
                        "max_excess": float(max_excess)}}


def exp_spectrum(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    spec = dirichlet_spectrum(params)
    # the CSV keeps the 40 slowest modes
    spectrum_to_csv(replace(spec, eigenvalues=spec.eigenvalues[:40],
                            modes=spec.modes[:, :40]),
                    os.path.join(cfg.out_dir, "spectrum.csv"))
    lam1 = float(spec.eigenvalues[0])

    prof = ness.solve_stationary_profile(params)
    u = params.grid()
    g = prof.profile + SmoothBump(0.2, 0.8, 0.8).f(u) + 0.2 * np.sin(2 * np.pi * u) * u * (1 - u)
    fitted = hydro.relaxation_rate(prof, g, cfg.T)
    rel = abs(fitted - lam1) / lam1

    times = np.linspace(0.0, cfg.T, 160)
    traj = hydro.solve_hydrodynamic(prof, g, times)
    d0 = hydro.l2_distance(params, g, prof.profile)
    dists = np.array([hydro.l2_distance(params, p, prof.profile)
                      for p in traj.profiles])
    bound = d0 * np.exp(-lam1 * times) * (1.0 + 1e-10) + 1e-14
    bound_ok = bool(np.all(dists <= bound))
    with open(os.path.join(cfg.out_dir, "decay.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "l2_distance", "bound"])
        for t, d, bd in zip(times, dists, bound):
            w.writerow([repr(float(t)), repr(float(d)), repr(float(bd))])
    checks = {
        "fitted_rate_2pct": _check(rel, 0.02, rel <= 0.02),
        "exponential_bound": _check(float(np.max(dists / bound)), 1.0, bound_ok),
    }
    return {"checks": checks,
            "outputs": {"lambda1": lam1, "fitted_rate": fitted}}


def exp_quasipotential(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    lam1 = float(dirichlet_spectrum(params).eigenvalues[0])
    T1 = 6.5 / lam1
    u = params.grid()
    targets = {
        "bump_mid": prof.profile + SmoothBump(0.25, 0.75, 0.6).f(u),
        "bump_left": prof.profile - SmoothBump(0.15, 0.55, 0.45).f(u),
        "two_scale": prof.profile + SmoothBump(0.2, 0.5, 0.4).f(u)
        - SmoothBump(0.55, 0.9, 0.3).f(u),
    }
    rows = []
    worst_gap = 0.0
    worst_identity = 0.0
    for name, rho in targets.items():
        report = ldp.quasipotential(prof, rho, T1)
        with open(os.path.join(cfg.out_dir, f"rate_{name}.json"), "w") as fh:
            fh.write(report.to_json())
        w_val = report.breakdown["w_target"]
        rel_gap = abs(report.value - w_val) / w_val
        identity_gap = abs(report.breakdown["reversal_identity_gap"])
        worst_gap = max(worst_gap, rel_gap)
        worst_identity = max(worst_identity, identity_gap)
        rows.append({"target": name, "V": report.value, "W": w_val,
                     "rel_gap": rel_gap, "identity_gap": identity_gap})
    checks = {
        "v_matches_w_5pct": _check(worst_gap, 0.05, worst_gap <= 0.05),
        "reversal_identity": _check(worst_identity, 1e-4, worst_identity <= 1e-4),
    }
    return {"checks": checks,
            "outputs": {"lambda1_T1": lam1 * T1, "targets": rows}}


def exp_adjoint(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    report = adjoint_defect(ness.solve_stationary_profile(params))

    eq_params = ModelParams(params.n, params.gamma, 0.7, 0.7)
    eq_report = adjoint_defect(ness.solve_stationary_profile(eq_params))
    checks = {
        "invariance": _check(report["invariance_residual"], 1e-10,
                             report["invariance_residual"] <= 1e-10),
        "equilibrium_defect": _check(eq_report["defect_norm"], 1e-10,
                                     eq_report["defect_norm"] <= 1e-10),
    }
    with open(os.path.join(cfg.out_dir, "adjoint.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return {"checks": checks,
            "outputs": {"defect_norm": report["defect_norm"],
                        "invariance_residual": report["invariance_residual"],
                        "equilibrium_defect": eq_report["defect_norm"]}}


EXPERIMENTS = {
    "ness-profile": exp_ness_profile,
    "figure1": exp_figure1,
    "stationarity": exp_stationarity,
    "hydro-limit": exp_hydro_limit,
    "martingale": exp_martingale,
    "girsanov": exp_girsanov,
    "rate-check": exp_rate_check,
    "spectrum": exp_spectrum,
    "quasipotential": exp_quasipotential,
    "adjoint": exp_adjoint,
}


_EULER_EXPERIMENTS = ("stationarity", "martingale", "girsanov")
# every experiment builds dense (n-1) x (n-1) matrices; 4096 keeps one at 134 MB
_DENSE_MAX_N = 4096
_BLOCK_EPS = (0.25, 0.1)  # stationarity's boundary blocks, next to eps = 1/n
# sample variances need two replicas
_ENSEMBLE_EXPERIMENTS = _EULER_EXPERIMENTS + ("hydro-limit",)


def _config_error(cfg: ExperimentConfig):
    """One-line reason why `cfg` cannot run, or None."""
    if cfg.experiment not in EXPERIMENTS:
        return f"unknown experiment {cfg.experiment!r}"
    if not os.path.isdir(cfg.out_dir) or not os.access(cfg.out_dir, os.W_OK):
        return f"output directory {cfg.out_dir!r} is missing or not writable"
    if cfg.replicas < 1:
        return f"replicas must be >= 1, got {cfg.replicas}"
    for name in ("T", "dt"):
        value = getattr(cfg, name)
        if not (np.isfinite(value) and value > 0):
            return f"{name} must be positive and finite, got {value!r}"
    if cfg.experiment in _ENSEMBLE_EXPERIMENTS and cfg.replicas < 2:
        return f"{cfg.experiment} needs replicas >= 2, got {cfg.replicas}"
    if cfg.n > _DENSE_MAX_N:
        gib = (cfg.n - 1) ** 2 * 8 / 2 ** 30
        return (f"n={cfg.n} is above the cap n <= {_DENSE_MAX_N} on the dense (n-1)^2 "
                f"operators ({gib:.1f} GiB each at this n)")
    try:
        params = cfg.params()
    except ValueError as exc:
        return str(exc)
    if cfg.experiment == "figure1" and cfg.phi_l == cfg.phi_r:
        return ("figure1 needs phi_l != phi_r (a flat profile is not monotone), "
                f"got both {cfg.phi_l!r}")
    if cfg.experiment == "adjoint" and cfg.n > _ADJOINT_MAX_N:
        return f"adjoint needs n <= {_ADJOINT_MAX_N}, got {cfg.n}"
    if cfg.experiment == "hydro-limit" and cfg.n <= 8:
        return f"hydro-limit compares n against max(8, n // 4) and needs n > 8, got {cfg.n}"
    if cfg.experiment == "stationarity" and int(min(_BLOCK_EPS) * cfg.n) < 1:
        return f"stationarity's boundary-block table needs n >= 10, got {cfg.n}"
    if cfg.experiment == "spectrum":
        # beyond e^-27.6 = 1e-12 of decay the fitted distance nears float64
        # rounding; below e^-4 the slower modes still bias the fitted rate
        decay = cfg.T * float(dirichlet_spectrum(params).eigenvalues[0])
        if decay > 27.6:
            return ("spectrum's fit window [T/2, T] has decayed to the stationary state: "
                    f"lambda_1 T = {decay:.3g} > 27.6")
        if decay <= 4:
            return f"spectrum's fit needs lambda_1 T > 4, got {decay:.3g}"
    if cfg.experiment == "rate-check" and cfg.n < 10:
        # test fields supported in [0.1, 0.9] vanish at sites 1 and n-1 from n = 10
        return f"rate-check's test fields need n >= 10, got {cfg.n}"
    if cfg.experiment in _EULER_EXPERIMENTS:
        limit = simulate.euler_stability_limit(params)
        if cfg.dt >= limit:
            return f"dt={cfg.dt:.3e} violates the Euler stability bound {limit:.3e}"
    return None


def run(cfg: ExperimentConfig) -> int:
    """Execute an experiment, write summary.json, return the exit status:
    0 when every check passes, 2 on check failure, 1 on usage errors (one
    line on stderr, no summary written)."""
    error = _config_error(cfg)
    if error is not None:
        print(f"fracgl: invalid configuration: {error}", file=sys.stderr)
        return 1
    result = EXPERIMENTS[cfg.experiment](cfg)
    summary = {"experiment": cfg.experiment, "config": asdict(cfg)}
    summary.update(result)
    summary["pass"] = all(c["pass"] for c in result["checks"].values())
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0 if summary["pass"] else 2
