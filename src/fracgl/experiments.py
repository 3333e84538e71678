"""Named batch experiments with pass/fail checks and file artifacts.

Every experiment takes an ExperimentConfig, writes a `summary.json` (inputs
echoed, outputs, one pass/fail record per check with its threshold) plus
experiment-specific CSV/SVG files into the output directory, and returns the
summary dict.  A check passes when its value is at most its recorded
threshold, unless its gate states another rule (`_check`), so a run is
self-describing.  Shared steps are written once: the Euler chains' streams
(`_euler_chains`), the profile's file and range check (`_profile`) and
hydro-limit's mean pairing (`_hydro_mean`).
"""

from __future__ import annotations

import csv
import json
import operator
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hydro, ldp, ness, simulate, svg
from .diagnostics import _MAX_N as _ADJOINT_MAX_N, adjoint_defect
from .kernel import build_drift_system
from .operators import SmoothBump, dirichlet_spectrum, spectrum_to_csv
from .params import ModelParams, step_count
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


def _check(value, threshold, rule=operator.le) -> dict:
    """A summary check, passed when rule(value, threshold) holds."""
    value, threshold = float(value), float(threshold)
    return {"value": value, "threshold": threshold, "pass": bool(rule(value, threshold))}


def _bump_field(a, b, amp, omega=2.0):
    """Separable field amp*(0.6+0.4 cos(omega t)) * bump(u)."""
    bump = SmoothBump(a, b, amp)
    return simulate.ExternalField(
        lambda t: 0.6 + 0.4 * np.cos(omega * t),
        lambda t: -0.4 * omega * np.sin(omega * t),
        bump,
    )


def _profile(cfg: ExperimentConfig) -> tuple:
    """The stationary profile of cfg, written to profile.csv, and the check
    that it stays within the reservoir densities, to 1e-12."""
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    ness.profile_to_csv(prof, os.path.join(cfg.out_dir, "profile.csv"))
    lo, hi = sorted((params.phi_l, params.phi_r))
    low, high = prof.profile.min(), prof.profile.max()
    return prof, _check(max(lo - low, high - hi), 1e-12,
                        lambda _, tol: low >= lo - tol and high <= hi + tol)


def exp_ness_profile(cfg: ExperimentConfig) -> dict:
    prof, in_range = _profile(cfg)
    params = prof.params
    anti = float(np.max(np.abs(prof.profile + prof.profile[::-1]
                               - (params.phi_l + params.phi_r))))
    checks = {
        "residual": _check(prof.residual, prof.residual_bound),
        "maximum_principle": in_range,
        "antisymmetry": _check(anti, 1e-10),
    }
    return {"checks": checks,
            "outputs": {"phi_mid": float(prof.profile[params.n_sites // 2])}}


def exp_figure1(cfg: ExperimentConfig) -> dict:
    prof, in_range = _profile(cfg)
    params = prof.params
    svg.polyline_svg(os.path.join(cfg.out_dir, "profile.svg"), params.grid(),
                     {"phi_ss": prof.profile},
                     title=f"Stationary profile, n={params.n}, gamma={params.gamma}",
                     xlabel="u = x/n", ylabel="phi_ss")
    checks = {
        "range": in_range,
        # every step strictly in the direction phi_l -> phi_r
        "monotone": _check(np.min(np.diff(prof.profile) * np.sign(params.phi_r - params.phi_l)),
                           0.0, operator.gt),
    }
    outputs = {
        "slope_left": float((prof.profile[1] - prof.profile[0]) * params.n),
        "slope_right": float((prof.profile[-1] - prof.profile[-2]) * params.n),
    }
    if params.n % 2 == 0:
        mid = prof.profile[params.n // 2 - 1]
        target = 0.5 * (params.phi_l + params.phi_r)
        checks["midpoint"] = _check(abs(mid - target), 1e-10)
        outputs["phi_mid"] = float(mid)
    return {"checks": checks, "outputs": outputs}


def _euler_chains(cfg: ExperimentConfig, *chains: dict) -> tuple:
    """The stationary profile and one `simulate.euler_ensemble` output per dict
    of its keywords in `chains`, in order: chain i starts from the NESS stream
    (seed, "ness-sample", i) and runs on (seed + 1, "euler-ensemble", i), its
    noise drawn ahead on one worker thread while the profile is solved."""
    params, seed = cfg.params(), cfg.seed + 1
    with simulate.chain_noise_ahead(params, cfg.replicas, seed, indices=range(len(chains))):
        prof = ness.solve_stationary_profile(params)
        outs = [simulate.euler_ensemble(
                    prof, ness.sample_ness(prof, cfg.replicas, cfg.seed, index=i),
                    cfg.T, cfg.dt, seed=seed, index=i, **chain)
                for i, chain in enumerate(chains)]
    return prof, outs


def exp_stationarity(cfg: ExperimentConfig) -> dict:
    prof, (out,) = _euler_chains(cfg, {})
    params = prof.params
    phi = out["phi"]
    mean = phi.mean(axis=0)
    var = phi.var(axis=0, ddof=1)
    se_mean = np.sqrt(var) / np.sqrt(cfg.replicas)
    se_var_ness = np.sqrt(2.0 / (cfg.replicas - 1))
    se_var = var * se_var_ness
    z_mean = float(np.max(np.abs(mean - prof.profile) / se_mean))
    z_var = float(np.max(np.abs(var - 1.0) / se_var))
    checks = {
        "mean_within_4se": _check(z_mean, 4.0),
        "var_within_4se": _check(z_var, 4.0),
    }
    # the chain's exact per-site variance bias at T, in units of the
    # estimate's se under the NESS, from the start's modes Normal(0, 1/n)
    # about Phi_ss
    spec, law = simulate.euler_chain_law(params, cfg.T, cfg.dt)
    var_bias = spec.modes ** 2 @ (law["decay"] ** 2 / params.n + law["sd"] ** 2) - 1.0
    block_table = {f"eps={eps}": {
        "left": simulate.boundary_block_average(mean, "left", eps),
        "right": simulate.boundary_block_average(mean, "right", eps)}
        for eps in _BLOCK_EPS + (1.0 / params.n,)}
    return {"checks": checks,
            # no mean bias: the start's mean is Phi_ss, the chain's fixed
            # point, which it keeps exactly
            "outputs": {"mean_bias_se": 0.0,
                        "var_bias_se": float(np.max(np.abs(var_bias)) / se_var_ness),
                        "max_mean_dev": float(np.max(np.abs(mean - prof.profile))),
                        "max_var_dev": float(np.max(np.abs(var - 1.0))),
                        "boundary_block_averages": block_table}}


_HYDRO_BUMP = SmoothBump(0.3, 0.7, 0.75)


def _flow(s):
    return np.exp(-s)


def _filled(s):
    return -np.expm1(-s)


def _hydro_mean(params: ModelParams, system, T, per) -> float:
    """<Phi_T, G> / per, G = sin(pi u), for the flow of `system` from Phi_ss +
    bump: per = n - 1 on the lattices, n for the reference.  With Psi odd under
    the flip x -> n - x and G even, <Phi_ss, G> = (phi_l + phi_r) / 2 sum G, and
    the rest is (n / per) <G, e^{MT} bump>_(1/n) from the even sector by
    `DriftSystem.sector_pairing`: no profile solve, no odd sector, no `eigh`."""
    u = params.grid()
    G = np.sin(np.pi * u)
    return (0.5 * (params.phi_l + params.phi_r) * float(np.sum(G)) / per
            + params.n / per * system.sector_pairing(1.0, _HYDRO_BUMP.f(u), G, T, _flow))


def _hydro_law(n, gamma, phi_l, phi_r, T) -> tuple:
    """Exact mean and variance of the pairing <phi_T, G> / (n-1) of the exact
    transition from Phi_ss + bump: the mean by `_hydro_mean`, the variance
    from the covariance I - e^{2MT} by -expm1 on the even rates alone."""
    params = ModelParams(n, gamma, phi_l, phi_r)
    system = build_drift_system(params)
    G = np.sin(np.pi * params.grid())
    return (_hydro_mean(params, system, T, n - 1),
            (n / (n - 1)) ** 2 / n * system.sector_pairing(1.0, G, G, 2.0 * T, _filled))


def _hydro_limit_error(n, gamma, phi_l, phi_r, T, replicas, seed, ref_value):
    """The Monte Carlo pairing at n against the reference, with its exact law.

    The `replicas` pairings <phi_T, G> / (n-1) are drawn straight from their
    exact Gaussian law (`_hydro_law`) on the stream (seed, "hydro-limit", n),
    not through the states: no profile solve, no spectrum and no (replicas,
    sites) array."""
    mean, var = _hydro_law(n, gamma, phi_l, phi_r, T)
    sd = np.sqrt(max(var, 0.0))
    rng = make_rng(seed, "hydro-limit", n)
    avg = mean + sd * float(np.mean(rng.standard_normal(replicas)))
    se = sd / np.sqrt(replicas)
    return {"avg": avg, "err": abs(avg - ref_value), "exact_avg": mean, "avg_se": se,
            "avg_z": abs(avg - mean) / se if se > 0 else 0.0,
            "exact_err": abs(mean - ref_value)}


def exp_hydro_limit(cfg: ExperimentConfig) -> dict:
    # the continuum stand-in: the deterministic flow of the same data at n = 1024
    ref = ModelParams(1024, cfg.gamma, cfg.phi_l, cfg.phi_r)
    ref_value = _hydro_mean(ref, build_drift_system(ref), cfg.T, ref.n)

    sides = {"lo": max(8, cfg.n // 4), "hi": cfg.n}
    runs = {side: _hydro_limit_error(n, cfg.gamma, cfg.phi_l, cfg.phi_r, cfg.T,
                                     cfg.replicas, cfg.seed, ref_value)
            for side, n in sides.items()}
    err_lo, err_hi = runs["lo"]["err"], runs["hi"]["err"]
    checks = {
        "error_decreases": _check(err_hi - err_lo, 0.0, operator.lt),
        "error_small_at_n": _check(err_hi, 0.02, operator.lt),
    }
    # the exact law of each average, reported next to it without a gate
    outputs = {"reference": ref_value}
    for side, n in sides.items():
        outputs[f"n_{side}"] = n
        outputs.update({f"{key}_{side}": value for key, value in runs[side].items()})
    return {"checks": checks, "outputs": outputs}


def exp_martingale(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    u = params.grid()
    G = np.sin(np.pi * u) * (1.0 + 0.3 * u)
    _, (out,) = _euler_chains(cfg, dict(martingale_g=G))
    m = out["martingale"]
    qv = simulate.martingale_qv_rate(params, G) * cfg.T
    se_mean = m.std(ddof=1) / np.sqrt(cfg.replicas)
    var = m.var(ddof=1)
    se_var = var * np.sqrt(2.0 / (cfg.replicas - 1))
    z_mean = abs(m.mean()) / se_mean
    z_var = abs(var - qv) / se_var
    checks = {
        "mean_zero_3se": _check(z_mean, 3.0),
        "qv_match_3se": _check(z_var, 3.0),
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
    field = _bump_field(0.25, 0.75, 0.8)
    u = params.grid()
    G = np.sin(np.pi * u)

    # the tilted pair draws stream index 1 of the untilted pair's keys
    _, (plain, tilted) = _euler_chains(cfg, dict(field=field, tilted=False),
                                       dict(field=field, tilted=True))
    w = np.exp(plain["log_weight"])
    se_w = w.std(ddof=1) / np.sqrt(cfg.replicas)
    dev_one = abs(w.mean() - 1.0)
    # equal weights (q below the last bit) have se 0; no deviation then reads 0
    z_mean_one = dev_one / se_w if se_w > 0 else (0.0 if dev_one == 0 else np.inf)

    f_plain = np.tanh(simulate.empirical_pairing(plain["phi"], G))
    wf = w * f_plain
    est_weighted = wf.mean()
    se_weighted = wf.std(ddof=1) / np.sqrt(cfg.replicas)

    f_tilt = np.tanh(simulate.empirical_pairing(tilted["phi"], G))
    est_tilted = f_tilt.mean()
    se_tilted = f_tilt.std(ddof=1) / np.sqrt(cfg.replicas)

    q = simulate.girsanov_log_weight_variance(params, field, cfg.T, cfg.dt)
    se_comb = float(np.hypot(se_weighted, se_tilted))
    z_obs = abs(est_weighted - est_tilted) / se_comb
    checks = {
        "mean_one_3se": _check(z_mean_one, 3.0),
        "tilted_vs_weighted_3se": _check(z_obs, 3.0),
    }
    # the log-weight is exactly Normal(-q/2, q) untilted and Normal(q/2, q) tilted
    se_log_mean = np.sqrt(q / cfg.replicas)
    se_log_var = q * np.sqrt(2.0 / (cfg.replicas - 1))
    for label, log_weight, mean in (("untilted", plain["log_weight"], -0.5 * q),
                                    ("tilted", tilted["log_weight"], 0.5 * q)):
        z_lm = abs(log_weight.mean() - mean) / se_log_mean
        z_lv = abs(log_weight.var(ddof=1) - q) / se_log_var
        checks[f"{label}_log_weight_mean_5se"] = _check(z_lm, 5.0)
        checks[f"{label}_log_weight_var_5se"] = _check(z_lv, 5.0)
    with open(os.path.join(cfg.out_dir, "replicas.json"), "w") as fh:
        records = [{"replica": i, "seed": cfg.seed + 1,
                    "logweight": float(plain["log_weight"][i]),
                    "observables": {"tanh_pairing": float(f_plain[i])}}
                   for i in range(min(cfg.replicas, 200))]
        fh.write(json.dumps(records))
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
    times = np.linspace(0.0, cfg.T, step_count(cfg.T, cfg.dt) + 1)
    traj = hydro.solve_hydrodynamic(prof, prof.profile, times, field=field)
    rate = ldp.rate_from_field(params, field, cfg.T, dt=cfg.dt)

    half = _bump_field(0.25, 0.75, 0.5)  # H / 2, exactly: the amplitude is a power of 2
    j_half = ldp.j_functional(traj, half)
    rel = abs(j_half - rate) / rate

    # 50 test fields a(t) B, a = a0 + a1 cos(om t) and B = SmoothBump(lo, hi, amp),
    # drawn as rows (a0, a1, om, lo, hi, amp) and tested in one pass
    rng = make_rng(cfg.seed, "rate-check")
    a0, a1, om, lo, hi, amp = rng.uniform([-1.0, -1.0, 0.5, 0.1, 0.6, 0.2],
                                          [1.0, 1.0, 6.0, 0.35, 0.9, 1.2], (50, 6)).T
    wt = np.multiply.outer(times, om)
    amps = a0 + a1 * np.cos(wt)
    u = params.grid()
    shapes = np.array([SmoothBump(*row).f(u) for row in zip(lo, hi, amp)])
    j_vals = hydro.weak_defects(traj, amps, -a1 * om * np.sin(wt), shapes, (amps, shapes))
    max_excess = float(np.max(j_vals - rate))
    checks = {
        "optimal_field_identity": _check(rel, 1e-4),
        "variational_bound": _check(max_excess, 1e-6),
    }
    return {"checks": checks,
            "outputs": {"j_half": j_half, "quarter_energy": rate,
                        "max_excess": max_excess}}


def exp_spectrum(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    spec = dirichlet_spectrum(params)
    # the CSV keeps the 40 slowest modes
    spectrum_to_csv(spec.eigenvalues[:40], spec.modes[:, :40],
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
    dists = hydro.l2_distance(params, traj.profiles, prof.profile)
    bound = d0 * np.exp(-lam1 * times) * (1.0 + 1e-10) + 1e-14
    with open(os.path.join(cfg.out_dir, "decay.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "l2_distance", "bound"])
        for t, d, bd in zip(times, dists, bound):
            w.writerow([repr(float(t)), repr(float(d)), repr(float(bd))])
    checks = {
        "fitted_rate_2pct": _check(rel, 0.02),
        # the rule reads each distance against its bound, not the largest ratio
        "exponential_bound": _check(np.max(dists / bound), 1.0,
                                    lambda *_: np.all(dists <= bound)),
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
    reports = ldp.quasipotential(prof, np.stack(list(targets.values())), T1)
    for name, report in zip(targets, reports):
        with open(os.path.join(cfg.out_dir, f"rate_{name}.json"), "w") as fh:
            fh.write(report.to_json())
        w_val = report.breakdown["w_target"]
        rows.append({"target": name, "V": report.value, "W": w_val,
                     "rel_gap": abs(report.value - w_val) / w_val,
                     "identity_gap": abs(report.breakdown["reversal_identity_gap"])})
    worst_gap = max(row["rel_gap"] for row in rows)
    worst_identity = max(row["identity_gap"] for row in rows)
    checks = {
        "v_matches_w_5pct": _check(worst_gap, 0.05),
        "reversal_identity": _check(worst_identity, 1e-4),
    }
    return {"checks": checks,
            "outputs": {"lambda1_T1": lam1 * T1, "targets": rows}}


def exp_adjoint(cfg: ExperimentConfig) -> dict:
    params = cfg.params()
    prof = ness.solve_stationary_profile(params)
    report = adjoint_defect(prof)

    eq_params = ModelParams(params.n, params.gamma, 0.7, 0.7)
    eq_report = adjoint_defect(ness.solve_stationary_profile(eq_params))
    checks = {
        # at the profile's own scale: its rounding grows with the reservoirs
        "invariance": _check(report["invariance_residual"], prof.residual_bound),
        "equilibrium_defect": _check(eq_report["defect_norm"], 1e-10),
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
_PATH_MAX_ENTRIES = 2 ** 27  # rate-check's path, girsanov's amplitudes: 1 GiB of float64


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
    if not np.isfinite(cfg.T / cfg.dt):
        return f"T/dt overflows float64, got T={cfg.T!r} and dt={cfg.dt!r}"
    # the Euler experiments' sample variances need two replicas
    if cfg.experiment in _EULER_EXPERIMENTS and cfg.replicas < 2:
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
    if cfg.experiment == "rate-check":
        if cfg.n < 10:
            # test fields supported in [0.1, 0.9] vanish at sites 1 and n-1 from n = 10
            return f"rate-check's test fields need n >= 10, got {cfg.n}"
    # the arrays that grow with T/dt: rate-check's path, girsanov's a(t) at each step
    steps = step_count(cfg.T, cfg.dt)
    entries, array = {"rate-check": ((steps + 1) * params.n_sites, "(T/dt + 1) x (n-1) path"),
                      "girsanov": (steps, "field amplitude a(t) on T/dt steps")}.get(cfg.experiment, (0, ""))
    if entries > _PATH_MAX_ENTRIES:
        return (f"{cfg.experiment}'s {array} has {entries:.4g} entries "
                f"({entries * 8 / 2 ** 30:.3g} GiB), above the cap of 2^27 (1 GiB)")
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
