"""The workloads: the operations one round runs, and their checks.

An operation is one `fracgl <experiment>` command run through
`fracgl.cli.main`, or one operator evaluation.  Each workload class makes
its plan from the seed and checks every operation's outputs against
`oracles`, which does not import fracgl.  The benchmark runs two of them,
each the union of two of the four groups of operations defined here.  A Monte Carlo check passes when
its statistic lies within Z standard errors of the exact value.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

from perfbench import oracles as O

Z = 5.0
GAMMA = 1.5


def steps(T: float, dt: float) -> int:
    """Euler step count that `simulate.euler_ensemble` takes for (T, dt)."""
    return max(1, int(math.ceil(T / dt - 1e-12)))


def cli_op(name: str, experiment: str, **cfg) -> dict:
    argv = [experiment]
    for key, value in cfg.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return {"name": name, "kind": "cli", "argv": argv, "cfg": cfg}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _z(value: float, expected: float, se: float) -> float:
    return abs(value - expected) / se


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


class Workload:
    """A plan of operations and the oracle checks of their outputs."""

    def __init__(self, seed: int):
        self.seed = seed
        self.plan = self.make_plan(random.Random(seed))
        self.oracle = None

    def make_plan(self, rnd: random.Random) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the oracle values the checks compare against."""
        self.oracle = self.make_oracle()

    def make_oracle(self) -> dict:
        raise NotImplementedError

    def check(self, op: dict, out_dir: str, capture: str, outputs: dict) -> dict:
        """Return {check name: (passed, statistic, bound)} for one operation.

        `outputs` maps the names of this round's earlier operations to their
        loaded outputs, for checks that compare operations."""
        raise NotImplementedError


class Ensemble(Workload):
    """Euler ensembles on the site-noise route: stationarity and martingale."""

    def make_plan(self, rnd):
        # The reservoir densities come from the seed.  The chain's deviation
        # from Phi_ss, and so every z-score below and in the experiments'
        # gates, does not depend on them; the Monte Carlo streams use the
        # experiments' default seed.
        common = dict(n=32, phi_l=rnd.uniform(0.0, 2.0), phi_r=rnd.uniform(0.0, 2.0),
                      replicas=10000, seed=1234)
        return [cli_op("stationarity", "stationarity", t=0.005, dt=1e-4, **common),
                cli_op("martingale", "martingale", t=0.01, dt=2e-4, **common)]

    def make_oracle(self):
        cfg = self.plan[0]["cfg"]
        n = cfg["n"]
        return {"m": O.drift_matrix(n, GAMMA),
                "b": O.drift_offset(n, GAMMA, cfg["phi_l"], cfg["phi_r"]),
                "phi": O.stationary_profile(n, GAMMA, cfg["phi_l"], cfg["phi_r"])}

    def check(self, op, out_dir, capture, outputs):
        cfg = op["cfg"]
        n, N = cfg["n"], cfg["replicas"]
        k = steps(cfg["t"], cfg["dt"])
        dt = cfg["t"] / k
        orc = self.oracle
        summary = _load(os.path.join(out_dir, "summary.json"))["outputs"]
        if op["name"] == "stationarity":
            phi = np.load(capture)["phi_0"]
            mean_k, cov_k = O.euler_chain_moments(orc["m"], orc["b"], orc["phi"],
                                                  np.eye(n - 1), dt, k)
            var_k = np.diag(cov_k)
            mean, var = phi.mean(axis=0), phi.var(axis=0, ddof=1)
            z_mean = float(np.max(np.abs(mean - mean_k) / np.sqrt(var_k / N)))
            z_var = float(np.max(np.abs(var - var_k) / (var_k * math.sqrt(2.0 / (N - 1)))))
            echo = abs(summary["max_mean_dev"] - float(np.max(np.abs(mean - orc["phi"]))))
            return {"mean_vs_chain_mean_z": (z_mean <= Z, z_mean, Z),
                    "var_vs_chain_moments_z": (z_var <= Z, z_var, Z),
                    "reported_mean_dev_matches": (echo <= 1e-9, echo, 1e-9)}
        u = O.grid(n)
        G = np.sin(np.pi * u) * (1.0 + 0.3 * u)
        qv = O.dynkin_qv(orc["m"], G / (n - 1), k * dt)
        qv_rel = _rel(summary["predicted_qv"], qv)
        z_mean = _z(summary["mc_mean"], 0.0, math.sqrt(qv / N))
        z_var = _z(summary["mc_var"], qv, qv * math.sqrt(2.0 / (N - 1)))
        return {"predicted_qv_exact": (qv_rel <= 1e-9, qv_rel, 1e-9),
                "martingale_mean_zero_z": (z_mean <= Z, z_mean, Z),
                "martingale_var_qv_z": (z_var <= Z, z_var, Z)}


def _bump_field_amp(t: float) -> float:
    """Time amplitude of the experiments' tilt field `_bump_field`."""
    return 0.6 + 0.4 * math.cos(2.0 * t)


class Girsanov(Workload):
    """Edge-noise Euler ensembles with a tilt field and Girsanov weights."""

    def make_plan(self, rnd):
        # No input depends on the seed: the tilted-versus-weighted gate of the
        # experiment moves with the reservoir densities, so varying them would
        # re-draw that 3-se gate on every seed.
        return [cli_op("girsanov", "girsanov", n=16, t=0.02, dt=1e-3, replicas=10000,
                       seed=1234)]

    def make_oracle(self):
        cfg = self.plan[0]["cfg"]
        n = cfg["n"]
        k = steps(cfg["t"], cfg["dt"])
        times = np.arange(k + 1) * (cfg["t"] / k)
        h = O.smooth_bump(O.grid(n), 0.25, 0.75, 0.8)
        return {"q": O.girsanov_log_weight_law(n, GAMMA, h, _bump_field_amp, times)}

    def check(self, op, out_dir, capture, outputs):
        cfg = op["cfg"]
        n, N = cfg["n"], cfg["replicas"]
        q = self.oracle["q"]
        summary = _load(os.path.join(out_dir, "summary.json"))["outputs"]
        cap = np.load(capture)
        out = {}
        for label, call, sign in (("untilted", 0, -1.0), ("tilted", 1, 1.0)):
            lw = cap[f"log_weight_{call}"]
            z_mean = _z(lw.mean(), sign * 0.5 * q, math.sqrt(q / N))
            z_var = _z(lw.var(ddof=1), q, q * math.sqrt(2.0 / (N - 1)))
            out[f"{label}_log_weight_mean_z"] = (z_mean <= Z, z_mean, Z)
            out[f"{label}_log_weight_var_z"] = (z_var <= Z, z_var, Z)
        w = np.exp(cap["log_weight_0"])
        z_one = _z(w.mean(), 1.0, math.sqrt(math.expm1(q) / N))
        G = np.sin(np.pi * O.grid(n))
        f_plain = np.tanh(cap["phi_0"] @ G / (n - 1))
        f_tilt = np.tanh(cap["phi_1"] @ G / (n - 1))
        wf = w * f_plain
        se = math.hypot(wf.std(ddof=1), f_tilt.std(ddof=1)) / math.sqrt(N)
        z_obs = _z(wf.mean(), f_tilt.mean(), se)
        echo = max(abs(summary["weight_mean"] - w.mean()),
                   abs(summary["tilted_observable"] - f_tilt.mean()))
        out["weight_mean_one_z"] = (z_one <= Z, z_one, Z)
        out["weighted_vs_tilted_z"] = (z_obs <= Z, z_obs, Z)
        out["reported_estimates_match"] = (echo <= 1e-9, echo, 1e-9)
        return out


QP_TARGETS = {
    "bump_mid": ((0.25, 0.75, 0.6),),
    "bump_left": ((0.15, 0.55, -0.45),),
    "two_scale": ((0.2, 0.5, 0.4), (0.55, 0.9, -0.3)),
}


class Paths(Workload):
    """Deterministic path functionals, the spectrum and the n=1024 hydro reference."""

    def make_plan(self, rnd):
        return [cli_op("rate-check", "rate-check", n=64, t=0.005, dt=5e-5, seed=self.seed),
                cli_op("quasipotential", "quasipotential", n=256),
                cli_op("hydro-limit", "hydro-limit", n=128, t=0.25, replicas=4000,
                       seed=self.seed)]

    def make_oracle(self):
        rate = self.plan[0]["cfg"]
        n, T, dt = rate["n"], rate["t"], rate["dt"]
        ts = np.linspace(0.0, T, max(2, int(np.ceil(T / dt)) + 1))
        unit = float(O.seminorm_sq(n, GAMMA, O.smooth_bump(O.grid(n), 0.25, 0.75, 1.0))[0])
        amps = np.array([_bump_field_amp(t) for t in ts])
        cost = 0.25 * O.trapezoid(amps ** 2 * unit, ts)

        nq = self.plan[1]["cfg"]["n"]
        uq = O.grid(nq)
        w = {}
        for name, bumps in QP_TARGETS.items():
            dev = sum(O.smooth_bump(uq, a, b, 1.0) * amp for a, b, amp in bumps)
            w[name] = 0.5 * float(np.sum(dev * dev)) / nq

        hyd = self.plan[2]["cfg"]
        laws = {}
        for n_h in (max(8, hyd["n"] // 4), hyd["n"]):
            u = O.grid(n_h)
            phi = O.stationary_profile(n_h, GAMMA, 0.0, 1.0)
            laws[n_h] = O.exact_pairing_law(n_h, GAMMA, 0.0, 1.0,
                                            phi + O.smooth_bump(u, 0.3, 0.7, 0.75),
                                            np.sin(np.pi * u), hyd["t"])
        n_ref = 1024
        u = O.grid(n_ref)
        phi = O.stationary_profile(n_ref, GAMMA, 0.0, 1.0)
        ref = O.relaxed_pairing(n_ref, GAMMA, 0.0, 1.0, phi + O.smooth_bump(u, 0.3, 0.7, 0.75),
                                np.sin(np.pi * u), hyd["t"])
        return {"cost": cost, "w": w, "laws": laws, "ref": ref}

    def check(self, op, out_dir, capture, outputs):
        orc = self.oracle
        if op["name"] == "rate-check":
            out = _load(os.path.join(out_dir, "summary.json"))["outputs"]
            cost_rel = _rel(out["quarter_energy"], orc["cost"])
            half_rel = _rel(out["j_half"], orc["cost"])
            return {"cost_matches_oracle": (cost_rel <= 1e-9, cost_rel, 1e-9),
                    "j_half_equals_cost": (half_rel <= 1e-4, half_rel, 1e-4),
                    "j_g_below_cost": (out["max_excess"] <= 1e-6, out["max_excess"], 1e-6)}
        if op["name"] == "quasipotential":
            res = {}
            for name, w in orc["w"].items():
                rep = _load(os.path.join(out_dir, f"rate_{name}.json"))
                w_rel = _rel(rep["breakdown"]["w_target"], w)
                v_rel = _rel(rep["value"], w)
                res[f"{name}_w_matches_oracle"] = (w_rel <= 1e-9, w_rel, 1e-9)
                res[f"{name}_v_within_5pct_of_w"] = (v_rel <= 0.05, v_rel, 0.05)
            return res
        out = _load(os.path.join(out_dir, "summary.json"))["outputs"]
        ref_rel = _rel(out["reference"], orc["ref"])
        res = {"reference_matches_oracle": (ref_rel <= 1e-9, ref_rel, 1e-9)}
        errs = {}
        for side in ("lo", "hi"):
            mean, var = orc["laws"][out[f"n_{side}"]]
            z = _z(out[f"avg_{side}"], mean, math.sqrt(var / op["cfg"]["replicas"]))
            res[f"avg_{side}_vs_exact_law_z"] = (z <= Z, z, Z)
            errs[side] = abs(out[f"avg_{side}"] - orc["ref"])
        res["error_decreases_with_n"] = (errs["hi"] < errs["lo"], errs["hi"], errs["lo"])
        return res


class Continuum(Workload):
    """Regional fractional Laplacian on two grids and the continuum seminorm."""

    support = (0.25, 0.75)

    def make_plan(self, rnd):
        amp = rnd.uniform(0.5, 2.0)
        bump = {"gamma": GAMMA, "support": list(self.support), "amp": amp}
        self.points = {n: sorted(rnd.sample(range(1, n), 4)) for n in (64, 128)}
        # 10 outer panels instead of the default 160: the support's edges are
        # panel edges either way, and the value is the same to 1e-12 at a
        # tenth of the cost, so that a run holds more rounds
        return [{"name": "grid64", "kind": "regional_grid", "n": 64, **bump},
                {"name": "grid128", "kind": "regional_grid", "n": 128, **bump},
                {"name": "seminorm", "kind": "continuum_seminorm", "n_outer": 10, **bump}]

    def make_oracle(self):
        amp = self.plan[0]["amp"]
        F = O.bump_function(*self.support, amp)
        out = {"energy": O.energy_pairing(GAMMA, F, 16, 16)}
        for n, xs in self.points.items():
            g = O.smooth_bump(O.grid(n), *self.support, amp)
            p = O.kernel_matrix(n, GAMMA)
            out[n] = {"regional": {x: O.regional_laplacian(GAMMA, F, x / n) for x in xs},
                      "laplacian": n ** GAMMA * (p @ g - p.sum(axis=1) * g),
                      "seminorm": float(O.seminorm_sq(n, GAMMA, g)[0])}
        return out

    def check(self, op, out_dir, capture, outputs):
        vals = _load(os.path.join(out_dir, "values.json"))
        outputs[op["name"]] = vals
        orc = self.oracle
        if op["kind"] == "regional_grid":
            ref = orc[op["n"]]
            quad = max(abs(vals["regional"][x - 1] - v) / max(1.0, abs(v))
                       for x, v in ref["regional"].items())
            lap = float(np.max(np.abs(np.array(vals["discrete_laplacian"]) - ref["laplacian"]))
                        / np.max(np.abs(ref["laplacian"])))
            semi = _rel(vals["discrete_seminorm"], ref["seminorm"])
            return {"regional_matches_quad": (quad <= 1e-7, quad, 1e-7),
                    "discrete_laplacian_matches_oracle": (lap <= 1e-10, lap, 1e-10),
                    "discrete_seminorm_matches_oracle": (semi <= 1e-10, semi, 1e-10)}
        cont = vals["seminorm"]
        green = _rel(cont, orc["energy"])
        gaps = [abs(outputs[name]["discrete_seminorm"] - cont) for name in ("grid64", "grid128")]
        return {"seminorm_equals_energy_pairing": (green <= 1e-8, green, 1e-8),
                "discrete_gap_shrinks_with_n": (gaps[1] < gaps[0], gaps[1], gaps[0])}


class Combined(Workload):
    """The operations of several workloads, run in one round and each checked
    by the workload it comes from."""

    parts: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.members = [cls(seed) for cls in self.parts]
        self.plan = [op for member in self.members for op in member.plan]
        self.owner = {op["name"]: member for member in self.members for op in member.plan}
        self.oracle = None

    def prepare(self) -> None:
        for member in self.members:
            member.prepare()

    def check(self, op, out_dir, capture, outputs):
        return self.owner[op["name"]].check(op, out_dir, capture, outputs)


class MonteCarlo(Combined):
    """`simulate` on both noise routes: site noise (ensemble), edge noise (girsanov)."""

    parts = (Ensemble, Girsanov)


class Deterministic(Combined):
    """The path functionals, the spectrum, the hydro reference and the quadrature."""

    parts = (Paths, Continuum)


# Two workloads of 55 s rather than four of 30 s: the host slows every
# operation by 10 to 50 % for a minute or more at a time, and a longer run
# more often holds a stretch at the usual speed (perfbench/README.md, "Noise").
WORKLOADS = {"montecarlo": MonteCarlo, "deterministic": Deterministic}
