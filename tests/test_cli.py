import contextlib
import csv
import io
import json
import os
import re
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracgl import ModelParams, dirichlet_spectrum, kernel, ness
from fracgl.cli import main
from fracgl.experiments import DEFAULTS, EXPERIMENTS, ExperimentConfig, run

NAN, INF = float("nan"), float("inf")


def test_figure1_artifacts(tmp_path):
    status = main(["figure1", "--out", str(tmp_path)])
    assert status == 0
    assert (tmp_path / "profile.csv").exists()
    assert (tmp_path / "profile.svg").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["config"]["n"] == 200
    assert summary["config"]["gamma"] == 1.5
    assert summary["checks"]["range"]["pass"]
    assert summary["checks"]["midpoint"]["pass"]
    for check in summary["checks"].values():
        assert "threshold" in check
    svg = (tmp_path / "profile.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("argv", [["ness-profile", "--n", "1024", "--phi-r", "30"],
                                  ["figure1", "--n", "1024", "--phi-r", "100"]])
def test_large_n_profiles_pass_their_symmetry_checks(tmp_path, argv):
    # the mean plus an odd part: antisymmetry and midpoint hold to rounding
    assert main(argv + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("phi_l, phi_r", [(1.0, 2.0), (2.0, 1.0)])
def test_figure1_monotone_value_is_smallest_step(tmp_path, phi_l, phi_r):
    assert main(["figure1", "--phi-l", str(phi_l), "--phi-r", str(phi_r),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    phi = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)[:, 2]
    assert summary["checks"]["monotone"]["value"] == np.abs(np.diff(phi)).min()


_FROZEN_PATHS = json.loads((Path(__file__).parent / "frozen_paths.json").read_text())
FROZEN = _FROZEN_PATHS["summaries"]
ARTIFACTS = {exp: files for exp, files in _FROZEN_PATHS["artifacts"].items() if exp != "note"}


def _assert_frozen(value, frozen, where):
    if isinstance(frozen, dict):
        for key in frozen:
            _assert_frozen(value[key], frozen[key], f"{where}.{key}")
    elif isinstance(frozen, list):
        assert len(value) == len(frozen), where
        for i, (item, frozen_item) in enumerate(zip(value, frozen)):
            _assert_frozen(item, frozen_item, f"{where}[{i}]")
    elif isinstance(frozen, str):
        assert value == frozen, where
    else:
        assert value == pytest.approx(frozen, rel=1e-13, abs=0), where


@pytest.mark.parametrize("experiment", sorted(FROZEN))
def test_deterministic_outputs_match_frozen_values(tmp_path, experiment):
    assert main([experiment, "--out", str(tmp_path)]) == 0
    outputs = json.loads((tmp_path / "summary.json").read_text())["outputs"]
    _assert_frozen(outputs, FROZEN[experiment], experiment)


@pytest.mark.parametrize("experiment", sorted(ARTIFACTS))
def test_artifacts_match_frozen_files(tmp_path, experiment):
    # each CSV's header, row count and values; each JSON's keys in written order
    assert main([experiment, "--out", str(tmp_path)]) == 0
    for name, frozen in ARTIFACTS[experiment].items():
        text = (tmp_path / name).read_text()
        if name.endswith(".json"):
            keys = re.compile(r'"(\w+)":')
            assert keys.findall(text) == keys.findall(json.dumps(frozen)), name
            _assert_frozen(json.loads(text), frozen, name)
            continue
        header, *rows = csv.reader(io.StringIO(text))
        assert header == frozen["header"], name
        assert len(rows) == frozen["rows"], name
        _assert_frozen([[float(v) for v in row] for row in rows], frozen["values"], name)


def test_missing_out_dir_fails_with_status_1(tmp_path):
    missing = tmp_path / "not-there"
    status = main(["figure1", "--out", str(missing)])
    assert status == 1
    assert not missing.exists()


def test_unknown_experiment_is_usage_error(capsys):
    assert main(["no-such-thing"]) == 1


def test_invalid_params_status_1(tmp_path):
    assert main(["ness-profile", "--gamma", "2.5", "--out", str(tmp_path)]) == 1
    assert main(["ness-profile", "--n", "2", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["stationarity", "--dt", "0"],
    ["stationarity", "--t", "-0.5"],
    ["girsanov", "--t", "0"],
    ["martingale", "--dt", "0.01"],
    ["stationarity", "--dt", "nan"],
    ["stationarity", "--replicas", "1"],
    ["martingale", "--replicas", "1"],
    ["girsanov", "--replicas", "1"],
    ["hydro-limit", "--replicas", "0"],
    ["adjoint", "--n", "40"],
    ["hydro-limit", "--n", "3"],
    ["figure1", "--phi-l", "1", "--phi-r", "1"],
    ["stationarity", "--n", "3"],
    ["spectrum", "--t", "1e300"],
    ["figure1", "--n", "100000"],
    ["rate-check", "--n", "3"],
    ["rate-check", "--n", "5"],
    ["spectrum", "--t", "0.5"],
    ["stationarity", "--phi-l", "-inf"],
    ["stationarity", "--n", "nan"],
    ["rate-check", "--t", "1e4"],
    ["girsanov", "--t", "1e300", "--dt", "1e-10"],
    ["girsanov", "--t", "1e6"],
])
def test_bad_horizon_or_step_status_1(tmp_path, capsys, argv):
    # the fixed replica count goes first, so a case's own --replicas wins
    assert main(argv[:1] + ["--replicas", "20"] + argv[1:]
                + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "summary.json").exists()


def test_hydro_limit_above_the_cap_names_its_sector_arrays(tmp_path, capsys):
    # hydro-limit builds no (n-1)^2 matrix: the one-line message names its
    # half-size sector matrix and Lanczos basis, (n // 2)^2 floats each
    assert main(["hydro-limit", "--n", "5000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "sector matrix" in err and "Lanczos basis" in err and "(n-1)^2" not in err
    assert f"({2500 ** 2 * 8 / 2 ** 30:.3g} GiB each" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("experiment", ["ness-profile", "figure1"])
def test_profile_above_the_cap_names_its_sector_matrix(tmp_path, capsys, experiment):
    # the profile is one solve on the odd sector: the one-line message names
    # its half-size matrix and factor, ((n-1) // 2)^2 floats, and no (n-1)^2 array
    assert main([experiment, "--n", "100000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "odd sector's half-size matrix" in err and "Cholesky factor" in err
    assert "(n-1)^2" not in err and "dense" not in err
    assert f"({49999 ** 2 * 8 / 2 ** 30:.3g} GiB each" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("experiment,reason", [
    ("spectrum", "the spectrum's dense (n-1)^2 modes"),
    ("rate-check", "the spectrum's dense (n-1)^2 modes"),
    ("adjoint", "adjoint needs n <= 16"),
])
def test_dense_cap_names_what_the_experiment_builds(tmp_path, capsys, experiment, reason):
    # no dense M is built: above the cap the largest array is the spectrum's
    # modes, and adjoint, which reads no spectrum, is held to its own cap
    assert main([experiment, "--n", "5000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and reason in err
    assert not (tmp_path / "summary.json").exists()


def test_adjoint_invariance_gate_scales_with_the_reservoirs(tmp_path):
    # the residual grows with the profile's ulp: 2.7e-9 here, above an absolute 1e-10
    assert main(["adjoint", "--phi-l=-1e6", "--phi-r", "1e6", "--out", str(tmp_path)]) == 0


def test_hydro_limit_runs_with_one_replica(tmp_path):
    # its se is the exact law's sqrt(v / R), not a sample spread
    assert main(["hydro-limit", "--replicas", "1", "--out", str(tmp_path)]) in (0, 2)
    outputs = json.loads((tmp_path / "summary.json").read_text())["outputs"]
    assert np.isfinite(outputs["avg_se_lo"]) and np.isfinite(outputs["avg_se_hi"])


@pytest.mark.parametrize("value", ["-1e-05", "-1E3", "-0.5"])
def test_negative_value_after_a_space(tmp_path, value):
    # argparse alone reads "-1e-05" after a space as a flag
    assert main(["stationarity", "--phi-l", value, "--t", "0.01", "--replicas", "50",
                 "--out", str(tmp_path)]) in (0, 2)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["phi_l"] == float(value)


def test_stationarity_reports_the_exact_chain_bias(tmp_path):
    # per site, Var phi_T = sum_k e_k^2 [r^2K / n + (1 - r^2K) / (n (1 - h lambda / 2))]
    # from the NESS start, with r = 1 - h lambda; the mean keeps Phi_ss
    cfg = ExperimentConfig(experiment="stationarity", n=16, T=0.01, dt=5e-4,
                           replicas=50, out_dir=str(tmp_path))
    assert run(cfg) in (0, 2)
    outputs = json.loads((tmp_path / "summary.json").read_text())["outputs"]
    spec = dirichlet_spectrum(cfg.params())
    lam, r2k = spec.eigenvalues, (1.0 - 5e-4 * spec.eigenvalues) ** 40
    var = spec.modes ** 2 @ ((r2k + (1.0 - r2k) / (1.0 - 2.5e-4 * lam)) / 16)
    se = np.sqrt(2.0 / 49)
    assert outputs["var_bias_se"] == pytest.approx(np.max(np.abs(var - 1.0)) / se, rel=1e-10)
    assert outputs["mean_bias_se"] == 0.0


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\ngamma = 1.4\nphi-l = 1.0\nphi-r = 2.0\nseed = 7\n")
    out = tmp_path / "out"
    out.mkdir()
    status = main(["ness-profile", "--config", str(cfg), "--n", "16",
                   "--out", str(out)])
    assert status == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == 16       # flag wins over file
    assert summary["config"]["gamma"] == 1.4  # file wins over defaults


def test_bad_config_file(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense line\n")
    assert main(["ness-profile", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    cfg.write_text("unknown_key = 3\n")
    assert main(["ness-profile", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_reproducible_summary(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    for out in (out1, out2):
        assert main(["ness-profile", "--n", "24", "--seed", "99",
                     "--out", str(out)]) == 0
    s1 = (out1 / "summary.json").read_text().replace(str(out1), "OUT")
    s2 = (out2 / "summary.json").read_text().replace(str(out2), "OUT")
    assert s1 == s2


def test_run_rejects_bad_replicas(tmp_path):
    cfg = ExperimentConfig(experiment="ness-profile", replicas=0,
                           out_dir=str(tmp_path))
    assert run(cfg) == 1


def _count_solves(monkeypatch, cfg):
    """Run `cfg` in a fresh drift-system cache; return its stationary-profile
    solves (their params), the sizes of all its `eigh` calls and of those of
    a sector's matrix alone, in order."""
    calls = {"profile": [], "eigh": [], "sector_eigh": []}
    made = []
    sector_matrix = kernel.DriftSystem._sector_matrix

    def recorded(self, parity):
        made.append(sector_matrix(self, parity))
        return made[-1]
    fn = ness.solve_stationary_profile

    def counted(params, *args, **kwargs):
        calls["profile"].append(params)
        return fn(params, *args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "fracgl" or name.startswith("fracgl."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    eigh = kernel.eigh

    def counted_eigh(a, *args, **kwargs):
        calls["eigh"].append(a.shape[0])
        if any(a is m for m in made):
            calls["sector_eigh"].append(a.shape[0])
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(kernel.DriftSystem, "_sector_matrix", recorded)
    monkeypatch.setattr(kernel, "eigh", counted_eigh)
    monkeypatch.setattr(kernel, "_drift_system", lru_cache(maxsize=8)(kernel.DriftSystem))
    assert run(cfg) in (0, 2)
    return calls


@pytest.mark.parametrize("experiment, overrides, spectra", [
    ("spectrum", dict(n=32), 1),
    ("rate-check", dict(n=16, T=0.01, dt=1e-3), 1),
    ("stationarity", dict(n=16, T=0.01, replicas=50), 1),
    ("martingale", dict(n=16, T=0.01, replicas=50), 1),
    ("girsanov", dict(n=16, T=0.01, replicas=50), 1),
    ("ness-profile", dict(n=33), 0),
    ("figure1", dict(n=32), 0),
])
def test_experiment_solves_its_profile_once(tmp_path, monkeypatch, experiment,
                                            overrides, spectra):
    # one stationary-profile solve per model, handed down to every layer; it
    # makes no eigh in a fresh drift-system cache, and the two half-size ones
    # of the even and odd sectors come only where the full spectrum is read
    # (`spectra`, 0 or 1); the profile alone leaves no spectrum
    cfg = ExperimentConfig(experiment=experiment, out_dir=str(tmp_path),
                           **{**DEFAULTS[experiment], **overrides})
    calls = _count_solves(monkeypatch, cfg)
    assert calls["profile"] == [cfg.params()]
    assert calls["eigh"] == [cfg.n // 2, (cfg.n - 1) // 2] * spectra
    if not spectra:
        system = kernel.build_drift_system(cfg.params())
        assert "_spectrum" not in vars(system)


def test_hydro_limit_makes_no_sector_eigh(tmp_path, monkeypatch):
    # the n = 1024 reference and both Monte Carlo lattices (n = 8, 16) pair
    # through the even sector's matrix by shift-and-invert Lanczos and draw
    # the pairings from their exact law: no profile solve, no eigh of a
    # sector's matrix (only the spectrum makes one), no spectrum and no state
    # draws
    from fracgl import simulate

    def no_states(*args, **kwargs):
        raise AssertionError("hydro-limit drew states")
    monkeypatch.setattr(simulate, "propagate_exact", no_states)
    cfg = ExperimentConfig(experiment="hydro-limit", n=16, T=0.01, replicas=50,
                           out_dir=str(tmp_path))
    calls = _count_solves(monkeypatch, cfg)
    assert calls["profile"] == [] and calls["sector_eigh"] == []
    assert kernel._drift_system.cache_info().currsize == 3
    for n in (8, 16, 1024):
        system = kernel.build_drift_system(ModelParams(n, cfg.gamma))
        assert "_spectrum" not in vars(system), n


@pytest.mark.parametrize("horizon", ["1e-300", "1e300"])
def test_hydro_limit_at_extreme_horizons(tmp_path, horizon):
    # (I + sigma A) is I to rounding at the one end and sigma A overflows
    # unless scaled at the other; the run ends with a finite summary either way
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main(["hydro-limit", f"--t={horizon}", "--replicas", "50",
                       "--out", str(tmp_path)])
    assert status in (0, 2), err.getvalue()
    summary = json.loads((tmp_path / "summary.json").read_text())
    values = [c["value"] for c in summary["checks"].values()]
    assert np.all(np.isfinite(values + list(summary["outputs"].values())))


def test_girsanov_seeds_seven_apart_share_no_stream(tmp_path, monkeypatch):
    # each run draws its tilted pair from streams of its own seed only; two
    # chains on one stream would give equal log-weights up to their means
    from fracgl import simulate
    log_weights, draw = [], simulate.euler_ensemble

    def kept(*args, **kwargs):
        out = draw(*args, **kwargs)
        log_weights.append(out["log_weight"] - out["log_weight"].mean())
        return out
    monkeypatch.setattr(simulate, "euler_ensemble", kept)
    for seed in (1234, 1241):
        out = tmp_path / str(seed)
        out.mkdir()
        assert main(["girsanov", "--n", "16", "--t", "0.01", "--replicas", "50",
                     "--seed", str(seed), "--out", str(out)]) in (0, 2)
    assert len(log_weights) == 4
    for a in log_weights[:2]:
        for b in log_weights[2:]:
            assert not np.isclose(a, b).any()


def test_experiment_defaults_table():
    for name, values in DEFAULTS.items():
        cfg = ExperimentConfig(experiment=name, **values)
        cfg.params()  # validates


# values each input rejects; an example swaps in at most one of them
_INVALID = {"n": [0, 1, 2, -4], "gamma": [0.0, -1.5, 1.0, 2.0, NAN, INF],
            "phi_l": [NAN, INF, -INF], "phi_r": [NAN, INF, -INF],
            "T": [0.0, -0.5, NAN, INF],
            "dt": [0.0, -1e-3, NAN, INF], "replicas": [0, 1, -3]}


# valid input whose n=1024 reference profile is flat, once solved outside the
# maximum principle's slack
@example(experiment="hydro-limit", n=9, gamma=1.5, phi_l=1.0, phi_r=1.0, steps=1, dt=1e-05,
         replicas=2, seed=0, invalid=None, spaced=True)
# valid input whose weights are all exactly 1.0, so the mean-one se is 0
@example(experiment="girsanov", n=3, gamma=1.2, phi_l=0.0, phi_r=0.0, steps=1, dt=1e-05,
         replicas=2, seed=0, invalid=None, spaced=False)
# valid input whose profile, stored near 1e6, carries an ulp of 1.2e-10
@example(experiment="ness-profile", n=8, gamma=1.5, phi_l=1e6, phi_r=1000001.0, steps=1,
         dt=1e-05, replicas=2, seed=0, invalid=None, spaced=True)
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(experiment=st.sampled_from(sorted(EXPERIMENTS)),
       n=st.integers(3, 24),
       gamma=st.sampled_from([1.2, 1.5, 1.8]),
       phi_l=st.floats(-2.0, 2.0),
       phi_r=st.floats(-2.0, 2.0),
       steps=st.integers(1, 200),
       dt=st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2]),
       replicas=st.integers(2, 40),
       seed=st.integers(-5, 10 ** 6),
       invalid=st.one_of(st.none(), st.sampled_from(
           [(key, value) for key, values in _INVALID.items() for value in values])),
       spaced=st.booleans())
def test_cli_input_contract(experiment, n, gamma, phi_l, phi_r, steps, dt, replicas,
                            seed, invalid, spaced):
    # any input ends in exit 0 or 2 with a summary, or exit 1 with one line;
    # n <= 24, replicas <= 40 and T / dt <= 200 keep each run small
    cfg = dict(n=n, gamma=gamma, phi_l=phi_l, phi_r=phi_r, T=steps * dt, dt=dt,
               replicas=replicas, seed=seed)
    if invalid is not None:
        cfg[invalid[0]] = invalid[1]
    # each value after a space ("--t -1e-05") or joined ("--t=-1e-05")
    argv = [experiment]
    for key, value in cfg.items():
        flag = f"--{key.lower().replace('_', '-')}"
        argv += [flag, repr(value)] if spaced else [f"{flag}={value!r}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        status = main(argv + ["--out", out])
        wrote_summary = os.path.exists(os.path.join(out, "summary.json"))
    assert status in (0, 1, 2)
    if status == 1:
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) == 1
    assert wrote_summary == (status != 1)
