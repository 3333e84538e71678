import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fracgl import kernel, ness
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
    ["hydro-limit", "--replicas", "1"],
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
])
def test_bad_horizon_or_step_status_1(tmp_path, capsys, argv):
    # the fixed replica count goes first, so a case's own --replicas wins
    assert main(argv[:1] + ["--replicas", "20"] + argv[1:]
                + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "summary.json").exists()


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


@pytest.mark.parametrize("experiment, overrides, systems", [
    ("spectrum", dict(n=32), 1),
    ("rate-check", dict(n=16, T=0.01, dt=1e-3), 1),
    ("stationarity", dict(n=16, T=0.01, replicas=50), 1),
    ("martingale", dict(n=16, T=0.01, replicas=50), 1),
    # the second drift system is the Cholesky solve of girsanov's exact q
    ("girsanov", dict(n=16, T=0.01, replicas=50), 2),
])
def test_experiment_solves_its_profile_once(tmp_path, monkeypatch, experiment,
                                            overrides, systems):
    # one stationary-profile solve per model, handed down to every layer; a
    # drift system also counts a solve hidden behind solve_spd(b)
    calls = {"profile": [], "system": []}
    for fn, key in ((ness.solve_stationary_profile, "profile"),
                    (kernel.build_drift_system, "system")):
        def counted(params, *args, _fn=fn, _key=key, **kwargs):
            calls[_key].append(params)
            return _fn(params, *args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "fracgl" or name.startswith("fracgl."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    cfg = ExperimentConfig(experiment=experiment, out_dir=str(tmp_path),
                           **{**DEFAULTS[experiment], **overrides})
    assert run(cfg) in (0, 2)
    assert calls["profile"] == [cfg.params()]
    assert calls["system"] == [cfg.params()] * systems


def test_experiment_defaults_table():
    for name, values in DEFAULTS.items():
        cfg = ExperimentConfig(experiment=name, **values)
        cfg.params()  # validates


# values each input rejects; an example swaps in at most one of them
_INVALID = {"n": [0, 1, 2, -4], "gamma": [0.0, -1.5, 1.0, 2.0, NAN, INF],
            "phi_l": [NAN, INF, -INF], "phi_r": [NAN, INF, -INF],
            "T": [0.0, -0.5, NAN, INF],
            "dt": [0.0, -1e-3, NAN, INF], "replicas": [0, 1, -3]}


# valid input whose weights are all exactly 1.0, so the mean-one se is 0
@example(experiment="girsanov", n=3, gamma=1.2, phi_l=0.0, phi_r=0.0, steps=1, dt=1e-05,
         replicas=2, seed=0, invalid=None)
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
           [(key, value) for key, values in _INVALID.items() for value in values])))
def test_cli_input_contract(experiment, n, gamma, phi_l, phi_r, steps, dt, replicas,
                            seed, invalid):
    # any input ends in exit 0 or 2 with a summary, or exit 1 with one line;
    # n <= 24, replicas <= 40 and T / dt <= 200 keep each run small
    cfg = dict(n=n, gamma=gamma, phi_l=phi_l, phi_r=phi_r, T=steps * dt, dt=dt,
               replicas=replicas, seed=seed)
    if invalid is not None:
        cfg[invalid[0]] = invalid[1]
    # --flag=value, since argparse reads "-inf" or "-1e-05" after a space as a flag
    argv = [experiment] + [f"--{key.lower().replace('_', '-')}={value!r}"
                           for key, value in cfg.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        status = main(argv + ["--out", out])
        wrote_summary = os.path.exists(os.path.join(out, "summary.json"))
    assert status in (0, 1, 2)
    if status == 1:
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) == 1
    assert wrote_summary == (status != 1)
