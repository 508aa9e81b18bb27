"""End-to-end tests for the command-line layer: config, plots, commands."""

import contextlib
import hashlib
import importlib.resources
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifurc import __version__
from bifurc.cli import _OVERLAYS, _sde_config, main
from bifurc.config import (
    RunConfig,
    build_config,
    env_overrides,
    load_preset,
)
from bifurc.errors import ConfigError
from bifurc.escape_lab import read_sweep_csv, write_sweep_csv
from bifurc.experiments import TrajectoryLog, read_trajectory_csv, write_trajectory_csv
from bifurc.gmm_probe import CriticalityReading
from bifurc.sde import persistence_stats, simulate_coupled_modes
from bifurc.svgplot import line_chart
from bifurc.errors import ValidationError
from oracles import dump_config


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def tree_digest(root):
    """Name -> sha256 for every file under root (flat)."""
    out = {}
    for p in sorted(root.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfigLayer:
    def test_defaults_present(self):
        cfg = RunConfig()
        assert cfg.get_int("probe", "k") == 10
        assert cfg.get_float("probe", "lr_means") == 5e-3
        assert cfg.get_float("probe", "lr_logbeta") == 1e-2
        assert cfg.get_float("probe", "log_beta_init") == -2.5
        assert cfg.seeds() == [0]

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match=r"probe\.not_a_key"):
            RunConfig({"probe": {"not_a_key": "3"}})

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match=r"\[warp\]"):
            RunConfig({"warp": {"k": "3"}})

    def test_bad_value_names_key(self):
        cfg = RunConfig({"probe": {"k": "many"}})
        with pytest.raises(ConfigError, match=r"probe\.k"):
            cfg.get_int("probe", "k")

    def test_hash_ignores_run_section(self):
        a = RunConfig({"run": {"out": "x", "seeds": "0"}})
        b = RunConfig({"run": {"out": "y", "seeds": "4,5"}})
        c = RunConfig({"probe": {"k": "3"}})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash
        assert len(a.config_hash) == 12

    def test_env_overrides_parse_and_reject(self):
        assert env_overrides({"BIFURC_PROBE__LR_MEANS": "0.5"}) == {
            "probe": {"lr_means": "0.5"}
        }
        assert env_overrides({"HOME": "/root"}) == {}
        with pytest.raises(ConfigError):
            env_overrides({"BIFURC_NOSEPARATOR": "1"})

    def test_layer_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[probe]\nk = 3\nlr_means = 0.11\n")
        cfg = build_config(
            overlay={"probe": {"k": "7", "lr_logbeta": "0.9"}},
            path=ini,
            environ={"BIFURC_PROBE__LR_MEANS": "0.22"},
            flags={"probe": {"k": "5"}},
        )
        assert cfg.get_int("probe", "k") == 5  # flag beats file beats overlay
        assert cfg.get_float("probe", "lr_means") == 0.22  # env beats file
        assert cfg.get_float("probe", "lr_logbeta") == 0.9  # overlay beats default

    def test_preset_bundled_and_unknown(self):
        sections = load_preset("appendix-d3")
        assert sections["sde"]["modes"] == "200"
        assert sections["run"]["seeds"] == "0,1,2,3,4"
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("no-such-preset")

    def test_list_and_optional_accessors(self):
        cfg = RunConfig({"escape": {"gammas": "0.0, 1e-3"}, "sde": {"eps0": ""}})
        assert cfg.get_float_list("escape", "gammas") == [0.0, 1e-3]
        assert cfg.get_optional_float("sde", "eps0") is None
        with pytest.raises(ConfigError):
            cfg.get_choice("hessian", "source", {"nope"})

    def test_malformed_ini_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("probe]\nk = 1\n")
        with pytest.raises(ConfigError, match="malformed"):
            build_config(path=bad)

    @pytest.mark.parametrize("raw", ["-1", "0,-2", "1,1", "3, 2,3", ""])
    def test_seed_list_must_be_distinct_and_non_negative(self, raw):
        with pytest.raises(ConfigError, match=r"run\.seeds"):
            RunConfig({"run": {"seeds": raw}}).seeds()
        assert RunConfig({"run": {"seeds": "2, 0,7"}}).seeds() == [2, 0, 7]

    def test_dump_config_lists_sections(self):
        text = dump_config(RunConfig())
        assert "[probe]" in text and "lr_means = 5e-3" in text


class TestSvgPlot:
    def test_rejects_empty_and_mismatched(self, tmp_path):
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "a.svg", [])
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "b.svg", [("s", [1, 2], [1])])
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "c.svg", [("s", [1.0], [float("nan")])])

    def test_writes_polyline_and_legend(self, tmp_path):
        p = tmp_path / "chart.svg"
        line_chart(
            p,
            [("alpha", [0, 1, 2], [0.0, 1.0, float("nan")]), ("dot", [5], [5.0])],
            title="t < check & escape",
            x_label="x",
            y_label="y",
        )
        text = p.read_text()
        assert "<polyline" in text and "<circle" in text
        assert "alpha" in text and "t &lt; check &amp; escape" in text

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = [("s", [0.0, 1.0], [2.0, 3.0])]
        line_chart(a, series)
        line_chart(b, series)
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_unknown_config_key_exits_2_naming_it(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[probe]\nnot_a_key = 3\n")
        code = main(["toy", "bimodal", "--config", str(ini), "--out", str(tmp_path)])
        assert code == 2
        assert "probe.not_a_key" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = main(["sde", "coupled", "--preset", "ghost", "--out", str(tmp_path)])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_missing_input_exits_4(self, tmp_path, capsys):
        code = main(["classify", "--input", "/nope/missing.csv", "--out", str(tmp_path)])
        assert code == 4

    def test_missing_columns_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,foo\n1,2\n")
        code = main(["classify", "--input", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_zero_seed_sweep_exits_2(self, tmp_path, capsys):
        code = main(["toy", "bimodal", "--seeds", "0", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "command,env",
        [
            ("bimodal", {"BIFURC_PROBE__LR_LOGBETA": "50"}),  # exp(log beta) underflows to 0
            ("bimodal", {"BIFURC_PROBE__LOG_BETA_INIT": "800"}),  # exp(log beta) overflows
            # the last step's log beta is finite, but its exp overflows
            ("bimodal", {"BIFURC_PROBE__LR_LOGBETA": "1e6", "BIFURC_EXPERIMENT__STEPS": "1"}),
            ("endogenous", {"BIFURC_PROBE__LR_LOGBETA": "1e6", "BIFURC_EXPERIMENT__STEPS": "1"}),
        ],
    )
    def test_precision_out_of_float_range_exits_3(self, tmp_path, capsys, monkeypatch, command,
                                                  env):
        small = {"BIFURC_DATA__N": "200", "BIFURC_EXPERIMENT__STEPS": "50"}
        for key, value in {**small, **env}.items():
            monkeypatch.setenv(key, value)
        assert main(["toy", command, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "precision exp(" in err

    @pytest.mark.parametrize(
        "command,env",
        [
            ("endogenous", {"BIFURC_EXPERIMENT__LATENT_DIM": "0"}),
            ("endogenous", {"BIFURC_EXPERIMENT__LATENT_DIM": "-1"}),
            ("endogenous", {"BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
            ("hierarchy", {"BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
            ("endogenous", {"BIFURC_EXPERIMENT__ENCODER_LR": "nan"}),
            ("endogenous", {"BIFURC_EXPERIMENT__INIT_WEIGHT_SCALE": "nan"}),
            ("endogenous", {"BIFURC_EXPERIMENT__INIT_WEIGHT_SCALE": "1e-159"}),  # variance < 1e-308
            # one-level variant: the within-super lambda_max is subnormal
            ("hierarchy", {"BIFURC_DATA__SUB_SPACING": "0",
                           "BIFURC_DATA__SCALE": "1e-160"}),
            ("bimodal", {"BIFURC_EXPERIMENT__STEPS": "0"}),
            ("endogenous", {"BIFURC_EXPERIMENT__STEPS": "0"}),
            ("bimodal", {"BIFURC_EXPERIMENT__MODE": "anneal",
                         "BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
            ("reverse", {"BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
        ],
    )
    def test_bad_experiment_shape_exits_2(self, tmp_path, capsys, monkeypatch, command, env):
        for key, value in {**env, "BIFURC_DATA__N": "200"}.items():
            monkeypatch.setenv(key, value)
        assert main(["toy", command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if "BIFURC_DATA__SUB_SPACING" in env:
            assert "within-super degenerate covariance" in err

    @pytest.mark.parametrize(
        "command,key",
        [
            ("bimodal", "BIFURC_DATA__SCALE"),
            ("bimodal", "BIFURC_DATA__CENTER_OFFSET"),
            ("hierarchy", "BIFURC_DATA__SCALE"),
        ],
    )
    def test_nan_data_parameter_exits_2(self, tmp_path, capsys, monkeypatch, command, key):
        for k, value in {key: "nan", "BIFURC_DATA__N": "50"}.items():
            monkeypatch.setenv(k, value)
        assert main(["toy", command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,seeds",
        [
            (["toy", "bimodal"], "-1"),
            (["calibrate-hessian"], "-1"),
            (["sde", "pitchfork"], "1,1"),  # two workers would write one CSV
            (["escape", "sweep"], "-1"),
        ],
    )
    def test_bad_seed_list_exits_2_before_writing(self, tmp_path, capsys, monkeypatch, argv,
                                                  seeds):
        if seeds.startswith("-"):
            argv = argv + ["--seed", seeds]
        else:
            monkeypatch.setenv("BIFURC_RUN__SEEDS", seeds)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run.seeds" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,key",
        [
            ("bimodal", "BIFURC_DATA__CENTER_OFFSET"),
            ("bimodal", "BIFURC_DATA__SCALE"),
            ("hierarchy", "BIFURC_DATA__SUPER_SPACING"),
            ("hierarchy", "BIFURC_DATA__SCALE"),
        ],
    )
    def test_overflowing_data_exits_2_without_numpy_warnings(self, tmp_path, command, key):
        env = {**os.environ, key: "1e200", "BIFURC_DATA__N": "50"}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifurc",
             "toy", command, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "overflow" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["toy", "bimodal"], ["toy", "hierarchy"], ["toy", "reverse"], ["toy", "endogenous"],
         ["calibrate-hessian"]],
    )
    def test_dim_other_than_2_on_2d_data_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("BIFURC_DATA__DIM", "7")
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "data.dim" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,key,value",
        [("toy reverse", "experiment.steps", "0"),
         ("toy reverse", "experiment.mode", "anneal"),
         ("toy hierarchy", "experiment.steps", "100"),
         ("toy hierarchy", "experiment.mode", "bogus"),
         *[(f"toy {command}", f"experiment.{key}", value)
           for command in ("bimodal", "unimodal", "reverse", "hierarchy")
           for key, value in (("encoder_lr", "5"), ("latent_dim", "3"),
                              ("init_weight_scale", "0.3"))],
         ("toy endogenous", "experiment.mode", "anneal"),
         # the anneal drive runs at its own rate; the hierarchy has no precision channel
         ("toy reverse", "probe.lr_means", "0.5"),
         ("toy reverse", "probe.lr_logbeta", "0.5"),
         ("toy hierarchy", "probe.lr_logbeta", "0.5"),
         ("toy hierarchy", "probe.log_beta_init", "1.0"),
         # 100 would also break the stability guard of a term that is never integrated
         ("sde pitchfork", "sde.coupling", "5"),
         ("sde pitchfork", "sde.coupling", "100"),
         ("sde coupled", "sde.eps0", "0.5"),
         *[("escape sweep", f"sde.{key}", value)
           for key, value in (("coupling", "1e-3"), ("steps", "10"), ("modes", "2"),
                              ("dim", "2"), ("eps0", "1e-3"))]],
    )
    def test_unread_key_exits_2(self, tmp_path, capsys, monkeypatch, command, key, value):
        # the command does not read the key, which would move only the config hash
        section, name = key.split(".")
        monkeypatch.setenv(f"BIFURC_{section.upper()}__{name.upper()}", value)
        monkeypatch.setenv("BIFURC_DATA__N", "300")
        assert main([*command.split(), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command,env",
        [("toy reverse", {}), ("toy bimodal", {"BIFURC_EXPERIMENT__MODE": "anneal"})],
    )
    def test_one_prototype_anneal_exits_2(self, tmp_path, capsys, monkeypatch, command, env):
        # one prototype has no anti-symmetric channel: the anneal hold could not end early
        for name, value in {"BIFURC_PROBE__K": "1", "BIFURC_DATA__N": "300", **env}.items():
            monkeypatch.setenv(name, value)
        assert main([*command.split(), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "probe.k >= 2" in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_zero_dim_identity_hessian_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", "identity")
        monkeypatch.setenv("BIFURC_DATA__DIM", "0")
        assert main(["calibrate-hessian", "--out", str(tmp_path)]) == 2
        assert "data.dim" in capsys.readouterr().err

    def test_oversized_hessian_exits_2_before_building_it(self, tmp_path, capsys, monkeypatch):
        # K d = 4,098: each finite-difference Hessian would take 8,196 gradient calls
        monkeypatch.setenv("BIFURC_PROBE__K", "2049")
        assert main(["calibrate-hessian", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "K*d <= 4096" in err

    def test_degenerate_hessian_covariance_exits_2(self, tmp_path, capsys, monkeypatch):
        # a subnormal lambda_max: beta_c = 1/lambda_max would overflow to inf
        monkeypatch.setenv("BIFURC_DATA__SCALE", "1e-160")
        monkeypatch.setenv("BIFURC_DATA__CENTER_OFFSET", "1e-160")
        assert main(["calibrate-hessian", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "degenerate covariance" in err

    def test_infinite_bracket_exits_2(self, tmp_path):
        # a bisection over [lo, inf] never narrows; it must be refused, not run
        env = {
            **os.environ,
            "BIFURC_HESSIAN__SOURCE": "identity",
            "BIFURC_HESSIAN__BRACKET_HI_RATIO": "inf",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "bifurc", "calibrate-hessian", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "bracket" in proc.stderr

    def test_huge_bracket_runs_without_numpy_warnings(self, tmp_path):
        # beta up to 1e308 overflows the channel eigenvalue to -inf; that must
        # stay plain float arithmetic, not a numpy overflow warning
        env = {
            **os.environ,
            "BIFURC_HESSIAN__SOURCE": "identity",
            "BIFURC_HESSIAN__BRACKET_HI_RATIO": "1e308",
        }
        script = (
            "import sys, warnings; warnings.simplefilter('error'); "
            "from bifurc.cli import main; "
            f"sys.exit(main(['calibrate-hessian', '--out', {str(tmp_path)!r}]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert read_json(tmp_path / "hessian_report.json")["beta_critical_analytic"] == 1.0

    def test_diverging_probe_exits_3_without_numpy_warnings(self, tmp_path):
        # the means overflow inside numpy before the finite guard sees them
        env = {
            **os.environ,
            "BIFURC_PROBE__LR_MEANS": "1e300",
            "BIFURC_DATA__N": "200",
            "BIFURC_EXPERIMENT__STEPS": "50",
        }
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifurc",
             "toy", "unimodal", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1

    def test_overflowing_hessian_data_exits_2_without_numpy_warnings(self, tmp_path):
        # samples at 1e200 overflow the covariance: bad input, as in the toy commands
        env = {**os.environ, "BIFURC_DATA__SCALE": "1e200"}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifurc",
             "calibrate-hessian", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "overflow" in proc.stderr
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["pitchfork", "coupled"])
    def test_overflowing_sde_state_exits_3_without_numpy_warnings(self, tmp_path, command):
        # noise of 1e300 sends the state to inf, then NaN, within two steps
        env = {
            **os.environ,
            "BIFURC_SDE__NOISE_INTENSITY": "1e300",
            "BIFURC_SDE__STEPS": "200",
        }
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifurc",
             "sde", command, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1
        assert not (tmp_path / f"sde-{command}_summary.json").exists()

    @pytest.mark.parametrize(
        "command,text",
        [
            (["classify"], "step,log_beta,log_beta_c,log_ratio,nc1,order_parameter\nx,1,2,3,4,5\n"),
            (["escape", "fit"], "gamma,tau_mean,tau_std,n_seeds,censored\n0.1,1.0,0.5,three,0\n"),
        ],
    )
    def test_non_numeric_csv_field_exits_2(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(command + ["--input", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad") and err.count("\n") == 1

    def test_bad_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["toy", "spiral"])
        assert err.value.code == 2

    def test_module_entry_point_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bifurc", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"bifurc {__version__}"


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "fixture,label",
        [
            ("exemplar_full_v.csv", "FullV"),
            ("exemplar_fold_back.csv", "FoldBack"),
            ("exemplar_no_arc.csv", "NoArc"),
        ],
    )
    def test_bundled_exemplars(self, tmp_path, capsys, fixture, label):
        code = main(["classify", "--input", fixture, "--out", str(tmp_path)])
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload["label"] == label
        file_payload = read_json(tmp_path / "classify.json")
        assert file_payload == stdout_payload
        assert file_payload["version"] == __version__
        assert len(file_payload["config_hash"]) == 12

    def test_constant_nc1_is_no_arc(self, tmp_path, capsys):
        log = TrajectoryLog("flat", 0)
        for i in range(40):
            r = -1.0 + 2.0 * i / 39
            log.append(
                CriticalityReading(
                    step=i, log_beta=r, log_beta_c=0.0, log_ratio=r,
                    nc1=10.0, order_parameter=1e-3,
                )
            )
        path = tmp_path / "flat.csv"
        write_trajectory_csv(log, path)
        code = main(["classify", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["label"] == "NoArc"


class TestEscapeCommands:
    def test_fit_reproduces_bundled_report(self, tmp_path, capsys):
        code = main(["escape", "fit", "--input", "table5.csv", "--out", str(tmp_path)])
        assert code == 0
        rep = read_json(tmp_path / "escape-fit.json")
        assert rep["delta_aic"] == pytest.approx(19.26, abs=0.1)
        assert rep["power_law"]["intercept"] == pytest.approx(9.11, abs=0.01)
        assert rep["power_law"]["slope"] == pytest.approx(-1.225, abs=0.005)
        assert rep["kramers"]["intercept"] == pytest.approx(11.65, abs=0.02)
        assert (tmp_path / "escape-fit.svg").exists()

    def test_sweep_gamma_zero_only_warns_and_exits_0(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[escape]\ngammas = 0.0\nseeds_per_gamma = 2\n")
        code = main(["escape", "sweep", "--config", str(ini), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "censored" in captured.err
        payload = read_json(tmp_path / "escape-sweep.json")
        assert payload["fit"] is None
        assert payload["warning"] is not None
        assert payload["per_gamma"] == [
            {
                "gamma": 0.0,
                "tau_mean": None,
                "tau_std": None,
                "n_seeds": 2,
                "n_censored": 2,
            }
        ]
        first = (tmp_path / "escape-sweep.csv").read_text().splitlines()[0]
        assert "config=" in first and "version=" in first

    def test_default_sweep_rows_are_pinned(self, tmp_path):
        # every value of the sweep's calibration shows in these rows: a wrong one moves them
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = [(s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored)
                for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        assert rows == [(0.0, None, None, 3, 3)] + [
            (gamma, tau, 0.0, 3, 0) for gamma, tau in
            ((1e-4, 420723.0), (3e-4, 148814.0), (1e-3, 45622.0), (3e-3, 15304.0),
             (1e-2, 4602.0))
        ]

    def test_sweep_with_nan_step_size_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFURC_SDE__DT", "nan")
        monkeypatch.setenv("BIFURC_ESCAPE__HORIZON", "100")
        assert main(["escape", "sweep", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dt" in err

    @pytest.mark.parametrize("noise,seed_matters", [("1e-12", True), ("0.0", False)])
    def test_sweep_is_seeded_by_the_first_run_seed(self, tmp_path, monkeypatch, noise,
                                                   seed_matters):
        for key, value in {"BIFURC_SDE__NOISE_INTENSITY": noise,
                           "BIFURC_ESCAPE__HORIZON": "20000",
                           "BIFURC_ESCAPE__GAMMAS": "1e-3,3e-3,1e-2"}.items():
            monkeypatch.setenv(key, value)
        digests = set()
        for seed in ("0", "1"):
            out = tmp_path / seed
            assert main(["escape", "sweep", "--seed", seed, "--out", str(out)]) == 0
            digests.add(hashlib.sha256((out / "escape-sweep.json").read_bytes()).hexdigest())
        assert len(digests) == (2 if seed_matters else 1)

    # 1e4 is finite, but dt * gamma * c = 5 at gamma = 1e-2, 25 times the stability limit
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e4"])
    def test_sweep_with_bad_tilt_curvature_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("BIFURC_ESCAPE__TILT_CURVATURE", value)
        monkeypatch.setenv("BIFURC_ESCAPE__HORIZON", "100")
        assert main(["escape", "sweep", "--out", str(tmp_path)]) == 2
        assert "tilt_curvature" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fit_with_too_few_levels_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text(
            "gamma,tau_mean,tau_std,n_seeds,censored\n"
            "1e-4,100.0,1.0,3,0\n"
            "1e-3,10.0,1.0,3,0\n"
        )
        code = main(["escape", "fit", "--input", str(csv), "--out", str(tmp_path)])
        assert code == 3


class TestSdeCommands:
    def test_pitchfork_saturates(self, tmp_path):
        code = main(["sde", "pitchfork", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "sde-pitchfork_summary.json")
        assert payload["saturation_amplitude"] == pytest.approx(1.0)
        assert abs(payload["per_seed"]["0"]["final_epsilon"]) == pytest.approx(
            1.0, abs=0.02
        )
        rows = (tmp_path / "sde-pitchfork_seed0.csv").read_text().splitlines()
        assert rows[0].startswith("# experiment=sde-pitchfork")
        assert rows[1] == "t,epsilon"
        assert float(rows[2].split(",")[1]) == pytest.approx(1e-3)

    def test_coupled_preset_five_seeds_persistence_band(self, tmp_path):
        code = main(
            ["sde", "coupled", "--preset", "appendix-d3", "--seeds", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = read_json(tmp_path / "sde-coupled_summary.json")
        assert payload["seeds"] == [0, 1, 2, 3, 4]
        assert 0.93 <= payload["mean_spearman_rho"] <= 0.97
        assert payload["min_spearman_rho"] > 0.90
        assert payload["prediction"]["expected_cosine"] > 0.5
        for seed in range(5):
            assert (tmp_path / f"sde-coupled_seed{seed}.csv").exists()

    @pytest.mark.parametrize("noise", [None, "0"])
    def test_coupled_outputs_are_the_runs_persistence_stats(self, tmp_path, monkeypatch, noise):
        if noise is not None:
            monkeypatch.setenv("BIFURC_SDE__NOISE_INTENSITY", noise)
        assert main(["sde", "coupled", "--seed", "0", "--out", str(tmp_path)]) == 0
        cfg = build_config(overlay=_OVERLAYS[("sde", "coupled")])
        stats = persistence_stats(simulate_coupled_modes(_sde_config(cfg, 0)))
        lines = (tmp_path / "sde-coupled_seed0.csv").read_text().splitlines()
        assert lines[1] == "mode,projection_initial,projection_final,cosine"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(cfg.get_int("sde", "modes")))
        assert [[float(r[1]), float(r[2])] for r in rows] == stats.projection_pairs.tolist()
        assert [float(r[3]) for r in rows] == stats.cosines.tolist()
        run = read_json(tmp_path / "sde-coupled_summary.json")["per_seed"]["0"]
        assert run["mean_cosine"] == float(np.mean(stats.cosines))
        assert run["excluded_modes"] == len(stats.excluded_modes) == 0
        prediction = read_json(tmp_path / "sde-coupled_summary.json")["prediction"]
        assert prediction["saturation_dominated"] is False
        if noise == "0":  # no noise floor: infinite amplitude and randomization time
            assert prediction["sigma_star"] is None and prediction["t_rand"] is None
            assert prediction["theta_sq"] == 0.0 and prediction["expected_cosine"] == 1.0

    def test_coupled_row_of_an_excluded_mode_has_no_cosine(self, tmp_path, monkeypatch):
        def mode_3_ends_at_zero(config):
            run = simulate_coupled_modes(config)
            run.path_samples[-1, 3] = 0.0
            return run

        monkeypatch.setattr("bifurc.cli.simulate_coupled_modes", mode_3_ends_at_zero)
        monkeypatch.setenv("BIFURC_SDE__STEPS", "200")
        assert main(["sde", "coupled", "--seed", "0", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sde-coupled_seed0.csv").read_text().splitlines()
        assert [line.endswith(",") for line in lines[2:]] == [m == 3 for m in range(50)]
        assert read_json(tmp_path / "sde-coupled_summary.json")["per_seed"]["0"][
            "excluded_modes"] == 1

    def test_coupled_chart_does_not_depend_on_seed_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFURC_SDE__STEPS", "200")
        charts = []
        for seeds in ("1,0", "0,1"):
            monkeypatch.setenv("BIFURC_RUN__SEEDS", seeds)
            out = tmp_path / seeds.replace(",", "")
            assert main(["sde", "coupled", "--out", str(out)]) == 0
            charts.append((out / "sde-coupled.svg").read_bytes())
        assert charts[0] == charts[1]

    @pytest.mark.parametrize("command", ["pitchfork", "coupled"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_init_scale_exits_2(self, tmp_path, capsys, monkeypatch, command, value):
        monkeypatch.setenv("BIFURC_SDE__INIT_SCALE", value)
        monkeypatch.setenv("BIFURC_SDE__STEPS", "200")
        assert main(["sde", command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "init_scale" in err
        assert not (tmp_path / f"sde-{command}_summary.json").exists()


    @pytest.mark.parametrize("env,keys", [
        ({"BIFURC_SDE__GROWTH_RATE": "0"}, ["sde.growth_rate"]),
        ({"BIFURC_SDE__MODES": "2"}, ["sde.modes"]),
        ({"BIFURC_SDE__INIT_SCALE": "0"}, ["sde.init_scale"]),
        ({"BIFURC_SDE__NOISE_INTENSITY": "0", "BIFURC_SDE__INIT_SCALE": "0"},
         ["init_scale", "noise_intensity"]),
    ])
    def test_coupled_refuses_degenerate_input_before_writing(self, tmp_path, capsys,
                                                             monkeypatch, env, keys):
        monkeypatch.setenv("BIFURC_SDE__STEPS", "200")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["sde", "coupled", "--seed", "0", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(key in err for key in keys)
        assert list(tmp_path.iterdir()) == []


class TestToyCommands:
    def test_endogenous_crossing_is_finite(self, tmp_path):
        code = main(["toy", "endogenous", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-endogenous_summary.json")
        run = payload["per_seed"]["0"]
        assert isinstance(run["crossing_step"], int)
        assert run["activation_steps"]
        assert run["hypothesis_failures"] == []

    def test_reverse_tracking_error_within_four_percent(self, tmp_path):
        code = main(["toy", "reverse", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-reverse_summary.json")
        assert payload["reverse_tracking_error"] <= 0.04
        run = payload["per_seed"]["0"]
        assert 1.0 <= run["forward"]["overshoot_ratio"] <= 1.6
        assert run["reverse"]["branch_overlap"] <= 0.10
        assert (tmp_path / "toy-reverse_seed0_forward.csv").exists()
        assert (tmp_path / "toy-reverse_seed0_reverse.csv").exists()
        assert (tmp_path / "toy-reverse.svg").exists()

    def test_anneal_mode_holds_until_activation_then_maps_the_branch(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setenv("BIFURC_EXPERIMENT__MODE", "anneal")
        assert main(["toy", "bimodal", "--seed", "0", "--out", str(tmp_path)]) == 0
        run = read_json(tmp_path / "toy-bimodal_seed0.json")
        assert run["activation_steps"] == [12000]
        assert len(run["branch"]) == len(run["branch_iterations"]) == 12

    def test_hierarchy_zero_sub_spacing_single_event(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[data]\nsub_spacing = 0.0\n")
        code = main(["toy", "hierarchy", "--config", str(ini), "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-hierarchy_summary.json")
        run = payload["per_seed"]["0"]
        assert len(run["events"]) == 1
        assert not run["second_stage_gate"]
        assert "warning" not in capsys.readouterr().err

    def test_hierarchy_without_activation_warns_per_seed(self, tmp_path, capsys, monkeypatch):
        for key, value in {"N": "200", "SUPER_SPACING": "20", "SUB_SPACING": "2"}.items():
            monkeypatch.setenv(f"BIFURC_DATA__{key}", value)
        assert main(["toy", "hierarchy", "--seed", "0", "--out", str(tmp_path)]) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines() if "warning" in ln]
        assert warnings == ["warning: seed 0: stage 1 did not activate within "
                            "HIERARCHY_MAX1_STEPS = 25000 steps; no events recorded"]
        assert read_json(tmp_path / "toy-hierarchy_seed0.json")["events"] == []

    def test_identical_config_and_seed_byte_identical(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[data]\nn = 300\n\n[experiment]\nsteps = 400\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["toy", "unimodal", "--config", str(ini), "--seed", "3", "--out", str(out)]
            ) == 0
        assert tree_digest(out_a) == tree_digest(out_b)
        names = set(tree_digest(out_a))
        assert names == {
            "toy-unimodal_seed3.csv",
            "toy-unimodal_seed3.json",
            "toy-unimodal_summary.json",
            "toy-unimodal.svg",
        }

    def test_multi_seed_sweep_merges_in_seed_order(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[data]\nn = 300\n\n[experiment]\nsteps = 400\n")
        code = main(
            ["toy", "unimodal", "--config", str(ini), "--seeds", "3", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        payload = read_json(tmp_path / "o" / "toy-unimodal_summary.json")
        assert payload["seeds"] == [0, 1, 2]
        assert sorted(payload["per_seed"]) == ["0", "1", "2"]
        for seed in range(3):
            log_json = read_json(tmp_path / "o" / f"toy-unimodal_seed{seed}.json")
            assert log_json["seed"] == seed


class TestCalibrateHessian:
    def test_default_bimodal_routes_agree(self, tmp_path):
        code = main(["calibrate-hessian", "--out", str(tmp_path)])
        assert code == 0
        rep = read_json(tmp_path / "hessian_report.json")
        assert rep["crossing_gap"] <= 1e-4
        assert rep["finite_difference_gap"] <= 1e-4
        assert rep["max_abs_hessian_difference"] <= 1e-4
        assert (tmp_path / "hessian_scan.svg").exists()

    def test_identity_covariance_critical_precision_is_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", "identity")
        code = main(["calibrate-hessian", "--out", str(tmp_path)])
        assert code == 0
        rep = read_json(tmp_path / "hessian_report.json")
        assert rep["beta_critical_analytic"] == 1.0
        assert round(rep["beta_critical_numeric"], 4) == 1.0
        assert rep["beta_critical_finite_difference"] is None

    def test_report_counts_root_finder_evaluations_deterministically(self, tmp_path, monkeypatch):
        for source in ("bimodal", "identity"):
            monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", source)
            out_a, out_b = tmp_path / source / "a", tmp_path / source / "b"
            for out in (out_a, out_b):
                assert main(["calibrate-hessian", "--out", str(out)]) == 0
            assert tree_digest(out_a) == tree_digest(out_b)
            rep = read_json(out_a / "hessian_report.json")
            assert type(rep["crossing_iterations"]) is int
            assert 2 <= rep["crossing_iterations"] <= 12
            if source == "identity":
                assert rep["finite_difference_hessians"] is None
            else:
                # the crossing scan's Hessians plus the one compared entrywise
                assert type(rep["finite_difference_hessians"]) is int
                assert 3 <= rep["finite_difference_hessians"] <= 12


FIXTURES = importlib.resources.files("bifurc") / "fixtures"


class TestCsvFormat:
    def test_cli_csvs_use_lf_line_ends_only(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nn = 300\n\n[experiment]\nsteps = 400\n\n"
            "[escape]\ngammas = 0.0\nseeds_per_gamma = 2\n"
        )
        out = tmp_path / "out"
        for command in (["toy", "unimodal"], ["sde", "pitchfork"], ["sde", "coupled"],
                        ["escape", "sweep"]):
            assert main(command + ["--config", str(ini), "--out", str(out)]) == 0
        written = sorted(out.glob("*.csv"))
        assert [p.name for p in written] == [
            "escape-sweep.csv",
            "sde-coupled_seed0.csv",
            "sde-pitchfork_seed0.csv",
            "toy-unimodal_seed0.csv",
        ]
        for path in written:
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path.name

    @pytest.mark.parametrize(
        "name", ["exemplar_fold_back.csv", "exemplar_full_v.csv", "exemplar_no_arc.csv"]
    )
    def test_bundled_trajectory_rewrites_to_the_same_log(self, tmp_path, name):
        log = read_trajectory_csv(FIXTURES / name)
        assert len(log.readings) > 100
        write_trajectory_csv(log, tmp_path / name)
        back = read_trajectory_csv(tmp_path / name)
        assert (back.experiment_id, back.seed, back.config_hash) == (
            log.experiment_id, log.seed, log.config_hash)
        assert back.readings == log.readings

    def test_bundled_sweep_rewrites_to_the_same_stats(self, tmp_path):
        stats = read_sweep_csv(FIXTURES / "table5.csv")
        write_sweep_csv(tmp_path / "t.csv", stats)
        assert read_sweep_csv(tmp_path / "t.csv") == stats


def fuzz_main(argv):
    """main(argv), asserting that the fuzz input named no unknown config key.

    Such an input exits 2 whatever its values, so a renamed key would
    otherwise leave a fuzz passing without testing anything.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "unknown config" not in err.getvalue(), err.getvalue()
    return code


def edge_floats(near):
    """Edge values, then floats in the plausible range near, then any float."""
    return st.one_of(
        st.sampled_from(
            [0.0, -0.0, -1.0, 0.5, 1.5, 1e300, -1e300, 1e308, math.nan, math.inf, -math.inf]
        ),
        st.floats(*near),
        st.floats(allow_nan=True, allow_infinity=True),
    )


class TestHessianConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @example(k=10, dim=2, lo=0.5, hi=1.5)
    @example(k=10, dim=2, lo=0.5, hi=math.inf)
    @given(
        k=st.integers(-2, 50),
        dim=st.integers(-1, 6),
        lo=edge_floats((0.01, 0.99)),  # ratios below the crossing at 1
        hi=edge_floats((1.01, 3.0)),  # and above it
    )
    def test_identity_source_exits_with_a_documented_code(self, k, dim, lo, hi):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                f"[hessian]\nsource = identity\n"
                f"bracket_lo_ratio = {lo!r}\nbracket_hi_ratio = {hi!r}\n"
                f"[probe]\nk = {k}\n[data]\ndim = {dim}\n"
            )
            code = fuzz_main(["calibrate-hessian", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}

    @settings(max_examples=40, deadline=None)
    @example(k=10, n=60, scale=1.0, offset=2.0, lo=0.5, hi=1.5)
    @example(k=2, n=1, scale=1.0, offset=2.0, lo=0.5, hi=1.5).via("one sample")
    @example(k=2, n=40, scale=1e200, offset=2.0, lo=0.5, hi=1.5).via("overflowing data")
    @given(
        k=st.integers(-1, 6),
        n=st.integers(1, 60),
        scale=edge_floats((0.1, 10.0)),
        offset=edge_floats((0.0, 5.0)),
        lo=edge_floats((0.01, 0.99)),
        hi=edge_floats((1.01, 3.0)),
    )
    def test_bimodal_source_exits_with_a_documented_code(self, k, n, scale, offset, lo, hi):
        # runs the finite-difference Hessian and its crossing scan
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                f"[hessian]\nsource = bimodal\n"
                f"bracket_lo_ratio = {lo!r}\nbracket_hi_ratio = {hi!r}\n"
                f"[probe]\nk = {k}\n[data]\nn = {n}\nscale = {scale!r}\n"
                f"center_offset = {offset!r}\n"
            )
            code = fuzz_main(["calibrate-hessian", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}


class TestProbeConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @example(k=8, lr_means=math.nan, lr_logbeta=1e-2, log_beta_init=-2.5).via("non-finite rate")
    @given(
        k=st.integers(-2, 12),
        lr_means=edge_floats((1e-4, 0.5)),
        lr_logbeta=edge_floats((1e-4, 0.5)),
        log_beta_init=edge_floats((-6.0, 3.0)),
    )
    def test_unimodal_exits_with_a_documented_code(self, k, lr_means, lr_logbeta, log_beta_init):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                f"[probe]\nk = {k}\nlr_means = {lr_means!r}\nlr_logbeta = {lr_logbeta!r}\n"
                f"log_beta_init = {log_beta_init!r}\n[data]\nn = 200\n[experiment]\nsteps = 50\n"
            )
            code = fuzz_main(["toy", "unimodal", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if not 0.0 < lr_means < math.inf:
            assert code == 2


class TestExperimentConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @example(latent_dim=2, record_every=20, encoder_lr=0.05, init_weight_scale=0.1)
    @example(latent_dim=9, record_every=1, encoder_lr=0.05, init_weight_scale=0.1).via(
        "row norms summed pairwise by numpy")
    @example(latent_dim=1, record_every=1, encoder_lr=0.0, init_weight_scale=2e-159).via(
        "latent variance below the normal float range")
    @given(
        latent_dim=st.integers(-1, 10),
        record_every=st.integers(0, 5),
        encoder_lr=edge_floats((1e-3, 0.5)),
        init_weight_scale=edge_floats((1e-3, 1.0)),
    )
    def test_endogenous_exits_with_a_documented_code(
        self, latent_dim, record_every, encoder_lr, init_weight_scale
    ):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                f"[data]\nn = 100\n[experiment]\nsteps = 30\n"
                f"latent_dim = {latent_dim}\nrecord_every = {record_every}\n"
                f"encoder_lr = {encoder_lr!r}\ninit_weight_scale = {init_weight_scale!r}\n"
            )
            code = fuzz_main(["toy", "endogenous", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if latent_dim < 1 or record_every < 1:
            assert code == 2
        if not (0.0 < encoder_lr < math.inf and math.isfinite(init_weight_scale)):
            assert code == 2

    # an anneal run holds until activation whatever steps is, so the batch is small
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(0, 4),
        mode=st.sampled_from(["learned", "anneal", "", "bogus"]),
        steps=st.integers(-1, 60),
        record_every=st.integers(0, 5),
    )
    def test_bimodal_drive_exits_with_a_documented_code(self, k, mode, steps, record_every):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                f"[probe]\nk = {k}\n[data]\nn = 100\n[experiment]\nmode = {mode}\n"
                f"steps = {steps}\nrecord_every = {record_every}\n"
            )
            code = fuzz_main(["toy", "bimodal", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if mode not in ("learned", "anneal") or min(k, steps, record_every) < 1:
            assert code == 2
        if mode == "anneal" and k < 2:
            assert code == 2


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def assert_strict_json(out_dir):
    """Every JSON file written parses without NaN or Infinity tokens."""
    for path in Path(out_dir).glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def maybe(near):
    """None (keep the base value) or a float from edge_floats(near)."""
    return st.none() | edge_floats(near)


def ini_section(name, values):
    """An INI section with every key whose value is not None."""
    lines = [f"{key} = {value!r}" for key, value in values.items() if value is not None]
    return "\n".join([f"[{name}]", *lines]) + "\n"


class TestSdeConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @example(command="pitchfork", steps=200, modes=1, dim=1, growth_rate=None, coupling=None,
             noise=1e300, init_scale=None).via("state overflows")
    @example(command="coupled", steps=200, modes=4, dim=3, growth_rate=None, coupling=None,
             noise=0.0, init_scale=None).via("noise-free modes")
    @example(command="coupled", steps=200, modes=4, dim=3, growth_rate=-0.5, coupling=None,
             noise=None, init_scale=None).via("no growth: no persistence prediction")
    @given(
        command=st.sampled_from(["pitchfork", "coupled"]),
        steps=st.integers(0, 200),
        modes=st.integers(1, 4),
        dim=st.integers(1, 3),
        growth_rate=maybe((-0.5, 0.5)),
        coupling=maybe((0.0, 0.05)),
        noise=maybe((0.0, 1e-3)),
        init_scale=maybe((0.0, 0.1)),
    )
    def test_sde_exits_with_a_documented_code(
        self, command, steps, modes, dim, growth_rate, coupling, noise, init_scale
    ):
        shape = {"modes": modes, "dim": dim} if command == "coupled" else {}
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(ini_section("sde", {
                "steps": steps, **shape, "growth_rate": growth_rate, "coupling": coupling,
                "noise_intensity": noise, "init_scale": init_scale,
            }))
            code = fuzz_main(["sde", command, "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
            if code == 2:  # refused before anything is written
                assert os.listdir(tmp) == ["fuzz.ini"]
        assert code in {0, 2, 3, 4}
        if init_scale is not None and not 0.0 <= init_scale < math.inf:
            assert code == 2


class TestEscapeConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @example(gamma=None, seeds=2, horizon=1000, curvature=math.nan,
             noise=None, init_scale=None, threshold=None).via("NaN tilt curvature")
    @example(gamma=None, seeds=2, horizon=1000, curvature=None,
             noise=1e-12, init_scale=None, threshold=None).via("noisy cells that escape")
    @given(
        gamma=maybe((0.0, 0.5)),
        seeds=st.integers(0, 3),
        horizon=st.integers(0, 1000),
        curvature=maybe((0.1, 10.0)),
        noise=maybe((0.0, 1e-10)),
        init_scale=maybe((0.0, 5e-3)),
        threshold=maybe((1e-3, 1e-2)),
    )
    def test_sweep_exits_with_a_documented_code(
        self, gamma, seeds, horizon, curvature, noise, init_scale, threshold
    ):
        # the base gammas escape inside a 1,000-step horizon, so fits run too
        levels = [0.05 if gamma is None else gamma, 0.1, 0.2]
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                ini_section("escape", {
                    "seeds_per_gamma": seeds, "horizon": horizon, "tilt_curvature": curvature,
                    "threshold": threshold,
                }) + f"gammas = {','.join(repr(g) for g in levels)}\n"
                + ini_section("sde", {"noise_intensity": noise, "init_scale": init_scale})
            )
            code = fuzz_main(["escape", "sweep", "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3, 4}
        if curvature is not None and not 0.0 < curvature < math.inf:
            assert code == 2


class TestTaxonomyConfigFuzz:
    @settings(max_examples=60, deadline=None)
    @example(fixture="exemplar_full_v.csv", decoupling=None, plateau=math.nan, descent=None,
             fold=None, horizon=None).via("NaN plateau fraction")
    @example(fixture="exemplar_full_v.csv", decoupling=None, plateau=None, descent=math.nan,
             fold=None, horizon=None).via("NaN descent decades")
    @example(fixture="exemplar_full_v.csv", decoupling=None, plateau=None, descent=None,
             fold=math.nan, horizon=None).via("NaN fold return")
    @example(fixture="exemplar_full_v.csv", decoupling=None, plateau=None, descent=None,
             fold=None, horizon=math.nan).via("NaN horizon")
    @example(fixture="exemplar_full_v.csv", decoupling=None, plateau=None, descent=None,
             fold=None, horizon=math.inf).via("infinite horizon")
    @given(
        fixture=st.sampled_from(
            ["exemplar_full_v.csv", "exemplar_fold_back.csv", "exemplar_no_arc.csv"]),
        decoupling=maybe((0.05, 0.95)),
        plateau=maybe((0.01, 0.9)),
        descent=maybe((0.05, 2.0)),
        fold=maybe((0.05, 2.0)),
        horizon=maybe((10.0, 1e5)),
    )
    def test_classify_exits_with_a_documented_code(
        self, fixture, decoupling, plateau, descent, fold, horizon
    ):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(ini_section("taxonomy", {
                "decoupling_abs_corr": decoupling, "plateau_fraction": plateau,
                "descent_decades": descent, "fold_return": fold, "horizon": horizon,
            }))
            code = fuzz_main(["classify", "--input", fixture, "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3, 4}
        if any(v is not None and not math.isfinite(v) for v in (plateau, descent, fold, horizon)):
            assert code == 2


def seed_lists():
    """None (keep the default seed) or a comma-separated list of small integers."""
    return st.none() | st.lists(st.integers(-2, 3), max_size=2).map(
        lambda seeds: ",".join(str(seed) for seed in seeds))


def seeds_are_valid(seeds):
    if seeds is None:
        return True
    parsed = [int(p) for p in seeds.split(",") if p]
    return bool(parsed) and min(parsed) >= 0 and len(set(parsed)) == len(parsed)


class TestRunDataConfigFuzz:
    @settings(max_examples=80, deadline=None)
    @example(command="bimodal", seeds="-1", n=None, offset=None, scale=None, dim=None).via(
        "negative seed")
    @example(command="bimodal", seeds="1,1", n=None, offset=None, scale=None, dim=None).via(
        "duplicate seed")
    @example(command="bimodal", seeds=None, n=None, offset=1e200, scale=None, dim=None).via(
        "overflowing data")
    @given(
        command=st.sampled_from(["bimodal", "unimodal"]),
        seeds=seed_lists(),
        n=st.none() | st.integers(-1, 200),
        offset=maybe((0.1, 5.0)),
        scale=maybe((0.1, 10.0)),
        dim=st.none() | st.integers(-1, 4),
    )
    def test_toy_exits_with_a_documented_code(self, command, seeds, n, offset, scale, dim):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            run = "" if seeds is None else f"[run]\nseeds = {seeds}\n"
            ini.write_text(run + ini_section("data", {
                "n": 200 if n is None else n, "center_offset": offset, "scale": scale, "dim": dim,
            }) + "[experiment]\nsteps = 40\n")
            code = fuzz_main(["toy", command, "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3, 4}
        if not seeds_are_valid(seeds) or (command == "bimodal" and dim not in (None, 2)):
            assert code == 2

    # the reverse and hierarchy drives are constants that run to their end, so
    # these two take small batches and few examples
    @settings(max_examples=5, deadline=None)
    @example(n=200, offset=1e200, scale=None, k=None).via("overflowing data")
    @example(n=2, offset=None, scale=None, k=1).via("one prototype: no branch plateau")
    @given(
        n=st.integers(-1, 200),
        offset=maybe((0.1, 5.0)),
        scale=maybe((0.1, 10.0)),
        k=st.none() | st.integers(-1, 6),
    )
    def test_reverse_exits_with_a_documented_code(self, n, offset, scale, k):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(ini_section("data", {"n": n, "center_offset": offset, "scale": scale})
                           + ini_section("probe", {"k": k}))
            code = fuzz_main(["toy", "reverse", "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3}

    @settings(max_examples=5, deadline=None)
    @example(n=200, super_spacing=8.0, sub_spacing=1.0, scale=None).via(
        "logit range above the kernel's scalar-shift limit")
    @example(n=200, super_spacing=math.nan, sub_spacing=None, scale=None).via("NaN spacing")
    @given(
        n=st.integers(-1, 200),
        super_spacing=maybe((0.5, 20.0)),
        sub_spacing=maybe((0.1, 5.0)),
        scale=maybe((0.1, 2.0)),
    )
    def test_hierarchy_exits_with_a_documented_code(self, n, super_spacing, sub_spacing, scale):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(ini_section("data", {
                "n": n, "super_spacing": super_spacing, "sub_spacing": sub_spacing,
                "scale": scale,
            }))
            code = fuzz_main(["toy", "hierarchy", "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3}

    @settings(max_examples=15, deadline=None)
    @example(seeds="-1").via("negative seed")
    @example(seeds="1,1").via("duplicate seed")
    @given(seeds=seed_lists())
    def test_pitchfork_seed_list_exits_with_a_documented_code(self, seeds):
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            run = "" if seeds is None else f"[run]\nseeds = {seeds}\n"
            ini.write_text(run + "[sde]\nsteps = 100\n")
            code = fuzz_main(["sde", "pitchfork", "--config", str(ini), "--out", tmp])
            if code == 0:
                written = sorted(p.name for p in Path(tmp).glob("sde-pitchfork_seed*.csv"))
                assert len(written) == len(read_json(Path(tmp) / "sde-pitchfork_summary.json")[
                    "per_seed"])
        assert code == (0 if seeds_are_valid(seeds) else 2)
