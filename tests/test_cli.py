"""End-to-end tests for the command-line layer: config, plots, commands."""

import hashlib
import importlib.resources
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
from bifurc.cli import main
from bifurc.config import (
    RunConfig,
    build_config,
    dump_config,
    env_overrides,
    load_preset,
)
from bifurc.errors import ConfigError
from bifurc.escape_lab import read_sweep_csv, write_sweep_csv
from bifurc.experiments import TrajectoryLog, read_trajectory_csv, write_trajectory_csv
from bifurc.gmm_probe import CriticalityReading
from bifurc.svgplot import line_chart
from bifurc.errors import ValidationError


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
        "env",
        [
            {"BIFURC_PROBE__LR_LOGBETA": "50"},  # exp(log beta) underflows to 0
            {"BIFURC_PROBE__LOG_BETA_INIT": "800"},  # exp(log beta) overflows
        ],
    )
    def test_precision_out_of_float_range_exits_3(self, tmp_path, capsys, monkeypatch, env):
        small = {"BIFURC_DATA__N": "200", "BIFURC_EXPERIMENT__STEPS": "50"}
        for key, value in {**env, **small}.items():
            monkeypatch.setenv(key, value)
        assert main(["toy", "bimodal", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,env",
        [
            ("endogenous", {"BIFURC_EXPERIMENT__LATENT_DIM": "0"}),
            ("endogenous", {"BIFURC_EXPERIMENT__LATENT_DIM": "-1"}),
            ("endogenous", {"BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
            ("hierarchy", {"BIFURC_EXPERIMENT__RECORD_EVERY": "0"}),
        ],
    )
    def test_bad_experiment_shape_exits_2(self, tmp_path, capsys, monkeypatch, command, env):
        for key, value in {**env, "BIFURC_DATA__N": "200"}.items():
            monkeypatch.setenv(key, value)
        assert main(["toy", command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_dim_identity_hessian_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", "identity")
        monkeypatch.setenv("BIFURC_HESSIAN__DIM", "0")
        assert main(["calibrate-hessian", "--out", str(tmp_path)]) == 2
        assert "hessian.dim" in capsys.readouterr().err

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

    def test_overflowing_hessian_data_exits_3_without_numpy_warnings(self, tmp_path):
        # samples at 1e200 overflow the covariance inside numpy; the eigen
        # solver's finite guard turns that into a numerical failure
        env = {**os.environ, "BIFURC_HESSIAN__SCALE": "1e200"}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "bifurc",
             "calibrate-hessian", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1

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

    def test_hierarchy_zero_sub_spacing_single_event(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[data]\nsub_spacing = 0.0\n")
        code = main(["toy", "hierarchy", "--config", str(ini), "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-hierarchy_summary.json")
        run = payload["per_seed"]["0"]
        assert len(run["events"]) == 1
        assert not run["second_stage_gate"]

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
                assert 3 <= rep["finite_difference_hessians"] <= 14


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
                f"[hessian]\nsource = identity\nk = {k}\ndim = {dim}\n"
                f"bracket_lo_ratio = {lo!r}\nbracket_hi_ratio = {hi!r}\n"
            )
            code = main(["calibrate-hessian", "--config", str(ini), "--out", tmp])
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
                f"[hessian]\nsource = bimodal\nk = {k}\nn = {n}\nscale = {scale!r}\n"
                f"center_offset = {offset!r}\n"
                f"bracket_lo_ratio = {lo!r}\nbracket_hi_ratio = {hi!r}\n"
            )
            code = main(["calibrate-hessian", "--config", str(ini), "--out", tmp])
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
            code = main(["toy", "unimodal", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if not 0.0 < lr_means < math.inf:
            assert code == 2


class TestExperimentConfigFuzz:
    @settings(max_examples=40, deadline=None)
    @example(latent_dim=2, record_every=20, encoder_lr=0.05, init_weight_scale=0.1)
    @example(latent_dim=9, record_every=1, encoder_lr=0.05, init_weight_scale=0.1).via(
        "row norms summed pairwise by numpy")
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
                f"[data]\nn = 100\n[experiment]\nencoder_steps = 30\n"
                f"latent_dim = {latent_dim}\nrecord_every = {record_every}\n"
                f"encoder_lr = {encoder_lr!r}\ninit_weight_scale = {init_weight_scale!r}\n"
            )
            code = main(["toy", "endogenous", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if latent_dim < 1 or record_every < 1:
            assert code == 2
