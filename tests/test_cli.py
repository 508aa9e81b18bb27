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
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifurc import __version__
from bifurc.cli import _parallel_map, _section, _toy_summary, main
from bifurc.config import (
    DEFAULTS,
    MAX_JOBS,
    RunConfig,
    build_config,
    env_overrides,
    load_preset,
)
from bifurc.errors import ConfigError
from bifurc.escape_lab import read_sweep_csv, write_sweep_csv
from bifurc.experiments import TrajectoryLog, read_trajectory_csv, write_trajectory_csv
from bifurc.sde import SdeConfig, persistence_stats, simulate_coupled_modes
from bifurc.svgplot import line_chart
from bifurc.errors import ValidationError
from oracles import DEFAULT_GAMMAS, command_config, dump_config, exact_weighted_linfit, ulps_off


# a trailing word of a test_unread_key_exits_2 command, and the variable it sets
UNREAD_KEY_VARIANTS = {
    "anneal": ("BIFURC_EXPERIMENT__MODE", "anneal"),
    "identity": ("BIFURC_HESSIAN__SOURCE", "identity"),
}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def clean_env(monkeypatch):
    """monkeypatch, with no BIFURC_* variable of the caller's environment left for main."""
    for name in [n for n in os.environ if n.startswith("BIFURC_")]:
        monkeypatch.delenv(name)
    return monkeypatch


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
        labels = ("title", "x", "y")
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "a.svg", [], *labels)
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "b.svg", [("s", [1, 2], [1])], *labels)
        with pytest.raises(ValidationError):
            line_chart(tmp_path / "c.svg", [("s", [1.0], [float("nan")])], *labels)

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
        line_chart(a, series, "title", "x", "y")
        line_chart(b, series, "title", "x", "y")
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
            # exp(log beta) underflows to 0
            ("bimodal", {"BIFURC_PROBE__LR_LOGBETA": "50", "BIFURC_EXPERIMENT__STEPS": "50"}),
            # exp(log beta) overflows
            ("bimodal", {"BIFURC_PROBE__LOG_BETA_INIT": "800", "BIFURC_EXPERIMENT__STEPS": "50"}),
            # the last step's log beta is finite, but its exp overflows
            ("bimodal", {"BIFURC_PROBE__LR_LOGBETA": "1e6", "BIFURC_EXPERIMENT__STEPS": "1"}),
            ("endogenous", {"BIFURC_PROBE__LR_LOGBETA": "1e6", "BIFURC_EXPERIMENT__STEPS": "1"}),
            # the anneal ramp starts at log_beta_init and reads no [experiment] steps
            ("reverse", {"BIFURC_PROBE__LOG_BETA_INIT": "800"}),
            ("reverse", {"BIFURC_PROBE__LOG_BETA_INIT": "-800"}),
            ("bimodal", {"BIFURC_PROBE__LOG_BETA_INIT": "800",
                         "BIFURC_EXPERIMENT__MODE": "anneal"}),
        ],
    )
    def test_precision_out_of_float_range_exits_3(self, tmp_path, capsys, monkeypatch, command,
                                                  env):
        for key, value in {"BIFURC_DATA__N": "200", **env}.items():
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
            ("bimodal", {"BIFURC_EXPERIMENT__MODE": "ramp"}),  # a drive that does not exist
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

    @pytest.mark.parametrize("command,value", [
        ("bimodal", "inf"), ("endogenous", "nan"), ("reverse", "-inf"),
    ])
    def test_non_finite_log_beta_init_exits_2(self, tmp_path, capsys, clean_env, command,
                                              value):
        clean_env.setenv("BIFURC_PROBE__LOG_BETA_INIT", value)
        assert main(["toy", command, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    # one pool job per seed: the bound is checked before the N seeds are listed, so
    # 10**12 allocates nothing
    @pytest.mark.parametrize("n", [MAX_JOBS + 1, 10**12])
    def test_too_many_seeds_exit_2_before_the_list_is_built(self, tmp_path, capsys, clean_env,
                                                            n):
        out = tmp_path / "out"
        assert main(["calibrate-hessian", "--seeds", str(n), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --seeds must be in [1, 65536], got {n}\n"
        assert not out.exists()

    # MAX_JOBS seeds pass the bound: --out under a regular file stops the command (exit 4)
    # after its configuration is read and before any seed runs
    def test_the_most_seeds_pass_the_bound(self, tmp_path, capsys, clean_env):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(["calibrate-hessian", "--seeds", str(MAX_JOBS), "--out", str(out)]) == 4
        assert "--seeds" not in capsys.readouterr().err

    def test_too_long_a_seed_list_exits_2(self, tmp_path, capsys, clean_env):
        clean_env.setenv("BIFURC_RUN__SEEDS", ",".join(map(str, range(MAX_JOBS + 1))))
        out = tmp_path / "out"
        assert main(["calibrate-hessian", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: run.seeds must list at most 65536 seeds, got 65537\n")
        assert not out.exists()
        assert len(RunConfig({"run": {"seeds": ",".join(map(str, range(MAX_JOBS)))}}).seeds()
                   ) == MAX_JOBS

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
         # its two-level drive has 8 prototypes of its own
         ("toy hierarchy", "probe.k", "5"),
         # nor does the forward split's anneal mode read the learned drive's rates or length
         *[(f"toy {command} anneal", key, value)
           for command in ("bimodal", "unimodal")
           for key, value in (("probe.lr_means", "0.5"), ("probe.lr_logbeta", "0.5"),
                              ("experiment.steps", "5"))],
         # 100 would also break the stability guard of a term that is never integrated
         ("sde pitchfork", "sde.coupling", "5"),
         ("sde pitchfork", "sde.coupling", "100"),
         # the scalar normal form is one mode of one dimension
         ("sde pitchfork", "sde.modes", "2"),
         ("sde pitchfork", "sde.dim", "2"),
         ("sde coupled", "sde.eps0", "0.5"),
         *[("escape sweep", f"sde.{key}", value)
           for key, value in (("coupling", "1e-3"), ("steps", "10"), ("modes", "2"),
                              ("dim", "2"), ("eps0", "1e-3"))],
         # each dataset reads only its own shape keys
         ("toy bimodal", "data.super_spacing", "5.0"),
         ("toy hierarchy", "data.center_offset", "3.0"),
         ("toy unimodal", "data.center_offset", "3.0"),
         # the Hessian reads only the prototype count, and the bimodal data or its dim
         ("calibrate-hessian", "probe.lr_means", "0.5"),
         ("calibrate-hessian", "data.sub_spacing", "1.0"),
         ("calibrate-hessian identity", "data.n", "500")],
    )
    def test_unread_key_exits_2(self, tmp_path, capsys, monkeypatch, command, key, value):
        # the command does not read the key, which would move only the config hash
        section, name = key.split(".")
        monkeypatch.setenv("BIFURC_DATA__N", "300")
        monkeypatch.setenv(f"BIFURC_{section.upper()}__{name.upper()}", value)
        argv = command.split()
        if argv[-1] in UNREAD_KEY_VARIANTS:
            monkeypatch.setenv(*UNREAD_KEY_VARIANTS[argv.pop()])
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_every_unread_key_is_named_in_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFURC_EXPERIMENT__STEPS", "5")
        monkeypatch.setenv("BIFURC_PROBE__LR_MEANS", "0.5")
        assert main(["toy", "reverse", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "probe.lr_means = '5e-3'" in err and "experiment.steps = '7000'" in err
        assert not list(tmp_path.iterdir())

    def test_section_the_command_never_reads_is_accepted(self, tmp_path, monkeypatch):
        # toy bimodal reads no [hessian] key, so no [hessian] value is checked
        for name, value in {"BIFURC_HESSIAN__SOURCE": "identity", "BIFURC_DATA__N": "100",
                            "BIFURC_EXPERIMENT__STEPS": "40"}.items():
            monkeypatch.setenv(name, value)
        assert main(["toy", "bimodal", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "toy-bimodal_summary.json").exists()

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

    @pytest.mark.parametrize("source", ["bimodal", "identity"])
    def test_one_prototype_hessian_exits_2_naming_the_cause(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # one prototype has no anti-symmetric channel, so the crossing scan has no root
        monkeypatch.setenv("BIFURC_PROBE__K", "1")
        monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", source)
        out = tmp_path / "out"
        assert main(["calibrate-hessian", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: calibrate-hessian needs probe.k >= 2: one prototype has no anti-symmetric "
            "channel, so nothing crosses zero; got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bimodal", "endogenous"])
    def test_no_prototype_exits_2_before_writing(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("BIFURC_PROBE__K", "0")
        out = tmp_path / "out"
        assert main(["toy", command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "probe.k must be >= 1" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,name",
        [(["toy", "bimodal", "--config"], "run.ini"),
         (["classify", "--input"], "log.csv"),
         (["escape", "fit", "--input"], "sweep.csv")],
    )
    def test_input_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, argv, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe step\n")
        out = tmp_path / "out"
        assert main([*argv, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and err.count("\n") == 1
        assert not out.exists()

    # above sym_eigen's d <= 4096 the identity is refused before it is built
    @pytest.mark.parametrize("dim", ["0", "4097", "99999999999999999999"])
    def test_zero_dim_identity_hessian_exits_2(self, tmp_path, capsys, monkeypatch, dim):
        monkeypatch.setenv("BIFURC_HESSIAN__SOURCE", "identity")
        monkeypatch.setenv("BIFURC_DATA__DIM", dim)
        out = tmp_path / "out"
        assert main(["calibrate-hessian", "--out", str(out)]) == 2
        assert "data.dim" in capsys.readouterr().err
        assert not out.exists()

    # B = 99999999999999999999 is past numpy's dimension limit; each is refused before
    # anything of its size is allocated
    @pytest.mark.parametrize("argv,key", [
        ("toy reverse", "probe.k"),
        ("toy bimodal", "probe.k"),
        ("toy endogenous", "probe.k"),
        ("toy hierarchy", "data.n"),
        ("toy bimodal", "data.n"),
        ("calibrate-hessian", "data.n"),
        ("toy unimodal", "data.dim"),
        ("toy endogenous", "experiment.latent_dim"),
    ])
    def test_oversized_sample_array_exits_2(self, tmp_path, capsys, monkeypatch, argv, key):
        section, name = key.split(".")
        monkeypatch.setenv(f"BIFURC_{section.upper()}__{name.upper()}", "99999999999999999999")
        out = tmp_path / "out"
        assert main([*argv.split(), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{key} = 99999999999999999999" in err and "must be <= 4194304" in err
        assert not out.exists()

    # past numpy's index size (an OverflowError) and 1e8 (a MemoryError under a 3 GB
    # address-space limit): each is refused before a job list is built
    @pytest.mark.parametrize("value", ["99999999999999999999", "100000000"])
    def test_oversized_escape_sweep_exits_2(self, tmp_path, capsys, monkeypatch, value):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("bifurc.cli.sweep_statistics", no_sweep)
        monkeypatch.setenv("BIFURC_ESCAPE__SEEDS_PER_GAMMA", value)
        out = tmp_path / "out"
        assert main(["escape", "sweep", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: len(escape.gammas) * escape.seeds_per_gamma must be <= 65536 sweep cells, "
            f"got 6 * {value}\n")
        assert not out.exists()

    def test_hierarchy_kernel_buffer_is_bounded(self, tmp_path, capsys, monkeypatch):
        # data.n * data.dim = 1,200,000 is within the bound, but the 8 x data.n kernel buffer
        # of the hierarchy's own 8 prototypes is not
        def no_dataset(*args):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr("bifurc.cli._toy_dataset", no_dataset)
        monkeypatch.setenv("BIFURC_DATA__N", "600000")
        out = tmp_path / "out"
        assert main(["toy", "hierarchy", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: K * data.n must be <= 4194304, got K = 8, data.n = 600000\n")
        assert not out.exists()

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


def _mark_then_refuse(out, job):
    """A pool job that leaves one new marker file per run, then raises its own OSError."""
    os.close(tempfile.mkstemp(dir=out, prefix=f"job{job}-")[0])
    raise PermissionError(f"job {job} refused")


class _PoolThatCannotStart:
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        raise OSError("no worker process can be started")

    map = submit


class _PoolThatCannotBeCreated(_PoolThatCannotStart):
    def __init__(self, max_workers):
        raise OSError("no pool on this system")


class _PoolWhoseWorkerDies(_PoolThatCannotStart):
    """A pool that starts, but whose every future reports a dead worker."""

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("a worker process died"))
        return future


class TestParallelMap:
    def test_a_jobs_own_error_propagates_without_a_serial_rerun(self, tmp_path):
        with pytest.raises(PermissionError, match="refused"):
            _parallel_map(partial(_mark_then_refuse, tmp_path), [0, 1])
        assert len(list(tmp_path.iterdir())) == 2  # each job ran once

    @pytest.mark.parametrize("pool", [_PoolThatCannotBeCreated, _PoolThatCannotStart])
    def test_a_pool_that_cannot_run_falls_back_to_serial(self, monkeypatch, pool):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
        assert _parallel_map(abs, [-2, 3, -4]) == [2, 3, 4]

    def test_a_broken_pool_reruns_every_job_serially(self, monkeypatch):
        # the fake pool runs no job, so every result comes from the serial rerun
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _PoolWhoseWorkerDies)
        assert _parallel_map(abs, [-2, 3, -4]) == [2, 3, 4]


class TestReadsBeforeTheCheck:
    # the unread-key check sees only the reads made before it, so a command
    # must read its whole configuration before the check creates --out
    @pytest.mark.parametrize(
        "argv,env",
        [(["calibrate-hessian"], {"DATA__N": "200", "PROBE__K": "2"}),
         (["calibrate-hessian"], {"HESSIAN__SOURCE": "identity"}),
         (["toy", "bimodal"], {"DATA__N": "100", "EXPERIMENT__STEPS": "40"}),
         (["toy", "bimodal"], {"DATA__N": "100", "EXPERIMENT__MODE": "anneal"}),
         (["toy", "unimodal"], {"DATA__N": "100", "EXPERIMENT__STEPS": "40"}),
         (["toy", "hierarchy"], {"DATA__N": "200"}),
         (["toy", "reverse"], {"DATA__N": "200"}),
         (["toy", "endogenous"], {"DATA__N": "100", "EXPERIMENT__STEPS": "30"}),
         (["sde", "pitchfork"], {"SDE__STEPS": "100"}),
         (["sde", "coupled"], {"SDE__STEPS": "50"}),
         (["escape", "sweep"], {"ESCAPE__GAMMAS": "0.05,0.1,0.2", "ESCAPE__HORIZON": "1000"}),
         (["escape", "fit", "--input", "table5.csv"], {}),
         (["classify", "--input", "exemplar_full_v.csv"], {})],
        ids=["calibrate-hessian", "calibrate-hessian-identity", "toy-bimodal",
             "toy-bimodal-anneal", "toy-unimodal", "toy-hierarchy", "toy-reverse",
             "toy-endogenous", "sde-pitchfork", "sde-coupled", "escape-sweep", "escape-fit",
             "classify"],
    )
    def test_no_key_is_read_after_the_check(self, tmp_path, capsys, clean_env, argv, env):
        out = tmp_path / "out"
        get = RunConfig.get

        def get_before_the_check(cfg, section, key):
            assert not out.exists(), f"{section}.{key} read after the unread-key check"
            return get(cfg, section, key)

        clean_env.setattr(RunConfig, "get", get_before_the_check)
        # serial, so that the workers run with the patched get too
        clean_env.setattr("bifurc.cli._parallel_map", lambda fn, jobs: [fn(j) for j in jobs])
        for name, value in env.items():
            clean_env.setenv(f"BIFURC_{name}", value)
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 0, capsys.readouterr().err
        assert list(out.iterdir())

    def test_every_key_is_read_by_some_command(self, tmp_path, clean_env):
        # --out under a regular file: each command reads its whole configuration, then
        # fails to create the directory (exit 4) before it runs anything; a key that no
        # command reads would move only the config hash
        blocker = tmp_path / "file"
        blocker.write_text("")
        read = set()
        get = RunConfig.get

        def recording_get(cfg, section, key):
            read.add((section, key))
            return get(cfg, section, key)

        clean_env.setattr(RunConfig, "get", recording_get)
        for argv, env in [(["calibrate-hessian"], {}),
                          (["calibrate-hessian"], {"HESSIAN__SOURCE": "identity"}),
                          *[(["toy", sub], {}) for sub in ("bimodal", "unimodal", "hierarchy",
                                                           "reverse", "endogenous")],
                          (["toy", "bimodal"], {"EXPERIMENT__MODE": "anneal"}),
                          (["sde", "pitchfork"], {}), (["sde", "coupled"], {}),
                          (["escape", "sweep"], {}),
                          (["escape", "fit", "--input", "table5.csv"], {}),
                          (["classify", "--input", "exemplar_full_v.csv"], {})]:
            with clean_env.context() as env_patch:
                for name, value in env.items():
                    env_patch.setenv(f"BIFURC_{name}", value)
                assert main([*argv, "--out", str(blocker / "out")]) == 4, argv
        assert read == {(section, key) for section, kv in DEFAULTS.items() for key in kv}


class TestRefusalLeavesNoOutput:
    # each is refused (exit 2) by a check that runs once --out exists: in a
    # worker, or in the library call that follows the command's reads
    @pytest.mark.parametrize(
        "argv,env",
        [(["toy", "bimodal"], {"DATA__SCALE": "-1"}),
         (["toy", "unimodal"], {"DATA__N": "1"}),
         (["toy", "reverse"], {"DATA__CENTER_OFFSET": "0"}),
         (["toy", "reverse"], {"PROBE__K": "1"}),
         (["toy", "bimodal"], {"EXPERIMENT__RECORD_EVERY": "0"}),
         (["toy", "bimodal"], {"EXPERIMENT__STEPS": "0"}),
         (["toy", "endogenous"], {"EXPERIMENT__LATENT_DIM": "0"}),
         (["toy", "hierarchy"], {"EXPERIMENT__RECORD_EVERY": "0"}),
         (["calibrate-hessian"], {"PROBE__K": "0"}),
         (["calibrate-hessian"], {"HESSIAN__BRACKET_LO_RATIO": "2"}),
         (["escape", "sweep"], {"ESCAPE__THRESHOLD": "1e-9"})],
    )
    def test_refusal_removes_the_directories_it_created(self, tmp_path, capsys, clean_env,
                                                        argv, env):
        for name, value in env.items():
            clean_env.setenv(f"BIFURC_{name}", value)
        out = tmp_path / "made" / "out"
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_refusal_keeps_an_existing_empty_out(self, tmp_path, clean_env):
        clean_env.setenv("BIFURC_PROBE__K", "0")
        assert main(["calibrate-hessian", "--out", str(tmp_path)]) == 2
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "fixture,digest",
        [
            ("exemplar_full_v.csv",
             "26ed0b0a96724d9cccbca9d36e42eb34b8e4e57627a6f94dc9beaaaed4ab7bb0"),
            ("exemplar_fold_back.csv",
             "06d1777958d6bb9b7ceb3ffd910c222d593a2e8844f9d2a4b46c8717fcbeb34c"),
            ("exemplar_no_arc.csv",
             "0021ae5200f981098be7a5b4be11c1b64613660db894af3de9a9fac5c1e4b468"),
        ],
    )
    def test_exemplar_report_bytes(self, tmp_path, capsys, clean_env, fixture, digest):
        # the default-config report, byte for byte, in the file and on stdout
        assert main(["classify", "--input", fixture, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        assert hashlib.sha256((tmp_path / "classify.json").read_bytes()).hexdigest() == digest

    def test_constant_nc1_is_no_arc(self, tmp_path, capsys):
        log = TrajectoryLog("flat", 0)
        for i in range(40):
            r = -1.0 + 2.0 * i / 39
            log.record(i, r, 0.0, 10.0, 1e-3)
        path = tmp_path / "flat.csv"
        write_trajectory_csv(log, path)
        code = main(["classify", "--input", str(path), "--out", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["label"] == "NoArc"

    def test_negative_nc1_exits_2(self, tmp_path, capsys):
        # NC1 is a ratio of PSD traces; it is not floored up to 1e-15 and labelled
        log = TrajectoryLog("negative-nc1", 0)
        for i in range(30):
            r = -1.0 + 2.0 * i / 29
            log.record(i, r, 0.0, -1.0, 1e-3)
        path = tmp_path / "negative.csv"
        write_trajectory_csv(log, path)
        out = tmp_path / "out"
        assert main(["classify", "--input", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: NC1 must be >= 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("first_log_ratio,code", [("-5.0", 2), ("-1.0", 0)])
    def test_log_ratio_must_match_its_beta_columns(
        self, tmp_path, capsys, first_log_ratio, code
    ):
        # the first row's columns give log_ratio = -1 - 0
        rows = [f"{i},{-1.0 + i / 20},0.0,{-1.0 + i / 20},1.0,0.001" for i in range(1, 40)]
        path = tmp_path / "log.csv"
        path.write_text("step,log_beta,log_beta_c,log_ratio,nc1,order_parameter\n"
                        f"0,-1.0,0.0,{first_log_ratio},1.0,0.001\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["classify", "--input", str(path), "--out", str(out)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith(
                "error: bad trajectory row: ['0', '-1.0', '0.0', '-5.0'")
            assert not out.exists()

    @pytest.mark.parametrize("row", [
        "40,nan,0.0,-1.7817742296486099",  # a NaN log_beta beside a finite log_ratio
        "40,-1.7817742296486099,0.0,inf",  # a finite pair whose log_ratio is inf
        "40,-1.7817742296486099,inf,-1.7817742296486099",  # log_beta_c = inf, finite log_ratio
    ], ids=["nan-log-beta", "inf-log-ratio", "inf-log-beta-c"])
    def test_non_finite_log_ratio_columns_must_agree(self, tmp_path, capsys, row):
        text = (FIXTURES / "exemplar_full_v.csv").read_text()
        good = "40,-1.7817742296486099,0.0,-1.7817742296486099"
        assert text.count(f"\n{good},") == 1
        path = tmp_path / "log.csv"
        path.write_text(text.replace(f"\n{good},", f"\n{row},"))
        out = tmp_path / "out"
        assert main(["classify", "--input", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad trajectory row: ['40',") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_huge_log_betas_classify_as_at_scale_one(self, tmp_path, capsys, scale):
        # scaled by 1e300, sums of squares overflow unless the statistics scale first
        rows = [f"{20 * i},{(i - 20) * scale!r},0.0,{(i - 20) * scale!r},{10 ** (-i / 10)!r},0.1"
                for i in range(40)]
        path = tmp_path / "log.csv"
        path.write_text("step,log_beta,log_beta_c,log_ratio,nc1,order_parameter\n"
                        + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["classify", "--input", str(path), "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["label"], payload["decoupling_corr"], payload["descent_corr"],
                payload["descent_sign"]) == ("FullV", -1.0, -1.0, -1)


class TestEscapeCommands:
    def test_fit_reproduces_bundled_report(self, tmp_path, capsys, clean_env):
        code = main(["escape", "fit", "--input", "table5.csv", "--out", str(tmp_path)])
        assert code == 0
        # the default-config report, byte for byte
        assert hashlib.sha256((tmp_path / "escape-fit.json").read_bytes()).hexdigest() == (
            "829e59a60d4b2e78dde1f8d11448c1fbfdf09b25672a2cee4f86897ff573405c")
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

    # the default gammas fit both models; two levels are too few, so the fit is four nulls
    @pytest.mark.parametrize("gammas,levels,digest", [
        (None, ((1e-4, 420723.0), (3e-4, 148814.0), (1e-3, 45622.0), (3e-3, 15304.0),
                (1e-2, 4602.0)),
         "ecac623704f2ffc2b53f0e772cdac3296693c0f19dcf1e157203dfa12126666c"),
        ("1e-3,1e-2", ((1e-3, 45622.0), (1e-2, 4602.0)),
         "8ea4bf4df49ecf9cfe374244cfdfadd18dffe2b60914a624f1c76985d281cf11"),
    ], ids=["default", "two-level"])
    def test_default_sweep_rows_are_pinned(self, tmp_path, clean_env, gammas, levels, digest):
        # every value of the sweep's calibration shows in these rows: a wrong one moves them
        if gammas is not None:
            clean_env.setenv("BIFURC_ESCAPE__GAMMAS", gammas)
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = [(s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored)
                for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        censored = [(0.0, None, None, 3, 3)] if gammas is None else []
        assert rows == censored + [(gamma, tau, 0.0, 3, 0) for gamma, tau in levels]
        # and the report, byte for byte
        assert hashlib.sha256((tmp_path / "escape-sweep.json").read_bytes()).hexdigest() == digest

    def test_noisy_sweep_files_are_pinned(self, tmp_path, clean_env):
        # mu + gamma is inexact at each of these gammas, the floats of 1.7 * (1e-3, 3e-3,
        # 1e-2), and the noise gives each seed its own path, so a moved bit in the tilted
        # stepping shows in these files
        for key, value in {"SDE__NOISE_INTENSITY": "1e-12", "ESCAPE__HORIZON": "50000",
                           "ESCAPE__GAMMAS": "0.0017,0.0051,0.017",
                           "ESCAPE__SEEDS_PER_GAMMA": "2"}.items():
            clean_env.setenv(f"BIFURC_{key}", value)
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = [(s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored)
                for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        assert rows == [(0.0017, 27212.5, 404.5, 2, 0), (0.0051, 9080.0, 4.0, 2, 0),
                        (0.017, 2718.0, 11.0, 2, 0)]
        assert tree_digest(tmp_path) == {
            "escape-sweep.csv": "77ca38cefa24020d3c4af81ab536b7fb342e06ea099d9e1b500514b02e91a831",
            "escape-sweep.json": "dd0664c39c12e3eb1b4ba15866ea32c73960101b12613067ca06f870d2f3da5f",
            "escape-sweep.svg": "20860e637c94f9718280aaf39b3a6d5cec4ebaec6d43a9011d6561ba152ce177",
        }

    # each level is the pitchfork at mu + gamma, so its threshold need only lie below
    # that level's own eps*: at gamma = 1e-4 it is sqrt(1.1e-4 / 0.1) = 0.033 > 0.012
    def test_threshold_above_the_untilted_eps_star_is_read_per_level(self, tmp_path, clean_env):
        clean_env.setenv("BIFURC_ESCAPE__GAMMAS", "1e-4,3e-4,1e-3,3e-3,1e-2")
        clean_env.setenv("BIFURC_ESCAPE__THRESHOLD", "0.012")
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        taus = [s.tau_mean for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        assert taus == [590565, 206570, 63076, 21135, 6353]

    def test_threshold_above_a_levels_own_eps_star_exits_2(self, tmp_path, capsys, clean_env):
        # the default gammas include 0, whose level keeps eps* = sqrt(1e-5 / 0.1) = 0.01
        clean_env.setenv("BIFURC_ESCAPE__THRESHOLD", "0.012")
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: threshold 0.012 outside (init_scale, eps*) = (0.0005, 0.01)\n")

    # dt |mu + gamma| <= 0.05 * 5.001e-2: each level is the pitchfork at mu + gamma, and
    # no gamma is read as an inter-mode coupling gamma * K
    def test_long_horizon_sweep_steps_each_level_at_mu_plus_gamma(self, tmp_path, clean_env):
        for key, value in {"ESCAPE__GAMMAS": "1e-4,1e-3,1e-2,5e-2",
                           "ESCAPE__HORIZON": "2000000"}.items():
            clean_env.setenv(f"BIFURC_{key}", value)
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        taus = [s.tau_mean for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        # the first three step as the default sweep's levels of the same gamma
        assert taus == [420723, 45622, 4602, 923]

    @pytest.mark.parametrize("gammas,bad", [("-1e-3,1e-3", "-0.001"), ("nan", "nan"),
                                            ("1e-3,inf", "inf")])
    def test_sweep_with_a_bad_gamma_exits_2(self, tmp_path, capsys, clean_env, gammas, bad):
        clean_env.setenv("BIFURC_ESCAPE__GAMMAS", gammas)
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: escape.gammas must be finite and >= 0, got {bad}\n")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_whose_cubic_term_overshoots_escapes_at_step_one(self, tmp_path, clean_env):
        # dt alpha theta^2 = 5000: the first step flips eps from 1 to about -49, past
        # theta = 10, so every cell escapes at step 1 and no growth bound may censor one
        for key, value in {"SDE__GROWTH_RATE": "-1", "SDE__ALPHA": "1000",
                           "SDE__INIT_SCALE": "1", "ESCAPE__THRESHOLD": "10",
                           "ESCAPE__HORIZON": "100"}.items():
            clean_env.setenv(f"BIFURC_{key}", value)
        assert main(["escape", "sweep", "--seed", "0", "--out", str(tmp_path)]) == 0
        rows = [(s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored)
                for s in read_sweep_csv(tmp_path / "escape-sweep.csv")]
        assert rows == [(gamma, 1.0, 0.0, 3, 0) for gamma in DEFAULT_GAMMAS]

    def test_sweep_with_nan_step_size_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFURC_SDE__DT", "nan")
        monkeypatch.setenv("BIFURC_ESCAPE__HORIZON", "100")
        assert main(["escape", "sweep", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: dt must be > 0, got nan\n"

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

    # gamma is the tilt's whole strength: there is no curvature key to scale it, and the
    # unknown key is refused before its value is read, whatever the value
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e4"])
    def test_sweep_with_bad_tilt_curvature_exits_2(self, tmp_path, capsys, clean_env, value):
        clean_env.setenv("BIFURC_ESCAPE__TILT_CURVATURE", value)
        clean_env.setenv("BIFURC_ESCAPE__HORIZON", "100")
        assert main(["escape", "sweep", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown config key: escape.tilt_curvature\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_with_a_tilt_curvature_exits_2(self, tmp_path, capsys, clean_env):
        ini = tmp_path / "run.ini"
        ini.write_text("[escape]\ntilt_curvature = 1.0\n")
        out = tmp_path / "out"
        assert main(["escape", "sweep", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown config key: escape.tilt_curvature\n"
        assert not out.exists()

    # a cell's step budget is the horizon, which must be >= 1
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_sweep_with_non_positive_horizon_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("BIFURC_ESCAPE__HORIZON", value)
        assert main(["escape", "sweep", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: escape.horizon must be >= 1, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_an_input(self, tmp_path, capsys):
        # only escape fit and classify read --input
        out = tmp_path / "out"
        argv = ["escape", "sweep", "--input", "nonexistent.csv", "--seed", "0", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: escape sweep does not read --input\n"
        assert not out.exists()

    def test_fit_with_too_few_levels_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text(
            "gamma,tau_mean,tau_std,n_seeds,censored\n"
            "1e-4,100.0,1.0,3,0\n"
            "1e-3,10.0,1.0,3,0\n"
        )
        code = main(["escape", "fit", "--input", str(csv), "--out", str(tmp_path)])
        assert code == 3

    # a tau_mean without a tau_std, or a tau_std without a tau_mean, is a bad row
    @pytest.mark.parametrize("row", ["1e-3,1000.0,,3,0", "1e-3,,5.0,3,0"])
    def test_fit_with_half_empty_tau_pair_exits_2(self, tmp_path, capsys, row):
        csv = tmp_path / "levels.csv"
        csv.write_text("gamma,tau_mean,tau_std,n_seeds,censored\n"
                       f"{row}\n1e-2,100.0,5.0,3,0\n1e-1,10.0,1.0,3,0\n")
        out = tmp_path / "out"
        assert main(["escape", "fit", "--input", str(csv), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad escape CSV row")
        assert not out.exists()

    # a non-finite field is a bad row (2); a weight (tau_mean/tau_std)^2 or a fit off the
    # float range is a numerical failure (3)
    @pytest.mark.parametrize("rows,code,err", [
        (["1e-3,100.0,1.0,3,0", "inf,50.0,1.0,3,0", "0.1,20.0,1.0,3,0", "1,10.0,1.0,3,0"], 2,
         "error: bad escape CSV row"),
        (["1e-4,400000,1e-160,3,0", "3e-4,150000,2e-160,3,0", "1e-3,45000,1e-160,3,0",
          "3e-3,15000,3e-160,3,0"], 3, "numerical failure: the fit weight at gamma = 0.0001 "),
        (["1e-3,100.0,1.0,3,0", "1e-2,1.0,1e300,3,0", "0.1,20.0,1.0,3,0", "1,10.0,1.0,3,0"], 3,
         "numerical failure: the fit weight at gamma = 0.01 "),
        # weights of 1e306 on log tau residuals of hundreds: chi-squared overflows
        (["1,1e300,1e147,3,0", "2,1e-150,1e-303,3,0", "3,1e300,1e147,3,0",
          "4,1e-150,1e-303,3,0"], 3, "numerical failure: weighted_linfit: the fit leaves"),
    ], ids=["gamma-inf", "weight-overflows", "weight-underflows", "chi-squared-overflows"])
    def test_fit_off_the_floats_writes_no_report(self, tmp_path, capsys, rows, code, err):
        csv = tmp_path / "levels.csv"
        csv.write_text("gamma,tau_mean,tau_std,n_seeds,censored\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["escape", "fit", "--input", str(csv), "--out", str(tmp_path)]) == code
        assert not (tmp_path / "escape-fit.json").exists()
        stderr = capsys.readouterr().err
        assert stderr.startswith(err) and stderr.count("\n") == 1

    @staticmethod
    def fit_report(tmp_path, name, rows):
        csv = tmp_path / f"{name}.csv"
        csv.write_text("gamma,tau_mean,tau_std,n_seeds,censored\n" + "\n".join(rows) + "\n")
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["escape", "fit", "--input", str(csv), "--out", str(out)]) == 0
        return read_json(out / "escape-fit.json")

    def test_fit_of_gammas_1e200_is_the_fit_of_gammas_1_2_3(self, tmp_path, capsys):
        # gamma^2 overflows unless the fit scales first
        taus = ("100.0,1.0,3,0", "50.0,1.0,3,0", "20.0,1.0,3,0")
        small = self.fit_report(tmp_path, "small", [f"{g},{t}" for g, t in zip("123", taus)])
        huge = self.fit_report(tmp_path, "huge", [f"{g}e200,{t}" for g, t in zip("123", taus)])
        # log(k e200) carries rounding of ulp(461) = 5.7e-14 against a spread of 1.1
        rel = 1e-13
        for key in ("intercept", "chi_squared"):
            assert huge["kramers"][key] == pytest.approx(small["kramers"][key], rel=rel)
        assert huge["kramers"]["slope"] == pytest.approx(small["kramers"]["slope"] * 1e-200,
                                                         rel=rel)
        power, shifted = small["power_law"], huge["power_law"]
        assert shifted["slope"] == pytest.approx(power["slope"], rel=rel)
        assert shifted["chi_squared"] == pytest.approx(power["chi_squared"], rel=rel)
        # log tau = a + b log gamma = (a - b ln 1e200) + b log(1e200 gamma)
        assert shifted["intercept"] == pytest.approx(
            power["intercept"] - power["slope"] * math.log(1e200), rel=rel)

    def test_fit_with_gamma_1e308_has_a_subnormal_kramers_slope(self, tmp_path, capsys):
        # gamma^2 overflows unless the fit scales first
        gammas, taus = (1e-3, 1e-2, 0.1, 1e308), (100.0, 50.0, 20.0, 10.0)
        report = self.fit_report(tmp_path, "levels",
                                 [f"{g!r},{t!r},1.0,3,0" for g, t in zip(gammas, taus)])
        slope = report["kramers"]["slope"]
        assert -sys.float_info.min < slope < 0.0
        m = np.array(taus)
        exact = exact_weighted_linfit(gammas, np.log(m), m**2)[1]
        assert ulps_off(slope, exact) <= 2


class TestSdeCommands:
    # every file of each command at its default config, byte for byte
    @pytest.mark.parametrize("command,digests", [
        ("pitchfork", {
            "sde-pitchfork.svg":
                "e82267de7de618f6a1eb03b722be4eca0e8b6af0713b3387836f3a441efdcbfe",
            "sde-pitchfork_seed0.csv":
                "fe8b06aa48fac0d26d476d435eb126078fa6b78d7d8ba658bac0271a91bd8f62",
            "sde-pitchfork_summary.json":
                "2284ca36f5a9d78d55d82347e88d3083ccdd32e4a6c88a9a19308057d3d2f345",
        }),
        ("coupled", {
            "sde-coupled.svg":
                "902f53fc50355a85f6bb43765e8eab34ede441060d3f7980f7d0f8de3a152278",
            "sde-coupled_seed0.csv":
                "590ce8e1c4bcdd0d4b3b2f2814852b4ef92395b15084a1020da9ad6df68d0d63",
            "sde-coupled_summary.json":
                "56e0a499ea07da2b8edc4a5665a08011f89f728cb47fbc9dd844a2e423ce30de",
        }),
    ])
    def test_default_outputs_are_pinned(self, tmp_path, clean_env, command, digests):
        assert main(["sde", command, "--seed", "0", "--out", str(tmp_path)]) == 0
        assert tree_digest(tmp_path) == digests

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
    def test_coupled_outputs_are_the_runs_persistence_stats(self, tmp_path, clean_env, noise):
        if noise is not None:
            clean_env.setenv("BIFURC_SDE__NOISE_INTENSITY", noise)
        assert main(["sde", "coupled", "--seed", "0", "--out", str(tmp_path)]) == 0
        cfg = command_config("sde", "coupled",
                             sde={} if noise is None else {"noise_intensity": noise})
        cosines, projections, _ = persistence_stats(
            *simulate_coupled_modes(_section(cfg, SdeConfig, "sde", seed=0)))
        lines = (tmp_path / "sde-coupled_seed0.csv").read_text().splitlines()
        assert lines[1] == "mode,projection_initial,projection_final,cosine"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(cfg.get_int("sde", "modes")))
        assert [[float(r[1]), float(r[2])] for r in rows] == projections.tolist()
        assert [float(r[3]) for r in rows] == cosines.tolist()
        run = read_json(tmp_path / "sde-coupled_summary.json")["per_seed"]["0"]
        assert run["mean_cosine"] == float(np.mean(cosines))
        assert run["excluded_modes"] == int(np.isnan(cosines).sum()) == 0
        prediction = read_json(tmp_path / "sde-coupled_summary.json")["prediction"]
        assert prediction["saturation_dominated"] is False
        if noise == "0":  # no noise floor: infinite amplitude and randomization time
            assert prediction["sigma_star"] is None and prediction["t_rand"] is None
            assert prediction["theta_sq"] == 0.0 and prediction["expected_cosine"] == 1.0

    def test_coupled_row_of_an_excluded_mode_has_no_cosine(self, tmp_path, monkeypatch):
        def mode_3_ends_at_zero(config):
            start, end, reference = simulate_coupled_modes(config)
            end[3] = 0.0
            return start, end, reference

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
        assert err == f"error: init_scale must be finite and >= 0, got {float(value)}\n"
        assert not (tmp_path / f"sde-{command}_summary.json").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("steps", "0", "steps must be >= 1, got 0"),
        ("dt", "-0.5", "dt must be > 0, got -0.5"),
        ("alpha", "nan", "alpha must be > 0, got nan"),
        ("coupling", "-1", "coupling must be >= 0, got -1.0"),
        ("noise_intensity", "-1e-5", "noise_intensity must be >= 0, got -1e-05"),
        ("modes", "0", "modes must be >= 1, got 0"),
        ("dim", "0", "dim must be >= 1, got 0"),
    ])
    def test_bad_sde_field_is_named_with_its_value(self, tmp_path, capsys, monkeypatch, key,
                                                   value, message):
        monkeypatch.setenv(f"BIFURC_SDE__{key.upper()}", value)
        out = tmp_path / "out"
        assert main(["sde", "coupled", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,modes,dim", [
        ("MODES", "99999999999999999999", "10"),
        ("DIM", "50", "99999999999999999999"),
    ])
    def test_oversized_state_exits_2(self, tmp_path, capsys, monkeypatch, key, modes, dim):
        # without coupling, the stability guard's dt * coupling * modes does not bound modes
        monkeypatch.setenv("BIFURC_SDE__COUPLING", "0")
        monkeypatch.setenv(f"BIFURC_SDE__{key}", "99999999999999999999")
        out = tmp_path / "out"
        assert main(["sde", "coupled", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: modes * dim must be <= 4194304, got modes = {modes}, dim = {dim}\n")
        assert not out.exists()

    def test_start_draw_that_can_overflow_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1e308 passes the finite check, but 1e308 * N(0, 1) overflows for |g| > 1.8
        monkeypatch.setenv("BIFURC_SDE__INIT_SCALE", "1e308")
        out = tmp_path / "out"
        assert main(["sde", "coupled", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: init_scale must be <=") and err.count("\n") == 1
        assert not out.exists()


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
    def test_crossing_line_spans_every_seed(self):
        # the second seed runs longer; the zero line once stopped at the first seed's last step
        results = [(0, {"": {"crossing_step": 20}}, ([0, 20, 40], [-1.0, 0.0, 1.0])),
                   (1, {"": {"crossing_step": 40}}, ([20, 40, 60, 80], [-2.0, -1.0, 0.0, 1.0]))]
        fields, chart = _toy_summary("bimodal", results)
        assert fields == {"per_seed": {"0": {"crossing_step": 20}, "1": {"crossing_step": 40}}}
        assert chart["series"][-1] == ("crossing", [0, 80], [0.0, 0.0])

    # every file of each command at its default config, byte for byte
    @pytest.mark.parametrize("sub,digests", [
        ("bimodal", {
            "toy-bimodal.svg":
                "567dbd7c81a799b478be389cf8a0b48146b611794b15bd13f5f25ee48e909007",
            "toy-bimodal_seed0.csv":
                "a3212e191d139e68c5d7b128742d8dc3fa54b35f6e92117adf574bade6509514",
            "toy-bimodal_seed0.json":
                "f8f0fd10d63940114aba221e70e3f94ba56f37bdf608c8dcd7c71159ba836a08",
            "toy-bimodal_summary.json":
                "a89d41c019be6ba102d2184d673ce32135a5656b337f1119ad7d5bf69f688c4a",
        }),
        ("unimodal", {
            "toy-unimodal.svg":
                "960ca2ff9cdb11721ad69a6ed9e52a857b8ea7b59d13c55dfdb2baab0fd2c025",
            "toy-unimodal_seed0.csv":
                "97729b13cb8180958cfe9dfe91dfec42923e6568661ea64bbff131d2383ec2d8",
            "toy-unimodal_seed0.json":
                "9d82ce687a9664db63008b6fb6131020ab1930cd0569edae0cd910cf3bb9dae3",
            "toy-unimodal_summary.json":
                "69670144d9827d6e784c801aa70763379e811a512f5fb9776799223f98281eab",
        }),
        ("hierarchy", {
            "toy-hierarchy.svg":
                "c75bd25f0a98fdcfff1cd23bf5ea2253018786f212ec2dc8f28b840600f8871f",
            "toy-hierarchy_seed0.csv":
                "94f7dcd9d13426fe7265fe5772b5acb6a5c7594a901fa64904053ede488d2641",
            "toy-hierarchy_seed0.json":
                "25f7eae4f1b8b3632795d7047a1d4273d1dda724045ead1738d745155b345bd7",
            "toy-hierarchy_summary.json":
                "c42ac872289a3ec7bf446491b65a178adf4ec5864cba8e1fa5d88d6db01624a8",
        }),
    ])
    def test_default_outputs_are_pinned(self, tmp_path, clean_env, sub, digests):
        assert main(["toy", sub, "--seed", "0", "--out", str(tmp_path)]) == 0
        assert tree_digest(tmp_path) == digests

    def test_endogenous_crossing_is_finite(self, tmp_path, clean_env):
        code = main(["toy", "endogenous", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-endogenous_summary.json")
        run = payload["per_seed"]["0"]
        assert isinstance(run["crossing_step"], int)
        assert run["activation_steps"]
        assert run["hypothesis_failures"] == []
        assert tree_digest(tmp_path) == {
            "toy-endogenous.svg":
                "7080470feb30485da6a9109e49270b6e0857449382ea5c11cb36a08d001ab704",
            "toy-endogenous_seed0.csv":
                "ded3369c2a1beb5d2fddda7336965173425cf8bd2a533f66e0e360a758240b53",
            "toy-endogenous_seed0.json":
                "470a9fbc3b5136642e089f576f76f6feabf4d7c45e8f6cbeb58167464cab159c",
            "toy-endogenous_summary.json":
                "4e50e9daadd9c92bc2ea86978b9a9298cb167a00ab87cd6c4d58c78c4377780a",
        }

    def test_reverse_tracking_error_within_four_percent(self, tmp_path, clean_env):
        code = main(["toy", "reverse", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        payload = read_json(tmp_path / "toy-reverse_summary.json")
        assert payload["reverse_tracking_error"] <= 0.04
        run = payload["per_seed"]["0"]
        assert 1.0 <= run["forward"]["overshoot_ratio"] <= 1.6
        assert run["reverse"]["branch_overlap"] <= 0.10
        assert (tmp_path / "toy-reverse_seed0_forward.csv").exists()
        assert (tmp_path / "toy-reverse_seed0_reverse.csv").exists()
        assert (tmp_path / "toy-reverse.svg").exists()
        assert tree_digest(tmp_path) == {
            "toy-reverse.svg":
                "7404cdc0502426dfbf1b9582e936a673973df1455912ff040232284b33f539aa",
            "toy-reverse_seed0.json":
                "98d475588c5601324eec70ed9c97133ebb7b3a85cc87f96130c7741f2cb668f9",
            "toy-reverse_seed0_forward.csv":
                "9ee9cff3fc91407c169f9d376dbb4960bc653771cb824d44d4617b05fb4f6a84",
            "toy-reverse_seed0_reverse.csv":
                "ff4abeef437309de033eee730e3da6d4096858568ed07f4a03a6fba5cda8a3b2",
            "toy-reverse_summary.json":
                "1901c8af53b880e8608a076d568baf48334b082613ceedfc207109c2b8e96cb9",
        }

    def test_one_prototype_reports_no_split_axis(self, tmp_path, clean_env):
        # means that never separate have a zero scatter, with no principal axis to report
        for key, value in {"PROBE__K": "1", "DATA__N": "200", "EXPERIMENT__STEPS": "200"}.items():
            clean_env.setenv(f"BIFURC_{key}", value)
        assert main(["toy", "bimodal", "--seed", "0", "--out", str(tmp_path)]) == 0
        run = read_json(tmp_path / "toy-bimodal_seed0.json")
        assert run["max_order_parameter"] == 0.0
        assert run["split_direction"] is None and run["split_angle_deg"] is None

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
    # both files of each source at the default config, byte for byte
    @pytest.mark.parametrize("source,digests", [
        ("bimodal", {
            "hessian_report.json":
                "7388e1883344a5d3a7f511d19001dfa34f194f59d1649f1a703c95802668dcaa",
            "hessian_scan.svg":
                "cdef76b738296260564febff797272d4e8ab4d43546e5886cf877c9ff1980a2f",
        }),
        ("identity", {
            "hessian_report.json":
                "34158c027d8b01e97b9acb6098aff0b7942546d2b7c0c6b9b53639f89c41eba5",
            "hessian_scan.svg":
                "9cf8ad921b161663df4f57aa7191025a06223bb0af1f63a03a92bab2cdc60b01",
        }),
    ])
    def test_default_outputs_are_pinned(self, tmp_path, clean_env, source, digests):
        clean_env.setenv("BIFURC_HESSIAN__SOURCE", source)
        assert main(["calibrate-hessian", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert tree_digest(tmp_path) == digests

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
            # the root is found on K lambda_low / beta, affine in beta in the closed form
            assert type(rep["crossing_iterations"]) is int
            assert 2 <= rep["crossing_iterations"] <= 4
            if source == "identity":
                assert rep["finite_difference_hessians"] is None
            else:
                # the crossing scan's Hessians plus the one compared entrywise
                assert type(rep["finite_difference_hessians"]) is int
                assert 3 <= rep["finite_difference_hessians"] <= 5


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
    """main(argv), asserting that the fuzz input named no unknown or unread config key.

    Such an input exits 2 whatever its values, so a renamed key, or one the
    command does not read, would otherwise leave a fuzz passing without
    testing anything.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert "unknown config" not in err.getvalue(), err.getvalue()
    assert "does not read" not in err.getvalue(), err.getvalue()
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

    # an anneal run holds until activation and reads no steps (a steps value
    # would be refused), so the batch is small
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
                + ("" if mode == "anneal" else f"steps = {steps}\n")
                + f"record_every = {record_every}\n"
            )
            code = fuzz_main(["toy", "bimodal", "--config", str(ini), "--out", tmp])
        assert code in {0, 2, 3, 4}
        if mode not in ("learned", "anneal") or min(k, record_every) < 1:
            assert code == 2
        if mode == "learned" and steps < 1:
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
                "steps": steps, **shape, "growth_rate": growth_rate,
                # the scalar pitchfork has no coupling term to read
                "coupling": coupling if command == "coupled" else None,
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
    @example(gamma=None, seeds=2, horizon=1000,
             noise=1e-12, init_scale=None, threshold=None).via("noisy cells that escape")
    @given(
        gamma=maybe((0.0, 0.5)),
        seeds=st.integers(0, 3),
        horizon=st.integers(0, 1000),
        noise=maybe((0.0, 1e-10)),
        init_scale=maybe((0.0, 5e-3)),
        threshold=maybe((1e-3, 1e-2)),
    )
    def test_sweep_exits_with_a_documented_code(
        self, gamma, seeds, horizon, noise, init_scale, threshold
    ):
        # the base gammas escape inside a 1,000-step horizon, so fits run too
        levels = [0.05 if gamma is None else gamma, 0.1, 0.2]
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(
                ini_section("escape", {
                    "seeds_per_gamma": seeds, "horizon": horizon, "threshold": threshold,
                }) + f"gammas = {','.join(repr(g) for g in levels)}\n"
                + ini_section("sde", {"noise_intensity": noise, "init_scale": init_scale})
            )
            code = fuzz_main(["escape", "sweep", "--config", str(ini), "--out", tmp])
            assert_strict_json(tmp)
        assert code in {0, 2, 3, 4}
        if horizon < 1:
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
                "n": 200 if n is None else n,
                # the single Gaussian has no center offset to read
                "center_offset": offset if command == "bimodal" else None,
                "scale": scale, "dim": dim,
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
    @example(n=39, offset=7.217825085969298e+102, scale=None, k=None).via(
        "beta_c_hat of 2e-206: branch slopes overflow in beta units")
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
