"""Escape-time measurement, censoring, and tau(gamma) model comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

import bifurc.escape_lab as escape_lab
from bifurc.errors import ConfigError, NoFitError, ValidationError
from bifurc.escape_lab import (
    GammaStats,
    fit_escape_models,
    measure_escape,
    read_sweep_csv,
    sweep_statistics,
    write_sweep_csv,
)
from bifurc.sde import SdeConfig
from oracles import DEFAULT_GAMMAS, DEFAULT_HORIZON, DEFAULT_THRESHOLD, SWEEP_CELL, escape_sweep

try:
    from importlib.resources import files as _files

    TABLE5 = str(_files("bifurc") / "fixtures" / "table5.csv")
except ImportError:  # pragma: no cover
    import os

    TABLE5 = os.path.join(os.path.dirname(__file__), "..", "src", "bifurc", "fixtures", "table5.csv")


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def escape_time_quadrature(mu_eff, alpha, eps0, theta, n=200001):
    """Trapezoid integral of dt = d(ln eps) / (mu_eff - alpha eps^2)."""
    u = np.linspace(math.log(eps0), math.log(theta), n)
    return float(_trapezoid(1.0 / (mu_eff - alpha * np.exp(2 * u)), u))


def escape_time_closed_form(mu_eff, alpha, eps0, theta):
    num = theta**2 * (mu_eff - alpha * eps0**2)
    den = eps0**2 * (mu_eff - alpha * theta**2)
    return math.log(num / den) / (2 * mu_eff)


class TestMeasureEscape:
    def test_matches_closed_form_and_quadrature(self):
        cfg = SWEEP_CELL
        cfg = SdeConfig(
            **{**cfg.__dict__, "coupling": 1e-3}
        )
        tau = measure_escape(cfg, 1.0, DEFAULT_THRESHOLD, DEFAULT_HORIZON)
        assert tau is not None
        mu_eff = cfg.growth_rate + cfg.coupling  # quadratic tilt adds +gamma*eps
        t_closed = escape_time_closed_form(mu_eff, cfg.alpha, cfg.init_scale, DEFAULT_THRESHOLD)
        t_quad = escape_time_quadrature(mu_eff, cfg.alpha, cfg.init_scale, DEFAULT_THRESHOLD)
        assert t_closed == pytest.approx(t_quad, rel=1e-4)
        assert tau * cfg.dt == pytest.approx(t_closed, rel=0.02)
        assert tau * cfg.dt == pytest.approx(t_quad, rel=0.01 * 2)

    def test_zero_start_never_escapes(self):
        cfg = replace(SWEEP_CELL, init_scale=0.0)
        assert measure_escape(cfg, 0.0, DEFAULT_THRESHOLD, horizon=10_000) is None

    def test_undriven_deterministic_run_censors_at_horizon(self):
        # tau(gamma=0) ~ 4.9e6 steps, far beyond a 1e5 horizon
        cfg = SWEEP_CELL
        assert measure_escape(cfg, 1.0, DEFAULT_THRESHOLD, horizon=100_000) is None

    def test_threshold_must_exceed_start(self):
        cfg = SWEEP_CELL
        with pytest.raises(ConfigError):
            measure_escape(cfg, 0.0, threshold=1e-4, horizon=DEFAULT_HORIZON)

    def test_threshold_must_stay_below_saturation(self):
        cfg = SWEEP_CELL
        with pytest.raises(ConfigError):
            measure_escape(cfg, 0.0, threshold=0.02, horizon=DEFAULT_HORIZON)  # eps* = 0.01

    def test_rejects_multimode_config(self):
        cfg = SdeConfig(growth_rate=1e-5, alpha=0.1, dt=0.05, steps=1, modes=2, dim=3,
                        init_scale=5e-4)
        with pytest.raises(ConfigError):
            measure_escape(cfg, 0.0, DEFAULT_THRESHOLD, DEFAULT_HORIZON)

    def test_noisy_escape_reproducible_and_faster(self):
        base = SWEEP_CELL.__dict__
        det = measure_escape(SdeConfig(**{**base, "coupling": 1e-3}),
                             1.0, DEFAULT_THRESHOLD, DEFAULT_HORIZON)
        # noise floor sqrt(D / mu_eff) ~ 3e-5, well under the 5e-4 start
        noisy_cfg = SdeConfig(**{**base, "coupling": 1e-3, "noise_intensity": 1e-12, "seed": 4})
        a = measure_escape(noisy_cfg, 1.0, DEFAULT_THRESHOLD, DEFAULT_HORIZON)
        b = measure_escape(noisy_cfg, 1.0, DEFAULT_THRESHOLD, DEFAULT_HORIZON)
        assert a == b
        assert a is not None
        # weak noise perturbs but does not wildly move the escape time
        assert a == pytest.approx(det, rel=0.5)


class TestSweep:
    def test_mini_sweep_monotone_and_power_like(self):
        cfg = SWEEP_CELL
        summary = escape_sweep((1e-3, 3e-3, 1e-2), 1, cfg, 1.0, DEFAULT_THRESHOLD, 200_000)
        means = [s.tau_mean for s in summary.per_gamma]
        assert all(m is not None for m in means)
        assert means == sorted(means, reverse=True)
        assert summary.power_law is not None
        # mu << gamma, so tau ~ ln(theta/sigma0)/gamma: slope near -1
        assert summary.power_law.coefficients[1] == pytest.approx(-1.0, abs=0.1)
        assert summary.unit_weights_used  # deterministic repeats have zero spread

    def test_repeated_gamma_counts_once(self):
        args = (2, SWEEP_CELL, 1.0, DEFAULT_THRESHOLD, 200_000)
        plain = escape_sweep((1e-3, 3e-3, 1e-2), *args)
        repeated = escape_sweep((1e-2, 1e-3, 1e-3, 3e-3), *args)
        assert repeated.per_gamma == plain.per_gamma
        assert [s.n_seeds for s in repeated.per_gamma] == [2, 2, 2]

    def test_all_censored_raises_no_fit(self):
        # a stub mapper stands in for the measurement: one tau (or None) per job
        stats = sweep_statistics((1e-4, 1e-3, 1e-2), 1, SWEEP_CELL, 1.0,
                                 DEFAULT_THRESHOLD, 1000, lambda fn, jobs: [None] * 3)
        with pytest.raises(NoFitError):
            fit_escape_models(stats)

    def test_partially_censored_levels_are_excluded_from_fit(self):
        taus = [None, None, None]
        for tau in (5000, 1500, 400):
            taus += [int(tau * jitter) for jitter in (0.95, 1.0, 1.05)]
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12)
        summary = fit_escape_models(sweep_statistics(
            (1e-4, 1e-3, 3e-3, 1e-2), 3, noisy, 1.0, DEFAULT_THRESHOLD, 10**6,
            lambda fn, jobs: taus))
        assert summary.per_gamma[0].tau_mean is None
        assert summary.per_gamma[0].n_censored == 3
        assert summary.power_law is not None  # three clean levels remain
        assert not summary.unit_weights_used

    def test_fewer_than_three_levels_yields_no_fit_but_stats(self):
        stats = sweep_statistics((1e-3, 1e-2, 3e-2), 1, SWEEP_CELL, 1.0,
                                 DEFAULT_THRESHOLD, 10**6, lambda fn, jobs: [5000, 400, None])
        summary = fit_escape_models(stats)
        assert summary.power_law is None and summary.delta_aic is None
        assert len(summary.per_gamma) == 3

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, 1e4])
    def test_curvature_outside_open_half_line_rejected(self, c):
        with pytest.raises(ValidationError, match="tilt_curvature"):
            sweep_statistics((1e-3,), 1, SWEEP_CELL, c, DEFAULT_THRESHOLD, 10, map)

    def test_stability_limit_applies_to_the_tilted_rate(self):
        def sweep(c, mapper):
            return sweep_statistics((1e-4, 1e-2), 1, SWEEP_CELL, c, DEFAULT_THRESHOLD, 10, mapper)

        # dt (mu + gamma c) at gamma = 1e-2 is 0.05 (1e-5 + 1e-2 c): 0.19996 at c = 399.9,
        # 0.2000005 at c = 400; a refused sweep never calls its mapper
        assert [s.n_censored for s in sweep(399.9, lambda fn, jobs: [None, None])] == [1, 1]
        with pytest.raises(ValidationError, match="tilt_curvature") as err:
            sweep(400.0, None)
        assert "gamma = 0.01" in str(err.value)

    def test_exact_power_law_recovered(self):
        g = np.array([0.1, 0.2, 0.5, 1.0])
        tau = 2000.0 * g**-1.2
        stats = [GammaStats(gi, ti, 0.05 * ti, 3, 0) for gi, ti in zip(g, tau)]
        summary = fit_escape_models(stats)
        a, b = summary.power_law.coefficients
        assert a == pytest.approx(math.log(2000.0), abs=1e-10)
        assert b == pytest.approx(-1.2, abs=1e-10)
        assert summary.power_law.chi_squared == pytest.approx(0.0, abs=1e-16)
        assert summary.delta_aic > 0  # exponential form cannot match a power law


def recording_map(cells):
    """A serial mapper that appends (gamma, seed, tau) of every measured cell to cells."""
    def mapper(fn, jobs):
        taus = [fn(job) for job in jobs]
        cells.extend((job[0].coupling, job[0].seed, tau) for job, tau in zip(jobs, taus))
        return taus

    return mapper


class TestSweepCells:
    """The sweep measures each distinct cell once, through one stepper."""

    @pytest.fixture
    def stepper_calls(self, monkeypatch):
        calls = []
        real = escape_lab._langevin

        def counting(config, *args, **kwargs):
            calls.append((config.coupling, config.seed))
            return real(config, *args, **kwargs)

        monkeypatch.setattr(escape_lab, "_langevin", counting)
        return calls

    def test_default_sweep_taus(self):
        summary = escape_sweep(DEFAULT_GAMMAS, 3, SWEEP_CELL, 1.0, DEFAULT_THRESHOLD)
        zero, *positive = summary.per_gamma
        assert (zero.gamma, zero.tau_mean, zero.n_censored) == (0.0, None, 3)
        assert [s.tau_mean for s in positive] == [420723, 148814, 45622, 15304, 4602]

    def test_noisy_sweep_taus_off_unit_curvature(self):
        # at c = 1.7, c * eps != eps: a reordered tilt product gamma * (c * eps) moves these bits
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12)
        cells = []
        sweep_statistics((1e-3, 3e-3, 1e-2), 2, noisy, 1.7, DEFAULT_THRESHOLD, 50_000,
                         recording_map(cells))
        assert cells == [
            (1e-3, 0, 26808), (1e-3, 1000, 27617), (3e-3, 0, 9076), (3e-3, 1000, 9084),
            (1e-2, 0, 2729), (1e-2, 1000, 2707),
        ]

    def test_noise_free_sweep_steps_once_per_gamma(self, stepper_calls):
        stats = sweep_statistics(
            (1e-3, 3e-3, 1e-2), 3, SWEEP_CELL, 1.0, DEFAULT_THRESHOLD, 100_000, map,
        )
        assert stepper_calls == [(1e-3, 0), (3e-3, 0), (1e-2, 0)]
        # each level's one measured cell counts for its three seeds
        assert [(s.gamma, s.n_seeds, s.n_censored, s.tau_std) for s in stats] == [
            (g, 3, 0, 0.0) for g in (1e-3, 3e-3, 1e-2)
        ]

    def test_noisy_sweep_steps_once_per_cell_and_reproduces(self, stepper_calls):
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12)
        args = ((1e-3, 1e-2), 3, noisy, 1.0, DEFAULT_THRESHOLD, 100_000, map)
        first = sweep_statistics(*args)
        assert stepper_calls == [(g, s) for g in (1e-3, 1e-2) for s in (0, 1000, 2000)]
        assert sweep_statistics(*args) == first
        assert first[0].tau_std > 0  # seeds draw their own noise


class TestReferenceRefit:
    def test_reference_statistics_model_comparison(self):
        stats = read_sweep_csv(TABLE5)
        summary = fit_escape_models(stats)
        pa, pb = summary.power_law.coefficients
        assert pa == pytest.approx(9.1102, abs=0.01)
        assert pb == pytest.approx(-1.2253, abs=0.005)
        assert summary.power_law.chi_squared == pytest.approx(1.5183, abs=0.02)
        assert summary.power_law.aic == pytest.approx(5.5183, abs=0.02)
        ka, kb = summary.kramers.coefficients
        assert ka == pytest.approx(11.6509, abs=0.02)
        assert kb == pytest.approx(-2.6313, abs=0.01)
        assert summary.kramers.chi_squared == pytest.approx(20.7823, abs=0.1)
        assert summary.delta_aic == pytest.approx(19.2640, abs=0.1)
        assert not summary.unit_weights_used

    def test_power_law_extrapolation_at_low_dissipation(self):
        stats = read_sweep_csv(TABLE5)
        summary = fit_escape_models(stats)
        a, b = summary.power_law.coefficients
        tau_01 = math.exp(a + b * math.log(0.1))
        assert tau_01 == pytest.approx(151_987, rel=0.01)


class TestCsvRoundtrip:
    def test_roundtrip_preserves_stats(self, tmp_path):
        stats = [
            GammaStats(0.0, None, None, 3, 3),
            GammaStats(1e-3, 5123.0, 211.5, 3, 0),
            GammaStats(1e-2, 402.0, 0.0, 3, 1),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, stats, preamble="config=abc123 version=0.1.0")
        back = read_sweep_csv(path)
        assert [s.gamma for s in back] == [0.0, 1e-3, 1e-2]
        assert back[0].tau_mean is None
        assert back[1].tau_mean == 5123.0
        assert back[1].tau_std == 211.5
        assert back[2].n_censored == 1
        with open(path) as fh:
            assert fh.readline().startswith("# config=abc123")

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("gamma,tau,std\n0.1,1,1\n")
        with pytest.raises(ValidationError):
            read_sweep_csv(p)

    def test_rejects_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("gamma,tau_mean,tau_std,n_seeds,censored\n")
        with pytest.raises(ValidationError):
            read_sweep_csv(p)

    def test_default_sweep_constants_sane(self):
        cfg = SWEEP_CELL
        assert cfg.epsilon_star == pytest.approx(0.01, abs=1e-12)
        assert cfg.init_scale < DEFAULT_THRESHOLD < cfg.epsilon_star
        assert DEFAULT_GAMMAS[0] == 0.0 and len(DEFAULT_GAMMAS) == 6
