"""Escape-time measurement, censoring, and tau(gamma) model comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from bifurc.sde import STABILITY_LIMIT, _langevin
from oracles import (
    DEFAULT_GAMMAS,
    DEFAULT_THRESHOLD,
    SDE,
    SWEEP_CELL,
    escape_sweep,
    escape_time_closed_form,
    predicted_escape_step,
    tilted_cell,
)

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


class TestMeasureEscape:
    def test_matches_closed_form_and_quadrature(self):
        cfg = tilted_cell(SWEEP_CELL, 1e-3)
        tau = measure_escape(cfg, DEFAULT_THRESHOLD)
        assert tau is not None
        mu_eff = SWEEP_CELL.growth_rate + 1e-3  # quadratic tilt adds +gamma*eps
        t_closed = escape_time_closed_form(mu_eff, cfg.alpha, cfg.init_scale, DEFAULT_THRESHOLD)
        t_quad = escape_time_quadrature(mu_eff, cfg.alpha, cfg.init_scale, DEFAULT_THRESHOLD)
        assert t_closed == pytest.approx(t_quad, rel=1e-4)
        assert tau * cfg.dt == pytest.approx(t_closed, rel=0.02)
        assert tau * cfg.dt == pytest.approx(t_quad, rel=0.01 * 2)

    def test_zero_start_never_escapes(self):
        cfg = replace(SWEEP_CELL, init_scale=0.0, steps=10_000)
        assert measure_escape(cfg, DEFAULT_THRESHOLD) is None

    def test_undriven_deterministic_run_censors_at_horizon(self):
        # tau(gamma=0) ~ 4.9e6 steps, far beyond a 1e5 horizon
        cfg = replace(SWEEP_CELL, steps=100_000)
        assert measure_escape(cfg, DEFAULT_THRESHOLD) is None

    def test_cubic_overshoot_escapes_at_step_one(self):
        # dt alpha theta^2 = 5000: the first step's factor 1 + dt (mu - alpha eps0^2) is
        # -49.05, so |eps| jumps from 1 past theta = 10 and no growth bound may censor it
        cfg = replace(SWEEP_CELL, growth_rate=-1.0, alpha=1000.0, init_scale=1.0, steps=100)
        assert measure_escape(cfg, 10.0) == 1

    def test_threshold_must_exceed_start(self):
        cfg = SWEEP_CELL
        with pytest.raises(ConfigError):
            measure_escape(cfg, threshold=1e-4)

    def test_threshold_must_stay_below_saturation(self):
        cfg = SWEEP_CELL
        with pytest.raises(ConfigError):
            measure_escape(cfg, threshold=0.02)  # eps* = 0.01

    def test_rejects_multimode_config(self):
        cfg = replace(SDE, growth_rate=1e-5, alpha=0.1, dt=0.05, steps=1, modes=2, dim=3,
                      init_scale=5e-4)
        with pytest.raises(ConfigError):
            measure_escape(cfg, DEFAULT_THRESHOLD)

    def test_noisy_escape_reproducible_and_faster(self):
        det = measure_escape(tilted_cell(SWEEP_CELL, 1e-3), DEFAULT_THRESHOLD)
        # noise floor sqrt(D / mu_eff) ~ 3e-5, well under the 5e-4 start
        noisy_cfg = replace(tilted_cell(SWEEP_CELL, 1e-3), noise_intensity=1e-12, seed=4)
        a = measure_escape(noisy_cfg, DEFAULT_THRESHOLD)
        b = measure_escape(noisy_cfg, DEFAULT_THRESHOLD)
        assert a == b
        assert a is not None
        # weak noise perturbs but does not wildly move the escape time
        assert a == pytest.approx(det, rel=0.5)


class TestSweep:
    def test_mini_sweep_monotone_and_power_like(self):
        cfg = replace(SWEEP_CELL, steps=200_000)
        stats, summary = escape_sweep((1e-3, 3e-3, 1e-2), 1, cfg, DEFAULT_THRESHOLD)
        means = [s.tau_mean for s in stats]
        assert all(m is not None for m in means)
        assert means == sorted(means, reverse=True)
        assert summary.power_law is not None
        # mu << gamma, so tau ~ ln(theta/sigma0)/gamma: slope near -1
        assert summary.power_law.slope == pytest.approx(-1.0, abs=0.1)
        assert summary.unit_weights_used  # deterministic repeats have zero spread

    def test_repeated_gamma_counts_once(self):
        args = (2, replace(SWEEP_CELL, steps=200_000), DEFAULT_THRESHOLD)
        plain, _ = escape_sweep((1e-3, 3e-3, 1e-2), *args)
        repeated, _ = escape_sweep((1e-2, 1e-3, 1e-3, 3e-3), *args)
        assert repeated == plain
        assert [s.n_seeds for s in repeated] == [2, 2, 2]

    def test_all_censored_raises_no_fit(self):
        # a stub mapper stands in for the measurement: one tau (or None) per job
        stats = sweep_statistics((1e-4, 1e-3, 1e-2), 1, replace(SWEEP_CELL, steps=1000),
                                 DEFAULT_THRESHOLD, lambda fn, jobs: [None] * 3)
        with pytest.raises(NoFitError):
            fit_escape_models(stats)

    def test_partially_censored_levels_are_excluded_from_fit(self):
        taus = [None, None, None]
        for tau in (5000, 1500, 400):
            taus += [int(tau * jitter) for jitter in (0.95, 1.0, 1.05)]
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12)
        stats = sweep_statistics(
            (1e-4, 1e-3, 3e-3, 1e-2), 3, noisy, DEFAULT_THRESHOLD, lambda fn, jobs: taus)
        summary = fit_escape_models(stats)
        assert stats[0].tau_mean is None
        assert stats[0].n_censored == 3
        assert summary.power_law is not None  # three clean levels remain
        assert not summary.unit_weights_used

    def test_fewer_than_three_levels_yields_no_fit_but_stats(self):
        stats = sweep_statistics((1e-3, 1e-2, 3e-2), 1, SWEEP_CELL,
                                 DEFAULT_THRESHOLD, lambda fn, jobs: [5000, 400, None])
        summary = fit_escape_models(stats)
        assert summary.power_law is None and summary.delta_aic is None
        assert len(stats) == 3

    def test_stability_limit_applies_to_the_tilted_rate(self):
        def sweep(gamma, mapper):
            return sweep_statistics((1e-4, gamma), 1, replace(SWEEP_CELL, steps=10),
                                    DEFAULT_THRESHOLD, mapper)

        # dt (mu + gamma) is 0.05 (1e-5 + gamma): 0.19995 at gamma = 3.999, 0.2000005 at
        # gamma = 4; a refused sweep never calls its mapper
        assert [s.n_censored for s in sweep(3.999, lambda fn, jobs: [None, None])] == [1, 1]
        with pytest.raises(ValidationError, match=r"mu \+ gamma: stability guard") as err:
            sweep(4.0, None)
        assert str(err.value).startswith("gamma = 4.0 sets the cell's mu to mu + gamma: ")

    def test_exact_power_law_recovered(self):
        g = np.array([0.1, 0.2, 0.5, 1.0])
        tau = 2000.0 * g**-1.2
        stats = [GammaStats(gi, ti, 0.05 * ti, 3, 0) for gi, ti in zip(g, tau)]
        summary = fit_escape_models(stats)
        a, b = summary.power_law.intercept, summary.power_law.slope
        assert a == pytest.approx(math.log(2000.0), abs=1e-10)
        assert b == pytest.approx(-1.2, abs=1e-10)
        assert summary.power_law.chi_squared == pytest.approx(0.0, abs=1e-16)
        assert summary.delta_aic > 0  # exponential form cannot match a power law


def _cell(mu, alpha, eps0, theta, dt, steps, gamma=0.0):
    """(config, threshold) of one noise-free escape cell, tilted by gamma."""
    cfg = replace(SWEEP_CELL, growth_rate=mu, alpha=alpha, dt=dt, init_scale=eps0, steps=steps)
    return tilted_cell(cfg, gamma), theta


@st.composite
def noise_free_cells(draw):
    """A noise-free escape cell inside SdeConfig's stability guard at its tilted
    rate, with a threshold measure_escape accepts and at most 10^4 steps."""
    dt = draw(st.floats(1e-3, 1.0))
    mu = draw(st.floats(-0.19, 0.19)) / dt
    gamma = draw(st.just(0.0) | st.floats(0.0, 0.19)) / dt
    assume(dt * abs(mu + gamma) <= STABILITY_LIMIT)
    alpha = 10 ** draw(st.floats(-3.0, 4.0))
    eps0 = 0.0 if draw(st.integers(0, 9)) == 0 else 10 ** draw(st.floats(-12.0, 0.0))
    if mu + gamma > 0:  # theta strictly inside (eps0, eps*) at the tilted rate
        top = math.sqrt((mu + gamma) / alpha)
        theta = eps0 + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (top - eps0)
        assume(eps0 < theta < top)
    else:
        theta = max(eps0, 1e-6) * 10 ** draw(st.floats(0.0, 4.0, exclude_min=True))
        assume(eps0 < theta)
    return _cell(mu, alpha, eps0, theta, dt, draw(st.integers(1, 10_000)), gamma)


def _bound_at(margin):
    """A cell whose censoring bound eps0 (1 + dt r)^n * 4 lands margin below theta."""
    mu, dt, eps0, steps = 1e-3, 0.05, 1e-3, 1000
    theta = 4 * eps0 * math.exp(steps * math.log1p(dt * mu)) * (1 + margin)
    return _cell(mu, 1e-3, eps0, theta, dt, steps)


# name: (cell, whether measure_escape's bound censors it unstepped)
PINNED_CELLS = {
    "zero start": (_cell(1e-3, 0.1, 0.0, 5e-3, 0.05, 10_000), True),
    "r <= 0": (_cell(-0.5, 1.0, 1e-3, 5e-3, 0.05, 10_000), True),
    "dt r = 0.2": (_cell(4.0, 1.0, 1e-6, 1e-3, 0.05, 30), True),
    "dt r = -0.2": (_cell(-4.0, 1.0, 1e-3, 5e-3, 0.05, 30), True),
    "a horizon of 1": (_cell(1e-5, 0.1, 5e-4, 5e-3, 0.05, 1), True),
    "cubic overshoot": (_cell(-1.0, 1000.0, 1.0, 10.0, 0.05, 100), False),
    "bound 1e-7 below theta": (_bound_at(1e-7), True),
    "bound 1e-7 above theta": (_bound_at(-1e-7), False),
}


def pinned_examples(test):
    for name, (cell, _) in PINNED_CELLS.items():
        test = example(cell=cell).via(name)(test)
    return test


class TestCensorBound:
    """A noise-free cell that measure_escape censors without stepping never escapes."""

    @settings(max_examples=100, deadline=None)
    @pinned_examples
    @given(cell=noise_free_cells())
    def test_censored_cells_never_escape_when_stepped(self, cell):
        cfg, theta = cell
        n, eps, _ = _langevin(cfg, cfg.init_scale, cfg.steps, np.random.default_rng(cfg.seed),
                              theta)
        escaped = abs(eps) >= theta
        if escape_lab._bound_censors(cfg, theta):
            assert not escaped
        assert measure_escape(cfg, theta) == (n if escaped else None)

    @pytest.mark.parametrize("name", PINNED_CELLS)
    def test_pinned_cells_meet_the_bound_as_named(self, name):
        cell, censors = PINNED_CELLS[name]
        assert escape_lab._bound_censors(*cell) == censors


def recording_map(cells):
    """A serial mapper that appends (config, tau) of every measured cell to cells."""
    def mapper(fn, jobs):
        taus = [fn(job) for job in jobs]
        cells.extend(zip(jobs, taus))
        return taus

    return mapper


class TestSweepCells:
    """The sweep measures each distinct cell once, through one stepper."""

    @pytest.fixture
    def stepper_calls(self, monkeypatch):
        calls = []
        real = escape_lab._langevin

        def counting(config, *args, **kwargs):
            calls.append((config.growth_rate, config.seed))
            return real(config, *args, **kwargs)

        monkeypatch.setattr(escape_lab, "_langevin", counting)
        return calls

    def test_default_sweep_taus(self, stepper_calls):
        stats, _ = escape_sweep(DEFAULT_GAMMAS, 3, SWEEP_CELL, DEFAULT_THRESHOLD)
        zero, *positive = stats
        assert (zero.gamma, zero.tau_mean, zero.n_censored) == (0.0, None, 3)
        assert [s.tau_mean for s in positive] == [420723, 148814, 45622, 15304, 4602]
        # the gamma = 0 cell is censored by measure_escape's bound, unstepped
        assert stepper_calls == [(tilted_cell(SWEEP_CELL, g).growth_rate, 0)
                                 for g in DEFAULT_GAMMAS[1:]]

    def test_noise_free_steps_are_predicted_within_one_step(self):
        # the default levels; the pinned two-level sweep (1e-3, 1e-2) reads two of them
        measured = [420723, 148814, 45622, 15304, 4602]
        predicted = [predicted_escape_step(replace(SWEEP_CELL, coupling=g), DEFAULT_THRESHOLD)
                     for g in DEFAULT_GAMMAS[1:]]
        assert all(abs(p - m) <= 1 for p, m in zip(predicted, measured)), predicted

    # the last cell is mu = -1e-3 tilted by gamma = 1e-3, at rate 0
    @pytest.mark.parametrize("change", [{"init_scale": 0.0}, {"growth_rate": -1e-3},
                                        {"growth_rate": -1e-3 + 1e-3}])
    def test_zero_start_and_non_growing_cells_censor_unstepped(self, stepper_calls, change):
        assert measure_escape(replace(SWEEP_CELL, **change), DEFAULT_THRESHOLD) is None
        assert stepper_calls == []

    # the bound holds only without noise, and only from a zero or a normal start
    @pytest.mark.parametrize("change", [{"noise_intensity": 1e-12}, {"init_scale": 5e-324}])
    def test_noisy_or_subnormal_zero_gamma_cell_still_steps(self, stepper_calls, change):
        cell = replace(SWEEP_CELL, steps=1000, **change)
        assert measure_escape(cell, DEFAULT_THRESHOLD) is None
        assert stepper_calls == [(SWEEP_CELL.growth_rate, 0)]

    def test_noisy_sweep_taus_are_pinned_per_cell(self):
        # 0.0017, 0.0051 and 0.017 are the floats of 1.7 * (1e-3, 3e-3, 1e-2), and
        # mu + gamma is inexact for each, so a moved bit in the stepping moves a tau
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12, steps=50_000)
        cells = []
        sweep_statistics((0.0017, 0.0051, 0.017), 2, noisy, DEFAULT_THRESHOLD,
                         recording_map(cells))
        assert [(cfg.growth_rate, cfg.seed, tau) for cfg, tau in cells] == [
            (tilted_cell(noisy, g).growth_rate, seed, tau) for g, seed, tau in (
                (0.0017, 0, 26808), (0.0017, 1000, 27617), (0.0051, 0, 9076),
                (0.0051, 1000, 9084), (0.017, 0, 2729), (0.017, 1000, 2707))
        ]

    def test_cells_are_the_pitchfork_at_the_tilted_rate(self):
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12, steps=10)
        cells = []
        sweep_statistics((0.017, 0.0, 0.0017), 2, noisy, DEFAULT_THRESHOLD,
                         recording_map(cells))
        assert [(cfg.coupling, cfg.growth_rate, cfg.seed) for cfg, _ in cells] == [
            (0.0, SWEEP_CELL.growth_rate + g, s) for g in (0.0, 0.0017, 0.017)
            for s in (0, 1000)
        ]
        assert all(cfg == replace(noisy, growth_rate=cfg.growth_rate, seed=cfg.seed)
                   for cfg, _ in cells)

    @pytest.mark.parametrize("gamma", [-1e-3, math.nan, math.inf])
    def test_bad_gamma_refused_before_any_cell(self, gamma):
        # a refused sweep never calls its mapper
        with pytest.raises(ValidationError, match="escape.gammas"):
            sweep_statistics((1e-3, gamma), 1, SWEEP_CELL, DEFAULT_THRESHOLD, None)

    def test_threshold_is_read_against_the_tilted_eps_star(self):
        # eps* is 0.01 untilted and sqrt((1e-5 + 1e-3) / 0.1) = 0.1005 at gamma = 1e-3
        cell = tilted_cell(SWEEP_CELL, 1e-3)
        assert measure_escape(cell, 0.05) is not None
        with pytest.raises(ConfigError, match="eps"):
            measure_escape(cell, 0.11)

    def test_noise_free_sweep_steps_once_per_gamma(self, stepper_calls):
        stats = sweep_statistics(
            (1e-3, 3e-3, 1e-2), 3, replace(SWEEP_CELL, steps=100_000), DEFAULT_THRESHOLD, map,
        )
        assert stepper_calls == [(tilted_cell(SWEEP_CELL, g).growth_rate, 0)
                                 for g in (1e-3, 3e-3, 1e-2)]
        # each level's one measured cell counts for its three seeds
        assert [(s.gamma, s.n_seeds, s.n_censored, s.tau_std) for s in stats] == [
            (g, 3, 0, 0.0) for g in (1e-3, 3e-3, 1e-2)
        ]

    def test_noisy_sweep_steps_once_per_cell_and_reproduces(self, stepper_calls):
        noisy = replace(SWEEP_CELL, noise_intensity=1e-12)
        args = ((1e-3, 1e-2), 3, replace(noisy, steps=100_000), DEFAULT_THRESHOLD, map)
        first = sweep_statistics(*args)
        assert stepper_calls == [(tilted_cell(SWEEP_CELL, g).growth_rate, s)
                                 for g in (1e-3, 1e-2) for s in (0, 1000, 2000)]
        assert sweep_statistics(*args) == first
        assert first[0].tau_std > 0  # seeds draw their own noise


class TestReferenceRefit:
    def test_reference_statistics_model_comparison(self):
        stats = read_sweep_csv(TABLE5)
        summary = fit_escape_models(stats)
        pa, pb = summary.power_law.intercept, summary.power_law.slope
        assert pa == pytest.approx(9.1102, abs=0.01)
        assert pb == pytest.approx(-1.2253, abs=0.005)
        assert summary.power_law.chi_squared == pytest.approx(1.5183, abs=0.02)
        assert summary.power_law.aic == pytest.approx(5.5183, abs=0.02)
        ka, kb = summary.kramers.intercept, summary.kramers.slope
        assert ka == pytest.approx(11.6509, abs=0.02)
        assert kb == pytest.approx(-2.6313, abs=0.01)
        assert summary.kramers.chi_squared == pytest.approx(20.7823, abs=0.1)
        assert summary.delta_aic == pytest.approx(19.2640, abs=0.1)
        assert not summary.unit_weights_used

    def test_power_law_extrapolation_at_low_dissipation(self):
        stats = read_sweep_csv(TABLE5)
        summary = fit_escape_models(stats)
        a, b = summary.power_law.intercept, summary.power_law.slope
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

    # a non-finite field, or only one of the two tau fields empty
    @pytest.mark.parametrize("row", ["nan,10.0,1.0,3,0", "0.1,inf,1.0,3,0", "0.1,10.0,-inf,3,0",
                                     "0.1,10.0,,3,0", "0.1,,1.0,3,0"])
    def test_rejects_non_finite_or_half_empty_field(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"gamma,tau_mean,tau_std,n_seeds,censored\n{row}\n")
        with pytest.raises(ValidationError, match="bad escape CSV row"):
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
