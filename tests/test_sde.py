"""Integrator correctness, mirror symmetry, persistence statistics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from bifurc.cli import _section
from bifurc.errors import DegenerateInputError, NumericalError, ValidationError
from bifurc.sde import (
    MAX_MODE_ENTRIES,
    SdeConfig,
    _langevin,
    persistence_stats,
    predict_persistence,
    simulate_coupled_modes,
    simulate_pitchfork_1d,
)
from oracles import (
    SDE,
    command_config,
    effective_potential,
    mean_abs_pair_overlap,
    measured_theta_sq,
)


def closed_form_amplitude(mu, alpha, eps0, t):
    """eps(t) for the deterministic pitchfork (Bernoulli/logistic solution)."""
    if mu == 0:
        return eps0 / math.sqrt(1 + 2 * alpha * eps0**2 * t)
    es2 = mu / alpha
    return math.copysign(
        math.sqrt(es2 / (1 + (es2 / eps0**2 - 1) * math.exp(-2 * mu * t))), eps0
    )


def lottery_preset(seed):
    """200 coupled modes in R^10, weak coupling, weak noise."""
    return replace(
        SDE,
        growth_rate=0.1,
        alpha=0.1,
        coupling=1e-3,
        noise_intensity=1e-5,
        dt=0.05,
        steps=2000,
        modes=200,
        dim=10,
        init_scale=0.05,
        seed=seed,
    )


@pytest.fixture(scope="module")
def lottery_runs():
    return {s: simulate_coupled_modes(lottery_preset(s)) for s in (0, 2)}


class TestConfig:
    def test_stability_guard_rejects_coarse_dt(self):
        with pytest.raises(ValidationError):
            replace(SDE, growth_rate=1.0, alpha=1.0, dt=0.5, steps=10)

    def test_guard_covers_coupling_times_modes(self):
        with pytest.raises(ValidationError):
            replace(
                SDE,
                growth_rate=0.01,
                alpha=0.1,
                coupling=0.05,
                dt=0.05,
                steps=10,
                modes=100,
                dim=4,
            )

    def test_epsilon_star(self):
        cfg = replace(SDE, growth_rate=0.04, alpha=0.1, dt=0.01, steps=10)
        assert cfg.epsilon_star == pytest.approx(math.sqrt(0.4), abs=1e-15)

    def test_epsilon_star_requires_positive_growth(self):
        cfg = replace(SDE, growth_rate=-0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            _ = cfg.epsilon_star

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            replace(SDE, growth_rate=0.1, alpha=-1.0, dt=0.01, steps=10)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            replace(SDE, growth_rate=0.1, alpha=1.0, noise_intensity=-1e-3, dt=0.01, steps=10)

    @pytest.mark.parametrize(
        "key", ["growth_rate", "alpha", "coupling", "noise_intensity", "dt", "init_scale"]
    )
    def test_nan_parameter_rejected(self, key):
        base = {"growth_rate": 0.1, "alpha": 1.0, "dt": 0.01, "steps": 10}
        with pytest.raises(ValidationError):
            replace(SDE, **{**base, key: math.nan})

    @pytest.mark.parametrize("value", [-1.0, math.inf])
    def test_init_scale_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValidationError):
            replace(SDE, growth_rate=0.1, alpha=1.0, dt=0.01, steps=10, init_scale=value)

    @pytest.mark.parametrize("modes,dim", [(MAX_MODE_ENTRIES + 1, 1), (2, 2**21 + 1)])
    def test_modes_times_dim_is_bounded(self, modes, dim):
        replace(SDE, modes=MAX_MODE_ENTRIES // dim, dim=dim)  # at or below the bound
        with pytest.raises(ValidationError, match=f"got modes = {modes}, dim = {dim}$"):
            replace(SDE, modes=modes, dim=dim)


class TestPitchfork1d:
    def test_supercritical_reaches_fixed_point(self):
        cfg = replace(SDE, growth_rate=0.5, alpha=0.5, dt=0.05, steps=2000)
        _, eps = simulate_pitchfork_1d(cfg, eps0=0.1)
        assert abs(eps[-1] - 1.0) <= 1e-3

    def test_subcritical_decays_to_zero(self):
        cfg = replace(SDE, growth_rate=-0.5, alpha=0.5, dt=0.05, steps=2000)
        _, eps = simulate_pitchfork_1d(cfg, eps0=0.1)
        assert abs(eps[-1]) < 1e-10

    def test_mirror_symmetry_exact_without_noise(self):
        cfg = replace(SDE, growth_rate=0.5, alpha=0.5, dt=0.05, steps=500)
        _, up = simulate_pitchfork_1d(cfg, eps0=0.3)
        _, down = simulate_pitchfork_1d(cfg, eps0=-0.3)
        assert np.array_equal(up, -down)

    def test_matches_closed_form_solution(self):
        cfg = replace(SDE, growth_rate=0.5, alpha=0.5, dt=0.01, steps=1000)
        _, eps = simulate_pitchfork_1d(cfg, eps0=0.1)
        exact = closed_form_amplitude(0.5, 0.5, 0.1, 10.0)
        assert eps[-1] == pytest.approx(exact, rel=2e-3)

    def test_euler_error_is_first_order_in_dt(self):
        # halving dt should roughly halve the endpoint error
        exact = closed_form_amplitude(0.5, 0.5, 0.1, 10.0)
        errs = []
        for dt, steps in ((0.01, 1000), (0.005, 2000)):
            cfg = replace(SDE, growth_rate=0.5, alpha=0.5, dt=dt, steps=steps)
            _, eps = simulate_pitchfork_1d(cfg, eps0=0.1)
            errs.append(abs(eps[-1] - exact))
        assert 1.6 <= errs[0] / errs[1] <= 2.4

    def test_noise_variance_scales_as_2dt(self):
        # nearly-free diffusion: var(eps_T) ~ 2 D T over an ensemble
        d_noise, t_total = 0.01, 1.0
        finals = []
        for seed in range(1000):
            cfg = replace(
                SDE,
                growth_rate=0.0,
                alpha=1e-8,
                noise_intensity=d_noise,
                dt=0.01,
                steps=100,
                seed=seed,
            )
            finals.append(simulate_pitchfork_1d(cfg, eps0=0.0)[1][-1])
        var = float(np.var(finals))
        assert var == pytest.approx(2 * d_noise * t_total, rel=0.10)

    def test_same_seed_reproduces_path_bitwise(self):
        cfg = replace(
            SDE,
            growth_rate=0.5, alpha=0.5, noise_intensity=1e-3, dt=0.05, steps=400, seed=7,
            init_scale=0.01,
        )
        _, a = simulate_pitchfork_1d(cfg)
        _, b = simulate_pitchfork_1d(cfg)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        base = dict(growth_rate=0.5, alpha=0.5, noise_intensity=1e-3, dt=0.05, steps=400,
                    init_scale=0.01)
        _, a = simulate_pitchfork_1d(replace(SDE, seed=1, **base))
        _, b = simulate_pitchfork_1d(replace(SDE, seed=2, **base))
        assert not np.array_equal(a, b)

    def test_rejects_multimode_config(self):
        cfg = replace(SDE, growth_rate=0.1, alpha=0.1, dt=0.01, steps=10, modes=3, dim=2)
        with pytest.raises(ValidationError):
            simulate_pitchfork_1d(cfg)

    def test_rejects_non_finite_start(self):
        cfg = replace(SDE, growth_rate=0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            simulate_pitchfork_1d(cfg, eps0=math.nan)

    def test_non_finite_state_raises(self):
        cfg = replace(SDE, growth_rate=0.1, alpha=0.1, noise_intensity=1e300, dt=0.01, steps=200)
        with pytest.raises(NumericalError):
            simulate_pitchfork_1d(cfg, eps0=0.0)

    def test_path_decimated_and_times_increasing(self):
        cfg = replace(SDE, growth_rate=0.1, alpha=0.1, dt=0.01, steps=10000)
        times, eps = simulate_pitchfork_1d(cfg, eps0=0.05)
        assert len(times) <= 2002
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0 and eps[0] == 0.05
        assert times[-1] == pytest.approx(100.0, abs=1e-9)
        assert eps.shape == times.shape == (len(times),)


class TestTiltedLangevin:
    """The escape cells' tilt is a rate: the scalar stepper at mu + gamma."""

    @pytest.mark.parametrize("every,steps", [(2, 4999), (70_000, 140_001)])
    def test_chunked_draws_match_a_per_step_reference(self, every, steps):
        # the stepper draws at most one recording interval, and at most 65,536 normals,
        # at a time; a plain loop with one scalar draw per step must give the same bits
        cfg = oracles.tilted_cell(replace(
            SDE,
            growth_rate=0.05, alpha=0.5, noise_intensity=1e-3, dt=0.05,
            steps=steps, init_scale=0.02, seed=3,
        ), 0.03)
        rng = np.random.default_rng(cfg.seed)
        eps0 = cfg.init_scale * float(rng.standard_normal())
        n, final, path = _langevin(cfg, eps0, cfg.steps, rng, every=every)
        rng = np.random.default_rng(cfg.seed)
        eps = cfg.init_scale * float(rng.standard_normal())
        amp = math.sqrt(2.0 * cfg.noise_intensity * cfg.dt)
        ref = []
        for k in range(1, cfg.steps + 1):
            drift = cfg.growth_rate * eps - cfg.alpha * eps * eps * eps
            eps = eps + cfg.dt * drift
            eps += amp * float(rng.standard_normal())
            if k % every == 0 or k == cfg.steps:
                ref.append((k, eps))
        assert (n, final) == (cfg.steps, eps)
        assert path == ref

    def test_a_long_noisy_run_draws_a_bounded_chunk(self, monkeypatch):
        # one recording interval of a 10^12-step run is 5 * 10^8 steps; its draws
        # would be 4 GB, so the stepper asks for at most 65,536 at a time
        sizes = []

        class Asked(Exception):
            pass

        class Refusing:
            def standard_normal(self, size=None):
                sizes.append(size)
                if size is None:  # the start draw
                    return 1.0
                raise Asked

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Refusing())
        cfg = replace(SDE, growth_rate=0.1, alpha=0.1, noise_intensity=1e-5, dt=0.01,
                      steps=10**12, init_scale=1e-3)
        with pytest.raises(Asked):
            simulate_pitchfork_1d(cfg)
        assert sizes == [None, 65536]

    def test_destabilizing_tilt_speeds_up_growth(self):
        cfg = replace(SDE, growth_rate=0.01, alpha=0.5, dt=0.05, steps=2000)
        _, slow, _ = _langevin(cfg, 0.01, cfg.steps, np.random.default_rng(0))
        fast_cfg = oracles.tilted_cell(cfg, 0.05)
        _, fast, _ = _langevin(fast_cfg, 0.01, cfg.steps, np.random.default_rng(0))
        assert fast > slow

    def test_effective_potential_minimum_tracks_tilt(self):
        # gamma * U with U = -(1/2) eps^2 deepens the wells: minima move
        # from sqrt(mu/alpha) to sqrt((mu + gamma)/alpha)
        cfg = replace(SDE, growth_rate=0.2, alpha=0.5, coupling=0.3, dt=0.01, steps=10)
        grid = np.linspace(0.0, 2.0, 200001)
        v = effective_potential(cfg, grid)
        argmin = grid[int(np.argmin(v))]
        assert argmin == pytest.approx(math.sqrt(0.5 / 0.5), abs=1e-4)
        v0 = effective_potential(replace(cfg, coupling=0.0), grid)
        assert grid[int(np.argmin(v0))] == pytest.approx(math.sqrt(0.4), abs=1e-4)

    def test_effective_potential_is_even_without_tilt(self):
        cfg = replace(SDE, growth_rate=0.2, alpha=0.5, dt=0.01, steps=10)
        xs = np.array([-1.3, -0.2, 0.2, 1.3])
        v = effective_potential(cfg, xs)
        assert np.allclose(v, v[::-1], atol=0, rtol=0)


class TestCoupledModes:
    def test_single_mode_reaches_radius(self):
        cfg = replace(
            SDE,
            growth_rate=0.5, alpha=0.5, dt=0.05, steps=2000, modes=1, dim=3,
            init_scale=0.01, seed=3,
        )
        _, end, _ = simulate_coupled_modes(cfg)
        assert np.linalg.norm(end) == pytest.approx(1.0, abs=1e-3)

    def test_uncoupled_noiseless_modes_keep_direction(self):
        cfg = replace(
            SDE,
            growth_rate=0.5, alpha=0.5, dt=0.05, steps=1000, modes=5, dim=4,
            init_scale=0.01, seed=5,
        )
        cosines, _, _ = persistence_stats(*simulate_coupled_modes(cfg))
        assert len(cosines) == 5
        assert np.all(cosines >= 1.0 - 1e-12)  # and so none is NaN: no mode is excluded

    def test_rejects_multimode_in_one_dimension(self):
        with pytest.raises(ValidationError):
            simulate_coupled_modes(
                replace(SDE, growth_rate=0.1, alpha=0.1, dt=0.01, steps=10, modes=4, dim=1)
            )

    def test_non_finite_state_raises(self):
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, noise_intensity=1e300, dt=0.01, steps=200, modes=2,
            dim=3, init_scale=0.01,
        )
        # a 200-step run is checked at every step, so the first non-finite state's step is named
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="not finite by step 2$"):
            simulate_coupled_modes(cfg)

    def test_run_keeps_its_start_and_end_states(self):
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, coupling=1e-3, noise_intensity=1e-5, dt=0.05,
            steps=4001, modes=7, dim=3, init_scale=0.05,
        )
        start, end, reference = simulate_coupled_modes(cfg)
        assert start.shape == end.shape == (7, 3)
        assert reference.shape == (3,)
        assert not np.array_equal(start, end)

    def test_run_allocates_a_few_states(self):
        # a run that records every decimated state holds 201 states here, then their stacked copy
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, coupling=1e-3, noise_intensity=1e-5, dt=0.05,
            steps=200, modes=200, dim=50, init_scale=0.05,
        )
        simulate_coupled_modes(replace(cfg, steps=1))  # numpy's lazy set-up is not the run's
        tracemalloc.start()
        try:
            simulate_coupled_modes(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * cfg.modes * cfg.dim * 8  # ten K x d float64 states: 800 kB

    @pytest.mark.parametrize("config", [
        _section(command_config("sde", "coupled"), SdeConfig, "sde", seed=0),
        _section(command_config("sde", "coupled"), SdeConfig, "sde", seed=1),
        replace(SDE, growth_rate=0.1, alpha=0.1, coupling=0.01, noise_intensity=1e-5, dt=0.05,
                steps=1000, modes=6, dim=10, init_scale=0.05, seed=4),
    ], ids=["default-seed0", "default-seed1", "modes-below-dim"])
    def test_matches_the_recording_reference(self, config):
        start, end, reference = simulate_coupled_modes(config)
        _, samples, ref_reference = oracles.simulate_coupled_modes(config)
        assert np.array_equal(start, samples[0])
        assert np.array_equal(reference, ref_reference)
        assert np.max(np.abs(end - samples[-1])) <= 1e-12
        assert persistence_stats(start, end, reference)[2] == persistence_stats(
            samples[0], samples[-1], ref_reference)[2]

    def test_reference_direction_is_unit_and_reproducible(self):
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, dt=0.05, steps=20, modes=3, dim=6,
            init_scale=0.01, seed=9,
        )
        a = simulate_coupled_modes(cfg)
        b = simulate_coupled_modes(cfg)
        assert np.linalg.norm(a[2]) == pytest.approx(1.0, abs=1e-12)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_lottery_projection_rank_correlation_band(self, lottery_runs):
        rhos = [persistence_stats(*r)[2] for r in lottery_runs.values()]
        for rho in rhos:
            assert rho > 0.90
        assert 0.93 <= float(np.mean(rhos)) <= 0.97

    def test_lottery_cosines_overwhelmingly_positive(self, lottery_runs):
        cosines, _, _ = persistence_stats(*lottery_runs[0])
        assert not np.isnan(cosines).any()
        n = len(cosines)
        n_pos = int(np.sum(cosines > 0))
        # one-sided binomial sign test against the coin-flip null
        p = sum(math.comb(n, i) for i in range(n_pos, n + 1)) / 2.0**n
        assert p < 1e-6

    def test_shuffled_projections_lose_the_correlation(self, lottery_runs):
        _, projections, _ = persistence_stats(*lottery_runs[0])
        p0 = projections[:, 0]
        p1 = projections[:, 1]
        shuffler = np.random.default_rng(123)
        from bifurc.mathcore import spearman

        rho_null = spearman(shuffler.permutation(p0), p1)
        assert abs(rho_null) <= 2.0 / math.sqrt(len(p0))

    def test_measured_angle_budget_within_factor_two(self):
        # uncoupled ensemble far from the randomization time (T ~ T_rand/250);
        # the coarse growth-phase budget (d-1)/sigma_star^2 is per-coordinate,
        # so low dim keeps it honest (it inflates ~(d-2)x at large d)
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, coupling=0.0, noise_intensity=1e-5,
            dt=0.05, steps=2000, modes=400, dim=3, init_scale=0.05, seed=0,
        )
        pred = predict_persistence(cfg)
        assert cfg.steps * cfg.dt < pred.t_rand / 100
        meas = measured_theta_sq(*simulate_coupled_modes(cfg))
        assert 0.5 * pred.theta_sq <= meas <= 2.0 * pred.theta_sq

    def test_coupling_suppresses_pairwise_overlap_of_survivors(self, lottery_runs):
        e0, end, _ = lottery_runs[0]
        norms = np.linalg.norm(end, axis=1)
        r_star = lottery_preset(0).epsilon_star
        winners = (end / norms[:, None])[norms >= 0.5 * r_star]
        assert len(winners) >= 2
        before = mean_abs_pair_overlap(e0 / np.linalg.norm(e0, axis=1)[:, None])
        after = mean_abs_pair_overlap(winners)
        assert after < before


class TestPersistenceStats:
    def test_excluded_zero_modes(self):
        cosines, projections, _ = persistence_stats(
            np.array([[0.6, 0.0], [0.0, 0.4], [0.5, 0.5]]),
            np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.array([1.0, 0.0]))
        assert np.array_equal(np.isnan(cosines), [False, False, True])
        assert np.allclose(cosines[:2], [1.0, 1.0])
        assert projections.shape == (3, 2)

    def test_non_finite_projection_is_not_read_as_constant(self):
        with pytest.raises(ValidationError, match="finite") as exc:
            persistence_stats(np.array([[0.6], [0.4], [0.5]]), np.array([[2.0], [np.nan], [1.0]]),
                              np.array([1.0]))
        assert not isinstance(exc.value, DegenerateInputError)


class TestPredictPersistence:
    def test_noiseless_prediction_is_perfect_persistence(self):
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, dt=0.05, steps=100, modes=2, dim=5,
            init_scale=0.05,
        )
        pred = predict_persistence(cfg)
        assert pred.theta_sq == 0.0
        assert pred.expected_cosine == 1.0
        assert math.isinf(pred.t_rand)
        assert math.isinf(pred.sigma_star)

    def test_lottery_preset_budget(self):
        pred = predict_persistence(lottery_preset(0))
        # sigma_0 over the linear-phase noise floor sqrt(D/mu)
        assert pred.sigma_star == pytest.approx(5.0, abs=1e-12)
        # growth-phase term (d-1)/sigma_star^2 = 9/25 dominates
        assert pred.theta_sq == pytest.approx(0.36, abs=0.01)
        assert pred.tau_r == pytest.approx(73.66, abs=0.05)
        assert pred.t_rand == pytest.approx(1.0 / (2 * 9 * 1e-5), rel=1e-9)
        assert pred.expected_cosine == pytest.approx(1 - pred.theta_sq / 2, abs=1e-15)
        assert not pred.saturation_dominated

    def test_long_horizon_flags_saturation_randomization(self):
        cfg = replace(
            SDE,
            growth_rate=0.1, alpha=0.1, coupling=0.0, noise_intensity=1e-5,
            dt=0.05, steps=2_000_000, modes=2, dim=10, init_scale=0.05,
        )
        pred = predict_persistence(cfg)
        assert pred.saturation_dominated
        assert pred.theta_sq > 1.0

    def test_requires_positive_growth(self):
        cfg = replace(SDE, growth_rate=-0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            predict_persistence(cfg)

    @pytest.mark.parametrize(
        "growth_rate,init_scale",
        [(5e-168, 5e-168), (0.1, 5e-168)],  # log(0); 1 / sigma_star^2 with sigma_star^2 = 0
    )
    def test_underflowing_budget_is_a_numerical_error(self, growth_rate, init_scale):
        cfg = replace(
            SDE,
            growth_rate=growth_rate, alpha=0.1, noise_intensity=1e-5, dt=0.05, steps=1,
            modes=3, dim=2, init_scale=init_scale,
        )
        with pytest.raises(NumericalError):
            predict_persistence(cfg)


class TestPairOverlap:
    def test_orthonormal_rows_have_zero_overlap(self):
        assert mean_abs_pair_overlap(np.eye(4)) == 0.0

    def test_identical_rows_have_unit_overlap(self):
        d = np.tile(np.array([[0.6, 0.8]]), (3, 1))
        assert mean_abs_pair_overlap(d) == pytest.approx(1.0, abs=1e-12)
