"""Integrator correctness, mirror symmetry, persistence statistics."""

import math

import numpy as np
import pytest

from bifurc.errors import DegenerateInputError, NumericalError, ValidationError
from bifurc.sde import (
    SdeConfig,
    SdeRunResult,
    _langevin,
    persistence_stats,
    predict_persistence,
    simulate_coupled_modes,
    simulate_pitchfork_1d,
)
from oracles import effective_potential, mean_abs_pair_overlap, measured_theta_sq


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
    return SdeConfig(
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
            SdeConfig(growth_rate=1.0, alpha=1.0, dt=0.5, steps=10)

    def test_guard_covers_coupling_times_modes(self):
        with pytest.raises(ValidationError):
            SdeConfig(
                growth_rate=0.01,
                alpha=0.1,
                coupling=0.05,
                dt=0.05,
                steps=10,
                modes=100,
                dim=4,
            )

    def test_epsilon_star(self):
        cfg = SdeConfig(growth_rate=0.04, alpha=0.1, dt=0.01, steps=10)
        assert cfg.epsilon_star == pytest.approx(math.sqrt(0.4), abs=1e-15)

    def test_epsilon_star_requires_positive_growth(self):
        cfg = SdeConfig(growth_rate=-0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            _ = cfg.epsilon_star

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            SdeConfig(growth_rate=0.1, alpha=-1.0, dt=0.01, steps=10)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValidationError):
            SdeConfig(growth_rate=0.1, alpha=1.0, noise_intensity=-1e-3, dt=0.01, steps=10)

    @pytest.mark.parametrize(
        "key", ["growth_rate", "alpha", "coupling", "noise_intensity", "dt", "init_scale"]
    )
    def test_nan_parameter_rejected(self, key):
        base = {"growth_rate": 0.1, "alpha": 1.0, "dt": 0.01, "steps": 10}
        with pytest.raises(ValidationError):
            SdeConfig(**{**base, key: math.nan})

    @pytest.mark.parametrize("value", [-1.0, math.inf])
    def test_init_scale_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValidationError):
            SdeConfig(growth_rate=0.1, alpha=1.0, dt=0.01, steps=10, init_scale=value)


class TestPitchfork1d:
    def test_supercritical_reaches_fixed_point(self):
        cfg = SdeConfig(growth_rate=0.5, alpha=0.5, dt=0.05, steps=2000)
        run = simulate_pitchfork_1d(cfg, eps0=0.1)
        assert abs(run.final_state[0, 0] - 1.0) <= 1e-3

    def test_subcritical_decays_to_zero(self):
        cfg = SdeConfig(growth_rate=-0.5, alpha=0.5, dt=0.05, steps=2000)
        run = simulate_pitchfork_1d(cfg, eps0=0.1)
        assert abs(run.final_state[0, 0]) < 1e-10

    def test_mirror_symmetry_exact_without_noise(self):
        cfg = SdeConfig(growth_rate=0.5, alpha=0.5, dt=0.05, steps=500)
        up = simulate_pitchfork_1d(cfg, eps0=0.3)
        down = simulate_pitchfork_1d(cfg, eps0=-0.3)
        assert np.array_equal(up.path_samples, -down.path_samples)
        assert np.array_equal(up.final_state, -down.final_state)

    def test_matches_closed_form_solution(self):
        cfg = SdeConfig(growth_rate=0.5, alpha=0.5, dt=0.01, steps=1000)
        run = simulate_pitchfork_1d(cfg, eps0=0.1)
        exact = closed_form_amplitude(0.5, 0.5, 0.1, 10.0)
        assert run.final_state[0, 0] == pytest.approx(exact, rel=2e-3)

    def test_euler_error_is_first_order_in_dt(self):
        # halving dt should roughly halve the endpoint error
        exact = closed_form_amplitude(0.5, 0.5, 0.1, 10.0)
        errs = []
        for dt, steps in ((0.01, 1000), (0.005, 2000)):
            cfg = SdeConfig(growth_rate=0.5, alpha=0.5, dt=dt, steps=steps)
            run = simulate_pitchfork_1d(cfg, eps0=0.1)
            errs.append(abs(run.final_state[0, 0] - exact))
        assert 1.6 <= errs[0] / errs[1] <= 2.4

    def test_noise_variance_scales_as_2dt(self):
        # nearly-free diffusion: var(eps_T) ~ 2 D T over an ensemble
        d_noise, t_total = 0.01, 1.0
        finals = []
        for seed in range(1000):
            cfg = SdeConfig(
                growth_rate=0.0,
                alpha=1e-8,
                noise_intensity=d_noise,
                dt=0.01,
                steps=100,
                seed=seed,
            )
            finals.append(simulate_pitchfork_1d(cfg, eps0=0.0).final_state[0, 0])
        var = float(np.var(finals))
        assert var == pytest.approx(2 * d_noise * t_total, rel=0.10)

    def test_same_seed_reproduces_path_bitwise(self):
        cfg = SdeConfig(
            growth_rate=0.5, alpha=0.5, noise_intensity=1e-3, dt=0.05, steps=400, seed=7,
            init_scale=0.01,
        )
        a = simulate_pitchfork_1d(cfg)
        b = simulate_pitchfork_1d(cfg)
        assert np.array_equal(a.path_samples, b.path_samples)

    def test_different_seeds_differ(self):
        base = dict(growth_rate=0.5, alpha=0.5, noise_intensity=1e-3, dt=0.05, steps=400,
                    init_scale=0.01)
        a = simulate_pitchfork_1d(SdeConfig(seed=1, **base))
        b = simulate_pitchfork_1d(SdeConfig(seed=2, **base))
        assert not np.array_equal(a.path_samples, b.path_samples)

    def test_rejects_multimode_config(self):
        cfg = SdeConfig(growth_rate=0.1, alpha=0.1, dt=0.01, steps=10, modes=3, dim=2)
        with pytest.raises(ValidationError):
            simulate_pitchfork_1d(cfg)

    def test_rejects_non_finite_start(self):
        cfg = SdeConfig(growth_rate=0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            simulate_pitchfork_1d(cfg, eps0=math.nan)

    def test_non_finite_state_raises(self):
        cfg = SdeConfig(growth_rate=0.1, alpha=0.1, noise_intensity=1e300, dt=0.01, steps=200)
        with pytest.raises(NumericalError):
            simulate_pitchfork_1d(cfg, eps0=0.0)

    def test_path_decimated_and_times_increasing(self):
        cfg = SdeConfig(growth_rate=0.1, alpha=0.1, dt=0.01, steps=10000)
        run = simulate_pitchfork_1d(cfg, eps0=0.05)
        assert len(run.times) <= 2002
        assert np.all(np.diff(run.times) > 0)
        assert run.times[0] == 0.0
        assert run.times[-1] == pytest.approx(100.0, abs=1e-9)
        assert run.path_samples.shape == (len(run.times), 1, 1)


class TestTiltedLangevin:
    """The escape cells' tilt: the scalar stepper with a curvature c adds gamma c eps."""

    def test_chunked_draws_match_a_per_step_reference(self):
        # the stepper draws one recording interval at a time; a plain loop
        # with one scalar draw per step and the tilt as -gamma U'(eps) must give the same bits
        cfg = SdeConfig(
            growth_rate=0.05, alpha=0.5, coupling=0.02, noise_intensity=1e-3, dt=0.05,
            steps=4999, init_scale=0.02, seed=3,
        )
        rng = np.random.default_rng(cfg.seed)
        eps0 = cfg.init_scale * float(rng.standard_normal())
        n, final, path = _langevin(cfg, eps0, cfg.steps, rng, every=2, curvature=1.5)
        rng = np.random.default_rng(cfg.seed)
        eps = cfg.init_scale * float(rng.standard_normal())
        amp = math.sqrt(2.0 * cfg.noise_intensity * cfg.dt)
        ref = []
        for k in range(1, cfg.steps + 1):
            drift = cfg.growth_rate * eps - cfg.alpha * eps * eps * eps
            drift -= cfg.coupling * (-1.5 * eps)  # U'(eps) = -c eps
            eps = eps + cfg.dt * drift
            eps += amp * float(rng.standard_normal())
            if k % 2 == 0 or k == cfg.steps:
                ref.append((k, eps))
        assert (n, final) == (cfg.steps, eps)
        assert path == ref

    def test_zero_coupling_ignores_curvature(self):
        cfg = SdeConfig(
            growth_rate=0.5, alpha=0.5, coupling=0.0, noise_intensity=1e-3,
            dt=0.05, steps=300, init_scale=0.02, seed=11,
        )
        plain = _langevin(cfg, 0.02, cfg.steps, np.random.default_rng(cfg.seed))
        tilted = _langevin(cfg, 0.02, cfg.steps, np.random.default_rng(cfg.seed), curvature=1.0)
        assert plain == tilted

    def test_destabilizing_tilt_speeds_up_growth(self):
        cfg = SdeConfig(growth_rate=0.01, alpha=0.5, coupling=0.05, dt=0.05, steps=2000)
        _, slow, _ = _langevin(cfg, 0.01, cfg.steps, np.random.default_rng(0))
        _, fast, _ = _langevin(cfg, 0.01, cfg.steps, np.random.default_rng(0), curvature=1.0)
        assert fast > slow

    def test_effective_potential_minimum_tracks_tilt(self):
        # gamma * U with U = -(1/2) c eps^2 deepens the wells: minima move
        # from sqrt(mu/alpha) to sqrt((mu + gamma c)/alpha)
        cfg = SdeConfig(growth_rate=0.2, alpha=0.5, coupling=0.3, dt=0.01, steps=10)
        grid = np.linspace(0.0, 2.0, 200001)
        v = effective_potential(cfg, 1.0, grid)
        argmin = grid[int(np.argmin(v))]
        assert argmin == pytest.approx(math.sqrt(0.5 / 0.5), abs=1e-4)
        v0 = effective_potential(cfg, 0.0, grid)
        assert grid[int(np.argmin(v0))] == pytest.approx(math.sqrt(0.4), abs=1e-4)

    def test_effective_potential_is_even_without_tilt(self):
        cfg = SdeConfig(growth_rate=0.2, alpha=0.5, dt=0.01, steps=10)
        xs = np.array([-1.3, -0.2, 0.2, 1.3])
        v = effective_potential(cfg, 0.0, xs)
        assert np.allclose(v, v[::-1], atol=0, rtol=0)


class TestCoupledModes:
    def test_single_mode_reaches_radius(self):
        cfg = SdeConfig(
            growth_rate=0.5, alpha=0.5, dt=0.05, steps=2000, modes=1, dim=3,
            init_scale=0.01, seed=3,
        )
        run = simulate_coupled_modes(cfg)
        assert np.linalg.norm(run.final_state) == pytest.approx(1.0, abs=1e-3)

    def test_uncoupled_noiseless_modes_keep_direction(self):
        cfg = SdeConfig(
            growth_rate=0.5, alpha=0.5, dt=0.05, steps=1000, modes=5, dim=4,
            init_scale=0.01, seed=5,
        )
        stats = persistence_stats(simulate_coupled_modes(cfg))
        assert stats.excluded_modes == [] and len(stats.cosines) == 5
        assert np.all(stats.cosines >= 1.0 - 1e-12)

    def test_rejects_multimode_in_one_dimension(self):
        with pytest.raises(ValidationError):
            simulate_coupled_modes(
                SdeConfig(growth_rate=0.1, alpha=0.1, dt=0.01, steps=10, modes=4, dim=1)
            )

    def test_non_finite_state_raises(self):
        cfg = SdeConfig(
            growth_rate=0.1, alpha=0.1, noise_intensity=1e300, dt=0.01, steps=200, modes=2,
            dim=3, init_scale=0.01,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            simulate_coupled_modes(cfg)

    def test_reference_direction_is_unit_and_reproducible(self):
        cfg = SdeConfig(
            growth_rate=0.1, alpha=0.1, dt=0.05, steps=20, modes=3, dim=6,
            init_scale=0.01, seed=9,
        )
        a = simulate_coupled_modes(cfg)
        b = simulate_coupled_modes(cfg)
        assert np.linalg.norm(a.reference_direction) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(a.reference_direction, b.reference_direction)
        assert np.array_equal(a.path_samples, b.path_samples)

    def test_lottery_projection_rank_correlation_band(self, lottery_runs):
        rhos = [persistence_stats(r).spearman_rho for r in lottery_runs.values()]
        for rho in rhos:
            assert rho > 0.90
        assert 0.93 <= float(np.mean(rhos)) <= 0.97

    def test_lottery_cosines_overwhelmingly_positive(self, lottery_runs):
        stats = persistence_stats(lottery_runs[0])
        n = len(stats.cosines)
        n_pos = int(np.sum(stats.cosines > 0))
        # one-sided binomial sign test against the coin-flip null
        p = sum(math.comb(n, i) for i in range(n_pos, n + 1)) / 2.0**n
        assert p < 1e-6

    def test_shuffled_projections_lose_the_correlation(self, lottery_runs):
        stats = persistence_stats(lottery_runs[0])
        p0 = stats.projection_pairs[:, 0]
        p1 = stats.projection_pairs[:, 1]
        shuffler = np.random.default_rng(123)
        from bifurc.mathcore import spearman

        rho_null = spearman(shuffler.permutation(p0), p1)
        assert abs(rho_null) <= 2.0 / math.sqrt(len(p0))

    def test_measured_angle_budget_within_factor_two(self):
        # uncoupled ensemble far from the randomization time (T ~ T_rand/250);
        # the coarse growth-phase budget (d-1)/sigma_star^2 is per-coordinate,
        # so low dim keeps it honest (it inflates ~(d-2)x at large d)
        cfg = SdeConfig(
            growth_rate=0.1, alpha=0.1, coupling=0.0, noise_intensity=1e-5,
            dt=0.05, steps=2000, modes=400, dim=3, init_scale=0.05, seed=0,
        )
        pred = predict_persistence(cfg)
        assert cfg.steps * cfg.dt < pred.t_rand / 100
        meas = measured_theta_sq(simulate_coupled_modes(cfg))
        assert 0.5 * pred.theta_sq <= meas <= 2.0 * pred.theta_sq

    def test_coupling_suppresses_pairwise_overlap_of_survivors(self, lottery_runs):
        run = lottery_runs[0]
        norms = np.linalg.norm(run.final_state, axis=1)
        r_star = lottery_preset(0).epsilon_star
        winners = (run.final_state / norms[:, None])[norms >= 0.5 * r_star]
        assert len(winners) >= 2
        e0 = run.path_samples[0]
        before = mean_abs_pair_overlap(e0 / np.linalg.norm(e0, axis=1)[:, None])
        after = mean_abs_pair_overlap(winners)
        assert after < before


class TestPersistenceStats:
    def test_excluded_zero_modes(self):
        run = SdeRunResult(
            times=np.array([0.0, 1.0]),
            path_samples=np.array([[[0.6, 0.0], [0.0, 0.4], [0.5, 0.5]],
                                   [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]]),
            reference_direction=np.array([1.0, 0.0]),
        )
        stats = persistence_stats(run)
        assert stats.excluded_modes == [2]
        assert len(stats.cosines) == 2
        assert np.allclose(stats.cosines, [1.0, 1.0])
        assert stats.projection_pairs.shape == (3, 2)

    def test_non_finite_projection_is_not_read_as_constant(self):
        run = SdeRunResult(
            times=np.array([0.0, 1.0]),
            path_samples=np.array([[[0.6], [0.4], [0.5]], [[2.0], [np.nan], [1.0]]]),
            reference_direction=np.array([1.0]),
        )
        with pytest.raises(ValidationError, match="finite") as exc:
            persistence_stats(run)
        assert not isinstance(exc.value, DegenerateInputError)

    def test_requires_some_reference(self):
        run = SdeRunResult(times=np.array([0.0]), path_samples=np.zeros((1, 1, 1)))
        with pytest.raises(ValidationError):
            persistence_stats(run)


class TestPredictPersistence:
    def test_noiseless_prediction_is_perfect_persistence(self):
        cfg = SdeConfig(
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
        cfg = SdeConfig(
            growth_rate=0.1, alpha=0.1, coupling=0.0, noise_intensity=1e-5,
            dt=0.05, steps=2_000_000, modes=2, dim=10, init_scale=0.05,
        )
        pred = predict_persistence(cfg)
        assert pred.saturation_dominated
        assert pred.theta_sq > 1.0

    def test_requires_positive_growth(self):
        cfg = SdeConfig(growth_rate=-0.1, alpha=0.1, dt=0.01, steps=10)
        with pytest.raises(ValidationError):
            predict_persistence(cfg)

    @pytest.mark.parametrize(
        "growth_rate,init_scale",
        [(5e-168, 5e-168), (0.1, 5e-168)],  # log(0); 1 / sigma_star^2 with sigma_star^2 = 0
    )
    def test_underflowing_budget_is_a_numerical_error(self, growth_rate, init_scale):
        cfg = SdeConfig(
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
