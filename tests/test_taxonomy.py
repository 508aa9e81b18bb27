"""Tests for the four-shape trajectory classifier and its regime generators."""

import importlib.resources
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import bifurc.experiments as X
import bifurc.taxonomy as T
from bifurc.errors import ValidationError
from bifurc.sde import simulate_pitchfork_1d
from oracles import SDE, THRESHOLDS, make_regime_log, recovery_rate, reference_classification

FIXTURES = importlib.resources.files("bifurc") / "fixtures"
AXES = T.AxisReading("sub", "beta_leads", "normal")


def synth_log(ratio, lnc1, steps=None, experiment="t"):
    log = X.TrajectoryLog(experiment, 0)
    n = len(ratio)
    if steps is None:
        steps = np.arange(n) * 20
    for s, r, v in zip(steps, ratio, lnc1):
        log.record(int(s), float(r), 0.0, float(10.0 ** v), 1e-3)
    return log


def flat_leg_log():
    # NC1 dips just after the ratio crosses zero (the descent onset), then
    # climbs to its peak once the ratio has stopped at 1.0, so the descent
    # leg from the NC1 peak has no ratio spread to fit a slope on
    ratio = np.concatenate([np.linspace(-0.5, 1.0, 70), np.full(10, 1.0)])
    lnc1 = np.concatenate([np.linspace(-2.0, 0.0, 25), np.linspace(-0.2, -1.0, 5),
                           np.linspace(-1.0, 1.0, 42), np.full(8, 1.0)])
    return synth_log(ratio, lnc1)


def no_onset_log():
    # NC1 keeps rising while the ratio crosses zero: there is no descent leg
    ratio = np.concatenate([np.linspace(-0.5, 1.0, 70), np.full(10, 1.0)])
    return synth_log(ratio, np.linspace(-2.0, 1.0, 80))


class TestThresholds:
    def test_guards(self):
        with pytest.raises(ValidationError):
            replace(THRESHOLDS, decoupling_abs_corr=0.0)
        with pytest.raises(ValidationError):
            replace(THRESHOLDS, smooth_window=0)
        with pytest.raises(ValidationError):
            replace(THRESHOLDS, min_readings=5)  # < 2x window
        with pytest.raises(ValidationError):
            replace(THRESHOLDS, plateau_fraction=-0.1)

    @pytest.mark.parametrize("key", ["plateau_fraction", "descent_decades", "fold_return"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, key, value):
        with pytest.raises(ValidationError):
            replace(THRESHOLDS, **{key: value})


class TestShapeClass:
    def test_label_guard(self):
        with pytest.raises(ValidationError):
            T.ShapeClass("Spiral", 0.0, 1, 0.0, 0.0, AXES)

    def test_finite_evidence_guard(self):
        with pytest.raises(ValidationError):
            T.ShapeClass(T.NO_ARC, math.nan, 1, 0.0, 0.0, AXES)

    def test_sign_guard(self):
        with pytest.raises(ValidationError):
            T.ShapeClass(T.NO_ARC, 0.0, 0, 0.0, 0.0, AXES)


class TestClassifyContract:
    def test_needs_nc1_channel(self):
        log = X.TrajectoryLog("t", 0)
        for i in range(30):
            log.record(i, 0.1, 0.0, None, 0.0)
        with pytest.raises(ValidationError):
            T.classify(log, None, THRESHOLDS)

    def test_needs_enough_readings(self):
        log = synth_log(np.linspace(-1, 1, 10), np.linspace(1, -1, 10))
        with pytest.raises(ValidationError):
            T.classify(log, None, THRESHOLDS)

    def test_horizon_must_be_positive(self):
        log = synth_log(np.linspace(-1, 1, 30), np.linspace(1, -1, 30))
        with pytest.raises(ValidationError):
            T.classify(log, 0.0, THRESHOLDS)
        for horizon in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                T.classify(log, horizon, THRESHOLDS)
            with pytest.raises(ValidationError):
                T.classify(log, horizon, THRESHOLDS).axes

    def test_constant_channel_is_decoupled(self):
        log = synth_log(np.linspace(-1, 1, 40), np.zeros(40))
        res = T.classify(log, None, THRESHOLDS)
        assert res.label == T.NO_ARC
        assert res.decoupling_corr == 0.0

    def test_constant_descent_leg_has_zero_correlation(self):
        # NC1 collapses on the way up, then stays flat while the ratio folds back
        ratio = np.concatenate([np.linspace(-0.5, 1.5, 70), np.linspace(1.4, 0.7, 30)])
        lnc1 = np.concatenate([np.linspace(1.0, -2.0, 70), np.full(30, -2.0)])
        res = T.classify(synth_log(ratio, lnc1), None, THRESHOLDS)
        assert res.label == T.FOLD_BACK
        assert res.descent_corr == 0.0

    def test_flat_final_descent_leg_has_zero_slope(self):
        res = T.classify(flat_leg_log(), None, THRESHOLDS)
        assert (res.label, res.indeterminate) == (T.FOLD_BACK, False)
        assert res.descent_corr == 0.0
        assert res.descent_sign == 1

    def test_crossing_without_descent_onset_flagged(self):
        res = T.classify(no_onset_log(), None, THRESHOLDS)
        assert (res.label, res.indeterminate) == (T.FOLD_BACK, True)
        assert res.descent_corr == res.decoupling_corr > THRESHOLDS.decoupling_abs_corr
        assert (res.descent_sign, res.plateau_fraction) == (1, 0.0)

    def test_truncated_precritical_run_flagged(self):
        # coupled channels but the ratio never reaches zero
        ratio = np.linspace(-2.0, -0.2, 60)
        lnc1 = np.linspace(1.0, -1.5, 60)
        res = T.classify(synth_log(ratio, lnc1), None, THRESHOLDS)
        assert res.indeterminate is True
        assert res.label in (T.FULL_V, T.FOLD_BACK)

    def test_evidence_always_finite(self):
        for regime in T.REGIMES:
            res = T.classify(make_regime_log(regime, seed=5), None, THRESHOLDS)
            for v in (res.descent_corr, res.plateau_fraction, res.decoupling_corr):
                assert math.isfinite(v)
            assert res.descent_sign in (-1, 1)
            assert res.indeterminate is False


class TestOnePassReading:
    @pytest.mark.parametrize("horizon", [None, 5000.0])
    @pytest.mark.parametrize("regime", T.REGIMES)
    def test_matches_the_two_pass_reference(self, regime, horizon):
        for seed in range(50):
            log = make_regime_log(regime, seed=seed)
            got = asdict(T.classify(log, horizon, THRESHOLDS))
            assert got == reference_classification(log, horizon, THRESHOLDS)

    # the generator writes neither: a descent leg with no ratio spread, a crossing with no onset
    @pytest.mark.parametrize("horizon", [None, 5000.0])
    @pytest.mark.parametrize("make_log", [flat_leg_log, no_onset_log])
    def test_matches_the_reference_off_the_generator(self, make_log, horizon):
        log = make_log()
        got = asdict(T.classify(log, horizon, THRESHOLDS))
        assert got == reference_classification(log, horizon, THRESHOLDS)


class TestRegimeRecovery:
    @pytest.mark.parametrize("regime", T.REGIMES)
    def test_recovery_rate_at_least_95pct(self, regime):
        assert recovery_rate(regime, n_trials=200) >= 0.95

    def test_generator_guards(self):
        with pytest.raises(ValidationError):
            make_regime_log("Spiral", seed=0)
        with pytest.raises(ValidationError):
            make_regime_log(T.FULL_V, seed=0, n_readings=10)

    def test_generator_reproducible(self):
        a = make_regime_log(T.FOLD_BACK, seed=4)
        b = make_regime_log(T.FOLD_BACK, seed=4)
        assert [r.nc1 for r in a.readings] == [r.nc1 for r in b.readings]
        assert [r.log_ratio for r in a.readings] == [r.log_ratio for r in b.readings]


class TestInvariances:
    @staticmethod
    def remap(log, fn):
        out = X.TrajectoryLog(log.experiment_id, log.seed)
        for r in log.readings:
            out.record(fn(r.step), r.log_beta, r.log_beta_c, r.nc1, r.order_parameter)
        return out

    @pytest.mark.parametrize("regime", T.REGIMES)
    def test_affine_time_rescaling(self, regime):
        log = make_regime_log(regime, seed=0)
        scaled = self.remap(log, lambda s: 3 * s + 7)
        a, b = T.classify(log, None, THRESHOLDS), T.classify(scaled, None, THRESHOLDS)
        assert a.label == b.label
        assert a.plateau_fraction == b.plateau_fraction
        assert a.descent_corr == b.descent_corr

    @pytest.mark.parametrize("regime", T.REGIMES)
    def test_monotone_reindexing(self, regime):
        log = make_regime_log(regime, seed=1)
        warped = self.remap(log, lambda s: (s + 3) ** 2)
        a, b = T.classify(log, None, THRESHOLDS), T.classify(warped, None, THRESHOLDS)
        assert a.label == b.label
        assert a.plateau_fraction == b.plateau_fraction


class TestAxisReading:
    def test_needs_enough_readings(self):
        log = synth_log(np.linspace(-1, 1, 10), np.linspace(1, -1, 10))
        with pytest.raises(ValidationError):
            T.classify(log, None, THRESHOLDS).axes

    def test_full_v_axes(self):
        ax = T.classify(make_regime_log(T.FULL_V, seed=0), None, THRESHOLDS).axes
        assert ax.initial_criticality == "sub"
        assert ax.rate_ordering == "beta_leads"
        assert ax.dissipation_regime == "normal"

    def test_fold_back_axes(self):
        ax = T.classify(make_regime_log(T.FOLD_BACK, seed=0), None, THRESHOLDS).axes
        assert ax.initial_criticality == "sub"
        assert ax.rate_ordering == "beta_c_leads"
        assert ax.dissipation_regime == "normal"

    def test_delayed_escape_axes(self):
        ax = T.classify(make_regime_log(T.DELAYED_ESCAPE, seed=0), None, THRESHOLDS).axes
        assert ax.initial_criticality == "sub"
        assert ax.dissipation_regime == "low"


class TestDerivedDelayedEscape:
    def test_small_damping_langevin_run_classifies_delayed(self):
        # the quadratic tilt at gamma = 1e-4, c = 1 is the pitchfork at rate mu + gamma
        cfg = replace(
            SDE,
            growth_rate=0.01 + 1e-4, alpha=1.0, noise_intensity=1e-10,
            dt=0.05, steps=20000, modes=1, dim=1, init_scale=0.0, seed=3,
        )
        eps = np.abs(simulate_pitchfork_1d(cfg, eps0=1e-3)[1])
        n = len(eps)
        # supercritical from the start; the collapse proxy tracks the escape
        ratio = 0.01 + 0.49 * np.arange(n) / (n - 1)
        lnc1 = 1.0 - 2.5 * np.minimum(1.0, eps / 0.08) ** 2
        log = synth_log(ratio, lnc1, steps=np.arange(n) * 10)
        res = T.classify(log, None, THRESHOLDS)
        assert res.label == T.DELAYED_ESCAPE
        assert 0.15 <= res.plateau_fraction <= 0.55
        ax = res.axes
        assert ax.initial_criticality == "super"
        assert ax.dissipation_regime == "low"


class TestExemplarFixtures:
    @pytest.mark.parametrize(
        "name,label",
        [
            ("exemplar_full_v.csv", T.FULL_V),
            ("exemplar_fold_back.csv", T.FOLD_BACK),
            ("exemplar_no_arc.csv", T.NO_ARC),
        ],
    )
    def test_fixture_class(self, name, label):
        log = X.read_trajectory_csv(FIXTURES / name)
        assert T.classify(log, None, THRESHOLDS).label == label

    def test_fixture_evidence_values(self):
        full_v, fold, ctrl = (
            T.classify(X.read_trajectory_csv(FIXTURES / f"exemplar_{name}.csv"), None, THRESHOLDS)
            for name in ("full_v", "fold_back", "no_arc"))
        assert full_v.descent_corr == pytest.approx(-0.97, abs=0.03)
        assert fold.descent_corr == pytest.approx(0.90, abs=0.03)
        assert ctrl.decoupling_corr == pytest.approx(-0.48, abs=0.03)
        # the arcs couple far above the gate; the control sits just below it
        assert abs(full_v.decoupling_corr) >= 0.74
        assert abs(fold.decoupling_corr) >= 0.74
        assert abs(ctrl.decoupling_corr) < 0.5
