"""Tests for synthetic datasets, NC1, the traversal protocols, and trajectory logs."""

import json
import math
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bifurc.experiments as X
from bifurc.cli import _toy_protocol
from bifurc.errors import (
    AbortedRunError,
    DegenerateInputError,
    PreconditionError,
    ValidationError,
)
from bifurc.gmm_probe import (
    _centred,
    _joint_step,
    _spread,
    _Workspace,
    critical_spectrum,
    init_collapsed,
    probe_step,
)
from bifurc.mathcore import covariance, sym_eigen
from bifurc.taxonomy import FOLD_BACK, NO_ARC, classify
from oracles import (
    LOG_BETA_INIT,
    PROBE,
    THRESHOLDS,
    command_config,
    counts_within_multinomial_band,
    encoder_gd_step,
    exact_collapsed,
    toy_dataset,
    toy_logs,
)

ENDOGENOUS = command_config("toy", "endogenous")
HIERARCHY_LR = command_config("toy", "hierarchy").get_float("probe", "lr_means")


def top_eig(samples):
    return float(sym_eigen(covariance(samples)).eigenvalues[0])


# the `toy` datasets of n samples at a seed (default 0), with the given [data] values
bimodal, unimodal, hierarchical = (
    partial(toy_dataset, sub) for sub in ("bimodal", "unimodal", "hierarchy"))


def endogenous(dataset, **changes):
    """run_endogenous on dataset with `toy endogenous`'s arguments, changed by changes."""
    return X.run_endogenous(dataset, **{**_toy_protocol("endogenous", ENDOGENOUS).keywords,
                                        **changes})


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def learned_pair():
    return toy_logs("bimodal", 0)[""], toy_logs("unimodal", 0)[""]


@pytest.fixture(scope="module")
def hysteresis():
    logs = toy_logs("reverse", 1)
    return logs["forward"], logs["reverse"]


@pytest.fixture(scope="module")
def endo_log():
    return toy_logs("endogenous", 0)[""]


@pytest.fixture(scope="module")
def hier_log():
    return toy_logs("hierarchy", 0)[""]


# ---------------------------------------------------------------------------
# generators


class TestGenerators:
    def test_bimodal_top_eigenvalue_band(self):
        for seed in range(3):
            lam = top_eig(bimodal(2000, seed).samples)
            assert abs(lam - 5.0) <= 0.15

    def test_bimodal_labels_centers_counts(self):
        ds = bimodal(2000, 0)
        assert set(ds.labels.tolist()) == {0, 1}
        assert np.array_equal(ds.centers, [[-2.0, 0.0], [2.0, 0.0]])
        for seed in range(5):
            assert counts_within_multinomial_band(bimodal(2000, seed))

    def test_bimodal_means_near_centers(self):
        ds = bimodal(4000, 2)
        for c in (0, 1):
            mu = ds.samples[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(mu - ds.centers[c]) < 0.1

    def test_bimodal_reproducible(self):
        a = bimodal(500, 9)
        b = bimodal(500, 9)
        c = bimodal(500, 10)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.samples, c.samples)

    def test_bimodal_zero_offset_rejected(self):
        with pytest.raises(ValidationError):
            bimodal(100, center_offset=0.0)

    def test_unimodal_critical_precision_near_one(self):
        for seed in range(3):
            ds = unimodal(2000, seed)
            assert abs(1.0 / top_eig(ds.samples) - 1.0) <= 0.05

    def test_unimodal_single_class(self):
        ds = unimodal(200, 0)
        assert ds.n_components == 1
        assert np.all(ds.labels == 0)

    def test_hierarchical_structure(self):
        ds = hierarchical(4000)
        assert ds.n_components == 8
        sup = X.super_centers(ds)
        assert np.array_equal(
            sup, np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float) * 4.0
        )
        assert counts_within_multinomial_band(ds)

    def test_hierarchical_scale_separation(self):
        ds = hierarchical(4000)
        lam1 = top_eig(ds.samples)
        sup_lab = ds.labels // 2
        within = np.vstack(
            [ds.samples[sup_lab == s] - ds.samples[sup_lab == s].mean(axis=0) for s in range(4)]
        )
        lam2 = float(sym_eigen((within.T @ within) / len(within)).eigenvalues[0])
        assert lam1 / lam2 > 2.0  # critical precisions separated by > 2x

    def test_hierarchical_degenerate_combinations(self):
        with pytest.raises(ValidationError):
            hierarchical(400, super_spacing=0.0, sub_spacing=0.0)
        flat = hierarchical(400, sub_spacing=0.0)  # one-level variant ok
        assert np.array_equal(flat.centers[0::2], flat.centers[1::2])

    def test_scale_must_be_positive(self):
        for gen in (bimodal, unimodal, hierarchical):
            with pytest.raises(ValidationError):
                gen(100, scale=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "gen,key",
        [
            (bimodal, "scale"),
            (bimodal, "center_offset"),
            (unimodal, "scale"),
            (hierarchical, "scale"),
            (hierarchical, "super_spacing"),
            (hierarchical, "sub_spacing"),
        ],
    )
    def test_non_finite_parameters_rejected(self, gen, key, value):
        with pytest.raises(ValidationError):
            gen(100, **{key: value})

    def test_super_centers_needs_hierarchical_kind(self):
        with pytest.raises(ValidationError):
            X.super_centers(bimodal(100, 0))

    def test_dataset_label_range_guard(self):
        with pytest.raises(ValidationError):
            X.SyntheticDataset(
                np.zeros((4, 2)), np.array([0, 1, 2, 5]), "x", np.zeros((3, 2)), 0,
            )


# ---------------------------------------------------------------------------
# NC1


class TestNc1:
    def test_exact_hand_value(self):
        z = np.array([[-1, -0.5], [-1, 0.5], [1, -0.5], [1, 0.5]])
        lab = np.array([0, 0, 1, 1])
        # within: var 0.25 along y only; between: var 1 along x only
        assert X.nc1(z, lab) == pytest.approx(0.25, abs=1e-12)

    def test_collapsed_latents_give_zero(self):
        ds = bimodal(500, 0)
        z = ds.centers[ds.labels]
        assert X.nc1(z, ds.labels) == 0.0

    def test_shuffled_labels_large(self):
        ds = bimodal(2000, 0)
        rng = np.random.default_rng(11)
        assert X.nc1(ds.samples, rng.permutation(ds.labels)) >= 10.0

    def test_random_ten_classes_large(self):
        ds = unimodal(2000, 0)
        lab = np.random.default_rng(12).integers(0, 10, 2000)
        assert X.nc1(ds.samples, lab) >= 10.0

    def test_rotation_invariance(self):
        ds = bimodal(600, 3)
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
        a = X.nc1(ds.samples, ds.labels)
        b = X.nc1(ds.samples @ q, ds.labels)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_scale_invariance_trace_ratio(self):
        ds = bimodal(600, 4)
        a = X.nc1(ds.samples, ds.labels)
        b = X.nc1(3.0 * ds.samples, ds.labels)
        assert abs(a - b) <= 1e-12 * a

    def test_degenerate_inputs(self):
        z = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DegenerateInputError):
            X.nc1(z, np.zeros(10, dtype=int))  # single class
        lab = np.array([0] * 9 + [1])
        with pytest.raises(DegenerateInputError):
            X.nc1(z, lab)  # class with one sample
        zz = np.vstack([z, z])
        lab2 = np.array([0] * 10 + [1] * 10)
        with pytest.raises(DegenerateInputError):
            X.nc1(zz, lab2)  # coincident class means


# ---------------------------------------------------------------------------
# trajectory log + serialization


class TestTrajectoryLog:
    def test_record_requires_increasing_steps(self):
        log = X.TrajectoryLog("t", 0)
        log.record(0, -1.0, 0.5, 0.3, 0.01)
        log.record(20, -1.0, 0.5, 0.3, 0.01)
        with pytest.raises(ValidationError):
            log.record(20, -1.0, 0.5, 0.3, 0.01)
        with pytest.raises(ValidationError):
            log.record(5, -1.0, 0.5, 0.3, 0.01)

    def test_csv_roundtrip_exact(self, tmp_path):
        log = X.TrajectoryLog("t", 42, config_hash="abc123")
        log.record(0, -2.5, 0.123456789012345, None, 1e-7)
        log.record(20, -2.4, math.inf, 0.5, 2e-3)
        p = tmp_path / "t.csv"
        X.write_trajectory_csv(log, p)
        back = X.read_trajectory_csv(p)
        assert back.experiment_id == "t" and back.seed == 42 and back.config_hash == "abc123"
        assert len(back.readings) == 2
        for a, b in zip(log.readings, back.readings):
            assert a.step == b.step and a.log_beta == b.log_beta
            assert a.log_beta_c == b.log_beta_c and a.nc1 == b.nc1
            assert a.order_parameter == b.order_parameter
        assert back.readings[1].degenerate is True

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(1, 10**6),  # the gap to the previous step
        st.floats(allow_nan=False, allow_infinity=False),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf)),
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        st.floats(allow_nan=False, allow_infinity=False),
    ), min_size=1, max_size=8))
    def test_csv_roundtrip_returns_equal_readings(self, rows):
        log, step = X.TrajectoryLog("t", 0), -1
        for gap, lb, lbc, nc, op in rows:
            step += gap
            log.record(step, lb, lbc, nc, op)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            X.write_trajectory_csv(log, path)
            assert X.read_trajectory_csv(path).readings == log.readings

    def test_csv_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,log_beta\n0,1.0\n")
        with pytest.raises(ValidationError):
            X.read_trajectory_csv(p)

    def test_csv_bad_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(X.TRAJECTORY_HEADER) + "\n0,1.0,2.0\n")
        with pytest.raises(ValidationError):
            X.read_trajectory_csv(p)

    def test_summary_json_deterministic(self):
        log = X.TrajectoryLog("t", 7, summary={"crossing_step": 100, "zeta": [1, 2]})
        log.record(0, -1.0, 0.5, 0.3, 0.01)
        a, b = (json.dumps(X.trajectory_summary(log), indent=2, sort_keys=True) for _ in "ab")
        assert a == b
        d = json.loads(a)
        for key in ("experiment_id", "seed", "crossing_step", "activation_steps",
                    "split_angle_deg", "config_hash", "version", "n_readings"):
            assert key in d
        assert d["crossing_step"] == 100

    def test_record_sets_log_ratio(self):
        log = X.TrajectoryLog("t", 0)
        log.record(0, -1.25, 0.5, None, 0.01)
        r = log.readings[0]
        assert r.log_ratio == -1.75 and r.nc1 is None and r.degenerate is False
        with pytest.raises(ValidationError):
            log.record(0, -1.0, 0.5, None, 0.01)

    def test_summary_keeps_booleans(self):
        log = X.TrajectoryLog("t", 0, summary={"gate": True, "ok": False})
        d = X.trajectory_summary(log)
        assert d["gate"] is True and d["ok"] is False


def test_quiet_overflow_enters_as_a_with_block_twice():
    for _ in range(2):
        with X._quiet_overflow():
            assert np.geterr()["over"] == "ignore"


# ---------------------------------------------------------------------------
# the protocols run the same probe kernel as gmm_probe.probe_step


class TestProtocolKernel:
    K = 5
    CFG = replace(PROBE, lr_means=0.03, lr_logbeta=1e-2)

    def run_and_replay(self):
        """A 60-step learned forward split and 60 probe_step calls from its start.

        The replay is a list of (means, reading) after each step.
        """
        ds = bimodal(300, 7)
        log, means = X.run_forward_split(ds, self.K, LOG_BETA_INIT, 1, self.CFG, 60)
        mu = init_collapsed(ds.samples, self.K, np.random.default_rng(ds.seed + 99))
        lb = LOG_BETA_INIT
        replay = []
        for _ in range(60):
            mu, lb, reading = probe_step(mu, lb, ds.samples, self.CFG)
            replay.append((mu, reading))
        return log, means, replay

    def test_bitwise_match_with_probe_step(self):
        # record_every = 1, so the last reading follows the last step
        log, means, replay = self.run_and_replay()
        assert np.array_equal(means, replay[-1][0])
        assert log.readings[-1].log_beta == replay[-1][1].log_beta

    def test_recorded_order_parameter_matches_probe(self):
        log, _, replay = self.run_and_replay()
        assert len(log.readings) == len(replay)
        for reading, (mu, probe) in zip(log.readings, replay):
            assert reading.log_beta == probe.log_beta
            assert reading.order_parameter == probe.order_parameter == _spread(mu)

    def test_endogenous_run_matches_encoder_and_probe_step_replay(self):
        # the run refills its workspace each step with one product W @ xc from
        # the x-space batch, and the replay builds its batch the same way; the
        # public probe_step on fresh latents x W^T rounds differently, by ~1e-16
        ds = bimodal(300, 7)
        log = X.run_endogenous(ds, encoder_lr=0.05, k=self.K, log_beta_init=LOG_BETA_INIT,
                               rates=self.CFG, steps=40, latent_dim=2, init_weight_scale=0.1,
                               record_every=1)
        assert len(log.readings) == 40
        rng = np.random.default_rng(ds.seed + 500)
        x = ds.samples
        enc = X.ToyEncoderState(
            encode=0.1 * rng.standard_normal((2, 2)),
            decode=0.1 * rng.standard_normal((2, 2)),
            learning_rate=0.05,
        )
        mu = public_mu = init_collapsed(enc.latents(x), self.K, rng)
        lb = public_lb = LOG_BETA_INIT
        ws = _Workspace(self.K, enc.latents(x))
        xc, x_bar, r_x = _centred(x)
        s = x.T @ x / x.shape[0]
        for reading in log.readings:
            enc.gd_step(s)
            ws.project(enc.encode, xc, x_bar, r_x)
            mu, lb = _joint_step(ws, mu, lb, self.CFG.lr_means, self.CFG.lr_logbeta)
            assert reading.log_beta == lb
            assert reading.order_parameter == _spread(mu)
            public_mu, public_lb, _ = probe_step(public_mu, public_lb, enc.latents(x), self.CFG)
            assert abs(public_lb - lb) <= 1e-14 * abs(lb)
            assert np.abs(public_mu - mu).max() <= 1e-14 * np.abs(mu).max()


@st.composite
def projection_cases(draw):
    """(x, W, labels): N x d_in data, a d_lat x d_in map and 3 classes of >= 2 samples.

    d_in and d_lat run over 1-4 independently, so W may be square, wide or
    tall (a latent dim above d_in); the data sit at an offset from the origin.
    """
    d_in, d_lat = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(6, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.arange(n) % 3)
    centers = draw(st.floats(0.1, 5.0)) * rng.standard_normal((3, d_in))
    x = centers[labels] + rng.standard_normal((n, d_in)) + draw(st.floats(-50.0, 50.0))
    w = draw(st.floats(1e-3, 10.0)) * rng.standard_normal((d_lat, d_in))
    return x, w, labels


def _tall_case(seed=3):
    """A fixed 4 x 1 map: a latent dim above d_in, so Cov(z) has rank 1."""
    rng = np.random.default_rng(seed)
    labels = np.arange(12) % 3
    x = 2.0 * labels[:, None] + rng.standard_normal((12, 1)) + 10.0
    return x, rng.standard_normal((4, 1)), labels


class TestProjectedMoments:
    """The endogenous run's x-space reads agree with the same reads of the latents x W^T."""

    @settings(max_examples=150, deadline=None)
    @example(case=_tall_case())
    @given(case=projection_cases())
    def test_x_space_fill_matches_a_workspace_of_the_latents(self, case):
        x, w, _ = case
        z = x @ w.T
        ws = _Workspace(3, np.zeros_like(z))
        ws.project(w, *_centred(x))
        ref = _Workspace(3, z)
        # roundoff of sums of d_in products of |W| |x| size, before centring
        tol = 1e-13 * np.abs(w).sum(axis=1).max() * np.abs(x).max()
        np.testing.assert_allclose(ws.za, ref.za, rtol=0.0, atol=tol)
        np.testing.assert_allclose(ws.c, ref.c, rtol=0.0, atol=tol)
        assert abs(ws.ss - ref.ss) <= 2.0 * np.sqrt(z.size * ref.ss) * tol + z.size * tol**2
        assert ws.r >= ref.r * (1.0 - 1e-12) - tol  # the kernel's shift needs an upper bound

    @settings(max_examples=150, deadline=None)
    @example(case=_tall_case())
    @given(case=projection_cases())
    def test_mapped_covariance_and_nc1_match_the_latents(self, case):
        x, w, labels = case
        z = x @ w.T
        cov_z = covariance(z)
        tol = 1e-12 * (np.abs(w).sum(axis=1).max() * np.abs(x).max()) ** 2
        np.testing.assert_allclose(
            X._mapped_covariance(w, covariance(x)), cov_z, rtol=0.0, atol=tol
        )
        s_w, s_b = X.class_scatters(z, labels)
        assume(np.trace(s_b) > 1e-6 * np.trace(s_w))  # NC1 well conditioned
        assert X.scatter_ratio(*X.class_scatters(x, labels), w) == pytest.approx(
            X.nc1(z, labels), rel=1e-8
        )


class TestDrivers:
    def ramp(self, steps, stop_at=None, start=0):
        ds = bimodal(200, 3)
        ws = X._Workspace(2, ds.samples)
        mu = init_collapsed(ds.samples, 2, np.random.default_rng(0))
        seen = []

        def observe(n, lb, mu):
            seen.append((n, lb))
            return n == stop_at

        _, lb, n = X._drive(mu, -2.0, steps, 4, X._ramp(ws, -2.0, 0.0, 10, 0.01), observe, start)
        return lb, n, seen

    def test_ramp_observes_every_kth_step_and_holds(self):
        lb, n, seen = self.ramp(30)
        assert n == 30 and lb == 0.0
        assert [s for s, _ in seen] == list(range(0, 30, 4))
        assert seen[1][1] == -2.0 + 2.0 * (4 / 10)

    def test_ramp_stops_where_observe_says(self):
        lb, n, seen = self.ramp(30, stop_at=8)
        assert n == 8 and seen[-1] == (8, lb)

    def test_start_numbers_the_steps_on(self):
        lb, n, seen = self.ramp(30, stop_at=108, start=100)
        assert n == 108 and [s for s, _ in seen] == [100, 104, 108]
        assert seen[1][1] == -2.0 + 2.0 * (4 / 10)  # the ramp still runs from its own step 0
        assert self.ramp(30, start=100)[1] == 130

    def test_branch_counts_em_iterations(self):
        ds = bimodal(200, 3)
        ws = X._Workspace(2, ds.samples)
        mu = np.array([[-1.0, 0.0], [1.0, 0.0]])
        log = X.TrajectoryLog("t", 0)
        levels = [(b, math.log(b)) for b in (1.0, 2.0)]
        _, n, fields = X._branch(ws, mu, levels, 5, 1e-9, log, 0.25, None)
        assert n == 5 + sum(fields["branch_iterations"])
        assert [r.step for r in log.readings][-1] == n
        assert [b for b, _ in fields["branch"]] == [1.0, 2.0]
        assert fields["branch_max_residual"] <= 1e-9


# ---------------------------------------------------------------------------
# forward split, learned precision


class TestForwardLearned:
    def test_structured_data_activates_after_crossing(self, learned_pair):
        log_b, _ = learned_pair
        s = log_b.summary
        assert s["crossing_step"] is not None
        assert len(s["activation_steps"]) == 1
        assert s["activation_steps"][0] >= s["crossing_step"]

    def test_control_never_activates(self, learned_pair):
        _, log_u = learned_pair
        assert log_u.summary["activation_steps"] == []

    def test_order_parameter_gap_at_least_ten(self, learned_pair):
        log_b, log_u = learned_pair
        gap = log_b.summary["max_order_parameter"] / log_u.summary["max_order_parameter"]
        assert gap >= 10.0

    def test_split_direction_along_center_axis(self, learned_pair):
        log_b, _ = learned_pair
        v = np.asarray(log_b.summary["split_direction"])
        angle = math.degrees(math.acos(min(1.0, abs(v[0]) / np.linalg.norm(v))))
        assert angle <= 5.0
        assert log_b.summary["split_angle_deg"] <= 5.0

    def test_structured_precision_stalls_above_critical(self, learned_pair):
        log_b, _ = learned_pair
        ratio = math.exp(log_b.readings[-1].log_beta) / log_b.summary["beta_c_hat"]
        assert 1.4 < ratio < 1.9  # learned precision rests well above beta_c

    def test_control_precision_stalls_at_critical(self, learned_pair):
        _, log_u = learned_pair
        ratio = math.exp(log_u.readings[-1].log_beta) / log_u.summary["beta_c_hat"]
        assert 0.9 < ratio < 1.15  # no structure: the stall point IS beta_c

    def test_recording_cadence(self, learned_pair):
        log_b, _ = learned_pair
        steps = [r.step for r in log_b.readings]
        assert steps[0] == 0 and all(b - a == 20 for a, b in zip(steps, steps[1:]))

    def test_learned_drive_records_past_activation(self, learned_pair):
        # activation ends only the anneal drive; the learned one runs all its steps
        log_b, _ = learned_pair
        assert log_b.summary["activation_steps"] == [5020]
        assert log_b.readings[-1].step == 6980 and len(log_b.readings) == 350


# ---------------------------------------------------------------------------
# anneal-hold forward + reverse traversal (hysteresis pair)


class TestAnnealHoldReverse:
    def test_overshoot_in_band(self, hysteresis):
        fwd, _ = hysteresis
        assert 1.0 <= fwd.summary["overshoot_ratio"] <= 1.6

    def test_reverse_merge_tracks_critical_precision(self, hysteresis):
        _, rev = hysteresis
        assert rev.summary["merge_beta"] is not None
        assert abs(rev.summary["merge_relative_error"]) <= 0.04

    def test_reverse_collapses_below_half_critical(self, hysteresis):
        _, rev = hysteresis
        assert rev.summary["op_fraction_at_half_beta_c"] < 0.10

    def test_no_hysteresis_loop_between_branches(self, hysteresis):
        fwd, rev = hysteresis
        assert X.branch_overlap(fwd, rev) <= 0.10

    def test_reverse_summary_reports_tracking_and_overlap(self, hysteresis):
        fwd, rev = hysteresis
        assert rev.summary["reverse_tracking_error"] == abs(rev.summary["merge_relative_error"])
        assert rev.summary["branch_overlap"] == X.branch_overlap(fwd, rev)

    def test_branch_shapes(self, hysteresis):
        fwd, rev = hysteresis
        fb = np.asarray(fwd.summary["branch"])
        rb = np.asarray(rev.summary["branch"])
        assert np.all(np.diff(fb[:, 0]) > 0)  # forward maps upward
        assert np.all(np.diff(rb[:, 0]) < 0)  # reverse maps downward
        assert rev.summary["plateau_order_parameter"] > 0.1

    def test_reverse_branch_stays_split_above_critical(self, hysteresis):
        # a solver that lands on the collapsed saddle reads ~0 on these levels
        _, rev = hysteresis
        bc = rev.summary["beta_c_hat"]
        split = [op for b, op in rev.summary["branch"] if b >= 1.1 * bc]
        assert split
        assert min(split) > 0.25 * rev.summary["plateau_order_parameter"]

    def test_branch_levels_report_convergence(self, hysteresis):
        fwd, rev = hysteresis
        tol = X.EQUILIBRIUM_REL_TOL * math.sqrt(1.0 / rev.summary["beta_c_hat"])
        cap = X.MAX_EM_ITERATIONS
        for log in (fwd, rev):
            iterations = log.summary["branch_iterations"]
            assert len(iterations) == len(log.summary["branch"])
            assert all(isinstance(i, int) and 1 <= i < cap for i in iterations)
            assert log.summary["branch_max_residual"] <= tol
        # the reverse step counter advances by EM iterations
        assert rev.readings[-1].step == sum(rev.summary["branch_iterations"])

    def test_forward_activation_step_is_pinned(self, hysteresis):
        # the overshoot band holds whenever activation fires after the ramp;
        # the step pins when it fired
        fwd, _ = hysteresis
        assert fwd.summary["activation_steps"] == [10600]

    def test_branch_iterations_are_pinned(self, hysteresis):
        fwd, rev = hysteresis
        assert fwd.summary["branch_iterations"] == [51, 29, 25, 22, 21, 20, 19, 19, 18, 18, 17, 17]
        assert rev.summary["branch_iterations"] == [
            1, 17, 18, 18, 19, 19, 20, 22, 25, 29, 35, 44, 60, 93, 208, 1078, 22, 5, 2,
        ] + [1] * 17

    def test_hold_rate_scales_with_k(self):
        # at ANNEAL_HOLD_LR itself the K = 8 hold never activated within ANNEAL_MAX_STEPS
        fwd, _ = X.run_forward_split(bimodal(2000, 0), 8, LOG_BETA_INIT, 20, None, None)
        assert fwd.summary["activation_steps"] == [12000]

    def test_branches_span_the_drive_ratios(self, hysteresis):
        # forward maps hold -> top, reverse maps top -> bottom, as ratios to beta_c_hat
        fwd, rev = hysteresis
        bc = rev.summary["beta_c_hat"]
        fb = [b / bc for b, _ in fwd.summary["branch"]]
        rb = [b / bc for b, _ in rev.summary["branch"]]
        assert len(fb) == X.ANNEAL_BRANCH_LEVELS
        assert len(rb) == X.REVERSE_LEVELS
        assert fb[0] == pytest.approx(X.ANNEAL_HOLD_RATIO, rel=1e-9)
        assert fb[-1] == pytest.approx(X.BRANCH_TOP_RATIO, rel=1e-9)
        assert rb[0] == pytest.approx(X.BRANCH_TOP_RATIO, rel=1e-9)
        assert rb[-1] == pytest.approx(X.REVERSE_BOTTOM_RATIO, rel=1e-9)

    def test_one_prototype_branch_has_no_plateau_fraction_and_full_overlap(self):
        # a single prototype never splits: every level's order parameter is 0
        ds = bimodal(100, 0)
        bc = 1.0 / critical_spectrum(covariance(ds.samples))[0]
        fwd = X.TrajectoryLog("forward-split", 0, summary={
            "beta_c_hat": bc, "branch": [[r * bc, 0.0] for r in (1.0, 2.0, 3.0)]})
        rev = X.run_reverse_traversal(ds, fwd, exact_collapsed(ds.samples, 1))
        assert rev.summary["plateau_order_parameter"] == 0.0
        assert rev.summary["op_fraction_at_half_beta_c"] is None
        assert rev.summary["branch_overlap"] == 0.0
        assert X.branch_overlap(fwd, rev) == 0.0

    def test_overlap_requires_branches(self, hysteresis, learned_pair):
        fwd, _ = hysteresis
        log_b, _ = learned_pair
        with pytest.raises(ValidationError):
            X.branch_overlap(log_b, fwd)


# ---------------------------------------------------------------------------
# endogenous co-evolution


class TestEndogenous:
    def test_starts_subcritical(self, endo_log):
        assert endo_log.summary["delta0"] < 0.0

    def test_crossing_then_activation(self, endo_log):
        s = endo_log.summary
        assert s["crossing_step"] is not None
        assert len(s["activation_steps"]) == 1
        assert s["activation_steps"][0] >= s["crossing_step"]

    def test_crossing_and_activation_steps_are_pinned(self, endo_log):
        s = endo_log.summary
        assert s["crossing_step"] == 160
        assert s["activation_steps"] == [6840]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 200),
        d_in=st.integers(1, 4),
        d_lat=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        x_scale=st.floats(0.0, 1e3),
        w_scale=st.floats(1e-3, 10.0),
        lr=st.floats(1e-4, 1.0),
    )
    def test_second_moment_step_matches_x_space_oracle(self, n, d_in, d_lat, seed, x_scale,
                                                        w_scale, lr):
        rng = np.random.default_rng(seed)
        x = x_scale * rng.standard_normal((n, d_in))
        enc = X.ToyEncoderState(
            encode=w_scale * rng.standard_normal((d_lat, d_in)),
            decode=w_scale * rng.standard_normal((d_in, d_lat)),
            learning_rate=lr,
            step=3,
        )
        w_norm, v_norm = np.linalg.norm(enc.encode), np.linalg.norm(enc.decode)
        want_encode, want_decode = encoder_gd_step(enc, x)
        enc.gd_step(x.T @ x / n)
        # every term of either gradient is bounded by 2 tr(S) (|V||W| + 1) max(|V|, |W|);
        # the weights' own scale covers the rounding of W - lr * g
        trace_s = float(np.sum(x * x)) / n
        scale = 2.0 * trace_s * (v_norm * w_norm + 1.0) * max(v_norm, w_norm)
        tol = 1e-12 * (lr * scale + max(w_norm, v_norm))
        assert np.max(np.abs(enc.encode - want_encode)) <= tol
        assert np.max(np.abs(enc.decode - want_decode)) <= tol
        assert enc.step == 4

    def test_no_hypothesis_failures(self, endo_log):
        assert endo_log.summary["hypothesis_failures"] == []

    def test_loss_nonincreasing_on_windows(self, endo_log):
        trace = np.asarray(endo_log.summary["loss_trace"])
        bins = {}
        for step, loss in trace:
            bins.setdefault(int(step) // 100, []).append(loss)
        means = [np.mean(bins[k]) for k in sorted(bins)]
        for a, b in zip(means, means[1:]):
            assert b <= a * (1.0 + 1e-9)

    def test_nc1_channel_recorded(self, endo_log):
        assert all(r.nc1 is not None and r.nc1 > 0 for r in endo_log.readings)

    def test_flat_nc1_leg_classifies_indeterminate(self, endo_log):
        # the run crosses, but its NC1 never starts a descent: the label, sign and
        # descent correlation are read from the whole-trajectory correlation
        shape = classify(endo_log, None, THRESHOLDS)
        assert (shape.label, shape.indeterminate, shape.descent_sign) == (FOLD_BACK, True, 1)
        assert shape.descent_corr == shape.decoupling_corr == pytest.approx(0.668, abs=1e-3)
        assert shape.plateau_fraction == 0.0

    def test_probe_size_invariant_critical_trace(self):
        ds = bimodal(1000, 2)
        traces = []
        for k in (3, 8):
            log = endogenous(ds, k=k, rates=replace(PROBE, lr_means=0.015, lr_logbeta=1e-2),
                             steps=2000)
            traces.append([r.log_beta_c for r in log.readings])
        n = min(len(traces[0]), len(traces[1]))
        assert traces[0][:n] == traces[1][:n]  # bit-identical

    def test_supercritical_start_rejected(self):
        ds = bimodal(500, 0)
        with pytest.raises(PreconditionError):
            endogenous(ds, k=8, log_beta_init=5.0, rates=PROBE, steps=100)

    @pytest.mark.parametrize(
        "kwargs", [{"latent_dim": 0}, {"latent_dim": -1}, {"record_every": 0}, {"steps": 0}]
    )
    def test_latent_dim_and_record_cadence_validated(self, kwargs):
        with pytest.raises(ValidationError, match="latent_dim and record_every"):
            endogenous(bimodal(100, 0), **{"steps": 10, **kwargs})

    def test_divergence_aborts_with_partial_log(self):
        ds = bimodal(500, 0)
        with np.errstate(all="ignore"):
            with pytest.raises(AbortedRunError) as exc:
                endogenous(ds, encoder_lr=5.0, steps=2000)
        assert isinstance(exc.value.partial, X.TrajectoryLog)


class TestAuditHypotheses:
    @staticmethod
    def make_log(betas, bcs, step0=0):
        log = X.TrajectoryLog("t", 0)
        for i, (b, c) in enumerate(zip(betas, bcs)):
            log.record(step0 + 20 * i, math.log(b), math.log(c), None, 0.0)
        return log

    def test_clean_run_has_no_events(self):
        n = 50
        betas = np.linspace(0.1, 1.0, n)
        bcs = np.linspace(1.0, 0.5, n)
        assert X.audit_hypotheses(self.make_log(betas, bcs)) == []

    def test_beta_dip_is_reported(self):
        n = 50
        betas = np.linspace(0.1, 1.0, n)
        bcs = np.linspace(1.0, 0.5, n)
        betas[25:30] *= 0.5  # one window of backsliding precision
        events = X.audit_hypotheses(self.make_log(betas, bcs))
        assert [e["channel"] for e in events].count("beta") >= 1

    def test_beta_c_bump_is_reported(self):
        n = 50
        betas = np.linspace(0.1, 1.0, n)
        bcs = np.linspace(1.0, 0.5, n).copy()
        bcs[30:35] *= 1.2  # one window of rising critical precision
        events = X.audit_hypotheses(self.make_log(betas, bcs))
        assert any(e["channel"] == "beta_c" for e in events)

    def test_float_jitter_is_tolerated(self):
        n = 50
        betas = np.full(n, 0.5)
        bcs = np.full(n, 0.8)
        bcs[30:35] *= 1.0 + 1e-12  # asymptote-level rounding wiggle
        assert X.audit_hypotheses(self.make_log(betas, bcs)) == []


# ---------------------------------------------------------------------------
# hierarchical two-stage traversal


class TestHierarchical:
    def test_two_events_within_band(self, hier_log):
        s = hier_log.summary
        assert s["second_stage_gate"] is True
        assert len(s["events"]) == 2
        for ev in s["events"]:
            assert abs(ev["ratio_to_target"] - 1.0) <= 0.35

    def test_scale_ordering(self, hier_log):
        s = hier_log.summary
        ev = {e["stage"]: e for e in s["events"]}
        assert ev[1]["beta"] < ev[2]["beta"]  # coarse split first, fine split later
        assert ev[1]["step"] < ev[2]["step"]
        assert s["beta_c2_hat"] > 2.0 * s["beta_c1_hat"]

    def test_tessellation(self, hier_log):
        s = hier_log.summary
        assert s["subclusters_covered"] == 8
        assert s["prototypes_per_super"] == [2, 2, 2, 2]
        assert s["tessellation_ok"] is True

    def test_event_steps_are_pinned(self, hier_log):
        # ratio_to_target equals the hold ratio whenever an event fires after
        # its ramp; the steps pin when each fired
        assert [ev["step"] for ev in hier_log.summary["events"]] == [12840, 18901]

    def test_finish_solve_step_is_pinned(self, hier_log):
        # the last reading follows the finish solve's EM iterations
        assert hier_log.readings[-1].step == 19034

    def test_events_fire_at_the_hold_ratio(self, hier_log):
        # both events fire after their stage's ramp, so at the one hold level
        for ev in hier_log.summary["events"]:
            assert ev["ratio_to_target"] == pytest.approx(X.HIERARCHY_HOLD_RATIO, rel=1e-9)

    def test_bridge_and_settle_run_between_the_stages(self, hier_log):
        s = hier_log.summary
        lb_b1 = math.log(X.HIERARCHY_START_RATIO * s["beta_c2_hat"])
        i = next(i for i, r in enumerate(hier_log.readings) if r.log_beta == lb_b1)
        steps = [r.step for r in hier_log.readings[i - 1 : i + 2]]
        # stage 1 (a reading every 20 steps) stops on the reading that completes
        # its event's run; the unobserved bridge and settle follow, and stage 2
        # is observed from the next step on
        assert steps[0] == s["events"][0]["step"] + 20 * (X.ACTIVATION_CONSECUTIVE - 1)
        assert steps[1] - steps[0] == X.HIERARCHY_BRIDGE_STEPS + X.HIERARCHY_SETTLE_STEPS
        assert steps[2] == steps[1] + 1

    def test_degenerate_sub_spacing_single_event(self):
        log = toy_logs("hierarchy", 0, data={"sub_spacing": 0.0})[""]
        s = log.summary
        assert s["second_stage_gate"] is False
        assert len(s["events"]) == 1
        assert "tessellation_ok" not in s

    def test_kind_and_size_guards(self):
        with pytest.raises(ValidationError):
            X.run_hierarchical(bimodal(200, 0), HIERARCHY_LR, 20)


# ---------------------------------------------------------------------------
# the classifier on the protocols' own logs


def test_constant_nc1_logs_read_no_arc_with_no_correlation(hysteresis, hier_log):
    # fixed latents write one NC1 value per run: no correlation, so no sign from roundoff
    for log in (*hysteresis, hier_log):
        shape = classify(log, None, THRESHOLDS)
        assert (shape.label, shape.decoupling_corr, shape.descent_sign) == (NO_ARC, 0.0, 1)


# ---------------------------------------------------------------------------
# protocol argument validation


class TestProtocolArguments:
    @pytest.mark.parametrize(
        "record_every,learned",
        [(20, {"rates": PROBE, "steps": 0}), (0, {"rates": PROBE, "steps": 7000}),
         (0, {"rates": None, "steps": None})],
    )
    def test_forward_split_step_counts_must_be_positive(self, record_every, learned):
        ds = bimodal(100, 0)
        with pytest.raises(ValidationError, match="steps and record_every"):
            X.run_forward_split(ds, 2, LOG_BETA_INIT, record_every, **learned)

    def test_hierarchy_record_every_must_be_positive(self):
        with pytest.raises(ValidationError):
            X.run_hierarchical(hierarchical(400), HIERARCHY_LR, 0)

    @pytest.mark.parametrize("half", [{"rates": PROBE, "steps": None},
                                      {"rates": None, "steps": 7000}])
    def test_forward_split_takes_rates_and_steps_together(self, half):
        ds = bimodal(100, 0)
        with pytest.raises(ValidationError, match="takes rates and steps"):
            X.run_forward_split(ds, 2, LOG_BETA_INIT, 20, **half)
