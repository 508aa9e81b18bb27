import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bifurc.errors import DegenerateInputError, DimensionError, NumericalError
from bifurc.gmm_probe import (
    SHIFT_LIMIT,
    ProbeConfig,
    _centred,
    _em_step,
    _equilibrium,
    _joint_step,
    _mean_step,
    _shifted_weights,
    _spread,
    _Workspace,
    critical_spectrum,
    init_collapsed,
    probe_step,
    split_direction,
)
from bifurc.mathcore import covariance
from oracles import (
    LOG_BETA_INIT,
    PROBE,
    _nll,
    exact_collapsed,
    max_shift_kernel,
    nll,
    responsibilities,
)


def bimodal(n=400, seed=0, c=2.0):
    rng = np.random.default_rng(seed)
    lab = rng.integers(0, 2, n)
    z = rng.standard_normal((n, 2))
    z[:, 0] += np.where(lab == 0, -c, c)
    return z


class TestCriticalSpectrum:
    # beta_c = 1 / lambda_max, the critical precision of the collapsed state
    def test_identity(self):
        assert 1.0 / critical_spectrum(np.eye(4))[0] == pytest.approx(1.0)

    def test_diagonal(self):
        assert 1.0 / critical_spectrum(np.diag([4.0, 1.0]))[0] == pytest.approx(0.25)

    def test_mixture_covariance(self):
        # closed form: I + 4 e1 e1^T has lambda_max = 5
        assert 1.0 / critical_spectrum([[5.0, 0.0], [0.0, 1.0]])[0] == pytest.approx(0.2)

    def test_zero_covariance_rejected(self):
        # a subnormal lambda_max too: its reciprocal would overflow to inf
        for cov in (np.zeros((3, 3)), np.diag([1e-310, 0.0])):
            with pytest.raises(DegenerateInputError):
                critical_spectrum(cov)


class TestNll:
    def test_single_component_at_mean(self):
        assert nll([[1.5]], 0.0, [[1.5]]) == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_collapsed_two_components_match_single(self):
        z = bimodal(n=50, seed=1)
        one = nll([[0.3, -0.2]], -0.7, z)
        assert nll([[0.3, -0.2], [0.3, -0.2]], -0.7, z) == pytest.approx(one, abs=1e-12)

    def test_matches_direct_density_sum(self):
        # independent route: evaluate the mixture density term by term
        rng = np.random.default_rng(2)
        z = rng.standard_normal((9, 2))
        mu = rng.standard_normal((3, 2))
        lb = 0.4
        beta = math.exp(lb)
        dens = np.zeros(9)
        for k in range(3):
            q = ((z - mu[k]) ** 2).sum(axis=1)
            dens += (1.0 / 3.0) * (beta / (2 * math.pi)) * np.exp(-0.5 * beta * q)
        expected = -np.log(dens).mean()
        assert nll(mu, lb, z) == pytest.approx(expected, abs=1e-10)


class TestResponsibilities:
    def test_equal_means_uniform(self):
        z = np.random.default_rng(0).standard_normal((6, 3))
        p = responsibilities(np.ones((4, 3)), 0.2, z)
        assert np.allclose(p, 0.25)

    def test_high_precision_one_hot(self):
        p = responsibilities([[0.0], [5.0]], math.log(200.0), [[0.2]])
        assert p[0, 0] > 1.0 - 1e-12

    def test_symmetric_point(self):
        p = responsibilities([[-1.0], [1.0]], math.log(2.0), [[0.0]])
        assert np.allclose(p, 0.5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            mu, lb = rng.standard_normal((k, d)), float(rng.normal())
            p = responsibilities(mu, lb, rng.standard_normal((12, d)))
            assert np.all(p > 0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12


def numeric_grads(means, log_beta, z, h=1e-5):
    """Central finite differences of nll over all probe parameters."""
    gm = np.zeros_like(means)
    for k, a in np.ndindex(means.shape):
        up = means.copy()
        dn = means.copy()
        up[k, a] += h
        dn[k, a] -= h
        gm[k, a] = (nll(up, log_beta, z) - nll(dn, log_beta, z)) / (2 * h)
    gb = (nll(means, log_beta + h, z) - nll(means, log_beta - h, z)) / (2 * h)
    return gm, gb


class TestGradStep:
    def test_symmetric_state_means_fixed(self):
        z = bimodal(n=200, seed=5)
        mu = exact_collapsed(z, 4)
        mu2 = probe_step(mu, -1.0, z, PROBE)[0]
        assert np.max(np.abs(mu2 - mu)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((30, 2))
        mu, lb = rng.standard_normal((3, 2)), 0.3
        cfg = ProbeConfig(lr_means=1.0, lr_logbeta=1.0)
        mu2, lb2, _ = probe_step(mu, lb, z, cfg)
        analytic_gm = (mu - mu2) / cfg.lr_means
        analytic_gb = (lb - lb2) / cfg.lr_logbeta
        gm, gb = numeric_grads(mu, lb, z)
        ref = max(np.max(np.abs(gm)), abs(gb))
        assert np.max(np.abs(analytic_gm - gm)) <= 1e-5 * ref
        assert abs(analytic_gb - gb) <= 1e-5 * ref

    def test_low_beta_pushed_up(self):
        z = bimodal(n=100, seed=7)
        assert probe_step(exact_collapsed(z, 3), -4.0, z, PROBE)[1] > -4.0

    @pytest.mark.parametrize("log_beta", [800.0, -800.0])  # exp overflows / is 0.0
    def test_precision_outside_float_range_is_numerical_error(self, log_beta):
        z = bimodal(n=50, seed=8)
        mu = exact_collapsed(z, 3)
        with pytest.raises(NumericalError):
            probe_step(mu, log_beta, z, PROBE)
        with pytest.raises(NumericalError):
            nll(mu, log_beta, z)


class TestOrderParameter:
    def test_collapsed_is_zero(self):
        assert _spread(np.ones((3, 2))) == 0.0

    def test_symmetric_pair(self):
        assert _spread(np.array([[-1.0], [1.0]])) == pytest.approx(1.0)

    def test_unit_square_corners(self):
        mu = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert _spread(mu) == pytest.approx(math.sqrt(0.5))


class TestProbeStep:
    def test_identity_covariance_log_beta_c_zero(self):
        # four corner points have exactly unit covariance
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        mu, lb = exact_collapsed(z, 2), -1.0
        for step in range(3):
            mu, lb, r = probe_step(mu, lb, z, PROBE, step=step)
            assert r.log_beta_c == 0.0
            assert r.log_ratio == r.log_beta == lb

    def test_reading_ratio_identity(self):
        z = bimodal(n=120, seed=8)
        mu = init_collapsed(z, 5, np.random.default_rng(0))
        r = probe_step(mu, LOG_BETA_INIT, z, PROBE, step=0)[2]
        assert abs(r.log_ratio - (r.log_beta - r.log_beta_c)) <= 1e-12

    def test_rescaling_shifts_log_beta_c(self):
        z = bimodal(n=150, seed=9)
        rng = np.random.default_rng(1)
        r1 = probe_step(init_collapsed(z, 3, rng), LOG_BETA_INIT, z, PROBE, step=0)[2]
        r2 = probe_step(init_collapsed(2.0 * z, 3, rng), LOG_BETA_INIT, 2.0 * z, PROBE, step=0)[2]
        assert r2.log_beta_c == pytest.approx(r1.log_beta_c - 2.0 * math.log(2.0), abs=1e-12)

    def test_degenerate_latents_flagged(self):
        # a zero covariance, and one whose lambda_max (1e-310) is subnormal
        for z in (np.tile([1.0, 2.0], (10, 1)), np.tile([[-1e-155, 0.0], [1e-155, 0.0]], (5, 1))):
            r = probe_step(exact_collapsed(z, 2), -1.0, z, PROBE, step=0)[2]
            assert r.degenerate
            assert r.log_beta_c == math.inf
            assert r.log_ratio == -math.inf

    def test_static_latents_beta_rises_to_optimum(self):
        # at fixed collapsed means the full NLL has its beta optimum at
        # d / tr(Cov(z)); the learned channel must climb to it monotonically
        z = bimodal(n=300, seed=10)
        mu, lb = exact_collapsed(z, 4), LOG_BETA_INIT
        beta_opt = z.shape[1] / np.trace(covariance(z))
        lbs = []
        for step in range(2500):
            mu, lb, r = probe_step(mu, lb, z, PROBE, step=step)
            lbs.append(r.log_beta)
        lbs = np.array(lbs)
        below = lbs < math.log(beta_opt) - 0.01
        assert np.all(np.diff(lbs)[below[:-1]] > 0)
        assert lbs[-1] == pytest.approx(math.log(beta_opt), abs=0.02)

    def test_detachment_never_mutates_latents(self):
        z = bimodal(n=80, seed=11)
        snapshot = z.copy()
        mu, lb = init_collapsed(z, 3, np.random.default_rng(2)), LOG_BETA_INIT
        for step in range(10):
            mu, lb, _ = probe_step(mu, lb, z, PROBE, step=step)
        assert np.array_equal(z, snapshot)

    def test_log_beta_c_invariant_in_K_probe(self):
        z = bimodal(n=200, seed=12)
        traces = []
        for k in (2, 5, 10, 20, 50):
            mu, lb = init_collapsed(z, k, np.random.default_rng(3)), LOG_BETA_INIT
            tr = []
            for step in range(20):
                mu, lb, r = probe_step(mu, lb, z, PROBE, step=step)
                tr.append(r.log_beta_c)
            traces.append(tr)
        for tr in traces[1:]:
            assert tr == traces[0]  # bit-exact

    @pytest.mark.parametrize("means,latents", [
        (np.zeros((2, 2)), np.zeros((5, 3))),  # latents of another d
        (np.zeros((2, 2)), np.zeros((0, 2))),  # an empty batch
        (np.zeros((2, 2)), np.zeros((1, 2))),  # one sample: no covariance
        (np.zeros(2), np.zeros((5, 2))),  # 1-D means
    ], ids=["other-d", "empty-batch", "one-sample", "1d-means"])
    def test_malformed_shapes_are_dimension_errors(self, means, latents):
        with pytest.raises(DimensionError):
            probe_step(means, 0.0, latents, PROBE)

    @pytest.mark.parametrize("log_beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_beta_is_numerical_error(self, log_beta):
        with pytest.raises(NumericalError):
            probe_step(np.zeros((2, 2)), log_beta, bimodal(n=20), PROBE)


def test_split_direction_unit_norm():
    v = split_direction(np.array([[-1.0, 0.1], [1.0, -0.1]]))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
    assert abs(v[0]) > abs(v[1])


class TestProbeConfig:
    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["lr_means", "lr_logbeta"])
    def test_learning_rate_outside_positive_floats_rejected(self, key, lr):
        with pytest.raises(DegenerateInputError, match="learning rates"):
            replace(PROBE, **{key: lr})


def naive_kernel(z, mu, log_beta, lr_means, lr_logbeta):
    """Per-component reference: (nll, N x K responsibilities, means, log beta after one step)."""
    n, d = z.shape
    k = mu.shape[0]
    beta = math.exp(log_beta)
    sq = [((z - mu[j]) ** 2).sum(axis=1) for j in range(k)]
    lse = -0.5 * beta * sq[0]
    for j in range(1, k):
        lse = np.logaddexp(lse, -0.5 * beta * sq[j])
    value = -lse.mean() + math.log(k) + 0.5 * d * math.log(2.0 * math.pi) - 0.5 * d * log_beta
    p = [np.exp(-0.5 * beta * sq[j] - lse) for j in range(k)]
    means = np.array(
        [mu[j] + lr_means * beta * (p[j][:, None] * (z - mu[j])).mean(axis=0) for j in range(k)]
    )
    dnll_dbeta = sum((p[j] * sq[j]).mean() for j in range(k)) / 2.0 - 0.5 * d / beta
    return value, np.stack(p, axis=1), means, log_beta - lr_logbeta * beta * dnll_dbeta


@st.composite
def kernel_cases(draw):
    k = draw(st.integers(1, 9))
    d = draw(st.integers(1, 4))
    n = draw(st.one_of(st.just(k), st.integers(1, 40)))  # N == K hides a transpose slip
    coords = st.floats(-3.0, 3.0)
    z = draw(hnp.arrays(float, (n, d), elements=coords))
    mu = draw(hnp.arrays(float, (k, d), elements=coords))
    return z, mu, draw(st.floats(-3.0, 3.0))


class TestKernelAgainstPerComponentReference:
    @settings(max_examples=300, deadline=None)
    @example(case=(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([[1.0, 0.0], [-1.0, 0.5]]), 0.7))
    @example(case=(np.eye(3), 2.0 * np.eye(3)[::-1], -1.2))
    @example(case=(np.array([[0.5]]), np.array([[-0.25]]), 3.0))
    @given(case=kernel_cases())
    def test_nll_responsibilities_and_joint_step(self, case):
        z, mu, log_beta = case
        k, d = mu.shape
        cfg = ProbeConfig(lr_means=0.05, lr_logbeta=0.02)
        value, p_ref, means_ref, log_beta_ref = naive_kernel(
            z, mu, log_beta, cfg.lr_means, cfg.lr_logbeta
        )

        assert nll(mu, log_beta, z) == pytest.approx(value, rel=1e-12, abs=1e-12)
        p = responsibilities(mu, log_beta, z)
        assert p.shape == (z.shape[0], k)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-12)
        # the kernel, not probe_step: a one-sample batch has no covariance to read
        means, stepped_log_beta = _joint_step(_Workspace(k, z), mu, log_beta, cfg.lr_means,
                                              cfg.lr_logbeta)
        np.testing.assert_allclose(means, means_ref, rtol=1e-12, atol=1e-12)
        assert stepped_log_beta == pytest.approx(log_beta_ref, rel=1e-12, abs=1e-12)


@st.composite
def shift_cases(draw):
    """A batch spread up to 1e4, prototypes up to 1e3 from its mean, log beta in [-20, 8].

    The kernel's logit range bound beta M (2r + M) then falls on both sides of
    SHIFT_LIMIT, far above it too.
    """
    k, d, n = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 30))
    spread = draw(st.sampled_from([1.0, 1e2, 1e4]))
    z = spread * draw(hnp.arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    offsets = draw(hnp.arrays(float, (k, d), elements=st.floats(-1e3, 1e3)))
    return z, z.mean(axis=0) + offsets, draw(st.floats(-20.0, 8.0))


def _pair(beta):
    """z = -1, 1 and means -1, 1 (d = 1): r = M = 1, so the range bound is 3 beta."""
    return np.array([[-1.0], [1.0]]), np.array([[-1.0], [1.0]]), math.log(beta)


class TestScalarShiftAgainstPerSampleMax:
    @settings(max_examples=300, deadline=None)
    @example(case=_pair(190.0 / 3.0)).via("range bound 190: the scalar shift")
    @example(case=_pair(210.0 / 3.0)).via("range bound 210: the per-sample max")
    @example(case=(np.array([[-1e4, 0.0], [1e4, 5.0], [0.0, -1e4]]),
                   np.array([[1e3, 0.0], [-1e3, 1e3]]), math.log(10.0))).via(
        "large beta, far prototypes, |z - c| of 1e4")
    @example(case=(np.array([[4.94e-322], [0.0]]), np.array([[2.5e-322], [2.5e-322]]), 0.0)).via(
        "subnormal latents and means: the mean step lands 1 ulp from the reference")
    @given(case=shift_cases())
    def test_responsibilities_nll_and_mean_step(self, case):
        z, mu, log_beta = case
        k, d = mu.shape
        n = z.shape[0]
        beta = math.exp(log_beta)
        p_ref, lse_ref, pull_ref = max_shift_kernel(z, mu, beta)
        ws = _Workspace(k, z)
        r, big_m = ws.r, float(np.sqrt(((mu - ws.c) ** 2).sum(axis=1).max()))
        # roundoff of logits of size beta size^2, in either form; size bounds
        # r + M without squaring, which underflows for tiny z and mu
        size = math.sqrt(d) * (np.abs(z - ws.c).max() + np.abs(mu - ws.c).max())
        tol = 1e-13 * (1.0 + beta * size**2)

        e, shift, _ = _shifted_weights(ws, mu - ws.c, beta)
        scalar = isinstance(shift, float)
        assert scalar == (beta * big_m * (2.0 * r + big_m) < SHIFT_LIMIT)
        event("scalar shift" if scalar else "per-sample max")
        if scalar:  # every exp argument in [-L, 0]
            assert e.min() >= math.exp(-SHIFT_LIMIT) and e.max() <= 1.0

        np.testing.assert_allclose(responsibilities(mu, log_beta, z), p_ref, rtol=0.0, atol=tol)
        nll_ref = (-lse_ref.mean() + math.log(k) + 0.5 * d * math.log(2.0 * math.pi)
                   - 0.5 * d * log_beta)
        assert abs(_nll(ws, mu, log_beta) - nll_ref) <= tol
        stepped = _mean_step(ws, mu, beta, 1.0 / beta)[0]  # mu + pull / N
        expected = mu + pull_ref / n
        # size * tol underflows to 0 for subnormal values, and no rtol holds there: the
        # floor of 4 ulps of the smallest value is below what rtol allows for normal ones
        atol = max(size * tol, 4.0 * float(np.spacing(np.abs(expected).min())))
        np.testing.assert_allclose(stepped, expected, rtol=1e-14, atol=atol)

    def test_radius_above_the_limit_takes_the_per_sample_max(self):
        # latents W x with r = ||W||_F r_x = 1.4e300: M = 1e-150 and beta = 3.5e-149
        # give a range bound of 100, but the samples at right angles to m sit 50
        # below the scalar shift, so za / total would reach 1e300 e^50 and overflow
        x = 1e150 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        mu, beta = np.array([[1e-150, 0.0], [-1e-150, 0.0]]), 3.5e-149
        ws = _Workspace(2, np.zeros_like(x))
        with np.errstate(over="ignore"):  # ss = sum ||z_n||^2 overflows
            ws.project(1e150 * np.eye(2), *_centred(x))
        assert not isinstance(_shifted_weights(ws, mu, beta)[1], float)
        np.testing.assert_allclose(
            _em_step(ws, mu, beta), [[5e299, 0.0], [-5e299, 0.0]], rtol=1e-12, atol=0.0
        )


class TestEquilibrium:
    """The EM branch solver: its fixed points are the zeros of the mean gradient."""

    @staticmethod
    def split_level(n=400):
        # a bimodal set at 1.5 beta_c, started from a small split along x
        z = bimodal(n=n)
        lam = float(np.linalg.eigvalsh(covariance(z))[-1])
        mu0 = z.mean(axis=0) + np.array([[-0.1, 0.0], [0.1, 0.0]])
        return _Workspace(2, z), mu0, 1.5 / lam, 1e-10 * math.sqrt(lam)

    def test_solution_is_a_zero_of_the_mean_gradient(self):
        ws, mu0, beta, tol = self.split_level()
        mu, iterations, residual = _equilibrium(ws, mu0, beta, tol, 9000)
        assert 1 < iterations < 9000 and residual <= tol
        moved = _mean_step(ws, mu, beta, 1.0)[0]
        assert np.max(np.abs(moved - mu)) <= 10.0 * tol
        assert np.max(np.abs(mu[1] - mu[0])) > 1.0  # the split branch, not the mean

    def test_matches_long_gradient_descent(self):
        ws, mu0, beta, tol = self.split_level()
        mu = _equilibrium(ws, mu0, beta, tol, 9000)[0]
        gd = mu0
        for _ in range(5000):
            gd = _mean_step(ws, gd, beta, 1.0)[0]
        np.testing.assert_allclose(mu, gd, rtol=0.0, atol=1e-6)

    def test_component_without_mass_keeps_its_mean(self):
        z = bimodal(n=50)
        mu = np.array([[0.0, 0.0], [1e3, 1e3]])  # exp(-beta sq / 2) underflows to 0
        with np.errstate(divide="raise", invalid="raise"):
            stepped = _em_step(_Workspace(2, z), mu, 1.0)
            solved = _equilibrium(_Workspace(2, z), mu, 1.0, 1e-10, 100)[0]
        assert np.array_equal(stepped[1], mu[1]) and np.array_equal(solved[1], mu[1])
        np.testing.assert_allclose(stepped[0], z.mean(axis=0), rtol=0.0, atol=1e-12)

    def test_non_finite_update_is_numerical_error(self):
        z = 1e200 * bimodal(n=50)  # finite latents whose squared norms overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                _em_step(_Workspace(2, z), np.zeros((2, 2)), 1.0)

    def test_iteration_cap_returns_the_unconverged_state(self):
        ws, mu0, beta, tol = self.split_level()
        mu, iterations, residual = _equilibrium(ws, mu0, beta, tol, 1)
        assert iterations == 1 and residual > tol
        assert np.array_equal(mu, _em_step(ws, mu0, beta))


@st.composite
def shifted_cases(draw):
    """Small z and mu, a common offset of up to 1e6 per coordinate, and log beta."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    coords = st.floats(-3.0, 3.0)
    z = draw(hnp.arrays(float, (draw(st.integers(1, 40)), d), elements=coords))
    mu = draw(hnp.arrays(float, (k, d), elements=coords))
    offset = draw(hnp.arrays(float, d, elements=st.floats(-1e6, 1e6)))
    return z, mu, offset, draw(st.floats(-3.0, 1.0))


class TestWorkspace:
    def test_load_centres_the_batch_feature_major(self):
        z = bimodal(n=50) + 1e3
        ws = _Workspace(3, z)
        np.testing.assert_allclose(ws.c, z.mean(axis=0), rtol=1e-15)
        np.testing.assert_allclose(ws.za[:-1].T + ws.c, z, rtol=1e-15)
        assert np.array_equal(ws.za[-1], np.ones(50))
        assert ws.ss == pytest.approx(((z - z.mean(axis=0)) ** 2).sum(), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @example(case=(bimodal(n=40), np.array([[-2.0, 0.0], [2.0, 0.5]]), np.array([1e6, -1e6]), 1.0))
    @given(case=shifted_cases())
    def test_common_shift_of_batch_and_means_changes_no_update(self, case):
        # a batch far from the origin loses nothing: expanded without centring,
        # ||z - mu||^2 would cancel against ||z||^2 ~ 1e12 and keep ~4 digits
        z, mu, offset, log_beta = case
        k = mu.shape[0]
        beta = math.exp(log_beta)
        ws, far = _Workspace(k, z), _Workspace(k, z + offset)
        mu_far = mu + offset
        np.testing.assert_allclose(
            _mean_step(far, mu_far, beta, 0.05)[0] - mu_far,
            _mean_step(ws, mu, beta, 0.05)[0] - mu,
            rtol=0.0, atol=1e-8,
        )
        np.testing.assert_allclose(
            _em_step(far, mu_far, beta) - offset, _em_step(ws, mu, beta), rtol=0.0, atol=1e-7
        )
        assert _joint_step(far, mu_far, log_beta, 0.05, 0.02)[1] == pytest.approx(
            _joint_step(ws, mu, log_beta, 0.05, 0.02)[1], rel=0.0, abs=1e-8
        )

    @pytest.mark.parametrize(
        "step",
        [
            lambda ws, mu: _mean_step(ws, mu, 1.0, 0.05)[0],
            lambda ws, mu: _em_step(ws, mu, 1.0),
            lambda ws, mu: _joint_step(ws, mu, 0.0, 0.05, 0.01)[0],
        ],
        ids=["mean", "em", "joint"],
    )
    def test_kernel_steps_allocate_no_component_by_sample_array(self, step):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4000, 2))
        mu = 0.1 * rng.standard_normal((8, 2))
        ws = _Workspace(8, z)
        mu = step(ws, mu)
        tracemalloc.start()
        try:
            for _ in range(20):
                mu = step(ws, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ws.e.nbytes  # one K x N float64 array: 256 kB

    def test_weights_are_views_into_the_workspace(self):
        ws = _Workspace(3, bimodal(n=50))
        m = np.array([[-3.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
        for beta in (1.0, 1e3):  # the scalar shift (a float), then the per-sample max
            e, shift, total = _shifted_weights(ws, m, beta)
            assert np.shares_memory(e, ws.e) and np.shares_memory(total, ws.total)
            assert np.shares_memory(shift, ws.amax) == (beta == 1e3)
