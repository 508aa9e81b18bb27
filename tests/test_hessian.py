import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurc.errors import BracketError, PreconditionError, ValidationError
from bifurc.experiments import gen_bimodal
from bifurc.gmm_probe import GmmProbeState, beta_c, exact_collapsed
from bifurc.hessian import (
    _illinois,
    analytic_hessian,
    channel_spectrum,
    find_crossing,
    find_crossing_numeric,
    lowest_eigenvalue,
    numerical_hessian,
)
from bifurc.mathcore import covariance, sym_eigen
from oracles import flat_spectrum, nll


def bimodal(n=400, seed=0):
    rng = np.random.default_rng(seed)
    lab = rng.integers(0, 2, n)
    z = rng.standard_normal((n, 2))
    z[:, 0] += np.where(lab == 0, -2.0, 2.0)
    return z


def nll_difference_hessian(state, z):
    """Test oracle: the Hessian of nll from central second differences of nll itself.

    Same per-coordinate steps as numerical_hessian; diagonal entries from the
    three-point formula, off-diagonal ones from the four-point mixed
    difference. Costs 1 + 2n + 2n(n - 1) nll calls for n = K d.
    """
    k, d = state.K, state.d
    n = k * d
    std = z.std(axis=0)
    steps = np.tile(1e-4 * np.where(std > 0, std, 1.0), k)
    x0 = state.means.reshape(-1)

    e = np.diag(steps)

    def f(x):
        return nll(GmmProbeState(x.reshape(k, d), state.log_precision, k, d), z)

    hess = np.empty((n, n))
    f0 = f(x0)
    for i in range(n):
        hess[i, i] = (f(x0 + e[i]) - 2.0 * f0 + f(x0 - e[i])) / (steps[i] * steps[i])
        for j in range(i + 1, n):
            ei, ej = e[i], e[j]
            hess[i, j] = hess[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return hess


class TestAnalyticHessian:
    def test_two_by_two_hand_evaluation(self):
        h = analytic_hessian(1.0, 2, np.array([[1.0]]))
        assert np.allclose(h, [[0.25, 0.25], [0.25, 0.25]], atol=1e-15)

    def test_zero_covariance_is_scaled_identity(self):
        h = analytic_hessian(0.7, 3, np.zeros((2, 2)))
        assert np.allclose(h, (0.7 / 3) * np.eye(6), atol=1e-15)

    def test_symmetric_output(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        h = analytic_hessian(1.3, 4, (m @ m.T))
        assert np.allclose(h, h.T)

    def test_spectrum_matches_channel_form(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            d = int(rng.integers(1, 11))
            if k * d > 60:
                continue
            beta = float(rng.uniform(0.1, 3.0))
            m = rng.standard_normal((d, d))
            cov = m @ m.T / d
            dense = sym_eigen(analytic_hessian(beta, k, cov)).eigenvalues
            cs = channel_spectrum(beta, k, sym_eigen(cov).eigenvalues)
            assert np.max(np.abs(dense - flat_spectrum(cs))) <= 1e-9


class TestChannelSpectrum:
    def test_exactly_critical(self):
        cs = channel_spectrum(1.0, 2, [1.0])
        assert cs.antisymmetric_eigenvalues[0][0] == pytest.approx(0.0, abs=1e-15)

    def test_supercritical_value(self):
        cs = channel_spectrum(2.0, 2, [1.0])
        assert cs.antisymmetric_eigenvalues[0][0] == pytest.approx(-1.0)

    def test_subcritical_all_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            eigs = np.sort(rng.uniform(0.1, 4.0, 3))[::-1]
            beta = 0.5 / eigs[0]
            cs = channel_spectrum(beta, 5, eigs)
            assert all(lam > 0 for lam, _, _ in cs.antisymmetric_eigenvalues)
            assert cs.symmetric_eigenvalue > 0

    def test_degeneracies(self):
        cs = channel_spectrum(0.9, 4, [2.0, 1.0, 0.5])
        assert all(mult == 3 for _, _, mult in cs.antisymmetric_eigenvalues)
        assert len(flat_spectrum(cs)) == 12

    def test_unsorted_eigs_rejected(self):
        with pytest.raises(ValidationError):
            channel_spectrum(1.0, 2, [1.0, 2.0])


class TestNumericalHessian:
    def test_matches_analytic_on_bimodal(self):
        z = bimodal(n=500, seed=4)
        state = exact_collapsed(z, 3, math.log(0.3))
        num = numerical_hessian(state, z)
        ana = analytic_hessian(0.3, 3, covariance(z))
        assert np.max(np.abs(num - ana)) <= 1e-4

    def test_single_component_is_beta_identity(self):
        z = bimodal(n=300, seed=5)
        state = exact_collapsed(z, 1, math.log(0.8))
        num = numerical_hessian(state, z)
        assert np.max(np.abs(num - 0.8 * np.eye(2))) <= 1e-4

    def test_coupling_scales_with_data(self):
        # z -> 2z at fixed beta multiplies the Sigma term by 4
        z = bimodal(n=400, seed=6)
        beta, k = 0.25, 2
        cov = covariance(z)
        expected = analytic_hessian(beta, k, 4.0 * cov)
        direct = analytic_hessian(beta, k, covariance(2.0 * z))
        assert np.allclose(direct, expected, atol=1e-12)
        num = numerical_hessian(exact_collapsed(2.0 * z, k, math.log(beta)), 2.0 * z)
        assert np.max(np.abs(num - expected)) <= 1e-4

    def test_oversized_hessian_is_refused_before_it_is_built(self):
        # K d = 4,098 > MAX_DENSE; unchecked, each would build a 4098 x 4098 matrix
        z = bimodal(n=3, seed=8)
        with pytest.raises(ValidationError, match=r"K\*d <= 4096, got 2049\*2"):
            numerical_hessian(exact_collapsed(z, 2049, 0.0), z)
        with pytest.raises(ValidationError, match=r"K\*d <= 4096, got 2049\*2"):
            analytic_hessian(1.0, 2049, covariance(z))

    def test_non_collapsed_state_rejected(self):
        z = bimodal(n=100, seed=7)
        state = exact_collapsed(z, 2, 0.0)
        state.means[0, 0] += 0.5
        with pytest.raises(PreconditionError):
            numerical_hessian(state, z)


class TestGradientDifferenceHessian:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 4),
        d=st.integers(1, 3),
        n=st.integers(20, 200),
        beta=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_nll_difference_oracle_and_the_closed_form(self, k, d, n, beta, seed):
        z = np.random.default_rng(seed).standard_normal((n, d))
        state = exact_collapsed(z, k, math.log(beta))
        num = numerical_hessian(state, z)
        assert np.array_equal(num, num.T)
        assert np.max(np.abs(num - nll_difference_hessian(state, z))) <= 1e-6
        assert np.max(np.abs(num - analytic_hessian(beta, k, covariance(z)))) <= 1e-4


class TestSignStructure:
    def test_positive_iff_subcritical(self):
        cov = np.diag([2.5, 1.0, 0.4])
        eigs = sym_eigen(cov).eigenvalues
        bc = 1.0 / 2.5
        for beta, expect_stable in [(0.5 * bc, True), (0.99 * bc, True), (1.2 * bc, False)]:
            low = lowest_eigenvalue(beta, 4, eigs)
            assert (low > 0) == expect_stable

    def test_unstable_count_is_K_minus_1(self):
        cov = np.diag([2.5, 1.0, 0.4])
        k = 5
        beta = 1.1 / 2.5  # above bc for the top mode only
        w = sym_eigen(analytic_hessian(beta, k, cov)).eigenvalues
        assert int(np.sum(w <= 0)) == k - 1


class TestFindCrossing:
    def test_identity_covariance(self):
        rep = find_crossing(4, np.eye(3), 0.1, 10.0)
        assert rep.beta_critical_numeric == pytest.approx(1.0, abs=1e-4)
        assert rep.beta_critical_analytic == pytest.approx(1.0)

    def test_mixture_covariance(self):
        rep = find_crossing(8, np.diag([5.0, 1.0]), 0.05, 2.0)
        assert rep.beta_critical_numeric == pytest.approx(0.2, abs=1e-4)

    def test_scan_single_sign_change(self):
        rep = find_crossing(8, np.diag([5.0, 1.0]), 0.05, 2.0)
        signs = np.sign([v for _, v in rep.scan_points])
        flips = int(np.sum(np.abs(np.diff(signs)) > 0))
        assert flips == 1

    def test_no_sign_change_rejected(self):
        with pytest.raises(BracketError):
            find_crossing(4, np.eye(2), 0.1, 0.5)

    def test_numeric_route_agrees(self):
        z = bimodal(n=400, seed=8)
        analytic = 1.0 / sym_eigen(covariance(z)).eigenvalues[0]
        numeric, _ = find_crossing_numeric(2, z, 0.05, 1.0)
        assert abs(numeric - analytic) <= 1e-4 * analytic

    def test_temperature_convention_roundtrip(self):
        # a critical temperature reported as T_c = 2 lambda_max converts back
        # to the same critical precision via beta = 2/T
        cov = np.diag([3.0, 0.5])
        lam = sym_eigen(cov).eigenvalues[0]
        rep = find_crossing(4, cov, 0.05, 3.0)
        assert 2.0 / (2.0 * lam) == pytest.approx(rep.beta_critical_analytic, abs=1e-12)
        assert 2.0 / (2.0 * lam) == pytest.approx(rep.beta_critical_numeric, abs=1e-4)


    @pytest.mark.parametrize("scale", [1e6, 1e7])
    def test_small_critical_precision_keeps_relative_accuracy(self, scale):
        # beta_c = 1/scale sits below the 1e-6 tolerance: an absolute stop
        # would return the first midpoints (12.5 % off at 1e6, 25 % at 1e7)
        rep = find_crossing(10, scale * np.eye(2), 0.5 / scale, 2.0 / scale)
        assert abs(rep.beta_critical_numeric * scale - 1.0) <= 1e-5

    def test_numeric_route_keeps_relative_accuracy_at_large_scale(self):
        z = 1e3 * bimodal(n=200, seed=9)
        analytic = 1.0 / sym_eigen(covariance(z)).eigenvalues[0]
        numeric, _ = find_crossing_numeric(2, z, 0.5 * analytic, 2.0 * analytic)
        assert abs(numeric - analytic) <= 1e-4 * analytic


class TestBisect:
    @pytest.mark.parametrize(
        "lo,hi",
        [(0.5, math.inf), (0.5, math.nan), (math.nan, 1.5), (1.5, 0.5), (1.0, 1.0),
         (0.0, 1.5), (-1.0, 1.5), (-math.inf, 1.5)],
    )
    def test_bad_bracket_rejected_before_any_evaluation(self, lo, hi):
        calls = []
        with pytest.raises(ValidationError, match="finite bracket"):
            _illinois(calls.append, lo, hi, 1e-6)
        assert calls == []

    def test_endpoint_root_and_same_sign(self):
        assert _illinois(lambda b: b - 0.5, 0.5, 2.0, 1e-6)[0] == 0.5
        assert _illinois(lambda b: b - 2.0, 0.5, 2.0, 1e-6)[0] == 2.0
        with pytest.raises(BracketError):
            _illinois(lambda b: b + 1.0, 0.5, 2.0, 1e-6)

    def test_tolerance_below_float_resolution_terminates(self):
        root = 1e20 / 3.0
        got, _ = _illinois(lambda b: math.atan(root - b), 0.5 * root, 1.5 * root, 0.0)
        assert abs(got - root) <= 4 * math.ulp(root)

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(1e-3, 1e3),
        lo_frac=st.floats(1e-3, 0.999),
        hi_mult=st.floats(1.001, 1e3),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
        rising=st.booleans(),
    )
    def test_lands_within_tol_of_the_root(self, root, lo_frac, hi_mult, tol, rising):
        sign = 1.0 if rising else -1.0

        def f(b):
            return sign * math.atan(b - root)

        got, _ = _illinois(f, root * lo_frac, root * hi_mult, tol)
        assert abs(got - root) <= tol

    @pytest.mark.parametrize("seed", [0, 1])
    def test_few_evaluations_on_the_closed_form_lowest_eigenvalue(self, seed):
        # the default calibrate-hessian bracket, where halving needs 22 evaluations
        cov = covariance(gen_bimodal(2000, seed=seed).samples)
        guess = beta_c(cov)
        eigs = sym_eigen(cov).eigenvalues
        calls = []

        def low(b):
            calls.append(b)
            return lowest_eigenvalue(b, 10, eigs)

        root, evaluations = _illinois(low, 0.5 * guess, 1.5 * guess, 1e-6)
        assert evaluations == len(calls) <= 12
        assert abs(root - guess) <= 1e-6 * guess

    @pytest.mark.parametrize("root", [0.37, 0.8, 1.3, 2.9])
    @pytest.mark.parametrize("lo,hi", [(0.5, 1.5), (0.3, 1.9)])
    def test_evaluation_count_does_not_depend_on_the_sign_of_noise_at_the_root(
        self, root, lo, hi
    ):
        # a lowest eigenvalue's shape (beta/K)(1 - beta/beta_c) plus noise of 1e-10,
        # which sets f's sign within ~1e-9 of the root, as roundoff does in a
        # finite-difference Hessian; the minimum step carries the next point past
        # that band, whichever side of the root the noise puts the secant on
        results = []
        for sign in (1.0, -1.0):

            def f(b):
                return (b / 10.0) * (1.0 - b / root) + sign * 1e-10 * math.sin(1e7 * b)

            results.append(_illinois(f, lo * root, hi * root, 1e-6))
        assert results[0][1] == results[1][1]
        for got, _ in results:
            assert abs(got - root) <= 2e-6 * root

    @pytest.mark.parametrize("root", [0.3, 1.0, 1.9])
    def test_steep_convex_function_does_not_stall_on_one_endpoint(self, root):
        # plain regula falsi keeps the left endpoint here and creeps in from
        # the right; the Illinois halving makes the secant jump over the root
        calls = []

        def f(b):
            calls.append(b)
            return b**9 - root**9

        got, evaluations = _illinois(f, 0.1, 2.0, 1e-9)
        assert abs(got - root) <= 1e-9
        assert evaluations == len(calls) <= 40

    def test_bracket_over_three_hundred_decades_takes_tens_of_evaluations(self):
        # a fuzzed calibrate-hessian case (k = 4, n = 59, bracket ratios 0.5 and
        # 1e308, beta_c = 7.8e-34) that took 1,038 evaluations by arithmetic
        # midpoints; the geometric midpoint crosses the decades in a few
        ds = gen_bimodal(59, -3.614377606952927e16, 1.4956490752050952e-266, seed=0)
        cov = covariance(ds.samples)
        guess = beta_c(cov)
        report = find_crossing(4, cov, 0.5 * guess, 1e308 * guess)
        assert report.iterations <= 60
        assert abs(report.beta_critical_numeric - guess) <= 1e-6 * guess
        numeric, evaluations = find_crossing_numeric(4, ds.samples, 0.5 * guess, 1e308 * guess)
        assert evaluations <= 60
        assert abs(numeric - guess) <= 1e-4 * guess
