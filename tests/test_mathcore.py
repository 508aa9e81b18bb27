import importlib.resources
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bifurc.errors import DegenerateInputError, DimensionError, NumericalError, ValidationError
from bifurc.escape_lab import FitReport, GammaStats, fit_escape_models, read_sweep_csv
from bifurc.mathcore import (
    _ranks,
    covariance,
    pearson,
    spearman,
    sym_eigen,
    weighted_linfit,
)
from oracles import exact_weighted_linfit, ulps_off

FIXTURES = importlib.resources.files("bifurc") / "fixtures"

# Six-level dissipation sweep used as the regression fixture for the fit
# conventions (gamma, mean escape steps, std over seeds); the gamma=0 level
# is censored and never enters a fit.
SWEEP_POINTS = [
    (0.1, 147167.0, 23618.0),
    (0.2, 88033.0, 27091.0),
    (0.3, 38150.0, 4250.0),
    (0.5, 22433.0, 6064.0),
    (0.7, 16633.0, 5008.0),
    (1.0, 8900.0, 864.0),
]


class TestCovariance:
    def test_two_points(self):
        c = covariance([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(c, [[1.0, 0.0], [0.0, 0.0]])

    def test_repeated_point_gives_zero(self):
        c = covariance(np.tile([3.0, -1.0, 2.0], (7, 1)))
        assert np.allclose(c, 0.0)

    def test_single_sample_rejected(self):
        with pytest.raises(DimensionError):
            covariance([[1.0, 2.0]])

    def test_two_component_mixture_top_entry(self):
        # mixture N(+-(2,0), I) has covariance I + 4 e1 e1^T
        rng = np.random.default_rng(7)
        lab = rng.integers(0, 2, 10000)
        z = rng.standard_normal((10000, 2))
        z[:, 0] += np.where(lab == 0, -2.0, 2.0)
        c = covariance(z)
        assert abs(c[0, 0] - 5.0) < 0.15

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 5))
            w = sym_eigen(covariance(z)).eigenvalues
            assert w[-1] >= -1e-10 * max(w[0], 1e-30)


class TestSymEigen:
    def test_identity(self):
        r = sym_eigen(np.eye(3))
        assert np.allclose(r.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        r = sym_eigen(np.diag([4.0, 1.0]))
        assert np.allclose(r.eigenvalues, [4.0, 1.0])
        assert np.allclose(np.abs(r.eigenvectors), np.eye(2))

    def test_hand_diagonalized_2x2(self):
        # [[2,1],[1,2]] = 3 on (1,1)/sqrt2, 1 on (1,-1)/sqrt2
        r = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(r.eigenvalues, [3.0, 1.0], atol=1e-12)
        v0 = r.eigenvectors[:, 0] * np.sign(r.eigenvectors[0, 0])
        v1 = r.eigenvectors[:, 1] * np.sign(r.eigenvectors[0, 1])
        assert np.allclose(v0, [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
        assert np.allclose(v1, [1.0, -1.0] / np.sqrt(2.0), atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            sym_eigen([[1.0, 0.5], [0.0, 1.0]])

    def test_sorted_descending_and_unit_norm(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((9, 9))
        r = sym_eigen((m + m.T) / 2)
        assert np.all(np.diff(r.eigenvalues) <= 1e-12)
        norms = np.linalg.norm(r.eigenvectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_reconstruction_and_residual_up_to_64(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 17, 33, 64):
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2
            r = sym_eigen(a)
            norm = np.linalg.norm(a)
            rec = r.eigenvectors @ np.diag(r.eigenvalues) @ r.eigenvectors.T
            assert np.max(np.abs(rec - a)) <= 1e-7 * norm
            for i in range(n):
                res = np.linalg.norm(a @ r.eigenvectors[:, i] - r.eigenvalues[i] * r.eigenvectors[:, i])
                assert res <= 1e-8 * norm

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 20, 40):
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2
            ours = sym_eigen(a).eigenvalues
            ref = np.linalg.eigvalsh(a)[::-1]
            assert np.allclose(ours, ref, atol=1e-10 * np.linalg.norm(a))

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((12, 12))
        a = (m + m.T) / 2
        w = sym_eigen(a).eigenvalues
        assert abs(w.sum() - np.trace(a)) <= 1e-9 * np.linalg.norm(a)

    def test_empty_matrix(self):
        r = sym_eigen(np.zeros((0, 0)))
        assert r.eigenvalues.shape == (0,) and r.eigenvectors.shape == (0, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_numerical_error(self, bad):
        with pytest.raises(NumericalError):
            sym_eigen([[1.0, 0.0], [0.0, bad]])


def symmetric_matrices():
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=entries)
    ).map(lambda m: (m + m.T) / 2)


class TestSymEigenProperties:
    @settings(max_examples=200, deadline=None)
    @given(a=symmetric_matrices())
    def test_contract(self, a):
        r = sym_eigen(a)
        w, v = r.eigenvalues, r.eigenvectors
        n = a.shape[0]
        scale = np.max(np.abs(a))
        assert np.all(np.diff(w) <= 0)
        assert np.allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-12 * n * scale
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
        assert np.all(pivots > 0)


def loop_ranks(values):
    """Reference average ranks (1-based): walk the sorted values, one run of ties at a time."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestSpearman:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            arrays(float, st.integers(0, 40), elements=st.integers(-3, 3).map(float)),
            arrays(float, st.integers(0, 40), elements=st.floats(allow_nan=False)),
        )
    )
    def test_ranks_match_the_tie_loop_bit_for_bit(self, values):
        np.testing.assert_array_equal(_ranks(values), loop_ranks(values))

    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_one_swap(self):
        # brute-force rank formula: d^2 = (0,1,1,0), rho = 1 - 6*2/(4*15)
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ties_use_average_ranks(self):
        # x ranks (1, 2.5, 2.5, 4); Pearson of those against (1,2,3,4)
        x = np.array([1.0, 2.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        rx = np.array([1.0, 2.5, 2.5, 4.0])
        ry = np.array([1.0, 2.0, 3.0, 4.0])
        expected = np.corrcoef(rx, ry)[0, 1]
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_sequence_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            x = rng.standard_normal(40)
            y = rng.standard_normal(40)
            base = spearman(x, y)
            assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
            assert spearman(x, 3.0 * y - 7.0) == pytest.approx(base, abs=1e-12)
            assert spearman(x**3, np.arctan(y)) == pytest.approx(base, abs=1e-12)


class TestWeightedLinfit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        a, b, chi2 = weighted_linfit(x, 2.0 * x + 1.0, np.ones(4))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(2.0, abs=1e-12)
        assert chi2 == pytest.approx(0.0, abs=1e-20)

    def test_identical_xs_rejected(self):
        with pytest.raises(DegenerateInputError):
            weighted_linfit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            weighted_linfit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0])

    def test_non_finite_or_overflowing_fit_refused_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf):
                with pytest.raises(ValidationError, match="finite") as exc:
                    weighted_linfit([1.0, bad, 3.0], [1.0, 2.0, 3.0], np.ones(3))
                assert not isinstance(exc.value, DegenerateInputError)
                with pytest.raises(ValidationError, match="finite"):
                    weighted_linfit([1.0, 2.0, 3.0], [1.0, bad, 3.0], np.ones(3))
            # a slope, an intercept and a chi-squared that each leave the float range
            for xs, ys in (([0.0, 1e-300, 2e-300], [-1e300, 0.0, 1e300]),
                           (np.array([1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51]) * 1e300,
                            [-1e300, 0.0, 1e300]),
                           ([1.0, 2.0, 3.0], [1e300, -1e300, 1e300])):
                with pytest.raises(NumericalError, match="leaves the float range"):
                    weighted_linfit(xs, ys, np.ones(3))

    # xs whose squares overflow, their sum too or cancelling: each result is the exact
    # solution, rounded
    @pytest.mark.parametrize("xs,intercept", [([1e200, 2e200, 3e200], 0.0),
                                              ([-1e200, 0.0, 1e200], 2.0)])
    def test_huge_xs_fit_without_warnings(self, xs, intercept):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_linfit(xs, [1.0, 2.0, 3.0], np.ones(3)) == (intercept, 1e-200, 0.0)

    # an offset far above the spread: uncentred sums would lose it
    @pytest.mark.parametrize("offset", [1e8, 1e9])
    def test_offset_xs_fit_exactly(self, offset):
        i = np.arange(40.0)
        fit = weighted_linfit(offset + i, 2.0 * i + 1.0, np.ones(40))
        assert fit == (1.0 - 2.0 * offset, 2.0, 0.0)

    @pytest.mark.parametrize("model", ["power_law", "kramers_exponential"])
    def test_table5_fit_within_two_ulps_of_exact(self, model):
        rows = read_sweep_csv(FIXTURES / "table5.csv")
        g, m, sd = (np.array([getattr(r, f) for r in rows])
                    for f in ("gamma", "tau_mean", "tau_std"))
        x = np.log(g) if model == "power_law" else g
        a, b, _ = weighted_linfit(x, np.log(m), (m / sd) ** 2)
        exact_a, exact_b, _ = exact_weighted_linfit(x, np.log(m), (m / sd) ** 2)
        assert ulps_off(a, exact_a) <= 2 and ulps_off(b, exact_b) <= 2

    def test_relative_error_weighted_power_law(self):
        g = np.array([p[0] for p in SWEEP_POINTS])
        m = np.array([p[1] for p in SWEEP_POINTS])
        s = np.array([p[2] for p in SWEEP_POINTS])
        a, b, chi2 = weighted_linfit(np.log(g), np.log(m), (m / s) ** 2)
        assert a == pytest.approx(9.11, abs=0.01)
        assert b == pytest.approx(-1.225, abs=0.005)
        assert chi2 == pytest.approx(1.52, abs=0.02)

    def test_relative_error_weighted_exponential(self):
        g = np.array([p[0] for p in SWEEP_POINTS])
        m = np.array([p[1] for p in SWEEP_POINTS])
        s = np.array([p[2] for p in SWEEP_POINTS])
        a, b, chi2 = weighted_linfit(g, np.log(m), (m / s) ** 2)
        assert a == pytest.approx(11.65, abs=0.02)
        assert b == pytest.approx(-2.631, abs=0.01)
        assert chi2 == pytest.approx(20.78, abs=0.1)

    def test_unit_weights_distinguish_convention(self):
        # unweighted OLS slope differs from the canonical weighted one
        g = np.array([p[0] for p in SWEEP_POINTS])
        m = np.array([p[1] for p in SWEEP_POINTS])
        _, b, _ = weighted_linfit(np.log(g), np.log(m), np.ones(6))
        assert b == pytest.approx(-1.228, abs=0.005)


class TestFitModel:
    def test_aic_is_chi2_plus_4(self):
        summary = fit_escape_models([GammaStats(g, m, s, 3, 0) for g, m, s in SWEEP_POINTS])
        rep = summary.power_law
        assert isinstance(rep, FitReport) and rep.model == "power_law"
        assert rep.aic == pytest.approx(rep.chi_squared + 4.0, abs=1e-12)

    def test_kramers_uses_linear_gamma(self):
        # data lying exactly on log tau = 9 - gamma; a zero tau_std gives unit weights
        g = np.array([0.1, 0.3, 0.5, 1.0])
        summary = fit_escape_models([GammaStats(gi, math.exp(9.0 - gi), 0.0, 3, 0) for gi in g])
        rep = summary.kramers
        assert summary.unit_weights_used and rep.model == "kramers_exponential"
        assert rep.chi_squared == pytest.approx(0.0, abs=1e-20)
        assert rep.intercept == pytest.approx(9.0)
        assert rep.slope == pytest.approx(-1.0)


def test_pearson_constant_rejected():
    with pytest.raises(DegenerateInputError):
        pearson([1.0, 1.0], [1.0, 2.0])
    # the mean of 335 copies is not this value, so centring leaves roundoff, not zeros
    with pytest.raises(DegenerateInputError):
        pearson(np.arange(335.0), [-0.30397986632059304] * 335)


@pytest.mark.parametrize("scale", [1e300, 1e-200])
def test_pearson_is_scale_free(scale):
    # at 1e300 the sums overflowed (0.0, and nan for x with x); at 1e-200 they
    # underflowed and the sequence read as constant
    xs = [scale, 2.0 * scale, 3.0 * scale]
    assert pearson(xs, [1.0, 2.0, 4.0]) == pytest.approx(0.9819805060619657, rel=1e-15)
    assert pearson(xs, xs) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("fn", [pearson, spearman])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected_as_invalid_not_degenerate(fn, bad):
    # a NaN once ranked as the largest value (spearman 0.4) and pearson read nan with a warning
    for xs, ys in (([1.0, bad, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
                   ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 4.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite") as exc:
                fn(xs, ys)
        assert not isinstance(exc.value, DegenerateInputError)
