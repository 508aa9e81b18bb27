"""Scale equivariance of the probe and of the statistics that read it.

The probe's responsibilities depend on the data only through beta ||z - mu||^2,
so under z -> 2^k z, mu -> 2^k mu, beta -> 4^-k beta (and the mean learning rate
-> 4^k lr) every quantity maps onto itself (deterministic annealing; Rose,
Proc. IEEE 86, 1998). Powers of two scale floats exactly, so where the code
adds no scale of its own the map is bit for bit. These tests hold that over
|k| <= 300, and state a bound wherever a step rounds at the new scale.
"""

import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bifurc.experiments import TrajectoryLog
from bifurc.gmm_probe import (
    ProbeConfig,
    _equilibrium,
    _mean_step,
    _Workspace,
    critical_spectrum,
    probe_step,
    split_direction,
)
from bifurc.mathcore import covariance, weighted_linfit
from bifurc.taxonomy import REGIMES, classify
from oracles import THRESHOLDS, exact_weighted_linfit, make_regime_log

EPS = np.finfo(float).eps
POWERS = st.integers(-300, 300)
BETA, LR, LR_LOGBETA, K = 0.8, 0.05, 0.01, 3


def batch(seed):
    """(z, mu): an anisotropic, off-centre 60 x 3 batch and K means near its centre."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((60, 3)) * [2.0, 1.0, 0.5] + rng.standard_normal(3)
    return z, z.mean(axis=0) + 0.3 * rng.standard_normal((K, 3))


@settings(max_examples=60, deadline=None)
@given(k=POWERS, seed=st.integers(0, 2**16))
def test_mean_step_and_equilibrium_scale_bit_for_bit(k, seed):
    z, mu = batch(seed)
    s = 2.0**k
    stepped = _mean_step(_Workspace(K, z), mu, BETA, LR)[0]
    scaled = _mean_step(_Workspace(K, s * z), s * mu, BETA / 4.0**k, LR * 4.0**k)[0]
    np.testing.assert_array_equal(scaled, s * stepped)
    solved, iterations, residual = _equilibrium(_Workspace(K, z), mu, BETA, 1e-9, 30)
    got = _equilibrium(_Workspace(K, s * z), s * mu, BETA / 4.0**k, 1e-9 * s, 30)
    np.testing.assert_array_equal(got[0], s * solved)
    assert got[1:] == (iterations, s * residual)


@settings(max_examples=80, deadline=None)
@given(k=POWERS, seed=st.integers(0, 2**16))
def test_split_direction_is_exact_until_lapack_rescales(k, seed):
    mu = batch(seed)[1]
    c = mu - mu.mean(axis=0)
    # LAPACK rescales a symmetric matrix by a factor that is not a power of two once
    # its largest entry leaves about [2^-406, 2^486] (measured with numpy 2.4 and OpenBLAS)
    magnitude = 2 * k + math.log2(np.abs(c.T @ c / K).max())
    base, scaled = split_direction(mu), split_direction(2.0**k * mu)
    if -402 < magnitude < 482:
        np.testing.assert_array_equal(scaled, base)
    else:  # unit vectors: at most 3.5 ulps of 1 were measured
        assert np.abs(scaled - base).max() <= 8 * EPS


@settings(max_examples=60, deadline=None)
@given(k=POWERS, seed=st.integers(0, 2**16))
def test_probe_step_and_critical_precision_within_rounding_of_log_beta(k, seed):
    # exp(log beta - 2k ln 2) is not beta 4^-k, so only the rounding of the shifted
    # log beta moves the step: measured, 3.8 ulps of the means and 1.6 ulps of log beta
    z, mu = batch(seed)
    s, shift = 2.0**k, 2 * k * math.log(2.0)
    means, _, reading = probe_step(mu, math.log(BETA), z, ProbeConfig(LR, LR_LOGBETA))
    log_beta = math.log(BETA) - shift
    got, _, got_reading = probe_step(s * mu, log_beta, s * z, ProbeConfig(LR * 4.0**k,
                                                                          LR_LOGBETA))
    step = np.abs(means - mu).max()
    bound = 4 * EPS * (np.abs(means).max() + (1 + abs(log_beta)) * step)
    assert np.abs(got / s - means).max() <= bound
    scale = 1 + abs(log_beta) + abs(got_reading.log_beta_c)
    assert abs(got_reading.log_ratio - reading.log_ratio) <= 4 * EPS * scale
    # log beta_c = -log lambda_max shifts by -2k ln 2: measured within 1 ulp
    log_bc = -math.log(critical_spectrum(covariance(z))[0])
    got_bc = -math.log(critical_spectrum(covariance(s * z))[0])
    assert abs(got_bc - (log_bc - shift)) <= 2 * EPS * max(1.0, abs(log_bc) + abs(shift))


@settings(max_examples=60, deadline=None)
@given(k=POWERS, regime=st.sampled_from(REGIMES), seed=st.integers(0, 50))
def test_classify_reads_the_same_shape_at_every_scale(k, regime, seed):
    # pearson scales by powers of two itself, so the whole result is bit-identical
    log = make_regime_log(regime, seed=seed)
    s = 2.0**k
    scaled = TrajectoryLog(log.experiment_id, log.seed)
    for r in log.readings:
        scaled.record(r.step, s * r.log_beta, s * r.log_beta_c, r.nc1, r.order_parameter)
    thresholds = replace(THRESHOLDS, fold_return=s * THRESHOLDS.fold_return)
    assert asdict(classify(scaled, None, thresholds)) == asdict(classify(log, None, THRESHOLDS))


@settings(max_examples=100, deadline=None)
@given(
    j=POWERS, k=POWERS,
    shift_x=st.integers(-2**30, 2**30), shift_y=st.integers(-2**30, 2**30),
    points=st.lists(st.tuples(st.integers(-50, 50), st.integers(-1000, 1000),
                              st.floats(0.1, 10.0)), min_size=3, max_size=12),
)
def test_weighted_linfit_maps_onto_the_mapped_line(j, k, shift_x, shift_y, points):
    # x -> 2^j (x + C) and y -> 2^k (y + D) are exact on these grids. The fit of the
    # mapped points must stay within 1e-13 of the exact line mapped, on the scales the
    # data set: the slope scale sigma = std(y) / std(x), and the weighted means
    x, y, w = (np.array(v, dtype=float) for v in zip(*points))
    y /= 16.0
    assume(x.min() < x.max() and y.min() < y.max())
    a, b, chi2 = weighted_linfit(2.0**j * (x + shift_x), 2.0**k * (y + shift_y), w)
    exact_a, exact_b, exact_chi2 = exact_weighted_linfit(x, y, w)
    ws = [Fraction(v) for v in w]
    x_bar, y_bar = (sum(wi * Fraction(v) for wi, v in zip(ws, seq)) / sum(ws) for seq in (x, y))
    syy = sum(wi * (Fraction(v) - y_bar) ** 2 for wi, v in zip(ws, y))
    sxx = sum(wi * (Fraction(v) - x_bar) ** 2 for wi, v in zip(ws, x))
    sigma = math.sqrt(syy / sxx) * 2.0 ** (k - j)
    # y = a + b x maps to y' = 2^k (a + D - b C) + 2^(k - j) b x'
    mapped_a = Fraction(2) ** k * (exact_a + shift_y - exact_b * shift_x)
    assert abs(b - float(exact_b * Fraction(2) ** (k - j))) <= 1e-13 * sigma
    x_scale, y_scale = (abs(float(Fraction(2) ** e * (m + c)))
                        for e, m, c in ((j, x_bar, shift_x), (k, y_bar, shift_y)))
    assert abs(a - float(mapped_a)) <= 1e-13 * (y_scale + sigma * x_scale)
    assert abs(chi2 - float(exact_chi2 * Fraction(4) ** k)) <= 1e-13 * float(syy) * 4.0**k
