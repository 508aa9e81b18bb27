"""Test-side oracles: reference computations that only the tests call."""

import configparser
import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from bifurc.cli import (
    _OVERLAYS,
    _escape_sweep,
    _section,
    _toy_data,
    _toy_dataset,
    _toy_logs,
    _toy_protocol,
)
from bifurc.config import RunConfig, build_config
from bifurc.errors import DegenerateInputError, NumericalError, ValidationError
from bifurc.escape_lab import fit_escape_models, sweep_statistics
from bifurc.experiments import TrajectoryLog
from bifurc.gmm_probe import (
    ProbeConfig,
    _precision,
    _shifted_weights,
    _Workspace,
)
from bifurc.mathcore import pearson, weighted_linfit
from bifurc.sde import SdeConfig, _decimation, persistence_stats
from bifurc.taxonomy import (
    DELAYED_ESCAPE,
    FOLD_BACK,
    FULL_V,
    NO_ARC,
    REGIMES,
    ClassifierThresholds,
    _channels,
    _descent_onset,
    _plateau_fraction,
    classify,
)


def command_config(command, sub=None, preset=None, **sections):
    """The table `bifurc command sub [--preset preset]` runs at with no file or
    environment, with the given {key: value} sections laid over it."""
    return build_config(overlay=_OVERLAYS.get((command, sub)), preset=preset, environ={},
                        flags=sections)


def toy_logs(sub, seed, **sections):
    """The trajectory logs of `bifurc toy sub --seed seed`, by leg: "" alone, or
    "forward" and "reverse"."""
    cfg = command_config("toy", sub, **sections)
    return _toy_logs(sub, _toy_data(sub, cfg), _toy_protocol(sub, cfg), seed)


def toy_dataset(sub, n, seed=0, **data):
    """The dataset of `bifurc toy sub --seed seed` at [data] n = n and the given [data] values."""
    return _toy_dataset(_toy_data(sub, command_config("toy", sub, data={"n": n, **data})), seed)


# the records at the built-in table's values: tests replace the fields they change
TABLE = RunConfig()
PROBE = _section(TABLE, ProbeConfig, "probe")
LOG_BETA_INIT = TABLE.get_float("probe", "log_beta_init")
THRESHOLDS = _section(TABLE, ClassifierThresholds, "taxonomy")
SDE = _section(TABLE, SdeConfig, "sde", seed=0)

# the `escape sweep` table, its scalar cell and the [escape] values the tests read from it
SWEEP = command_config("escape", "sweep")
SWEEP_CELL = _escape_sweep(SWEEP).keywords["config"]
DEFAULT_GAMMAS = tuple(SWEEP.get_float_list("escape", "gammas"))
DEFAULT_THRESHOLD = SWEEP.get_float("escape", "threshold")


def counts_within_multinomial_band(dataset, n_sigma=3.0):
    """True when every component count is within n_sigma of n/C (equal weights)."""
    n = len(dataset.labels)
    c = dataset.n_components
    expect = n / c
    sigma = math.sqrt(n * (1.0 / c) * (1.0 - 1.0 / c))
    counts = np.bincount(dataset.labels, minlength=c)
    return bool(np.all(np.abs(counts - expect) <= n_sigma * sigma))


def _nll(ws, mu, log_beta):
    """The mean NLL of the workspace's batch under means mu and log beta."""
    k, d = mu.shape
    beta = _precision(log_beta)
    _, shift, total = _shifted_weights(ws, mu - ws.c, beta)
    lse = shift + np.log(total)
    return float(
        -lse.mean()
        + 0.5 * beta * ws.ss / ws.za.shape[1]
        + math.log(k)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * d * log_beta
    )


def exact_collapsed(samples, K):
    """The K x d means all exactly at the sample mean (the symmetric state S0)."""
    z = np.asarray(samples, dtype=float)
    return np.tile(z.mean(axis=0), (K, 1))


def nll(means, log_beta, samples):
    """Full per-sample-mean negative log-likelihood (see the gmm_probe module docstring)."""
    mu = np.asarray(means, dtype=float)
    return _nll(_Workspace(len(mu), np.asarray(samples, dtype=float)), mu, log_beta)


def responsibilities(means, log_beta, samples):
    """Posterior component weights p(k|z): an N x K row-stochastic matrix."""
    mu = np.asarray(means, dtype=float)
    ws = _Workspace(len(mu), np.asarray(samples, dtype=float))
    e, _, total = _shifted_weights(ws, mu - ws.c, _precision(log_beta))
    e /= total
    return e.T


def flat_spectrum(cs, K):
    """All K*d eigenvalues of the assembled Hessian, sorted descending.

    beta/K appears with multiplicity d (the symmetric channel) and each
    lambda_perp_i with multiplicity K-1.
    """
    vals = [cs.symmetric_eigenvalue] * len(cs.antisymmetric_eigenvalues)
    vals += cs.antisymmetric_eigenvalues * (K - 1)
    return np.sort(np.asarray(vals))[::-1]


def effective_potential(config, eps):
    """V_eff(eps) = -(1/2) mu eps^2 + (1/4) alpha eps^4 + gamma U(eps), U = -(1/2) eps^2,
    with gamma the config's coupling."""
    e = np.asarray(eps, dtype=float)
    u = -0.5 * e**2
    return -0.5 * config.growth_rate * e**2 + 0.25 * config.alpha * e**4 + config.coupling * u


def escape_time_closed_form(mu_eff, alpha, eps0, theta):
    """The continuous-time passage from eps0 to theta at linear rate mu_eff: eps^2
    follows a logistic curve, so it takes ln[(theta/eps0)^2 (mu_eff - alpha eps0^2)
    / (mu_eff - alpha theta^2)] / (2 mu_eff)."""
    num = theta**2 * (mu_eff - alpha * eps0**2)
    den = eps0**2 * (mu_eff - alpha * theta**2)
    return math.log(num / den) / (2 * mu_eff)


def exact_weighted_linfit(xs, ys, weights):
    """(intercept, slope, chi_squared) of the weighted least-squares line through the
    float inputs, as Fractions: the exact solution that weighted_linfit rounds."""
    x, y, w = ([Fraction(float(v)) for v in seq] for seq in (xs, ys, weights))
    s = sum(w)
    xm = sum(wi * xi for wi, xi in zip(w, x)) / s
    ym = sum(wi * yi for wi, yi in zip(w, y)) / s
    slope = (sum(wi * (xi - xm) * (yi - ym) for wi, xi, yi in zip(w, x, y))
             / sum(wi * (xi - xm) ** 2 for wi, xi in zip(w, x)))
    intercept = ym - slope * xm
    return intercept, slope, sum(wi * (yi - intercept - slope * xi) ** 2
                                 for wi, xi, yi in zip(w, x, y))


def ulps_off(value, exact):
    """|value - exact| in units of the spacing of floats at exact."""
    return float(abs(Fraction(value) - exact) / Fraction(np.spacing(abs(float(exact)))))


def predicted_escape_step(config, threshold):
    """The noise-free first-passage step from init_scale to threshold, or None
    when r = mu + gamma, gamma the config's coupling, is at most alpha threshold^2
    (no passage): the continuous-time passage in units of the map's growth per
    step, log1p(dt r)."""
    r = config.growth_rate + config.coupling
    if r <= config.alpha * threshold**2:
        return None
    t = escape_time_closed_form(r, config.alpha, config.init_scale, threshold)
    return t * r / math.log1p(config.dt * r)


def tilted_cell(config, gamma):
    """The escape cell of level gamma, as sweep_statistics builds it: config at
    growth rate mu + gamma."""
    return replace(config, growth_rate=config.growth_rate + gamma)


def escape_sweep(gammas, seeds_per_gamma, config, threshold):
    """(stats, summary): serial sweep_statistics -> fit_escape_models, the chain
    `escape sweep` runs through its process pool."""
    stats = sweep_statistics(gammas, seeds_per_gamma, config, threshold, map)
    return stats, fit_escape_models(stats)


# Reference coupled-mode stepper: the K x K Gram matrix on every step, and every
# decimated state recorded. The package's stepper keeps only the start and end
# states and takes the smaller Gram matrix, so it must match this one's start and
# reference direction exactly and its end state to roundoff.


def _record(times, samples, step, dt, state):
    if not np.isfinite(state).all():
        raise NumericalError(f"coupled-mode state is not finite by step {step}")
    times.append(step * dt)
    samples.append(state.copy())


def simulate_coupled_modes(config):
    """K modes in R^d with cubic self-saturation and inter-mode coupling.

    Initial condition: every entry of the K x d mode matrix i.i.d.
    N(0, init_scale^2). Coupling uses the Gram matrix G = E E^T:
    the j != k sum equals G E - ||eps_k||^2 eps_k row-wise. Returns (times,
    samples, reference): the decimated times, the (n_rec, K, d) recorded states
    and the unit reference direction.
    """
    if config.dim < 2 and config.modes > 1:
        raise ValidationError("coupled modes require dim >= 2")
    rng = np.random.default_rng(config.seed)
    k, d = config.modes, config.dim
    mu, al, ga, d_noise, dt = (
        config.growth_rate,
        config.alpha,
        config.coupling,
        config.noise_intensity,
        config.dt,
    )
    e = config.init_scale * rng.standard_normal((k, d))
    ref = rng.standard_normal(d)
    ref /= np.linalg.norm(ref)
    amp = math.sqrt(2.0 * d_noise * dt)
    dec = _decimation(config.steps)
    times, samples = [], []
    _record(times, samples, 0, dt, e)
    for n in range(1, config.steps + 1):
        nr2 = np.einsum("kd,kd->k", e, e)
        drift = mu * e - al * nr2[:, None] * e
        if ga != 0.0 and k > 1:
            gram = e @ e.T
            drift -= ga * (gram @ e - nr2[:, None] * e)
        e = e + dt * drift
        if amp > 0.0:
            e += amp * rng.standard_normal((k, d))
        if n % dec == 0 or n == config.steps:
            _record(times, samples, n, dt, e)
    return np.asarray(times), np.asarray(samples), ref


def measured_theta_sq(start, end, reference):
    """Ensemble mean squared angle between initial and final directions, over the
    modes whose final row is not zero."""
    cos = persistence_stats(start, end, reference)[0]
    cos = cos[~np.isnan(cos)]
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    return float(np.mean(ang * ang))


def mean_abs_pair_overlap(directions):
    """Mean |d_j . d_k| over unordered mode pairs (self-orthogonalization probe)."""
    d = np.asarray(directions)
    g = np.abs(d @ d.T)
    k = g.shape[0]
    iu = np.triu_indices(k, 1)
    return float(g[iu].mean())


def dump_config(cfg):
    """Render the effective table as INI text (diff- and log-friendly)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in sorted(cfg.sections):
        parser[section] = dict(sorted(cfg.sections[section].items()))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def encoder_gd_step(enc, x):
    """(encode, decode) after one GD step of a ToyEncoderState on the MSE over x's rows.

    The reference x-space form: five N x d passes over the data.
    """
    n = x.shape[0]
    z = x @ enc.encode.T
    err = z @ enc.decode.T - x
    g_dec = (2.0 / n) * err.T @ z
    g_enc = (2.0 / n) * (err @ enc.decode).T @ x
    return enc.encode - enc.learning_rate * g_enc, enc.decode - enc.learning_rate * g_dec


def max_shift_kernel(z, mu, beta):
    """The probe kernel's textbook reference at fixed beta: (p, lse, pull).

    p is the N x K softmax of the logits -(beta/2)||z_n - mu_k||^2, shifted by
    each sample's largest logit; lse is each sample's log-sum-exp of them;
    pull is the K x d sum_n p_nk (z_n - mu_k).
    """
    diff = z[:, None, :] - mu[None, :, :]
    a = -0.5 * beta * (diff * diff).sum(axis=-1)
    amax = a.max(axis=1, keepdims=True)
    w = np.exp(a - amax)
    total = w.sum(axis=1, keepdims=True)
    p = w / total
    return p, amax[:, 0] + np.log(total[:, 0]), np.einsum("nk,nkd->kd", p, diff)


# ---------------------------------------------------------------------------
# regime-kinematics generators (the classifier's recovery tests and exemplars)


def _front_loaded(u, sharpness=8.0):
    """Concave 0->1 ramp: steep at first, flattening out (u in [0,1])."""
    return (1.0 - np.exp(-sharpness * u)) / (1.0 - math.exp(-sharpness))


def _assemble(regime, seed, steps, ratio, lnc1):
    log = TrajectoryLog(f"synthetic-{regime}", seed)
    for s, r, v in zip(steps, ratio, lnc1):
        op = 1e-4 * math.exp(2.0 * max(0.0, r))
        log.record(int(s), float(r), 0.0, float(10.0 ** v), op)
    return log


def make_regime_log(
    regime,
    seed,
    n_readings=150,
    horizon=3000.0,
    ratio_noise=0.03,
    nc1_noise=0.04,
    nc1_trend=0.0,
):
    """Synthesize a TrajectoryLog from one regime's defining kinematics.

    Shape parameters (depths, peak positions, collapse sizes) are drawn per
    seed from documented uniform ranges; both channels get white Gaussian
    noise. nc1_trend adds a linear drift (decades over the horizon) to the
    NoArc NC1 channel only — it shifts the control's correlation without
    introducing arc kinematics.
    """
    if regime not in REGIMES:
        raise ValidationError(f"regime must be one of {REGIMES}")
    if n_readings < 20:
        raise ValidationError("need >= 20 readings")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_readings)
    step_size = max(1, int(round(horizon / n_readings)))
    steps = np.arange(n_readings) * step_size

    if regime == FULL_V:
        depth = rng.uniform(1.0, 2.0)
        top = rng.uniform(0.5, 1.5)
        ratio = -depth + (depth + top) * t
        t_cross = depth / (depth + top)
        t_peak = min(0.95, t_cross + rng.uniform(0.0, 0.03))
        v0 = rng.uniform(0.5, 1.0)
        rise = rng.uniform(0.1, 0.3)
        drop = rng.uniform(2.5, 4.0)
        u = np.clip((t - t_peak) / (1.0 - t_peak), 0.0, 1.0)
        lnc1 = np.where(
            t <= t_peak,
            v0 + rise * t / t_peak,
            v0 + rise - drop * (0.45 * u + 0.55 * _front_loaded(u)),
        )
    elif regime == FOLD_BACK:
        # brief overshoot past the crossing, then the ratio retraces for the
        # rest of the run while NC1 keeps collapsing all the way to the end
        start = -rng.uniform(0.4, 0.8)
        peak = rng.uniform(0.8, 1.5)
        t_peak = rng.uniform(0.06, 0.12)
        fold = rng.uniform(2.0, 3.5)
        ratio = np.where(
            t <= t_peak,
            start + (peak - start) * t / t_peak,
            peak - fold * (t - t_peak) / (1.0 - t_peak),
        )
        t_cross = t_peak * (-start) / (peak - start)
        v0 = rng.uniform(0.5, 1.0)
        drop = rng.uniform(2.5, 4.0)
        t_on = min(0.9, t_cross + rng.uniform(0.0, 0.02))
        # mixed collapse shape: the front-loaded part clears the plateau gate
        # quickly, the linear part keeps the channels co-moving over the fold
        u = np.clip((t - t_on) / (1.0 - t_on), 0.0, 1.0)
        lnc1 = v0 - drop * (0.6 * u + 0.4 * _front_loaded(u))
    elif regime == DELAYED_ESCAPE:
        start = -rng.uniform(0.02, 0.1)
        rise = rng.uniform(0.8, 1.5)
        ratio = start + rise * t
        v0 = rng.uniform(0.5, 1.0)
        drop = rng.uniform(2.0, 3.0)
        t_on = rng.uniform(0.3, 0.6)
        lnc1 = np.where(
            t <= t_on, v0, v0 - drop * _front_loaded((t - t_on) / (1.0 - t_on))
        )
    else:  # NO_ARC
        ratio = -0.5 + 1.2 * t
        v0 = rng.uniform(0.5, 1.0)
        freq = rng.uniform(2.0, 4.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        lnc1 = v0 + 0.25 * np.sin(2.0 * math.pi * freq * t + phase) + nc1_trend * t

    ratio = ratio + ratio_noise * rng.standard_normal(n_readings)
    lnc1 = lnc1 + nc1_noise * rng.standard_normal(n_readings)
    return _assemble(regime, seed, steps, ratio, lnc1)


def recovery_rate(regime, n_trials=200, seed0=0, thresholds=THRESHOLDS, **kwargs):
    """Fraction of seeded synthetic logs of a regime the classifier recovers."""
    hits = 0
    for s in range(seed0, seed0 + n_trials):
        log = make_regime_log(regime, seed=s, **kwargs)
        if classify(log, None, thresholds).label == regime:
            hits += 1
    return hits / n_trials


# ---------------------------------------------------------------------------
# the classifier's two-pass reference: shape and axes read in separate passes


def _reference_shape(log, horizon, thresholds):
    steps, ratio, lnc1 = _channels(log, thresholds, horizon)
    try:
        decoupling = pearson(ratio, lnc1)
    except DegenerateInputError:
        decoupling = 0.0
    record = dict(descent_corr=decoupling, descent_sign=1 if decoupling >= 0 else -1,
                  plateau_fraction=0.0, decoupling_corr=decoupling, indeterminate=False)
    if abs(decoupling) < thresholds.decoupling_abs_corr:
        return dict(record, label=NO_ARC)
    crossing_hits = np.nonzero(ratio >= 0.0)[0]
    onset_idx, sm = _descent_onset(lnc1, thresholds)
    if len(crossing_hits) == 0 or onset_idx is None:  # no crossing, or no descent after it
        return dict(record, label=FULL_V if decoupling < 0 else FOLD_BACK, indeterminate=True)
    plateau = _plateau_fraction(steps, onset_idx, int(crossing_hits[0]), horizon)
    if plateau >= thresholds.plateau_fraction:
        return dict(record, label=DELAYED_ESCAPE, plateau_fraction=plateau)
    if float(ratio.max() - ratio[-1]) >= thresholds.fold_return:
        start = int(np.argmax(ratio))
    else:
        start = int(np.argmax(sm)) + (thresholds.smooth_window - 1) // 2
    start = max(0, min(start, len(ratio) - 3))
    leg_r, leg_n = ratio[start:], lnc1[start:]
    try:
        descent_corr = pearson(leg_r, leg_n)
    except DegenerateInputError:
        descent_corr = 0.0
    try:
        _, slope, _ = weighted_linfit(leg_r, leg_n, np.ones(len(leg_r)))
    except DegenerateInputError:  # a flat leg has no slope
        slope = 0.0
    sign = 1 if (slope > 0 or (slope == 0 and descent_corr >= 0)) else -1
    return dict(label=FOLD_BACK if sign > 0 else FULL_V, descent_corr=descent_corr,
                descent_sign=sign, plateau_fraction=plateau, decoupling_corr=decoupling,
                indeterminate=False)


def _reference_axes(log, horizon, thresholds):
    steps, ratio, lnc1 = _channels(log, thresholds, horizon)
    onset_idx, _ = _descent_onset(lnc1, thresholds)
    crossing_hits = np.nonzero(ratio >= 0.0)[0]
    post = onset_idx
    if post is None:
        post = int(crossing_hits[0]) if len(crossing_hits) else 0
    diffs = np.diff(ratio[post:])
    crossing_idx = int(crossing_hits[0]) if len(crossing_hits) else None
    plateau = _plateau_fraction(steps, onset_idx, crossing_idx, horizon)
    return {
        "initial_criticality": "sub" if ratio[0] < 0.0 else "super",
        "rate_ordering": ("beta_leads" if int((diffs > 0).sum()) >= int((diffs < 0).sum())
                          else "beta_c_leads"),
        "dissipation_regime": "low" if plateau >= thresholds.plateau_fraction else "normal",
    }


def reference_classification(log, horizon, thresholds):
    """The shape, its evidence and the three axes, each computed in its own
    pass over the trajectory, as a dict keyed like classify's fields."""
    return dict(_reference_shape(log, horizon, thresholds),
                axes=_reference_axes(log, horizon, thresholds))
