"""Test-side oracles: reference computations that only the tests call."""

import configparser
import io
import math

import numpy as np

from bifurc.cli import _OVERLAYS, _sde_config, _toy_logs
from bifurc.config import build_config
from bifurc.errors import ValidationError
from bifurc.escape_lab import fit_escape_models, sweep_statistics
from bifurc.experiments import TrajectoryLog
from bifurc.gmm_probe import _check_batch, _precision, _shifted_weights, _Workspace
from bifurc.sde import persistence_stats
from bifurc.taxonomy import DELAYED_ESCAPE, FOLD_BACK, FULL_V, REGIMES, classify


def command_config(command, sub=None, **sections):
    """The table `bifurc command sub` runs at with no file or environment,
    with the given {key: value} sections laid over it."""
    return build_config(overlay=_OVERLAYS.get((command, sub)), environ={}, flags=sections)


def toy_logs(sub, seed, **sections):
    """The trajectory logs of `bifurc toy sub --seed seed`, by CSV suffix."""
    return _toy_logs(sub, command_config("toy", sub, **sections), seed)


# the `escape sweep` table, its scalar cell and the [escape] values the tests read from it
SWEEP = command_config("escape", "sweep")
SWEEP_CELL = _sde_config(SWEEP, SWEEP.seeds()[0])
DEFAULT_GAMMAS = tuple(SWEEP.get_float_list("escape", "gammas"))
DEFAULT_THRESHOLD = SWEEP.get_float("escape", "threshold")
DEFAULT_HORIZON = SWEEP.get_int("escape", "horizon")


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


def nll(state, samples):
    """Full per-sample-mean negative log-likelihood (see the gmm_probe module docstring)."""
    z = _check_batch(state, samples)
    return _nll(_Workspace(state.K, z), state.means, state.log_precision)


def responsibilities(state, samples):
    """Posterior component weights p(k|z): an N x K row-stochastic matrix."""
    z = _check_batch(state, samples)
    ws = _Workspace(state.K, z)
    e, _, total = _shifted_weights(ws, state.means - ws.c, _precision(state.log_precision))
    e /= total
    return e.T


def flat_spectrum(cs):
    """All K*d eigenvalues of the assembled Hessian, sorted descending.

    beta/K appears with multiplicity d (the symmetric channel) and each
    lambda_perp_i with multiplicity K-1.
    """
    vals = [cs.symmetric_eigenvalue] * (len(cs.antisymmetric_eigenvalues))
    for lam, _, mult in cs.antisymmetric_eigenvalues:
        vals.extend([lam] * mult)
    return np.sort(np.asarray(vals))[::-1]


def effective_potential(config, curvature, eps):
    """V_eff(eps) = -(1/2) mu eps^2 + (1/4) alpha eps^4 + gamma U(eps), U = -(1/2) c eps^2."""
    e = np.asarray(eps, dtype=float)
    u = -0.5 * curvature * e**2
    return -0.5 * config.growth_rate * e**2 + 0.25 * config.alpha * e**4 + config.coupling * u


def escape_sweep(gammas, seeds_per_gamma, config, curvature, threshold, horizon=DEFAULT_HORIZON):
    """Serial sweep_statistics -> fit_escape_models, the chain `escape sweep`
    runs through its process pool."""
    return fit_escape_models(sweep_statistics(
        gammas, seeds_per_gamma, config, curvature, threshold, horizon, map))


def measured_theta_sq(run):
    """Ensemble mean squared angle between initial and final directions."""
    cos = persistence_stats(run).cosines
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


def recovery_rate(regime, n_trials=200, seed0=0, thresholds=None, **kwargs):
    """Fraction of seeded synthetic logs of a regime the classifier recovers."""
    hits = 0
    for s in range(seed0, seed0 + n_trials):
        log = make_regime_log(regime, seed=s, **kwargs)
        if classify(log, thresholds=thresholds).label == regime:
            hits += 1
    return hits / n_trials
