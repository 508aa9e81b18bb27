"""Test-side oracles: reference computations that only the tests call."""

import configparser
import io
import math

import numpy as np


def counts_within_multinomial_band(dataset, n_sigma=3.0):
    """True when every component count is within n_sigma of n/C (equal weights)."""
    n = len(dataset.labels)
    c = dataset.n_components
    expect = n / c
    sigma = math.sqrt(n * (1.0 / c) * (1.0 - 1.0 / c))
    return bool(np.all(np.abs(dataset.component_counts() - expect) <= n_sigma * sigma))


def effective_potential(config, tilt, eps):
    """V_eff(eps) = -(1/2) mu eps^2 + (1/4) alpha eps^4 + gamma U(eps)."""
    e = np.asarray(eps, dtype=float)
    v = -0.5 * config.growth_rate * e**2 + 0.25 * config.alpha * e**4
    if tilt is not None and config.coupling != 0.0:
        v = v + config.coupling * tilt.U(e)
    return v


def measured_theta_sq(run):
    """Ensemble mean squared angle between initial and final directions."""
    keep = [i for i in range(run.final_state.shape[0]) if i not in run.zero_final_modes]
    cos = np.einsum("kd,kd->k", run.initial_directions[keep], run.final_directions[keep])
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
