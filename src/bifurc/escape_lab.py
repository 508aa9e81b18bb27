"""Escape-time measurement, dissipation sweeps, and model comparison.

The metastable scenario: after the pitchfork crossing the order parameter
sits microscopically close to the (now unstable) symmetric state; an extra
drift -gamma U'(eps) from upstream dissipation tilts the effective potential

    V_eff(eps) = -(1/2) mu eps^2 + (1/4) alpha eps^4 + gamma U(eps)

and controls how long the escape to the broken-symmetry branch takes. This
module measures first-passage times over gamma sweeps with censoring at a
horizon, and compares two functional forms for tau(gamma):

    power_law            log tau = a + b log gamma
    kramers_exponential  log tau = a + b gamma

by weighted least squares in log tau with relative-error weights
(mean/std)^2, AIC = chi^2 + 2k. Censored levels are reported but never
fitted. Escape times are in integrator steps.

The tilt is the quadratic well U(eps) = -(1/2) c eps^2 of curvature c
([escape] tilt_curvature, default 1): a rate term, not a third system. The
drift gains +gamma c eps, so each cell is the scalar pitchfork at effective
linear rate mu + gamma c, run by sde's one scalar stepper.

A sweep's cells share one scalar SdeConfig. This module reads no
configuration table: `escape sweep` builds that config from [sde] under
its own overlay, and the sweep's gammas, seeds, threshold, horizon and
curvature from [escape].
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .csvio import read_table, write_table
from .errors import ConfigError, NoFitError, ValidationError
from .mathcore import FitReport, fit_model
from .sde import STABILITY_LIMIT, _langevin

@dataclass
class GammaStats:
    """Escape statistics of one gamma level over its seeds; the mean and
    standard deviation are over the escaped seeds (None when all censor)."""

    gamma: float
    tau_mean: Optional[float]
    tau_std: Optional[float]
    n_seeds: int
    n_censored: int


@dataclass
class SweepSummary:
    """Per-gamma statistics plus both model fits (when fittable)."""

    per_gamma: List[GammaStats]
    power_law: Optional[FitReport]
    kramers: Optional[FitReport]
    delta_aic: Optional[float]
    unit_weights_used: bool = False


def measure_escape(config, curvature, threshold, horizon):
    """First step at which |eps| >= threshold, or None (censored at the horizon).

    The drift gains the tilt force gamma c eps, gamma = config.coupling and
    c = curvature. Starts at exactly config.init_scale. The threshold must
    lie strictly between init_scale and the saturation amplitude eps*. Noise
    uses the config seed; with noise_intensity 0 the path is deterministic
    and no random numbers are drawn.
    """
    if config.modes != 1 or config.dim != 1:
        raise ConfigError("measure_escape runs the scalar dynamics (modes = dim = 1)")
    if config.growth_rate > 0:
        eps_star = config.epsilon_star
        if not (config.init_scale < threshold < eps_star):
            raise ConfigError(
                f"threshold {threshold} outside (init_scale, eps*) = "
                f"({config.init_scale}, {eps_star})"
            )
    elif threshold <= config.init_scale:
        raise ConfigError("threshold must exceed init_scale")
    n, eps, _ = _langevin(config, config.init_scale, horizon, np.random.default_rng(config.seed),
                          threshold, curvature=curvature)
    return n if abs(eps) >= threshold else None


def _measure_cell(job):
    return measure_escape(*job)


def sweep_statistics(gammas, seeds_per_gamma, config, curvature, threshold, horizon, mapper):
    """Per-gamma escape statistics (GammaStats), ascending in gamma, no fitting.

    Each distinct gamma is a level of seeds_per_gamma cells, cell s at seed
    config.seed + 1000 s. curvature is the tilt's c, 0 < c < inf, and every
    level's cell rate must keep dt |mu + gamma c| within STABILITY_LIMIT.
    mapper(fn, jobs) maps the measurement over a list of jobs (map, or a
    process pool's). A noise-free cell does not depend on its seed, so each
    level measures one cell and counts it for all its seeds.
    """
    if not 0 < curvature < math.inf:
        raise ValidationError(f"tilt_curvature must satisfy 0 < c < inf, got {curvature}")
    if seeds_per_gamma < 1:
        raise ValidationError("seeds_per_gamma must be >= 1")
    levels = [replace(config, coupling=float(g)) for g in sorted(set(gammas))]
    for level in levels:
        rate = config.dt * abs(config.growth_rate + level.coupling * curvature)
        if not rate <= STABILITY_LIMIT:
            raise ValidationError(
                f"stability guard violated at gamma = {level.coupling}: dt*|mu + gamma*"
                f"tilt_curvature| = {rate:.3g} > {STABILITY_LIMIT}"
            )
    measured = 1 if config.noise_intensity == 0 else seeds_per_gamma
    jobs = [
        (replace(level, seed=config.seed + 1000 * s), curvature, threshold, horizon)
        for level in levels
        for s in range(measured)
    ]
    taus = iter(mapper(_measure_cell, jobs))
    stats = []
    for level in levels:
        cells = [next(taus) for _ in range(measured)] * (seeds_per_gamma // measured)
        escaped = [t for t in cells if t is not None]
        mean, std = (float(np.mean(escaped)), float(np.std(escaped))) if escaped else (None, None)
        stats.append(GammaStats(level.coupling, mean, std, seeds_per_gamma,
                                seeds_per_gamma - len(escaped)))
    return stats


def fit_escape_models(per_gamma_stats):
    """Model comparison on per-gamma rows (from sweep_statistics or read_sweep_csv).

    Raises NoFitError when every level is censored; with fewer than 3
    uncensored gamma > 0 levels both fits are None.
    """
    stats = list(per_gamma_stats)
    fittable = [s for s in stats if s.tau_mean is not None and s.gamma > 0 and s.tau_mean > 0]
    if not any(s.tau_mean is not None for s in stats):
        raise NoFitError("all sweep cells censored: nothing to fit")
    if len(fittable) < 3:
        return SweepSummary(stats, None, None, None)
    g = np.array([s.gamma for s in fittable])
    m = np.array([s.tau_mean for s in fittable])
    sd = np.array([s.tau_std for s in fittable])
    unit = bool(np.any(sd <= 0))
    w = np.ones_like(m) if unit else (m / sd) ** 2
    power = fit_model("power_law", g, np.log(m), w)
    kram = fit_model("kramers_exponential", g, np.log(m), w)
    return SweepSummary(
        per_gamma=stats,
        power_law=power,
        kramers=kram,
        delta_aic=kram.aic - power.aic,
        unit_weights_used=unit,
    )


CSV_HEADER = ["gamma", "tau_mean", "tau_std", "n_seeds", "censored"]


def read_sweep_csv(path):
    """Ingest per-gamma escape statistics from the documented CSV schema.

    Header: gamma,tau_mean,tau_std,n_seeds,censored. Empty tau fields mark
    fully censored levels; censored is the count of censored seeds.
    """
    def parse(rec):
        mean = float(rec[1]) if rec[1].strip() else None
        std = float(rec[2]) if rec[2].strip() and mean is not None else None
        return GammaStats(float(rec[0]), mean, std, int(rec[3]), int(rec[4]))

    rows = read_table(path, CSV_HEADER, "escape CSV", parse)[1]
    if not rows:
        raise ValidationError("escape CSV has no data rows")
    return rows


def write_sweep_csv(path, stats, preamble=None):
    rows = ([s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored] for s in stats)
    write_table(path, CSV_HEADER, rows, [preamble])
