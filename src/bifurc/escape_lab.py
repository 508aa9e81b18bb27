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

The tilt is the unit-curvature well U(eps) = -(1/2) eps^2: a rate term, not
a third system, whose whole strength is gamma. The drift gains +gamma eps, so
sweep_statistics runs each cell as the scalar pitchfork at growth rate
mu + gamma, with coupling 0, through sde's one scalar stepper; no other code
here knows the tilt.

A sweep's cells share one scalar SdeConfig, whose steps is each cell's
horizon. This module reads no configuration table: `escape sweep` builds
that config from [sde] under its own overlay and [escape] horizon, and the
sweep's gammas, seeds and threshold from [escape].
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .csvio import read_table, write_table
from .errors import ConfigError, NoFitError, NumericalError, ValidationError
from .mathcore import weighted_linfit
from .sde import _langevin

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
class FitReport:
    """One escape-time model fitted to log tau, under the names its report uses.

    model: "power_law" (log tau = intercept + slope log gamma) or
    "kramers_exponential" (log tau = intercept + slope gamma). Logs are
    natural; aic == chi_squared + 2 * 2 coefficients.
    """

    model: str
    intercept: float
    slope: float
    chi_squared: float
    aic: float


@dataclass
class SweepSummary:
    """Both model fits of a sweep's per-gamma statistics (when fittable)."""

    power_law: Optional[FitReport]
    kramers: Optional[FitReport]
    delta_aic: Optional[float]
    unit_weights_used: bool


def measure_escape(config, threshold):
    """First step at which |eps| >= threshold, or None (censored at config.steps).

    Starts at exactly config.init_scale. The threshold must lie strictly
    between init_scale and the cell's saturation amplitude eps*. Noise uses
    the config seed; with noise_intensity 0 the path is deterministic and no
    random numbers are drawn.

    A noise-free cell that a bound proves censored returns None unstepped.
    Its step eps <- eps (1 + dt (r - alpha eps^2)), r = growth_rate, is odd
    in eps. While |eps| < threshold theta and dt (max(-r, 0) + alpha theta^2)
    <= 1, the step's factor lies in [0, 1 + dt r+], r+ = max(r, 0), so
    |eps_n| <= eps0 (1 + dt r+)^n and a zero start stays 0. Without that
    sign precondition the cubic term can flip eps past -theta (mu = -1,
    alpha = 1000, eps0 = 1, theta = 10, dt = 0.05 escapes at step 1). The
    cell censors when log eps0 + steps log1p(dt r+) + log 4 < log theta. The
    factor 4 covers the stepping roundoff, at most about 13 * 2**-53 relative
    per step, a factor (1 + 13 * 2**-53)^n < 1.6 for n <= 2**48; products
    that underflow, whose absolute 2**-1075 errors add less than eps0 / 32
    when eps0 >= 2**-1020 (1 + dt (1 + theta^2)); and the logs' own error,
    under 1e-12. A longer horizon or a smaller non-zero start is stepped.
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
    if config.noise_intensity == 0 and _bound_censors(config, threshold):
        return None
    n, eps, _ = _langevin(config, config.init_scale, config.steps,
                          np.random.default_rng(config.seed), threshold)
    return n if abs(eps) >= threshold else None


def _bound_censors(config, threshold):
    """measure_escape's bound: True when a noise-free cell provably never escapes."""
    r, dt, eps0, theta = config.growth_rate, config.dt, config.init_scale, threshold
    if not (config.steps <= 2**48 and dt * (max(-r, 0.0) + config.alpha * theta * theta) <= 1):
        return False
    if eps0 == 0:
        return True
    return (eps0 >= 2.0**-1020 * (1 + dt * (1 + theta * theta))
            and math.log(eps0) + config.steps * math.log1p(dt * max(r, 0.0)) + math.log(4)
            < math.log(theta))


def sweep_statistics(gammas, seeds_per_gamma, config, threshold, mapper):
    """Per-gamma escape statistics (GammaStats), ascending in gamma, no fitting.

    Each distinct gamma, finite and >= 0, is a level of seeds_per_gamma cells:
    config at growth rate mu + gamma, cell s at seed config.seed + 1000 s.
    SdeConfig's stability guard applies to each level's rate. mapper(fn, jobs)
    maps the measurement over a list of cells (map, or a process pool's). A
    noise-free cell does not depend on its seed, so each level measures one
    cell and counts it for all its seeds.
    """
    if seeds_per_gamma < 1:
        raise ValidationError("seeds_per_gamma must be >= 1")
    for g in gammas:
        if not 0 <= g < math.inf:
            raise ValidationError(f"escape.gammas must be finite and >= 0, got {g}")
    levels = {}
    for g in sorted(set(gammas)):
        try:
            levels[float(g)] = replace(config, growth_rate=config.growth_rate + g)
        except ValidationError as exc:
            raise ValidationError(f"gamma = {g} sets the cell's mu to mu + gamma: {exc}") from None
    measured = 1 if config.noise_intensity == 0 else seeds_per_gamma
    jobs = [
        replace(level, seed=config.seed + 1000 * s)
        for level in levels.values()
        for s in range(measured)
    ]
    taus = iter(mapper(partial(measure_escape, threshold=threshold), jobs))
    stats = []
    for gamma in levels:
        cells = [next(taus) for _ in range(measured)] * (seeds_per_gamma // measured)
        escaped = [t for t in cells if t is not None]
        mean, std = (float(np.mean(escaped)), float(np.std(escaped))) if escaped else (None, None)
        stats.append(GammaStats(gamma, mean, std, seeds_per_gamma,
                                seeds_per_gamma - len(escaped)))
    return stats


def fitted_levels(stats):
    """The levels a fit reads: tau_mean set, gamma > 0 and tau_mean > 0."""
    return [s for s in stats if s.tau_mean is not None and s.gamma > 0 and s.tau_mean > 0]


def fit_escape_models(per_gamma_stats):
    """Model comparison on per-gamma rows (from sweep_statistics or read_sweep_csv).

    Raises NoFitError when every level is censored, and NumericalError when a weight
    (tau_mean/tau_std)^2 is off the float range; with < 3 fitted levels both fits are None.
    """
    stats = list(per_gamma_stats)
    fittable = fitted_levels(stats)
    if not any(s.tau_mean is not None for s in stats):
        raise NoFitError("all sweep cells censored: nothing to fit")
    if len(fittable) < 3:
        return SweepSummary(None, None, None, False)
    g = np.array([s.gamma for s in fittable])
    m = np.array([s.tau_mean for s in fittable])
    sd = np.array([s.tau_std for s in fittable])
    unit = bool(np.any(sd <= 0))
    with np.errstate(over="ignore", under="ignore"):  # refused below
        w = np.ones_like(m) if unit else (m / sd) ** 2
    off = g[(w == 0) | (w == np.inf)]
    if off.size:
        raise NumericalError(f"the fit weight at gamma = {float(off[0])!r} is off the float range")
    reports = []
    for model, x in (("power_law", np.log(g)), ("kramers_exponential", g)):
        a, b, chi2 = weighted_linfit(x, np.log(m), w)
        reports.append(FitReport(model, a, b, chi2, chi2 + 2.0 * 2))
    power, kram = reports
    return SweepSummary(power, kram, kram.aic - power.aic, unit)


CSV_HEADER = ["gamma", "tau_mean", "tau_std", "n_seeds", "censored"]


def read_sweep_csv(path):
    """Ingest per-gamma escape statistics from the documented CSV schema.

    Header: gamma,tau_mean,tau_std,n_seeds,censored. Empty tau fields mark
    fully censored levels; censored is the count of censored seeds. A
    non-finite gamma, tau_mean or tau_std, or only one of the two tau fields
    empty, is a bad row.
    """
    def parse(rec):
        gamma = float(rec[0])
        mean, std = (float(f) if f.strip() else None for f in rec[1:3])
        if (mean is None) != (std is None):
            raise ValueError
        if not all(math.isfinite(v) for v in (gamma, mean, std) if v is not None):
            raise ValueError
        return GammaStats(gamma, mean, std, int(rec[3]), int(rec[4]))

    rows = read_table(path, CSV_HEADER, "escape CSV", parse)[1]
    if not rows:
        raise ValidationError("escape CSV has no data rows")
    return rows


def write_sweep_csv(path, stats, preamble=None):
    rows = ([s.gamma, s.tau_mean, s.tau_std, s.n_seeds, s.n_censored] for s in stats)
    write_table(path, CSV_HEADER, rows, [preamble])
