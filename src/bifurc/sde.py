"""Euler-Maruyama simulators for the order-parameter dynamics.

Two systems share one integrator convention:

  * scalar supercritical pitchfork   eps' = mu eps - alpha eps^3 + eta
  * K coupled modes in R^d           eps_k' = mu eps_k - alpha ||eps_k||^2 eps_k
                                             - gamma sum_{j!=k} (eps_j^T eps_k) eps_j
                                             + eta_k

with white noise <eta(t) eta(t')> = 2 D delta(t - t'), i.e. a per-coordinate
increment of sqrt(2 D dt) * N(0,1) per step. The generator is numpy's
default_rng (PCG64, ziggurat normal transform), seeded from SdeConfig.seed;
identical seeds reproduce identical paths bit-for-bit on one platform.

The pitchfork and every escape cell of escape_lab run one private scalar
stepper: eps = eps + dt * drift, then eps += sqrt(2 D dt) * g. An escape
cell's tilt U = -(1/2) c eps^2 is a rate term, not a third system: it adds
gamma c eps to the drift, so the cell is the pitchfork at rate mu + gamma c.
The stepper draws g in chunks of one recording interval, or 65,536 when
nothing is recorded (the same stream as one draw per step), draws nothing
when D = 0, and can stop at the first step with |eps| >= threshold. A
non-finite state at a chunk end, or at a recorded coupled-mode state,
raises NumericalError.

Paths are decimated to at most ~2000 recorded states. The coupled-mode
simulator also draws a fixed random unit reference direction (after the
initial condition, before the path noise) used by the scalar-projection
persistence proxy.
"""

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional

import numpy as np

from .errors import DegenerateInputError, NumericalError, ValidationError
from .mathcore import spearman

STABILITY_LIMIT = 0.2


@dataclass
class SdeConfig:
    """Parameters shared by the two simulators and escape_lab's escape cells.

    growth_rate is the linear rate mu = beta - beta_c; alpha the cubic
    self-saturation; coupling the inter-mode (or tilt) strength gamma;
    noise_intensity the D of the 2D-delta convention; init_scale the
    per-coordinate standard deviation sigma_0 of the initial condition.
    """

    growth_rate: float
    alpha: float
    coupling: float = 0.0
    noise_intensity: float = 0.0
    dt: float = 0.01
    steps: int = 1000
    modes: int = 1
    dim: int = 1
    init_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # each guard is written so that a NaN fails it
        if not self.alpha > 0:
            raise ValidationError("alpha must be > 0")
        if not (self.coupling >= 0 and self.noise_intensity >= 0):
            raise ValidationError("coupling and noise_intensity must be >= 0")
        if not (self.dt > 0 and self.steps >= 1 and self.modes >= 1 and self.dim >= 1):
            raise ValidationError("dt, steps, modes, dim must be positive")
        if not 0 <= self.init_scale < math.inf:
            raise ValidationError("init_scale must be finite and >= 0")
        # alpha*eps*^2 = mu when mu > 0, so |mu| already bounds the saturation rate
        guard = max(abs(self.growth_rate), self.coupling * self.modes)
        if not self.dt * guard <= STABILITY_LIMIT:
            raise ValidationError(
                f"stability guard violated: dt*max(|mu|, alpha*eps*^2, gamma*K) = "
                f"{self.dt * guard:.3g} > {STABILITY_LIMIT}"
            )

    @property
    def epsilon_star(self):
        """Equilibrium amplitude sqrt(mu/alpha); defined only for mu > 0."""
        if self.growth_rate <= 0:
            raise ValidationError("epsilon_star requires growth_rate > 0")
        return math.sqrt(self.growth_rate / self.alpha)


@dataclass
class SdeRunResult:
    """Decimated path of one simulation; its last sample is the final state."""

    times: np.ndarray  # strictly increasing recorded times
    path_samples: np.ndarray  # (n_rec, modes, dim)
    reference_direction: Optional[np.ndarray] = None

    @property
    def final_state(self):  # (modes, dim)
        return self.path_samples[-1]


@dataclass
class PersistencePrediction:
    """Closed-form angular-diffusion budget for one coupled-mode run.

    theta_sq is the predicted accumulated squared angle at T = steps*dt:
    a growth-phase term (d-1)/sigma_star^2 plus a saturated-phase
    random-walk term 2 (d-1) D (T - tau_r) / r_star^2 (clamped at zero
    before tau_r). expected_cosine = 1 - theta_sq/2 (small-angle form).
    """

    sigma_star: float
    tau_r: float
    t_rand: float
    theta_sq: float
    expected_cosine: float
    saturation_dominated: bool = False


def _decimation(steps):
    return max(1, steps // 2000)


def _record(times, samples, step, dt, state):
    if not np.isfinite(state).all():
        raise NumericalError(f"coupled-mode state is not finite by step {step}")
    times.append(step * dt)
    samples.append(state.copy())


def simulate_pitchfork_1d(config, eps0=None):
    """Scalar pitchfork normal form; requires modes = dim = 1.

    eps0 overrides the random N(0, init_scale^2) initial condition with an
    exact starting value (deterministic studies).
    """
    if config.modes != 1 or config.dim != 1:
        raise ValidationError("the scalar pitchfork requires modes = dim = 1")
    rng = np.random.default_rng(config.seed)
    eps0 = config.init_scale * float(rng.standard_normal()) if eps0 is None else float(eps0)
    if not math.isfinite(eps0):
        raise ValidationError("eps0 must be finite")
    _, eps, path = _langevin(config, eps0, config.steps, rng, every=_decimation(config.steps))
    rec = np.array([(0, eps0)] + path)
    return SdeRunResult(times=rec[:, 0] * config.dt, path_samples=rec[:, 1].reshape(-1, 1, 1))


def _langevin(config, eps, steps, rng, threshold=math.inf, every=65536, curvature=0.0):
    """The scalar stepper of the module docstring, from eps for at most `steps`
    steps in chunks of `every`: (steps taken, final eps, path), path holding
    (step, eps) at each chunk end. A non-zero curvature c adds the tilt force
    gamma c eps (gamma = config.coupling) to the drift."""
    mu, al, ga, dt = config.growth_rate, config.alpha, config.coupling, config.dt
    amp = math.sqrt(2.0 * config.noise_intensity * dt)
    tilted = ga != 0.0 and curvature != 0.0
    n, path = 0, []
    while n < steps and not abs(eps) >= threshold:
        m = min(every, steps - n)
        draws = rng.standard_normal(m).tolist() if amp else repeat(0.0, m)
        for g in draws:
            drift = mu * eps - al * eps * eps * eps
            if tilted:
                drift += ga * (curvature * eps)
            eps = eps + dt * drift
            if amp:
                eps += amp * g
            n += 1
            if abs(eps) >= threshold:
                break
        if not math.isfinite(eps):
            raise NumericalError(f"scalar Langevin state is {eps} by step {n}")
        path.append((n, eps))
    return n, eps, path


def simulate_coupled_modes(config):
    """K modes in R^d with cubic self-saturation and inter-mode coupling.

    Initial condition: every entry of the K x d mode matrix i.i.d.
    N(0, init_scale^2). Coupling uses the Gram matrix G = E E^T:
    the j != k sum equals G E - ||eps_k||^2 eps_k row-wise.
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
    return SdeRunResult(np.asarray(times), np.asarray(samples), ref)


@dataclass
class PersistenceStats:
    """Per-mode directional persistence and the scalar-projection proxy."""

    cosines: np.ndarray  # d_k(0)^T d_k(T), excluded modes dropped
    projection_pairs: np.ndarray  # (modes, 2): <eps_k(0), r>, <eps_k(T), r>
    spearman_rho: float
    excluded_modes: List[int] = field(default_factory=list)


def persistence_stats(run):
    """Cosines d_k(0)^T d_k(T) of the unit rows of the path's first and last
    states, and the Spearman of their projections onto the run's stored
    random reference direction.

    Modes whose final magnitude is exactly zero are excluded from the cosine
    list and reported in excluded_modes; a zero initial row has cosine 0.
    """
    ref = run.reference_direction
    if ref is None:
        raise ValidationError("no reference direction available")
    e0, e1 = run.path_samples[0], run.path_samples[-1]
    n0, n1 = np.linalg.norm(e0, axis=1), np.linalg.norm(e1, axis=1)
    keep = n1 > 0
    cos = np.einsum("kd,kd->k", e0[keep] / np.where(n0 > 0, n0, 1.0)[keep, None],
                    e1[keep] / n1[keep, None])
    p0, p1 = e0 @ ref, e1 @ ref
    try:
        rho = spearman(p0, p1)
    except DegenerateInputError:
        raise DegenerateInputError(
            "the modes' projections are constant, so their Spearman is undefined: at "
            "init_scale = 0 every mode starts at zero, and at noise_intensity = 0 stays there"
        ) from None
    return PersistenceStats(
        cosines=cos,
        projection_pairs=np.stack([p0, p1], axis=1),
        spearman_rho=rho,
        excluded_modes=np.flatnonzero(~keep).tolist(),
    )


def predict_persistence(config):
    """Two-term angular-variance budget for the coupled-mode lottery.

    sigma_star = init_scale / sqrt(D/mu) is the initial amplitude in units
    of the linear-phase noise floor; tau_r the radial saturation time;
    t_rand = r_star^2 / (2 (d-1) D) the post-saturation randomization time.
    With D = 0 the floor vanishes: t_rand is +inf and only the (then zero)
    growth term remains.
    """
    if config.growth_rate <= 0:
        raise ValidationError(
            f"predict_persistence requires sde.growth_rate > 0, got {config.growth_rate}")
    if config.init_scale == 0 and config.noise_intensity > 0:  # sigma_star = 0: log(0) below
        raise ValidationError(
            "predict_persistence requires sde.init_scale > 0 at noise_intensity > 0")
    mu, al, d_noise = config.growth_rate, config.alpha, config.noise_intensity
    d = config.dim
    t_total = config.steps * config.dt
    try:
        r_star = math.sqrt(mu / al)
        if d_noise == 0.0:
            return PersistencePrediction(
                sigma_star=math.inf,
                tau_r=math.log(r_star / config.init_scale) / mu if config.init_scale > 0 else math.inf,
                t_rand=math.inf,
                theta_sq=0.0,
                expected_cosine=1.0,
            )
        sigma_star = config.init_scale / math.sqrt(d_noise / mu)
        tau_r = (1.0 / mu) * math.log(sigma_star * math.sqrt(mu / (al * d_noise)))
        t_rand = r_star * r_star / (2.0 * (d - 1) * d_noise) if d > 1 else math.inf
        growth_term = (d - 1) / (sigma_star * sigma_star)
        sat_term = 2.0 * (d - 1) * d_noise * max(t_total - tau_r, 0.0) / (r_star * r_star)
    except (ValueError, ZeroDivisionError) as exc:  # the log of, or a division by, an underflow
        raise NumericalError(f"persistence prediction leaves the float range: {exc}") from None
    theta_sq = growth_term + sat_term
    return PersistencePrediction(
        sigma_star=sigma_star,
        tau_r=tau_r,
        t_rand=t_rand,
        theta_sq=theta_sq,
        expected_cosine=1.0 - theta_sq / 2.0,
        saturation_dominated=sat_term > 1.0,
    )
