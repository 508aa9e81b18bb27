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
stepper: eps = eps + dt * drift, then eps += sqrt(2 D dt) * g. It draws g
in chunks of at most 65,536 (the same stream as one draw per step), draws
nothing when D = 0, and can stop at the first step with |eps| >= threshold.

The pitchfork's path is decimated to at most ~2000 recorded states; the
coupled-mode run returns only its start and end states and the random
unit reference direction of the scalar-projection persistence proxy, drawn
after the initial condition and before the path noise. A non-finite
state at a scalar chunk end, or at a coupled-mode check (the start, every
_decimation(steps) steps and the last step), raises NumericalError.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DegenerateInputError, NumericalError, ValidationError
from .mathcore import spearman

STABILITY_LIMIT = 0.2
# A K x d float64 state of 2**22 entries is 32 MiB, and a coupled-mode step holds
# about six arrays of that size (the start, the state, the drift, the coupling
# product, the noise draw and a temporary), so the largest run allowed needs
# about 200 MB. The Gram matrix, min(K, d)^2 entries, is never larger than a state.
MAX_MODE_ENTRIES = 2**22
# The probe's arrays take the same bound: a K x N kernel buffer, an N x dim sample
# cloud or an N x latent_dim latent batch, each held a few times over by a run.
MAX_SAMPLE_ENTRIES = MAX_MODE_ENTRIES
# numpy's ziggurat normal draws |g| < 13.71: past the table's edge r = 3.654 it adds
# -ln(1 - U) / r with 1 - U >= 2**-53, at most 10.06. So init_scale <= 2**1020 keeps
# every start draw init_scale * g below 16 * 2**1020 = 2**1024, where floats overflow.
MAX_INIT_SCALE = 2.0**1020
# The scalar stepper draws its normals at most this many at a time, 512 kB of float64.
_MAX_DRAWS = 65536


@dataclass
class SdeConfig:
    """Parameters shared by the two simulators and escape_lab's escape cells.

    growth_rate is the linear rate mu = beta - beta_c; alpha the cubic
    self-saturation; coupling the inter-mode strength gamma;
    noise_intensity the D of the 2D-delta convention; init_scale the
    per-coordinate standard deviation sigma_0 of the initial condition.
    """

    growth_rate: float
    alpha: float
    coupling: float
    noise_intensity: float
    dt: float
    steps: int
    modes: int
    dim: int
    init_scale: float
    seed: int

    def __post_init__(self):
        # each guard is written so that a NaN fails it
        for name, holds, rule in (
            ("alpha", self.alpha > 0, "> 0"),
            ("coupling", self.coupling >= 0, ">= 0"),
            ("noise_intensity", self.noise_intensity >= 0, ">= 0"),
            ("dt", self.dt > 0, "> 0"),
            ("steps", self.steps >= 1, ">= 1"),
            ("modes", self.modes >= 1, ">= 1"),
            ("dim", self.dim >= 1, ">= 1"),
            ("init_scale", 0 <= self.init_scale < math.inf, "finite and >= 0"),
        ):
            if not holds:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.init_scale > MAX_INIT_SCALE:  # before a simulator draws its start
            raise ValidationError(f"init_scale must be <= 2**1020 for a finite start draw, "
                                  f"got {self.init_scale}")
        if self.modes * self.dim > MAX_MODE_ENTRIES:  # before a simulator allocates the state
            raise ValidationError(f"modes * dim must be <= {MAX_MODE_ENTRIES}, got "
                                  f"modes = {self.modes}, dim = {self.dim}")
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


def _check_finite(state, step):
    if not np.isfinite(state).all():
        raise NumericalError(f"coupled-mode state is not finite by step {step}")


def simulate_pitchfork_1d(config, eps0=None):
    """Scalar pitchfork normal form; requires modes = dim = 1.

    Returns (times, eps): the decimated path as two 1-D arrays, start first.
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
    return rec[:, 0] * config.dt, rec[:, 1]


def _langevin(config, eps, steps, rng, threshold=math.inf, every=_MAX_DRAWS):
    """The scalar stepper of the module docstring, from eps for at most `steps`
    steps: (steps taken, final eps, path), path holding (step, eps) every
    `every` steps, at the last step and at a threshold stop."""
    mu, al, dt = config.growth_rate, config.alpha, config.dt
    amp = math.sqrt(2.0 * config.noise_intensity * dt)
    n, path = 0, []
    while n < steps and not abs(eps) >= threshold:
        m = min(every - n % every, steps - n, _MAX_DRAWS)
        draws = rng.standard_normal(m).tolist() if amp else repeat(0.0, m)
        for g in draws:
            drift = mu * eps - al * eps * eps * eps
            eps = eps + dt * drift
            if amp:
                eps += amp * g
            n += 1
            if abs(eps) >= threshold:
                break
        if not math.isfinite(eps):
            raise NumericalError(f"scalar Langevin state is {eps} by step {n}")
        if n % every == 0 or n == steps or abs(eps) >= threshold:
            path.append((n, eps))
    return n, eps, path


def simulate_coupled_modes(config):
    """K modes in R^d with cubic self-saturation and inter-mode coupling.

    Initial condition: every entry of the K x d mode matrix i.i.d.
    N(0, init_scale^2). The j != k coupling sum is (E E^T) E - ||eps_k||^2 eps_k
    row-wise, taken through the smaller Gram matrix: E (E^T E) when modes >= dim.
    Returns (start, end, reference): the K x d states at times 0 and steps*dt,
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
    e0 = e = config.init_scale * rng.standard_normal((k, d))
    ref = rng.standard_normal(d)
    ref /= np.linalg.norm(ref)
    amp = math.sqrt(2.0 * d_noise * dt)
    dec = _decimation(config.steps)
    _check_finite(e0, 0)
    for n in range(1, config.steps + 1):
        nr2 = np.einsum("kd,kd->k", e, e)
        drift = mu * e - al * nr2[:, None] * e
        if ga != 0.0 and k > 1:
            shared = e @ (e.T @ e) if k >= d else (e @ e.T) @ e
            drift -= ga * (shared - nr2[:, None] * e)
        e = e + dt * drift
        if amp > 0.0:
            e += amp * rng.standard_normal((k, d))
        if n % dec == 0 or n == config.steps:
            _check_finite(e, n)
    return e0, e, ref


def persistence_stats(start, end, reference):
    """(cosines, projections, rho) of a coupled run's start and end states.

    cosines[k] = d_k(0)^T d_k(T), the cosine of mode k's unit start and end
    rows: NaN for a mode whose final row is exactly zero, and 0 for a zero
    initial row. projections is (modes, 2): <eps_k(0), r>, <eps_k(T), r> on
    the run's reference direction r, and rho is their Spearman.
    """
    n0, n1 = np.linalg.norm(start, axis=1), np.linalg.norm(end, axis=1)
    keep = n1 > 0
    cos = np.full(len(start), math.nan)
    cos[keep] = np.einsum("kd,kd->k", start[keep] / np.where(n0 > 0, n0, 1.0)[keep, None],
                          end[keep] / n1[keep, None])
    p0, p1 = start @ reference, end @ reference
    try:
        rho = spearman(p0, p1)
    except DegenerateInputError:
        raise DegenerateInputError(
            "the modes' projections are constant, so their Spearman is undefined: at "
            "init_scale = 0 every mode starts at zero, and at noise_intensity = 0 stays there"
        ) from None
    return cos, np.stack([p0, p1], axis=1), rho


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
