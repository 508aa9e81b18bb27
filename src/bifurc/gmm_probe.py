"""Passive K-prototype isotropic GMM probe with a shared learned precision.

The probe models latents z with K equal-weight isotropic Gaussian components
N(mu_k, I/beta) and is trained by plain gradient descent on the full
per-sample-mean negative log-likelihood

    nll = mean_z[ -LSE_k(-(beta/2)||z - mu_k||^2) ] + log K
          + (d/2) log(2 pi) - (d/2) log beta.

The beta-dependent normalization term is kept: without it the precision
channel has no optimum and beta diverges. Latents are treated as constants
throughout (the probe is "detached": nothing here ever writes to them).

The critical precision of a latent distribution is beta_c = 1/lambda_max(Cov(z)):
the collapsed state (all prototypes at the data mean) loses stability when
beta exceeds it.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, DimensionError, NumericalError
from .mathcore import check_symmetric, covariance, sym_eigen


@dataclass
class ProbeConfig:
    """Probe protocol constants.

    init_spread is the prototype jitter scale; None selects the default
    1e-3 * sqrt(lambda_max) of the data at initialization time.
    """

    K_probe: int = 10
    lr_means: float = 5e-3
    lr_logbeta: float = 1e-2
    log_beta_init: float = -2.5
    init_spread: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.lr_means < math.inf and 0.0 < self.lr_logbeta < math.inf):
            raise DegenerateInputError("learning rates must be positive finite floats")
        if self.K_probe < 1:
            raise DegenerateInputError("K_probe must be >= 1")


@dataclass
class GmmProbeState:
    """Prototype means (K x d) and the shared log-precision."""

    means: np.ndarray
    log_precision: float
    K: int
    d: int

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        if self.means.shape != (self.K, self.d):
            raise DimensionError(
                f"means shape {self.means.shape} != (K, d) = ({self.K}, {self.d})"
            )
        if self.K < 1 or self.d < 1:
            raise DimensionError("K and d must be >= 1")
        if not math.isfinite(self.log_precision):
            raise DegenerateInputError("log_precision must be finite")

    @property
    def beta(self):
        return math.exp(self.log_precision)


@dataclass
class CriticalityReading:
    """One trajectory sample: the probe's phase coordinates at a step.

    log_ratio == log_beta - log_beta_c (within 1e-12). nc1 is present only
    when the caller supplies a labeled latent batch. degenerate marks a
    reading whose latent covariance had no positive top eigenvalue
    (log_beta_c is the +inf sentinel there).
    """

    step: int
    log_beta: float
    log_beta_c: float
    log_ratio: float
    nc1: Optional[float]
    order_parameter: float
    degenerate: bool = False


def beta_c(cov):
    """Critical precision 1/lambda_max(cov) of a covariance matrix."""
    c = check_symmetric(cov, "cov")
    lam = sym_eigen(c).eigenvalues[0]
    if lam <= 0.0:
        raise DegenerateInputError("degenerate covariance: lambda_max <= 0")
    return 1.0 / float(lam)


def init_collapsed(samples, config, rng):
    """Near-symmetric start: prototypes at the sample mean plus a small jitter.

    The jitter makes the symmetry breaking observable; its scale defaults to
    1e-3 * sqrt(lambda_max(Cov(samples))).
    """
    z = np.asarray(samples, dtype=float)
    lam = sym_eigen(covariance(z)).eigenvalues[0]
    spread = config.init_spread
    if spread is None:
        spread = 1e-3 * math.sqrt(max(lam, 0.0))
    mu = z.mean(axis=0) + spread * rng.standard_normal((config.K_probe, z.shape[1]))
    return GmmProbeState(mu, config.log_beta_init, config.K_probe, z.shape[1])


def exact_collapsed(samples, K, log_beta):
    """All prototypes exactly at the sample mean (the symmetric state S0)."""
    z = np.asarray(samples, dtype=float)
    mu = np.tile(z.mean(axis=0), (K, 1))
    return GmmProbeState(mu, log_beta, K, z.shape[1])


def _check_batch(state, samples):
    z = np.asarray(samples, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1:
        raise DimensionError("samples must be a non-empty N x d array")
    if z.shape[1] != state.d:
        raise DimensionError(f"sample dim {z.shape[1]} != state d {state.d}")
    return z


# The probe kernel: every probe computation in the package runs through these
# helpers. They take raw arrays (latents z, row norms z2, means mu) so that the
# protocols' hot loops build no state objects and re-check no batches. Arrays
# over components and samples are K x N, so the per-sample softmax reductions
# over the short K axis run across contiguous rows; they are updated in place
# where the arithmetic allows it, because each fresh K x N array costs page
# faults once it outgrows the allocator's small-block pool.


def _precision(log_beta):
    """beta = exp(log_beta), or NumericalError when it leaves (0, inf)."""
    try:
        beta = math.exp(log_beta)
    except OverflowError:
        beta = math.inf
    if not 0.0 < beta < math.inf:
        raise NumericalError(f"precision exp({log_beta}) is not a positive finite float")
    return beta


def _sq_dist(z, z2, mu):
    # sq[k, n] = ||z_n - mu_k||^2, via the Gram expansion (z.T is a view)
    sq = z2[None, :] + (mu * mu).sum(axis=1)[:, None]
    sq -= (2.0 * mu) @ z.T
    return sq


def _shifted_weights(sq, beta):
    """(e, max, sum) with e = exp(a - max_k a) for a = -(beta/2) sq, per column."""
    e = sq * (-0.5 * beta)
    amax = e.max(axis=0)
    e -= amax
    np.exp(e, out=e)
    return e, amax, e.sum(axis=0)


def _responsibilities(z, z2, mu, beta):
    """(p, sq): the K x N posterior p(k|z_n) and the squared distances behind it."""
    sq = _sq_dist(z, z2, mu)
    p, _, total = _shifted_weights(sq, beta)
    p /= total
    return p, sq


def _mean_pull(z, z2, mu, beta):
    """(pull, p, sq) with pull = p z - rowsum(p) mu: the mean gradient is -(beta/N) pull."""
    p, sq = _responsibilities(z, z2, mu, beta)
    return p @ z - p.sum(axis=1)[:, None] * mu, p, sq


def _mean_step(z, z2, mu, beta, lr):
    """One GD step on the means at fixed beta (see grad_step); returns (means, p, sq)."""
    pull, p, sq = _mean_pull(z, z2, mu, beta)
    new_mu = mu + (lr * beta / z.shape[0]) * pull
    if not np.isfinite(new_mu).all():
        raise NumericalError(f"non-finite probe means at beta = {beta}")
    return new_mu, p, sq


def _em_step(z, z2, mu, beta):
    """One EM update at fixed beta: each mean moves to its posterior-weighted centroid.

    Its fixed points are exactly the zeros of the mean gradient (see grad_step).
    A component with zero total responsibility keeps its mean, where its
    gradient is zero too.
    """
    p, _ = _responsibilities(z, z2, mu, beta)
    mass = p.sum(axis=1)[:, None]
    new_mu = np.divide(p @ z, mass, out=mu.copy(), where=mass != 0.0)
    if not np.isfinite(new_mu).all():
        raise NumericalError(f"non-finite probe means at beta = {beta}")
    return new_mu


def _equilibrium(z, z2, mu, beta, tol, max_iter):
    """Iterate _em_step from mu until max|G(mu) - mu| <= tol, at most max_iter times.

    Returns (means, iterations, residual), the residual being the max-norm
    length of the last update.
    """
    for iterations in range(1, max_iter + 1):
        new_mu = _em_step(z, z2, mu, beta)
        residual = float(np.abs(new_mu - mu).max())
        mu = new_mu
        if residual <= tol:
            break
    return mu, iterations, residual


def _joint_step(z, z2, mu, log_beta, lr_means, lr_logbeta):
    """One GD step on the means and log beta (see grad_step); returns (means, log_beta)."""
    beta = _precision(log_beta)
    new_mu, p, sq = _mean_step(z, z2, mu, beta, lr_means)
    dnll_dbeta = float((p * sq).sum() / (2.0 * z.shape[0]) - 0.5 * z.shape[1] / beta)
    new_log_beta = log_beta - lr_logbeta * beta * dnll_dbeta
    if not math.isfinite(new_log_beta):
        raise NumericalError(f"non-finite probe gradient at beta = {beta}")
    return new_mu, new_log_beta


def _spread(mu):
    c = mu - mu.mean(axis=0)
    return float(np.sqrt((c * c).sum(axis=1).mean()))


def _row_norms(z):
    return (z * z).sum(axis=1)


def _nll(z, z2, mu, log_beta):
    """The mean NLL of a checked batch z (row norms z2) under means mu and log beta."""
    k, d = mu.shape
    _, amax, total = _shifted_weights(_sq_dist(z, z2, mu), _precision(log_beta))
    lse = amax + np.log(total)
    return float(
        -lse.mean()
        + math.log(k)
        + 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * d * log_beta
    )


def nll(state, samples):
    """Full per-sample-mean negative log-likelihood (see module docstring)."""
    z = _check_batch(state, samples)
    return _nll(z, _row_norms(z), state.means, state.log_precision)


def responsibilities(state, samples):
    """Posterior component weights p(k|z): an N x K row-stochastic matrix."""
    z = _check_batch(state, samples)
    return _responsibilities(z, _row_norms(z), state.means, _precision(state.log_precision))[0].T


def grad_step(state, batch, config):
    """One plain gradient-descent step on the full NLL (means and log beta).

    Mean channel: grad_{mu_k} nll = -mean_z[p_k beta (z - mu_k)], applied in
    the fused form mu += (lr beta / N)(p z - rowsum(p) mu), p being the
    K x N posterior. Precision channel: d nll/d beta =
    mean_z[sum_k p_k ||z - mu_k||^2 / 2] - d/(2 beta), chained through beta
    for the log-beta parametrization. Raises NumericalError when beta or the
    updated state is not finite.
    """
    z = _check_batch(state, batch)
    mu, log_beta = _joint_step(
        z, _row_norms(z), state.means, state.log_precision, config.lr_means, config.lr_logbeta
    )
    return replace(state, means=mu, log_precision=log_beta)


def order_parameter(state):
    """Prototype spread sqrt((1/K) sum_k ||mu_k - mu_bar||^2)."""
    return _spread(state.means)


def split_direction(state):
    """Principal eigenvector of the prototype scatter (the broken-symmetry axis)."""
    c = state.means - state.means.mean(axis=0)
    scatter = (c.T @ c) / state.K
    return sym_eigen(scatter).eigenvectors[:, 0]


def probe_step(state, encoder_latents, config, step=0, nc1=None):
    """One joint-detached protocol step: grad_step, then a criticality reading.

    The latents are constants to the probe; beta_c is recomputed from their
    sample covariance each call, so the log_beta_c series depends on the
    latents alone (identical for any K_probe). A degenerate latent covariance
    yields the +inf sentinel and the degenerate flag instead of an error.
    """
    z = _check_batch(state, encoder_latents)
    new_state = grad_step(state, z, config)
    lam = sym_eigen(covariance(z)).eigenvalues[0]
    if lam <= 0.0:
        log_bc = math.inf
        degenerate = True
    else:
        log_bc = -math.log(lam)
        degenerate = False
    lb = new_state.log_precision
    reading = CriticalityReading(
        step=step,
        log_beta=lb,
        log_beta_c=log_bc,
        log_ratio=lb - log_bc,
        nc1=nc1,
        order_parameter=order_parameter(new_state),
        degenerate=degenerate,
    )
    return new_state, reading
