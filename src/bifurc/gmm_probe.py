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
from .mathcore import covariance, sym_eigen


@dataclass
class ProbeConfig:
    """Probe protocol constants."""

    K_probe: int = 10
    lr_means: float = 5e-3
    lr_logbeta: float = 1e-2
    log_beta_init: float = -2.5

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
    when the caller supplies a labeled latent batch.
    """

    step: int
    log_beta: float
    log_beta_c: float
    log_ratio: float
    nc1: Optional[float]
    order_parameter: float

    @property
    def degenerate(self):
        """True when the latent covariance was degenerate (log_beta_c is the +inf sentinel)."""
        return math.isinf(self.log_beta_c)


def critical_spectrum(cov):
    """(lambda_max, sym_eigen(cov)): a covariance's top eigenvalue and its spectrum.

    Every critical precision beta_c = 1/lambda_max in the package is read
    from here. A lambda_max below the smallest normal float raises
    DegenerateInputError, so that beta_c is always a finite float.
    """
    spectrum = sym_eigen(cov)
    lam = float(spectrum.eigenvalues[0])
    if not lam >= np.finfo(float).tiny:
        raise DegenerateInputError(
            f"degenerate covariance: lambda_max = {lam:.3g} is below the smallest normal float"
        )
    return lam, spectrum


def beta_c(cov):
    """Critical precision 1/lambda_max(cov) of a covariance matrix."""
    return 1.0 / critical_spectrum(cov)[0]


def init_collapsed(samples, config, rng):
    """Near-symmetric start: prototypes at the sample mean plus a small jitter.

    The jitter makes the symmetry breaking observable; its scale is
    1e-3 * sqrt(lambda_max(Cov(samples))).
    """
    z = np.asarray(samples, dtype=float)
    spread = 1e-3 * math.sqrt(critical_spectrum(covariance(z))[0])
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
# helpers. They take raw arrays (means mu) and a _Workspace holding the checked
# latents, so that the protocols' hot loops build no state objects and re-check
# no batches. With m = mu - c, c the batch mean, the K x N logits are one product
# coef @ za of the centred, feature-major batch, and every component's weighted
# moments are one product (za / total) @ e.T, so no K x N array is normalised.
# Centring keeps the expansion of ||z - mu||^2 from cancelling against ||c||^2
# for a batch far from the origin. The softmax is shifted by one scalar per step,
# not by each sample's max: any shift that keeps every exponent in the normal
# range is as accurate (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41,
# 2021), and this one rides in coef's constant column, so the product returns
# shifted logits and no K x N max or subtract pass is made (see
# _shifted_weights). Each protocol run allocates its workspace once and the
# kernel overwrites it in place: a fresh K x N array per step costs page faults
# once it outgrows the allocator's small-block pool. A run whose latents
# z = x W^T move with W centres x once and refills za each step with one product
# W @ xc (project). The weights e are a view into the workspace, valid only until
# its next kernel call; za's rows only until the next project.

# The scalar shift's range limit L: on that path every exp argument lies in
# [-L, 0], so each weight and each per-sample total is at least e^-L ~ 1e-87,
# and za / total is at most r e^L, finite while the batch radius r is below
# RADIUS_LIMIT. The widest range a protocol reaches is 146 (toy hierarchy);
# a wider one takes the per-sample max.
SHIFT_LIMIT = 200.0
RADIUS_LIMIT = 1e200


def _centred(z):
    """(zc, c, r): the rows of z (N x d) centred on their mean c, as a contiguous d x N array.

    r = max_n ||zc_n||, the batch radius that bounds the kernel's logits.
    """
    zc = z.T.copy()
    c = zc.mean(axis=1)  # contiguous rows: several times faster than z.mean(axis=0)
    zc -= c[:, None]
    return zc, c, math.sqrt(np.einsum("jn,jn->n", zc, zc).max())


class _Workspace:
    """A latent batch (N x d), centred and feature-major, and the kernel's buffers.

    za is (d+1) x N: rows z_j - c_j, then a row of ones; ss = sum_n ||z_n - c||^2
    and r >= max_n ||z_n - c||; zw holds za / total. e is the only K x N buffer
    (logits, then shifted weights); coef holds the logits' K x (d+1)
    coefficients, amax the per-sample max where the kernel takes it, and total
    the per-sample sum. project() refills za, c and r in place for latents
    x W^T, from x centred once.
    """

    def __init__(self, k, z):
        n, d = z.shape
        zc, self.c, self.r = _centred(z)
        self.za = np.vstack((zc, np.ones(n)))
        self.zw = np.empty((d + 1, n))
        self.e = np.empty((k, n))
        self.coef = np.empty((k, d + 1))
        self.ones = np.ones(k)
        self.amax = np.empty(n)
        self.total = np.empty(n)
        self.ss = float(np.vdot(zc, zc))

    def project(self, w, xc, x_bar, r_x):
        """Make z = x W^T (w: d x d_in) the batch, for (xc, x_bar, r_x) = _centred(x).

        za[:-1] = W xc and c = W x_bar; r = ||W||_F r_x bounds max_n ||W xc_n||
        without a pass over the batch.
        """
        zc = np.matmul(w, xc, out=self.za[:-1])
        self.c = w @ x_bar
        self.r = math.sqrt(np.vdot(w, w)) * r_x
        self.ss = float(np.vdot(zc, zc))


def _precision(log_beta):
    """beta = exp(log_beta), or NumericalError when it leaves (0, inf)."""
    try:
        beta = math.exp(log_beta)
    except OverflowError:
        beta = math.inf
    if not 0.0 < beta < math.inf:
        raise NumericalError(f"precision exp({log_beta}) is not a positive finite float")
    return beta


def _shifted_weights(ws, m, beta):
    """(e, shift, total) with e = exp(a - shift) and total its column sums, for m = mu - c.

    a_kn = beta m_k.(z_n - c) - (beta/2)||m_k||^2 is -(beta/2)||z_n - mu_k||^2 up
    to (beta/2)||z_n - c||^2, which is the same for every k and cancels in p.
    With M = max_k ||m_k|| and r the workspace's radius bound, every a_kn lies
    in [-beta M (r + M/2), beta M r], so the scalar shift s = beta M r puts every
    exponent in [-beta M (2r + M), 0]. Below SHIFT_LIMIT (and for r below
    RADIUS_LIMIT) the shift is that scalar, folded into coef's constant column;
    otherwise it is each sample's max (ws.amax), the only shift that keeps a
    wider range from underflowing.
    """
    sq = (m * m).sum(axis=1)
    mmax = math.sqrt(sq.max())
    shift = beta * mmax * ws.r
    scalar = beta * mmax * (2.0 * ws.r + mmax) < SHIFT_LIMIT and ws.r < RADIUS_LIMIT
    coef = ws.coef
    np.multiply(m, beta, out=coef[:, :-1])
    np.subtract(sq * (-0.5 * beta), shift if scalar else 0.0, out=coef[:, -1])
    e = np.matmul(coef, ws.za, out=ws.e)
    if not scalar:
        shift = e.max(axis=0, out=ws.amax)
        e -= shift
    np.exp(e, out=e)
    return e, shift, np.matmul(ws.ones, e, out=ws.total)


def _moments(ws, mu, beta):
    """(s, mass, m) for m = mu - c: s_k = sum_n p_kn (z_n - c), mass_k = sum_n p_kn."""
    m = mu - ws.c
    e, _, total = _shifted_weights(ws, m, beta)
    moments = np.divide(ws.za, total, out=ws.zw) @ e.T  # (d+1) x K
    return moments[:-1].T, moments[-1], m


def _mean_pull(ws, mu, beta):
    """(pull, _moments(...)) with pull = s - mass m: the mean gradient is -(beta/N) pull."""
    s, mass, m = _moments(ws, mu, beta)
    return s - mass[:, None] * m, (s, mass, m)


def _mean_step(ws, mu, beta, lr):
    """One GD step on the means at fixed beta (see grad_step); returns (means, (s, mass, m))."""
    pull, moments = _mean_pull(ws, mu, beta)
    new_mu = mu + (lr * beta / ws.za.shape[1]) * pull
    if not np.isfinite(new_mu).all():
        raise NumericalError(f"non-finite probe means at beta = {beta}")
    return new_mu, moments


def _em_step(ws, mu, beta):
    """One EM update at fixed beta: each mean moves to its posterior-weighted centroid.

    Its fixed points are exactly the zeros of the mean gradient (see grad_step).
    A component with zero total responsibility keeps its mean, where its
    gradient is zero too.
    """
    s, mass, _ = _moments(ws, mu, beta)
    held = mass != 0.0
    new_mu = mu.copy()
    new_mu[held] = ws.c + s[held] / mass[held, None]
    if not np.isfinite(new_mu).all():
        raise NumericalError(f"non-finite probe means at beta = {beta}")
    return new_mu


def _equilibrium(ws, mu, beta, tol, max_iter):
    """Iterate _em_step from mu until max|G(mu) - mu| <= tol, at most max_iter times.

    Returns (means, iterations, residual), the residual being the max-norm
    length of the last update.
    """
    for iterations in range(1, max_iter + 1):
        new_mu = _em_step(ws, mu, beta)
        residual = float(np.abs(new_mu - mu).max())
        mu = new_mu
        if residual <= tol:
            break
    return mu, iterations, residual


def _joint_step(ws, mu, log_beta, lr_means, lr_logbeta):
    """One GD step on the means and log beta (see grad_step); returns (means, log_beta)."""
    beta = _precision(log_beta)
    new_mu, (s, mass, m) = _mean_step(ws, mu, beta, lr_means)
    n, d = ws.za.shape[1], mu.shape[1]
    # sum_kn p_kn ||z_n - mu_k||^2, expanded about c (sum_k p_kn = 1)
    spread = ws.ss - 2.0 * (m * s).sum() + mass @ (m * m).sum(axis=1)
    dnll_dbeta = float(spread / (2.0 * n) - 0.5 * d / beta)
    new_log_beta = log_beta - lr_logbeta * beta * dnll_dbeta
    _precision(new_log_beta)  # a log beta whose exp leaves (0, inf) fails here, not at its reader
    return new_mu, new_log_beta


def _spread(mu):
    c = mu - mu.mean(axis=0)
    return float(np.sqrt((c * c).sum(axis=1).mean()))


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
        _Workspace(state.K, z), state.means, state.log_precision, config.lr_means,
        config.lr_logbeta,
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
    (see critical_spectrum) yields the +inf sentinel, which sets the reading's
    degenerate flag, instead of an error.
    """
    z = _check_batch(state, encoder_latents)
    new_state = grad_step(state, z, config)
    try:
        log_bc = -math.log(critical_spectrum(covariance(z))[0])
    except DegenerateInputError:
        log_bc = math.inf
    lb = new_state.log_precision
    reading = CriticalityReading(
        step=step,
        log_beta=lb,
        log_beta_c=log_bc,
        log_ratio=lb - log_bc,
        nc1=nc1,
        order_parameter=order_parameter(new_state),
    )
    return new_state, reading
