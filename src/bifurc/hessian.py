"""Hessian of the probe loss at the symmetric collapsed state.

At the collapsed state S0 (all K prototype means equal to the data mean,
responsibilities uniform) the Hessian of the mean NLL over the mean
coordinates has the closed form

    H_((k,a),(l,b)) = (beta/K) d_kl d_ab - (beta^2/K)(d_kl - 1/K) Sigma_ab

with Sigma the data covariance. Its spectrum splits into two channels:

  * symmetric (all prototypes move together): eigenvalue beta/K, degeneracy d;
  * anti-symmetric (zero-sum component weights): for each spatial eigenvalue
    sigma_i^2 of Sigma, lambda_perp_i = (beta/K)(1 - beta sigma_i^2), each
    (K-1)-fold degenerate in component space.

The lowest anti-symmetric eigenvalue belongs to sigma_1^2 = lambda_max and
zero-crosses exactly at beta_c = 1/lambda_max: the collapsed state is stable
iff beta < beta_c. This module provides the closed form, the channel
spectrum, a finite-difference cross-check (central differences of the probe
kernel's analytic mean gradient), and a root finder for beta_c on each of
the two routes. Both find the root by the Illinois method on the lowest
eigenvalue in units of the symmetric eigenvalue beta/K, K lambda_low / beta.
In the closed form that is 1 - beta/beta_c for K >= 2 (and 1 for K = 1,
which never crosses), affine in beta, so the first secant point lands on the
root; the raw eigenvalue is a parabola in beta, which takes about ten
evaluations.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import BracketError, DimensionError, ValidationError
from .gmm_probe import _mean_pull, _precision, _Workspace
from .mathcore import MAX_EIGEN_DIM, check_symmetric, sym_eigen

# both crossing root finders stop once the root's bracket is narrower than this (see _illinois)
CROSSING_TOL = 1e-6


@dataclass
class ChannelSpectrum:
    """Closed-form Hessian spectrum at the collapsed state.

    antisymmetric_eigenvalues holds lambda_perp_i, each (K-1)-fold degenerate,
    ordered like the spatial eigenvalues (descending sigma_i^2, so the first
    entry is the lowest, first-destabilizing channel).
    """

    symmetric_eigenvalue: float
    antisymmetric_eigenvalues: List[float]


def _check_beta_k(beta, K):
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")


def _check_dense(K, d):
    """Refuse a dense (K d) x (K d) Hessian above MAX_EIGEN_DIM rows, before building it."""
    if K * d > MAX_EIGEN_DIM:
        raise ValidationError(f"dense Hessian limited to K*d <= {MAX_EIGEN_DIM}, got {K}*{d}")


def analytic_hessian(beta, K, cov):
    """Assemble the dense (K d) x (K d) collapsed-state Hessian."""
    _check_beta_k(beta, K)
    sigma = check_symmetric(cov, "cov")
    d = sigma.shape[0]
    _check_dense(K, d)
    eye_k = np.eye(K)
    delta_term = (beta / K) * np.kron(eye_k, np.eye(d))
    coupling = -(beta * beta / K) * np.kron(eye_k - 1.0 / K, sigma)
    h = delta_term + coupling
    return (h + h.T) / 2.0


def channel_spectrum(beta, K, spatial_eigs):
    """Closed-form spectrum from the spatial eigenvalues of Sigma.

    spatial_eigs must be the eigenvalues of the data covariance, sorted
    descending and non-negative.
    """
    _check_beta_k(beta, K)
    eigs = np.asarray(spatial_eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size < 1:
        raise ValidationError("spatial_eigs must be a non-empty 1-D sequence")
    if np.any(eigs < 0):
        raise ValidationError("spatial eigenvalues must be >= 0")
    if np.any(np.diff(eigs) > 0):
        raise ValidationError("spatial eigenvalues must be sorted descending")
    # Python floats: a huge beta overflows to -inf here without a numpy warning
    beta = float(beta)
    anti = [(beta / K) * (1.0 - beta * s) for s in eigs.tolist()]
    return ChannelSpectrum(symmetric_eigenvalue=beta / K, antisymmetric_eigenvalues=anti)


def numerical_hessian(samples, K, log_beta):
    """Hessian of nll over the mean coordinates at the collapsed state, by central
    differences of its gradient.

    The collapsed state puts all K means at the sample mean, and beta =
    exp(log_beta) is held fixed. Column i is
    (g(x + h_i e_i) - g(x - h_i e_i)) / (2 h_i), with g the probe kernel's
    analytic mean gradient -(beta/N)(p z - rowsum(p) mu) (Nocedal & Wright,
    Numerical Optimization, sec. 8.1): 2 K d gradient calls. Steps are
    per-coordinate, h_a = 1e-4 * std_a of the centered samples. The output is
    symmetrized.
    """
    z = np.asarray(samples, dtype=float)
    if K < 1 or z.ndim != 2 or z.size == 0:
        raise DimensionError(f"need K >= 1 and a non-empty N x d batch, got K = {K}, {z.shape}")
    d = z.shape[1]
    _check_dense(K, d)
    beta = _precision(log_beta)
    std = z.std(axis=0)
    steps = np.tile(1e-4 * np.where(std > 0, std, 1.0), K)
    ws = _Workspace(K, z)

    def pull(flat_means):
        return _mean_pull(ws, flat_means.reshape(K, d), beta)[0].reshape(-1)

    x0 = np.tile(z.mean(axis=0), (K, 1)).reshape(-1)
    hess = np.empty((K * d, K * d))
    for i, dx in enumerate(np.diag(steps)):
        hess[:, i] = (pull(x0 + dx) - pull(x0 - dx)) * (-beta / (2.0 * steps[i] * z.shape[0]))
    return (hess + hess.T) / 2.0


def lowest_eigenvalue(beta, K, spatial_eigs):
    """Lowest eigenvalue of the collapsed-state Hessian (closed form)."""
    cs = channel_spectrum(beta, K, spatial_eigs)
    return min([cs.symmetric_eigenvalue] + (cs.antisymmetric_eigenvalues if K > 1 else []))


def _illinois(f, lo, hi, tol):
    """(root, calls of f): a root of f in the finite bracket 0 < lo < hi.

    The Illinois method (Dowell & Jarratt, BIT 11, 1971): regula falsi that
    halves the stored value of an endpoint kept twice in a row, so neither end
    stalls; a secant point not strictly inside [a, b] becomes the midpoint.
    A secant point within delta = tol * min(a, 1) / 2 of an endpoint moves
    delta inside instead (the minimum step of Dekker's and Brent's methods), so
    once the secant has found the root from one side the next point lands past
    it and closes the bracket, whatever the sign of the noise in f there.
    While b > 16 a the next point is the geometric midpoint sqrt(a b)
    instead: it halves the bracket's width in decades, where secant or
    arithmetic points would take about one evaluation per halving of its
    width, a thousand across 300 decades. It stops once
    b - a <= tol * min(a, 1), so a root far below 1 keeps its relative
    accuracy, or at float resolution, and returns the endpoint where |f| is
    smaller. An endpoint where f is exactly 0 is the root; endpoints of one
    sign raise BracketError.
    """
    if not 0 < lo < hi < math.inf:
        raise ValidationError(f"need a finite bracket 0 < beta_lo < beta_hi, got [{lo}, {hi}]")
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo, 2
    if fb == 0.0:
        return hi, 2
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise BracketError(
            f"no sign change in [{lo}, {hi}]: K * lowest eigenvalue / beta {fa:.3e} .. {fb:.3e}"
        )
    rising = fb > 0.0
    # ha, hb: the endpoints' values as the secant uses them, halved by the Illinois rule
    a, b, ha, hb, evaluations, moved = lo, hi, fa, fb, 2, None
    while b - a > tol * min(a, 1.0):
        if b > 16.0 * a:
            m, moved = math.sqrt(a) * math.sqrt(b), None
        else:
            delta = 0.5 * tol * min(a, 1.0)
            m = min(max(b - hb * (b - a) / (hb - ha), a + delta), b - delta)
            if not a < m < b:
                m = a + 0.5 * (b - a)
                if not a < m < b:
                    break
        fm = f(m)
        evaluations += 1
        if fm == 0.0:
            return m, evaluations
        if (fm > 0.0) == rising:
            ha *= 0.5 if moved == "b" else 1.0
            b, fb, hb, moved = m, fm, fm, "b"
        else:
            hb *= 0.5 if moved == "a" else 1.0
            a, fa, ha, moved = m, fm, fm, "a"
    return (a if abs(fa) <= abs(fb) else b), evaluations


def find_crossing(K, spatial_eigs, beta_lo, beta_hi):
    """Locate the beta where the closed-form lowest Hessian eigenvalue crosses zero.

    Finds the root of K lambda_low(beta) / beta = 1 - beta lambda_max
    (K >= 2) over [beta_lo, beta_hi] by the Illinois method, to a bracket
    narrower than CROSSING_TOL, absolutely and relative to beta (see
    _illinois). Returns (root, evaluations), evaluations being 3 or 4 at the
    default bracket, since the secant is exact on an affine function.
    spatial_eigs are as for channel_spectrum.
    """
    return _illinois(lambda b: lowest_eigenvalue(b, K, spatial_eigs) * (K / b),
                     beta_lo, beta_hi, CROSSING_TOL)


def find_crossing_numeric(K, samples, beta_lo, beta_hi):
    """Locate the beta where the finite-difference Hessian's lowest eigenvalue crosses zero.

    The independent (all-numeric) route: at each root-finder point the
    Hessian is rebuilt by numerical_hessian and diagonalized, and the Illinois
    method finds the root of K lambda_low / beta, as find_crossing does, to a
    bracket narrower than CROSSING_TOL. Returns (root, evaluations),
    evaluations being the number of Hessians built (4 at the default bracket).
    """
    def scaled_low(beta):
        h = numerical_hessian(samples, K, math.log(beta))
        return float(sym_eigen(h).eigenvalues[-1]) * (K / beta)

    return _illinois(scaled_low, beta_lo, beta_hi, CROSSING_TOL)
