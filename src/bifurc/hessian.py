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
spectrum, a central-finite-difference cross-check, and the zero-crossing
scan.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketError, PreconditionError, ValidationError
from .gmm_probe import GmmProbeState, nll
from .mathcore import check_symmetric, sym_eigen

MAX_DENSE = 4096


@dataclass
class ChannelSpectrum:
    """Closed-form Hessian spectrum at the collapsed state.

    antisymmetric_eigenvalues holds (lambda_perp_i, sigma_i^2, K-1) triples,
    ordered like the spatial eigenvalues (descending sigma_i^2, so the first
    entry is the lowest, first-destabilizing channel). unstable_direction is
    the principal spatial eigenvector when lambda_perp_1 < 0 (the full
    unstable mode is that vector tensored with any zero-sum component
    vector), else None.
    """

    symmetric_eigenvalue: float
    antisymmetric_eigenvalues: List[Tuple[float, float, int]]
    beta: float
    K: int
    unstable_direction: Optional[np.ndarray] = None


@dataclass
class CrossingReport:
    """Result of the lowest-eigenvalue zero-crossing scan."""

    beta_critical_numeric: float
    beta_critical_analytic: float
    scan_points: List[Tuple[float, float]]


def _check_beta_k(beta, K):
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")


def analytic_hessian(beta, K, cov):
    """Assemble the dense (K d) x (K d) collapsed-state Hessian."""
    _check_beta_k(beta, K)
    sigma = check_symmetric(cov, "cov")
    d = sigma.shape[0]
    if K * d > MAX_DENSE:
        raise ValidationError(
            f"dense assembly limited to K*d <= {MAX_DENSE}; use channel_spectrum"
        )
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
    anti = [(float((beta / K) * (1.0 - beta * s)), float(s), K - 1) for s in eigs]
    return ChannelSpectrum(
        symmetric_eigenvalue=beta / K,
        antisymmetric_eigenvalues=anti,
        beta=beta,
        K=K,
    )


def channel_spectrum_from_cov(beta, K, cov):
    """channel_spectrum plus the unstable-direction report when supercritical."""
    spectrum = sym_eigen(check_symmetric(cov, "cov"))
    cs = channel_spectrum(beta, K, spectrum.eigenvalues)
    if cs.antisymmetric_eigenvalues[0][0] < 0.0:
        cs = replace(cs, unstable_direction=spectrum.eigenvectors[:, 0])
    return cs


def flat_spectrum(cs):
    """All K*d eigenvalues of the assembled Hessian, sorted descending.

    beta/K appears with multiplicity d (the symmetric channel) and each
    lambda_perp_i with multiplicity K-1.
    """
    vals = [cs.symmetric_eigenvalue] * (len(cs.antisymmetric_eigenvalues))
    for lam, _, mult in cs.antisymmetric_eigenvalues:
        vals.extend([lam] * mult)
    return np.sort(np.asarray(vals))[::-1]


def numerical_hessian(state_at_collapse, samples):
    """Central-second-difference Hessian of nll over the mean coordinates.

    The state must be exactly collapsed (every mean at the sample mean);
    beta is held fixed at the state's value. Steps are per-coordinate,
    h_a = 1e-4 * std_a of the centered samples. The output is symmetrized.
    """
    z = np.asarray(samples, dtype=float)
    state = state_at_collapse
    zbar = z.mean(axis=0)
    scale = max(np.max(np.abs(z - zbar)), 1.0)
    if np.max(np.abs(state.means - zbar)) > 1e-9 * scale:
        raise PreconditionError("numerical_hessian requires all means at the sample mean")
    k, d = state.K, state.d
    n = k * d
    std = z.std(axis=0)
    h = 1e-4 * np.where(std > 0, std, 1.0)

    def f(flat_means):
        s = GmmProbeState(flat_means.reshape(k, d), state.log_precision, k, d)
        return nll(s, z)

    x0 = state.means.reshape(-1).copy()
    steps = np.tile(h, k)
    hess = np.zeros((n, n))
    f0 = f(x0)
    for i in range(n):
        xi = x0.copy()
        xi[i] += steps[i]
        fp = f(xi)
        xi[i] = x0[i] - steps[i]
        fm = f(xi)
        hess[i, i] = (fp - 2.0 * f0 + fm) / (steps[i] * steps[i])
    for i in range(n):
        for j in range(i + 1, n):
            x = x0.copy()
            x[i] += steps[i]
            x[j] += steps[j]
            fpp = f(x)
            x[j] = x0[j] - steps[j]
            fpm = f(x)
            x[i] = x0[i] - steps[i]
            fmm = f(x)
            x[j] = x0[j] + steps[j]
            fmp = f(x)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * steps[i] * steps[j])
    return (hess + hess.T) / 2.0


def lowest_eigenvalue(beta, K, spatial_eigs):
    """Lowest eigenvalue of the collapsed-state Hessian (closed form)."""
    cs = channel_spectrum(beta, K, spatial_eigs)
    lows = [lam for lam, _, mult in cs.antisymmetric_eigenvalues if mult > 0]
    return min([cs.symmetric_eigenvalue] + lows)


def _bisect(f, lo, hi, tol):
    """Root of f in the finite precision bracket 0 < lo < hi, bisected to width tol.

    An endpoint where f is exactly 0 is the root; endpoints of one sign raise
    BracketError. The loop also stops at float resolution, so it always ends.
    """
    if not 0 < lo < hi < math.inf:
        raise ValidationError(f"need a finite bracket 0 < beta_lo < beta_hi, got [{lo}, {hi}]")
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if not fa * fb < 0:
        raise BracketError(
            f"no sign change in [{lo}, {hi}]: lowest eigenvalue {fa:.3e} .. {fb:.3e}"
        )
    a, b = lo, hi
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def find_crossing(K, cov, beta_lo, beta_hi, scan_points=41, tol=1e-6):
    """Locate the beta where the lowest Hessian eigenvalue crosses zero.

    Bisects the closed-form lowest eigenvalue over [beta_lo, beta_hi] to a
    1e-6 bracket; the report also carries a uniform scan of the lowest
    eigenvalue over the bracket (it changes sign exactly once, since
    lambda_perp_1(beta) = (beta/K)(1 - beta lambda_max) is monotone through
    the crossing for beta > 0).
    """
    eigs = sym_eigen(check_symmetric(cov, "cov")).eigenvalues
    if eigs[0] <= 0:
        raise ValidationError("degenerate covariance: lambda_max <= 0")

    def low(b):
        return lowest_eigenvalue(b, K, eigs)

    root = _bisect(low, beta_lo, beta_hi, tol)
    grid = np.linspace(beta_lo, beta_hi, scan_points)
    scan = [(float(b), float(low(b))) for b in grid]
    return CrossingReport(
        beta_critical_numeric=float(root),
        beta_critical_analytic=1.0 / float(eigs[0]),
        scan_points=scan,
    )


def find_crossing_numeric(K, samples, beta_lo, beta_hi, tol=1e-6):
    """Zero-crossing scan over the finite-difference Hessian's lowest eigenvalue.

    The independent (all-numeric) route: at each bisection point the Hessian
    is rebuilt by central differences on the sample NLL and diagonalized.
    """
    z = np.asarray(samples, dtype=float)

    def low(beta):
        s = GmmProbeState(
            np.tile(z.mean(axis=0), (K, 1)), math.log(beta), K, z.shape[1]
        )
        h = numerical_hessian(s, z)
        return float(sym_eigen(h).eigenvalues[-1])

    return _bisect(low, beta_lo, beta_hi, tol)
