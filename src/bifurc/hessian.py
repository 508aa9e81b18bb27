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
kernel's analytic mean gradient), and the zero-crossing scan, whose root is
found by the Illinois method on either route.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketError, PreconditionError, ValidationError
from .gmm_probe import _check_batch, _mean_pull, _precision, _Workspace, exact_collapsed
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
    iterations: int


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
    # Python floats: a huge beta overflows to -inf here without a numpy warning
    beta = float(beta)
    anti = [((beta / K) * (1.0 - beta * s), s, K - 1) for s in eigs.tolist()]
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
    """Hessian of nll over the mean coordinates, by central differences of its gradient.

    The state must be exactly collapsed (every mean at the sample mean);
    beta is held fixed at the state's value. Column i is
    (g(x + h_i e_i) - g(x - h_i e_i)) / (2 h_i), with g the probe kernel's
    analytic mean gradient -(beta/N)(p z - rowsum(p) mu) (Nocedal & Wright,
    Numerical Optimization, sec. 8.1): 2 K d gradient calls. Steps are
    per-coordinate, h_a = 1e-4 * std_a of the centered samples. The output is
    symmetrized.
    """
    state = state_at_collapse
    z = _check_batch(state, samples)
    zbar = z.mean(axis=0)
    scale = max(np.max(np.abs(z - zbar)), 1.0)
    if np.max(np.abs(state.means - zbar)) > 1e-9 * scale:
        raise PreconditionError("numerical_hessian requires all means at the sample mean")
    k, d = state.K, state.d
    beta = _precision(state.log_precision)
    std = z.std(axis=0)
    steps = np.tile(1e-4 * np.where(std > 0, std, 1.0), k)
    ws = _Workspace(k, z)

    def pull(flat_means):
        return _mean_pull(ws, flat_means.reshape(k, d), beta)[0].reshape(-1)

    x0 = state.means.reshape(-1)
    hess = np.empty((k * d, k * d))
    for i, dx in enumerate(np.diag(steps)):
        hess[:, i] = (pull(x0 + dx) - pull(x0 - dx)) * (-beta / (2.0 * steps[i] * z.shape[0]))
    return (hess + hess.T) / 2.0


def lowest_eigenvalue(beta, K, spatial_eigs):
    """Lowest eigenvalue of the collapsed-state Hessian (closed form)."""
    cs = channel_spectrum(beta, K, spatial_eigs)
    lows = [lam for lam, _, mult in cs.antisymmetric_eigenvalues if mult > 0]
    return min([cs.symmetric_eigenvalue] + lows)


def _illinois(f, lo, hi, tol):
    """(root, calls of f): a root of f in the finite bracket 0 < lo < hi.

    The Illinois method (Dowell & Jarratt, BIT 11, 1971): regula falsi that
    halves the stored value of an endpoint kept twice in a row, so neither end
    stalls; a secant point not strictly inside [a, b] becomes the midpoint.
    While b > 16 a the next point is the geometric midpoint sqrt(a b)
    instead: it halves the bracket's width in decades, where secant or
    arithmetic points would take about one evaluation per halving of its
    width, a thousand across 300 decades. It stops once
    b - a <= tol * min(a, 1), so a root far below 1 keeps its relative
    accuracy, or at float resolution. An endpoint where f is exactly 0 is the
    root; endpoints of one sign raise BracketError.
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
            f"no sign change in [{lo}, {hi}]: lowest eigenvalue {fa:.3e} .. {fb:.3e}"
        )
    rising = fb > 0.0
    a, b, evaluations, moved = lo, hi, 2, None
    while b - a > tol * min(a, 1.0):
        if b > 16.0 * a:
            m, moved = math.sqrt(a) * math.sqrt(b), None
        else:
            m = b - fb * (b - a) / (fb - fa)
            if not a < m < b:
                m = a + 0.5 * (b - a)
                if not a < m < b:
                    break
        fm = f(m)
        evaluations += 1
        if fm == 0.0:
            return m, evaluations
        if (fm > 0.0) == rising:
            fa *= 0.5 if moved == "b" else 1.0
            b, fb, moved = m, fm, "b"
        else:
            fb *= 0.5 if moved == "a" else 1.0
            a, fa, moved = m, fm, "a"
    return a + 0.5 * (b - a), evaluations


def find_crossing(K, cov, beta_lo, beta_hi, scan_points=41, tol=1e-6):
    """Locate the beta where the lowest Hessian eigenvalue crosses zero.

    Finds the root of the closed-form lowest eigenvalue over
    [beta_lo, beta_hi] by the Illinois method, to a bracket narrower than tol,
    absolutely and relative to beta (see _illinois); iterations counts its
    evaluations. The report also carries a uniform scan of the lowest
    eigenvalue over the bracket (it changes sign exactly once, since
    lambda_perp_1(beta) = (beta/K)(1 - beta lambda_max) is monotone through
    the crossing for beta > 0).
    """
    eigs = sym_eigen(check_symmetric(cov, "cov")).eigenvalues
    if eigs[0] <= 0:
        raise ValidationError("degenerate covariance: lambda_max <= 0")

    def low(b):
        return lowest_eigenvalue(b, K, eigs)

    root, iterations = _illinois(low, beta_lo, beta_hi, tol)
    grid = np.linspace(beta_lo, beta_hi, scan_points)
    scan = [(float(b), float(low(b))) for b in grid]
    return CrossingReport(
        beta_critical_numeric=float(root),
        beta_critical_analytic=1.0 / float(eigs[0]),
        scan_points=scan,
        iterations=iterations,
    )


def find_crossing_numeric(K, samples, beta_lo, beta_hi, tol=1e-6):
    """Zero-crossing scan over the finite-difference Hessian's lowest eigenvalue.

    The independent (all-numeric) route: at each root-finder point the
    Hessian is rebuilt by numerical_hessian and diagonalized. Returns
    (root, evaluations), evaluations being the number of Hessians built.
    """
    z = np.asarray(samples, dtype=float)

    def low(beta):
        h = numerical_hessian(exact_collapsed(z, K, math.log(beta)), z)
        return float(sym_eigen(h).eigenvalues[-1])

    return _illinois(low, beta_lo, beta_hi, tol)
