"""Dense symmetric linear algebra, rank statistics, and weighted regression.

Everything here is a pure function of its arguments. Matrices are plain
float64 numpy arrays in row-major order; "symmetric" always means
max |A_ij - A_ji| <= 1e-12 * max|A|.

The eigensolver is LAPACK's symmetric driver as shipped with numpy
(numpy.linalg.eigh), wrapped to return a descending spectrum with a
deterministic sign per eigenvector column (d <= 4096).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, NumericalError, ValidationError

SYM_RTOL = 1e-12
MAX_EIGEN_DIM = 4096


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def check_symmetric(a, name="matrix"):
    """Validate the symmetry contract and return the (coerced) matrix."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale > 0 and np.max(np.abs(m - m.T)) > SYM_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric within {SYM_RTOL}*max|A|")
    return m


def covariance(samples):
    """Mean-centered sample covariance with divisor N (population convention).

    samples: N x d array, N >= 2. Returns a symmetric d x d matrix.
    """
    z = as_matrix(samples, "samples")
    n = z.shape[0]
    if n < 2:
        raise DimensionError(f"covariance needs at least 2 samples, got {n}")
    zc = z - z.mean(axis=0)
    c = (zc.T @ zc) / n
    return (c + c.T) / 2.0


@dataclass
class SpectrumResult:
    """Full spectrum of a symmetric matrix.

    eigenvalues: sorted non-increasing.
    eigenvectors: unit-norm columns aligned with eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(matrix):
    """Full spectrum of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Returns SpectrumResult with eigenvalues sorted descending and matching
    unit eigenvector columns. Each column's sign is fixed: its entry of
    largest magnitude (the first such entry on a tie) is positive, so
    principal axes come out the same on every call. Non-finite entries
    raise NumericalError.
    """
    a = as_matrix(matrix)
    # before the symmetry check, whose subtraction warns on inf - inf
    if not np.all(np.isfinite(a)):
        raise NumericalError("sym_eigen: matrix has non-finite entries")
    a = check_symmetric(a)
    n = a.shape[0]
    if n > MAX_EIGEN_DIM:
        raise ValidationError(f"sym_eigen limited to d <= {MAX_EIGEN_DIM}, got {n}")
    w, v = np.linalg.eigh(a)
    v = v[:, ::-1]
    if n:
        v = v * np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(n)])
    return SpectrumResult(w[::-1], v)


def _ranks(values):
    # average ranks for ties, 1-based: a run of c equal values ending at rank r gets r - (c-1)/2
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _finite_pair(xs, ys, name):
    """Two equal-length 1-D float arrays; a NaN or infinite entry is a ValidationError.

    Not a DegenerateInputError: a caller that treats a constant sequence as
    "no correlation" must not read a non-finite one that way.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"{name} needs two equal-length 1-D sequences")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError(f"{name} needs finite values")
    return x, y


def pearson(xs, ys):
    """Plain Pearson correlation; raises on a constant or non-finite input sequence."""
    x, y = _finite_pair(xs, ys, "pearson")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("correlation undefined for a constant sequence")
    return float(np.sum(xc * yc) / (sx * sy))


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties.

    Both sequences must have length >= 3 and be finite (a NaN would rank as
    the largest value); a constant sequence makes the correlation undefined
    and raises DegenerateInputError.
    """
    x, y = _finite_pair(xs, ys, "spearman")
    if x.size < 3:
        raise DimensionError(f"spearman needs length >= 3, got {x.size}")
    return pearson(_ranks(x), _ranks(y))


def weighted_linfit(xs, ys, weights):
    """Weighted least squares line fit.

    Minimizes sum_i w_i (y_i - a - b x_i)^2 and returns
    (intercept a, slope b, chi_squared) with chi_squared the minimized
    weighted residual sum. Weights must be positive; all-identical xs are a
    singular design.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (x.shape == y.shape == w.shape) or x.ndim != 1:
        raise DimensionError("weighted_linfit needs three equal-length 1-D sequences")
    if x.size < 3:
        raise DimensionError(f"weighted_linfit needs length >= 3, got {x.size}")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ValidationError("weights must be positive and finite")
    s = w.sum()
    sx = np.sum(w * x)
    sy = np.sum(w * y)
    sxx = np.sum(w * x * x)
    sxy = np.sum(w * x * y)
    det = s * sxx - sx * sx
    scale = s * sxx if s * sxx > 0 else 1.0
    if abs(det) <= 1e-14 * scale:
        raise DegenerateInputError("singular design: xs carry no spread")
    b = (s * sxy - sx * sy) / det
    a = (sy - b * sx) / s
    r = y - a - b * x
    chi2 = float(np.sum(w * r * r))
    return float(a), float(b), chi2


@dataclass
class FitReport:
    """A fitted two-coefficient escape-time model.

    model_kind: "power_law" (log tau = a + b log gamma) or
    "kramers_exponential" (log tau = a + b gamma). Logs are natural.
    aic == chi_squared + 2 * number of coefficients.
    """

    model_kind: str
    coefficients: tuple
    chi_squared: float
    aic: float


def fit_model(model_kind, gammas, log_taus, weights):
    """Fit one of the two escape-time models and assemble its FitReport."""
    g = np.asarray(gammas, dtype=float)
    if model_kind == "power_law":
        if np.any(g <= 0):
            raise ValidationError("power_law fit needs gamma > 0")
        x = np.log(g)
    elif model_kind == "kramers_exponential":
        x = g
    else:
        raise ValidationError(f"unknown model_kind {model_kind!r}")
    a, b, chi2 = weighted_linfit(x, log_taus, weights)
    return FitReport(model_kind, (a, b), chi2, chi2 + 2.0 * 2)
