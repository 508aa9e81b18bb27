"""Synthetic datasets, probe traversal protocols, and the toy co-evolving encoder.

The protocols here drive the prototype probe across its critical precision in
four ways and log the trajectory in the shared phase coordinates
(log beta, log beta_c, log ratio, NC1, order parameter):

  * run_forward_split      rising beta on static latents (learned precision,
                           or an external ramp-and-hold with a branch map)
  * run_reverse_traversal  descending beta levels from a split probe, with a
                           merge-point extrapolation
  * run_endogenous         a linear autoencoder trained alongside the probe,
                           so the crossing is produced by the data pipeline
                           itself rather than by an external schedule
  * run_hierarchical       two-level data: a first split into super-clusters,
                           then (when the within-super geometry is anisotropic
                           enough) a second split into sub-clusters

Activation is defined uniformly: the order parameter exceeds 10x its
pre-critical median on 5 consecutive recorded steps; the activation step and
beta are those of the first reading in that streak. NC1 is the scalar
trace(within-class scatter)/trace(between-class scatter).
"""

import json
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import __version__
from .csvio import read_table, write_table
from .errors import (
    AbortedRunError,
    DegenerateInputError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .gmm_probe import (
    CriticalityReading,
    GmmProbeState,
    ProbeConfig,
    _equilibrium,
    _joint_step,
    _mean_step,
    _spread,
    _Workspace,
    init_collapsed,
    split_direction,
)
from .mathcore import covariance, sym_eigen, weighted_linfit

ACTIVATION_FACTOR = 10.0
ACTIVATION_CONSECUTIVE = 5
HYPOTHESIS_REL_TOL = 1e-9
# equilibrium-branch levels are solved to max|G(mu) - mu| <= this * sqrt(lambda_max)
EQUILIBRIUM_REL_TOL = 1e-10

TRAJECTORY_HEADER = ["step", "log_beta", "log_beta_c", "log_ratio", "nc1", "order_parameter"]


# ---------------------------------------------------------------------------
# datasets


@dataclass
class SyntheticDataset:
    """Labeled sample cloud plus the generator descriptor that produced it."""

    samples: np.ndarray  # N x d
    labels: np.ndarray  # N integers in [0, n_components)
    kind: str
    centers: np.ndarray  # n_components x d
    scales: np.ndarray  # per-component isotropic scale
    seed: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.scales = np.asarray(self.scales, dtype=float)
        if self.samples.ndim != 2 or len(self.labels) != len(self.samples):
            raise ValidationError("samples must be N x d with one label per row")
        c = self.centers.shape[0]
        if self.labels.min(initial=0) < 0 or (len(self.labels) and self.labels.max() >= c):
            raise ValidationError("labels out of component range")
        if np.any(self.scales <= 0):
            raise ValidationError("component scales must be > 0")

    @property
    def n_components(self):
        return self.centers.shape[0]

    def component_counts(self):
        return np.bincount(self.labels, minlength=self.n_components)


def counts_within_multinomial_band(dataset, n_sigma=3.0):
    """True when every component count is within n_sigma of n/C (equal weights)."""
    n = len(dataset.labels)
    c = dataset.n_components
    expect = n / c
    sigma = math.sqrt(n * (1.0 / c) * (1.0 - 1.0 / c))
    return bool(np.all(np.abs(dataset.component_counts() - expect) <= n_sigma * sigma))


def gen_bimodal(n, center_offset=2.0, scale=1.0, seed=0):
    """Two isotropic components at (-offset, 0) and (+offset, 0) in 2D."""
    if center_offset == 0.0:
        raise ValidationError("center_offset 0 collapses both components onto one point")
    if scale <= 0 or n < 2:
        raise ValidationError("need scale > 0 and n >= 2")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    z = scale * rng.standard_normal((n, 2))
    z[:, 0] += np.where(labels == 0, -center_offset, center_offset)
    centers = np.array([[-center_offset, 0.0], [center_offset, 0.0]])
    return SyntheticDataset(z, labels, "bimodal", centers, np.full(2, float(scale)), seed)


def gen_unimodal(n, dim=2, scale=1.0, seed=0):
    """A single isotropic component at the origin (the no-structure control)."""
    if scale <= 0 or n < 2 or dim < 1:
        raise ValidationError("need scale > 0, n >= 2, dim >= 1")
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((n, dim))
    return SyntheticDataset(
        z, np.zeros(n, dtype=int), "unimodal", np.zeros((1, dim)), np.full(1, float(scale)), seed
    )


def gen_hierarchical(n, super_spacing=8.0, sub_spacing=2.0, scale=0.5, seed=0):
    """Four super-clusters on a square grid, each split into two sub-clusters.

    Super-centers sit at (+-super_spacing/2, +-super_spacing/2); each super
    holds two sub-centers offset +-sub_spacing/2 along x. Eight components,
    labels 0..7 with label//2 giving the super index. sub_spacing 0 is the
    degenerate one-level variant (allowed); all spacings 0 is rejected.
    """
    if super_spacing == 0.0 and sub_spacing == 0.0:
        raise ValidationError("all centers coincide: no cluster structure")
    if scale <= 0 or n < 8:
        raise ValidationError("need scale > 0 and n >= 8")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, n)
    supers = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float) * (super_spacing / 2.0)
    centers = np.repeat(supers, 2, axis=0)
    centers[:, 0] += np.tile([-sub_spacing / 2.0, sub_spacing / 2.0], 4)
    z = centers[labels] + scale * rng.standard_normal((n, 2))
    return SyntheticDataset(z, labels, "hierarchical", centers, np.full(8, float(scale)), seed)


def super_centers(dataset):
    """The 4 super-cluster centers of a hierarchical dataset (mean of each pair)."""
    if dataset.kind != "hierarchical" or dataset.n_components != 8:
        raise ValidationError("super_centers is defined for the 8-component hierarchical kind")
    return 0.5 * (dataset.centers[0::2] + dataset.centers[1::2])


# ---------------------------------------------------------------------------
# the collapse metric


def nc1(latents, labels, variant="trace_ratio"):
    """Within/between class scatter ratio of a labeled latent cloud.

    trace_ratio (default): trace(S_W)/trace(S_B), with S_W the pooled
    within-class covariance and S_B the count-weighted covariance of class
    means (both with the 1/N divisor). Variant "pinv" returns
    trace(S_W pinv(S_B))/C. Needs >= 2 classes, each with >= 2 samples, and
    non-coincident class means.
    """
    z = np.asarray(latents, dtype=float)
    lab = np.asarray(labels)
    if z.ndim != 2 or len(lab) != len(z):
        raise ValidationError("latents must be N x d with one label per row")
    classes = np.unique(lab)
    if len(classes) < 2:
        raise DegenerateInputError("nc1 needs >= 2 classes")
    n, d = z.shape
    gmean = z.mean(axis=0)
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for c in classes:
        zc = z[lab == c]
        if len(zc) < 2:
            raise DegenerateInputError(f"class {c} has fewer than 2 samples")
        mu = zc.mean(axis=0)
        dev = zc - mu
        s_w += dev.T @ dev
        dm = mu - gmean
        s_b += len(zc) * np.outer(dm, dm)
    s_w /= n
    s_b /= n
    tr_w = float(np.trace(s_w))
    tr_b = float(np.trace(s_b))
    if tr_b <= 0.0 or tr_b <= 1e-15 * tr_w:  # coincident means up to float residue
        raise DegenerateInputError("between-class scatter is zero: class means coincide")
    if variant == "trace_ratio":
        return tr_w / tr_b
    if variant == "pinv":
        spectrum = sym_eigen(s_b)
        tol = 1e-12 * max(abs(spectrum.eigenvalues[0]), 1.0)
        inv = np.zeros_like(spectrum.eigenvalues)
        keep = np.abs(spectrum.eigenvalues) > tol
        inv[keep] = 1.0 / spectrum.eigenvalues[keep]
        pinv_b = (spectrum.eigenvectors * inv[None, :]) @ spectrum.eigenvectors.T
        return float(np.trace(s_w @ pinv_b)) / len(classes)
    raise ValidationError(f"unknown nc1 variant: {variant!r}")


def _dataset_nc1(dataset, latents):
    """NC1 of the given latents under the dataset's labels, None when undefined."""
    try:
        return nc1(latents, dataset.labels)
    except DegenerateInputError:
        return None


# ---------------------------------------------------------------------------
# trajectory log


@dataclass
class TrajectoryLog:
    """Ordered criticality readings plus a JSON-ready protocol summary."""

    experiment_id: str
    seed: int
    readings: List[CriticalityReading] = field(default_factory=list)
    config_hash: str = ""
    summary: dict = field(default_factory=dict)

    def append(self, reading):
        if self.readings and reading.step <= self.readings[-1].step:
            raise ValidationError(
                f"steps must increase: {reading.step} after {self.readings[-1].step}"
            )
        self.readings.append(reading)

    def column(self, name):
        vals = [getattr(r, name) for r in self.readings]
        if name == "nc1":
            vals = [math.nan if v is None else v for v in vals]
        return np.asarray(vals, dtype=float)


def write_trajectory_csv(log, path, extra_comment=None):
    """CSV with one leading comment line carrying the run identity."""
    identity = (
        f"experiment={log.experiment_id} seed={log.seed} "
        f"config={log.config_hash or 'none'} version={__version__}"
    )
    rows = (
        [r.step] + [None if v is None else float(v) for v in (
            r.log_beta, r.log_beta_c, r.log_ratio, r.nc1, r.order_parameter)]
        for r in log.readings
    )
    write_table(path, TRAJECTORY_HEADER, rows, [identity, extra_comment])


def _reading(rec):
    lbc = float(rec[2])
    return CriticalityReading(
        step=int(rec[0]),
        log_beta=float(rec[1]),
        log_beta_c=lbc,
        log_ratio=float(rec[3]),
        nc1=float(rec[4]) if rec[4].strip() else None,
        order_parameter=float(rec[5]),
        degenerate=math.isinf(lbc),
    )


def read_trajectory_csv(path):
    """Inverse of write_trajectory_csv; tolerates missing comment lines."""
    meta = {"experiment": "unknown", "seed": 0, "config": ""}
    comments, rows = read_table(path, TRAJECTORY_HEADER, "trajectory", _reading)
    pairs = (tok.split("=", 1) for line in comments for tok in line.split() if "=" in tok)
    meta.update((k, v) for k, v in pairs if k in meta)
    try:
        seed = int(meta["seed"])
    except ValueError:
        seed = 0
    log = TrajectoryLog(meta["experiment"], seed, config_hash=meta["config"].replace("none", ""))
    for r in rows:
        log.append(r)
    return log


def _native(obj):
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def trajectory_summary(log):
    """The canonical JSON summary: identity, crossing, activations, split angle."""
    out = {
        "experiment_id": log.experiment_id,
        "seed": int(log.seed),
        "config_hash": log.config_hash,
        "version": __version__,
        "n_readings": len(log.readings),
        "crossing_step": None,
        "activation_steps": [],
        "split_angle_deg": None,
    }
    out.update(_native(log.summary))
    return out


def write_trajectory_summary(log, path):
    with open(path, "w") as fh:
        json.dump(trajectory_summary(log), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# activation detection and latent geometry (the protocols step the probe with
# the gmm_probe kernel on raw arrays: means mu and log precision lb)


class _ActivationTracker:
    """10x pre-critical-median, 5-consecutive activation detector."""

    def __init__(self, factor=ACTIVATION_FACTOR, consecutive=ACTIVATION_CONSECUTIVE):
        self.factor = factor
        self.consecutive = consecutive
        self.pre = []
        self.recent = []
        self.median = None
        self.step = None
        self.log_beta = None

    def feed(self, step, log_beta, op, supercritical):
        if not supercritical:
            self.pre.append(op)
            return False
        if self.median is None:
            self.median = float(np.median(self.pre)) if self.pre else max(op, 1e-300)
        if self.step is not None:
            return True
        self.recent.append((step, log_beta, op))
        if len(self.recent) > self.consecutive:
            self.recent.pop(0)
        if len(self.recent) == self.consecutive and all(
            o > self.factor * self.median for _, _, o in self.recent
        ):
            self.step, self.log_beta = self.recent[0][0], self.recent[0][1]
            return True
        return False


def _principal_axis(samples):
    return sym_eigen(covariance(samples)).eigenvectors[:, 0]


def _split_angle_deg(state, samples):
    v = split_direction(state)
    u = _principal_axis(samples)
    cosv = abs(float(v @ u)) / (
        float(np.sqrt((v * v).sum())) * float(np.sqrt((u * u).sum()))
    )
    return math.degrees(math.acos(min(1.0, cosv)))


def _lam_and_logbc(samples):
    lam = float(sym_eigen(covariance(samples)).eigenvalues[0])
    if lam <= 0.0:
        raise DegenerateInputError("degenerate sample covariance")
    return lam, -math.log(lam)


# ---------------------------------------------------------------------------
# schedules


@dataclass
class LearnedBetaSchedule:
    """Let the probe's own precision channel carry beta across the crossing."""

    steps: int = 7000
    record_every: int = 20

    def __post_init__(self):
        if self.steps < 1 or self.record_every < 1:
            raise ValidationError("steps and record_every must be >= 1")


@dataclass
class AnnealHoldSchedule:
    """External precision protocol: ramp, hold until activation, map the branch.

    Ramp runs log-linearly from the probe's log_beta_init to
    hold_ratio * beta_c_hat over ramp_steps at hold_lr and holds there until
    the activation detector fires (or max_steps). The equilibrium branch is
    then mapped from the hold level up to branch_top_ratio * beta_c_hat in
    branch_levels geometric levels, each solved by EM (at most
    max_inner_steps iterations) from the previous level's means.
    """

    ramp_steps: int = 1000
    hold_ratio: float = 1.35
    hold_lr: float = 5e-3
    max_steps: int = 30000
    branch_levels: int = 12
    branch_top_ratio: float = 2.4
    record_every: int = 20
    max_inner_steps: int = 9000

    def __post_init__(self):
        if self.hold_ratio <= 1.0 or self.branch_top_ratio <= self.hold_ratio:
            raise ValidationError("need hold_ratio > 1 and branch_top_ratio > hold_ratio")
        if min(self.ramp_steps, self.max_steps, self.record_every, self.branch_levels,
               self.max_inner_steps) < 1:
            raise ValidationError("schedule step counts must be >= 1")


@dataclass
class ReverseSchedule:
    """Descending geometric beta levels, each solved by EM (at most max_inner_steps iterations)."""

    levels: int = 36
    top_ratio: float = 2.4
    bottom_ratio: float = 0.3
    max_inner_steps: int = 9000

    def __post_init__(self):
        if self.levels < 4 or self.max_inner_steps < 1:
            raise ValidationError("need >= 4 levels and max_inner_steps >= 1")
        if not (0 < self.bottom_ratio < 1.0 < self.top_ratio):
            raise ValidationError("need bottom_ratio < 1 < top_ratio")


# ---------------------------------------------------------------------------
# protocols

# A diverging run overflows inside numpy before the kernel's finite guards see
# the result; the guards raise NumericalError, so the protocols (and the
# calibrate-hessian command) silence numpy's overflow/invalid warnings once per
# run instead of per kernel call.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def run_forward_split(dataset, config, schedule=None):
    """Drive the probe from below to above the critical precision.

    schedule None (or LearnedBetaSchedule) trains means and precision jointly:
    beta rises on its own while the latents stay fixed. An AnnealHoldSchedule
    instead imposes the precision externally and additionally maps the
    equilibrium branch upward for later overlap comparisons.

    Returns (TrajectoryLog, trained GmmProbeState).
    """
    if schedule is None:
        schedule = LearnedBetaSchedule()
    z = dataset.samples
    ws = _Workspace(config.K_probe, z)
    lam, log_bc = _lam_and_logbc(z)
    rng = np.random.default_rng(dataset.seed + 99)
    mu = init_collapsed(z, config, rng).means
    const_nc1 = _dataset_nc1(dataset, z)
    log = TrajectoryLog("forward-split", dataset.seed)
    tracker = _ActivationTracker()

    def reading(step, lb, op):
        return CriticalityReading(
            step=step, log_beta=lb, log_beta_c=log_bc, log_ratio=lb - log_bc,
            nc1=const_nc1, order_parameter=op,
        )

    if isinstance(schedule, LearnedBetaSchedule):
        lb = config.log_beta_init
        for n in range(schedule.steps):
            mu, lb = _joint_step(ws, mu, lb, config.lr_means, config.lr_logbeta)
            if n % schedule.record_every == 0:
                op = _spread(mu)
                log.append(reading(n, lb, op))
                tracker.feed(n, lb, op, supercritical=lb >= log_bc)
        final = GmmProbeState(mu, lb, config.K_probe, z.shape[1])
        _finish_forward(log, dataset, final, lam, tracker)
        return log, final

    if not isinstance(schedule, AnnealHoldSchedule):
        raise ValidationError("schedule must be LearnedBetaSchedule or AnnealHoldSchedule")

    lb0 = config.log_beta_init
    # hold level is hold_ratio * beta_c_hat = hold_ratio / lam
    lb_hold = math.log(schedule.hold_ratio) - math.log(lam)
    n = 0
    while n < schedule.max_steps:
        lb = lb0 + (lb_hold - lb0) * min(1.0, n / schedule.ramp_steps)
        mu = _mean_step(ws, mu, math.exp(lb), schedule.hold_lr)[0]
        if n % schedule.record_every == 0:
            op = _spread(mu)
            log.append(reading(n, lb, op))
            if tracker.feed(n, lb, op, supercritical=lb >= log_bc):
                break
        n += 1
    # the branch starts at the hold level; n counts EM iterations from here on
    tol = EQUILIBRIUM_REL_TOL * math.sqrt(lam)
    branch, iterations, residuals = [], [], []
    lb_top = math.log(schedule.branch_top_ratio) - math.log(lam)
    for lb_level in np.linspace(lb_hold, lb_top, schedule.branch_levels):
        b = math.exp(lb_level)
        mu, its, res = _equilibrium(ws, mu, b, tol, schedule.max_inner_steps)
        n += its
        op = _spread(mu)
        log.append(reading(n, lb_level, op))
        branch.append([b, op])
        iterations.append(its)
        residuals.append(res)
    final = GmmProbeState(mu, lb0, config.K_probe, z.shape[1])
    _finish_forward(log, dataset, final, lam, tracker)
    log.summary.update(
        {"branch": branch, "branch_iterations": iterations, "branch_max_residual": max(residuals)}
    )
    return log, final


def _finish_forward(log, dataset, state, lam, tracker):
    beta_c_hat = 1.0 / lam
    summary = {
        "beta_c_hat": beta_c_hat,
        "max_order_parameter": float(max(r.order_parameter for r in log.readings)),
        "crossing_step": next(
            (r.step for r in log.readings if r.log_ratio >= 0.0), None
        ),
        "activation_steps": [] if tracker.step is None else [tracker.step],
        "activation_beta": None if tracker.step is None else math.exp(tracker.log_beta),
        "overshoot_ratio": None
        if tracker.step is None
        else math.exp(tracker.log_beta) / beta_c_hat,
        "split_angle_deg": _split_angle_deg(state, dataset.samples),
        "split_direction": split_direction(state).tolist(),
    }
    log.summary.update(summary)


@_quiet_overflow
def run_reverse_traversal(dataset, probe, schedule=None):
    """Anneal a split probe's precision back down through the crossing.

    Each descending level is solved by EM from the previous level's means,
    and the step counter advances by EM iterations; the merge point is the
    zero intercept of a straight-line fit to order_parameter^2 vs beta over
    the branch shoulder (readings between 25% and 60% of the plateau).
    """
    if schedule is None:
        schedule = ReverseSchedule()
    z = dataset.samples
    lam, log_bc = _lam_and_logbc(z)
    beta_c_hat = 1.0 / lam
    const_nc1 = _dataset_nc1(dataset, z)
    mu = probe.means
    ws = _Workspace(mu.shape[0], z)
    tol = EQUILIBRIUM_REL_TOL * math.sqrt(lam)
    log = TrajectoryLog("reverse-traversal", dataset.seed)
    levels = np.exp(
        np.linspace(
            math.log(schedule.top_ratio * beta_c_hat),
            math.log(schedule.bottom_ratio * beta_c_hat),
            schedule.levels,
        )
    )
    n = 0
    branch, iterations, residuals = [], [], []
    for b in levels:
        mu, its, res = _equilibrium(ws, mu, b, tol, schedule.max_inner_steps)
        n += its
        iterations.append(its)
        residuals.append(res)
        op = _spread(mu)
        lb = math.log(b)
        log.append(
            CriticalityReading(
                step=n, log_beta=lb, log_beta_c=log_bc, log_ratio=lb - log_bc,
                nc1=const_nc1, order_parameter=op,
            )
        )
        branch.append([float(b), op])
    arr = np.asarray(branch)
    plateau = float(arr[0, 1])
    shoulder = (arr[:, 1] > 0.25 * plateau) & (arr[:, 1] < 0.60 * plateau)
    merge_beta = None
    if shoulder.sum() >= 3:
        a, slope, _ = weighted_linfit(
            arr[shoulder, 0], arr[shoulder, 1] ** 2, np.ones(int(shoulder.sum()))
        )
        if slope != 0.0:
            merge_beta = -a / slope
    half_idx = int(np.argmin(np.abs(arr[:, 0] - 0.5 * beta_c_hat)))
    log.summary.update(
        {
            "beta_c_hat": beta_c_hat,
            "plateau_order_parameter": plateau,
            "branch": branch,
            "branch_iterations": iterations,
            "branch_max_residual": max(residuals),
            "merge_beta": merge_beta,
            "merge_relative_error": None
            if merge_beta is None
            else (merge_beta - beta_c_hat) / beta_c_hat,
            "op_fraction_at_half_beta_c": float(arr[half_idx, 1] / plateau),
            "crossing_step": None,
            "activation_steps": [],
        }
    )
    return log


def branch_overlap(forward_log, reverse_log, lo_ratio=1.45, hi_ratio=2.3, points=10):
    """Max relative order-parameter deviation between the two equilibrium branches.

    Both logs must carry a 'branch' summary ([beta, op] pairs); they are
    interpolated onto a common beta grid spanning [lo_ratio, hi_ratio] times
    the forward run's estimated critical precision.
    """
    if "branch" not in forward_log.summary or "branch" not in reverse_log.summary:
        raise ValidationError("both logs need a mapped equilibrium branch")
    bc = forward_log.summary["beta_c_hat"]
    fwd = np.asarray(sorted(forward_log.summary["branch"]))
    rev = np.asarray(sorted(reverse_log.summary["branch"]))
    grid = np.linspace(lo_ratio * bc, hi_ratio * bc, points)
    fi = np.interp(grid, fwd[:, 0], fwd[:, 1])
    ri = np.interp(grid, rev[:, 0], rev[:, 1])
    return float(np.max(np.abs(fi - ri) / np.maximum(fi, ri)))


# ---------------------------------------------------------------------------
# endogenous crossing (toy encoder + probe co-evolution)


@dataclass
class ToyEncoderState:
    """Linear autoencoder x -> z = x W^T -> x_hat = z V^T, trained by GD on MSE."""

    encode: np.ndarray  # d_lat x d_in
    decode: np.ndarray  # d_in x d_lat
    learning_rate: float
    step: int = 0

    def latents(self, x):
        return x @ self.encode.T

    def loss(self, x):
        err = self.latents(x) @ self.decode.T - x
        return float((err * err).mean() * x.shape[1])  # mean over rows of ||err||^2

    def gd_step(self, x):
        n = x.shape[0]
        z = x @ self.encode.T
        err = z @ self.decode.T - x
        g_dec = (2.0 / n) * err.T @ z
        g_enc = (2.0 / n) * (err @ self.decode).T @ x
        self.encode = self.encode - self.learning_rate * g_enc
        self.decode = self.decode - self.learning_rate * g_dec
        self.step += 1


@_quiet_overflow
def run_endogenous(
    dataset,
    encoder_lr=0.05,
    config=None,
    steps=14000,
    latent_dim=2,
    init_weight_scale=0.1,
    record_every=20,
):
    """Alternate one encoder GD step and one joint probe step on its latents.

    The encoder starts with small weights, so the latent cloud is compressed
    and beta(0) < beta_c(0); training spreads the latents (beta_c falls)
    while the probe's precision channel raises beta, so the two series cross
    without any external schedule. Stops early once activation fires.
    Encoder divergence raises AbortedRunError carrying the partial log.
    """
    if latent_dim < 1 or record_every < 1:
        raise ValidationError("latent_dim and record_every must be >= 1")
    if config is None:
        config = ProbeConfig(K_probe=8, lr_means=0.015, lr_logbeta=1e-2)
    x = dataset.samples
    rng = np.random.default_rng(dataset.seed + 500)
    enc = ToyEncoderState(
        encode=init_weight_scale * rng.standard_normal((latent_dim, x.shape[1])),
        decode=init_weight_scale * rng.standard_normal((x.shape[1], latent_dim)),
        learning_rate=encoder_lr,
    )
    z = enc.latents(x)
    ws = _Workspace(config.K_probe, z)
    mu = init_collapsed(z, config, rng).means
    lb = config.log_beta_init
    lam0, log_bc0 = _lam_and_logbc(z)
    delta0 = config.log_beta_init - log_bc0
    if delta0 >= 0.0:
        raise PreconditionError(
            f"initial precision already supercritical: delta(0) = {delta0:.3f} >= 0"
        )
    log = TrajectoryLog("endogenous", dataset.seed, summary={"delta0": delta0})
    tracker = _ActivationTracker()
    loss_trace = []
    for n in range(steps):
        enc.gd_step(x)
        z = enc.latents(x)
        ws.load(z)
        try:
            mu, lb = _joint_step(ws, mu, lb, config.lr_means, config.lr_logbeta)
        except NumericalError as blowup:
            raise AbortedRunError(
                f"encoder-probe co-evolution diverged at step {n}: {blowup}", partial=log
            ) from None
        if n % record_every == 0:
            loss = enc.loss(x)
            if not math.isfinite(loss):
                raise AbortedRunError(
                    f"encoder diverged at step {n} (loss = {loss})", partial=log
                )
            lam, log_bc = _lam_and_logbc(z)
            op = _spread(mu)
            log.append(
                CriticalityReading(
                    step=n, log_beta=lb, log_beta_c=log_bc, log_ratio=lb - log_bc,
                    nc1=_dataset_nc1(dataset, z), order_parameter=op,
                )
            )
            loss_trace.append([n, loss])
            if tracker.feed(n, lb, op, supercritical=lb >= log_bc):
                break
    crossing = next((r.step for r in log.readings if r.log_ratio >= 0.0), None)
    log.summary.update(
        {
            "crossing_step": crossing,
            "activation_steps": [] if tracker.step is None else [tracker.step],
            "final_loss": loss_trace[-1][1] if loss_trace else None,
            "loss_trace": loss_trace,
            "split_angle_deg": None,
            "hypothesis_failures": audit_hypotheses(log),
            "encoder_steps": enc.step,
        }
    )
    return log


def audit_hypotheses(log, window_steps=100, rel_tol=HYPOTHESIS_REL_TOL):
    """Check the crossing argument's two premises on windowed averages.

    Premise 1: beta(t) non-decreasing; premise 2: beta_c(t) non-increasing —
    both on consecutive window_steps-sized window means, with a small relative
    tolerance so float-level jitter near an asymptote is not reported.
    Returns a list of violation events (empty for a healthy run).
    """
    bins = {}
    for r in log.readings:
        bins.setdefault(r.step // window_steps, []).append(r)
    keys = sorted(bins)
    events = []
    prev_beta = prev_bc = None
    for kb in keys:
        grp = bins[kb]
        beta = float(np.mean([math.exp(r.log_beta) for r in grp]))
        bc = float(np.mean([math.exp(r.log_beta_c) for r in grp]))
        if prev_beta is not None and beta < prev_beta * (1.0 - rel_tol):
            events.append(
                {"channel": "beta", "window_start_step": int(kb * window_steps),
                 "delta": beta - prev_beta}
            )
        if prev_bc is not None and bc > prev_bc * (1.0 + rel_tol):
            events.append(
                {"channel": "beta_c", "window_start_step": int(kb * window_steps),
                 "delta": bc - prev_bc}
            )
        prev_beta, prev_bc = beta, bc
    return events


# ---------------------------------------------------------------------------
# hierarchical two-stage splitting


@dataclass
class HierarchySchedule:
    """Phase plan for the two-stage traversal (ratios are vs each stage's beta_c).

    After stage 2 the means are solved by EM (at most max_inner_steps
    iterations) at hold2_ratio * beta_c2 before the assignment is read.
    """

    ramp1_steps: int = 1500
    hold1_ratio: float = 1.3
    max1_steps: int = 25000
    bridge_steps: int = 2500
    settle_steps: int = 800
    ramp2_steps: int = 2000
    hold2_ratio: float = 1.3
    max2_steps: int = 12000
    max_inner_steps: int = 9000
    record_every: int = 20
    start_ratio: float = 0.5
    anisotropy_gate: float = 0.65

    def __post_init__(self):
        if not (0.0 < self.start_ratio < 1.0 < self.hold1_ratio and 1.0 < self.hold2_ratio):
            raise ValidationError("need 0 < start_ratio < 1 < hold1_ratio and hold2_ratio")
        if min(self.ramp1_steps, self.max1_steps, self.ramp2_steps, self.max2_steps,
               self.max_inner_steps, self.record_every) < 1:
            raise ValidationError("schedule step counts must be >= 1")


@_quiet_overflow
def run_hierarchical(dataset, config=None, schedule=None):
    """Two-stage traversal of a hierarchical dataset with K = 8 prototypes.

    Stage 1 ramps the precision across beta_c1 = 1/lambda_max(total cov) and
    detects the super-cluster split via the global order parameter. Stage 2
    runs only when the pooled within-super covariance is anisotropic enough
    (top eigenvalue fraction >= anisotropy_gate); it ramps across
    beta_c2 = 1/lambda_max(within cov) and detects the sub-cluster split via
    the within-super order parameter. The means are then solved by EM at the
    stage-2 hold level, and the prototype-to-subcluster assignment of that
    equilibrium is reported for the tessellation check.
    """
    if config is None:
        config = ProbeConfig(K_probe=8, lr_means=0.08)
    if schedule is None:
        schedule = HierarchySchedule()
    if dataset.kind != "hierarchical":
        raise ValidationError("run_hierarchical needs the hierarchical dataset kind")
    if config.K_probe != 8:
        raise ValidationError("the two-level protocol uses K_probe = 8")
    z = dataset.samples
    n_samp = len(z)
    lam1, log_bc1 = _lam_and_logbc(z)
    bc1 = 1.0 / lam1
    sup = super_centers(dataset)
    sup_lab = dataset.labels // 2
    within = np.vstack([z[sup_lab == s] - z[sup_lab == s].mean(axis=0) for s in range(4)])
    w_spec = sym_eigen((within.T @ within) / len(within))
    lam2 = float(w_spec.eigenvalues[0])
    bc2 = 1.0 / lam2
    anisotropy = lam2 / float(np.sum(w_spec.eigenvalues))
    gate = anisotropy >= schedule.anisotropy_gate

    # corner-stratified jitter on the top principal axes: one prototype pair
    # aimed at each future super-cluster, so the 8-fold symmetry is broken
    # evenly instead of multinomially
    rng = np.random.default_rng(dataset.seed + 1000)
    spectrum = sym_eigen(covariance(z))
    axes = spectrum.eigenvectors[:, :2]
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    pattern = np.vstack([corners, corners])
    delta = 1e-3 * math.sqrt(lam1)
    mu = z.mean(axis=0) + delta * (pattern @ axes.T) + 0.1 * delta * rng.standard_normal((8, 2))
    ws = _Workspace(8, z)
    const_nc1 = _dataset_nc1(dataset, z)
    log = TrajectoryLog("hierarchical", dataset.seed)

    def record(step, lb):
        log.append(
            CriticalityReading(
                step=step, log_beta=lb, log_beta_c=log_bc1, log_ratio=lb - log_bc1,
                nc1=const_nc1, order_parameter=_spread(mu),
            )
        )

    def within_op(mu):
        g = np.argmin(((mu[:, None, :] - sup[None, :, :]) ** 2).sum(axis=-1), axis=1)
        tot = 0.0
        for s in range(4):
            m = mu[g == s]
            if len(m) > 1:
                tot += ((m - m.mean(axis=0)) ** 2).sum()
        return math.sqrt(tot / len(mu))

    lr = config.lr_means
    # stage 1: ramp across bc1, hold, detect the super split
    lb_a0 = math.log(schedule.start_ratio * bc1)
    lb_a1 = math.log(schedule.hold1_ratio * bc1)
    tracker1 = _ActivationTracker()
    n = 0
    lb = lb_a0
    while n < schedule.max1_steps:
        lb = lb_a0 + (lb_a1 - lb_a0) * min(1.0, n / schedule.ramp1_steps)
        mu = _mean_step(ws, mu, math.exp(lb), lr)[0]
        if n % schedule.record_every == 0:
            record(n, lb)
            if tracker1.feed(n, lb, _spread(mu), supercritical=lb >= math.log(bc1)):
                break
        n += 1
    events = []
    if tracker1.step is not None:
        events.append(
            {"stage": 1, "step": tracker1.step, "beta": math.exp(tracker1.log_beta),
             "ratio_to_target": math.exp(tracker1.log_beta) / bc1}
        )
    summary = {
        "beta_c1_hat": bc1,
        "beta_c2_hat": bc2,
        "within_anisotropy": anisotropy,
        "second_stage_gate": bool(gate),
        "crossing_step": next((r.step for r in log.readings if r.log_ratio >= 0.0), None),
    }
    tracker2 = _ActivationTracker()
    if gate and tracker1.step is not None:
        # bridge to below bc2, settle, then stage 2 across bc2
        lb_b1 = math.log(schedule.start_ratio * bc2)
        lb_b0 = lb
        for m in range(schedule.bridge_steps):
            n += 1
            beta = math.exp(lb_b0 + (lb_b1 - lb_b0) * m / schedule.bridge_steps)
            mu = _mean_step(ws, mu, beta, lr)[0]
        for _ in range(schedule.settle_steps):
            n += 1
            mu = _mean_step(ws, mu, math.exp(lb_b1), lr)[0]
        record(n, lb_b1)
        lb_c1 = math.log(schedule.hold2_ratio * bc2)
        m = 0
        while m < schedule.max2_steps:
            lb = lb_b1 + (lb_c1 - lb_b1) * min(1.0, m / schedule.ramp2_steps)
            mu = _mean_step(ws, mu, math.exp(lb), lr)[0]
            if m % schedule.record_every == 0:
                n_glob = n + m + 1
                record(n_glob, lb)
                if tracker2.feed(n_glob, lb, within_op(mu), supercritical=lb >= math.log(bc2)):
                    break
            m += 1
        n += m + 1
        # finish: the equilibrium at the stage-2 hold level; n advances by EM iterations
        mu, its, _ = _equilibrium(
            ws, mu, schedule.hold2_ratio * bc2, EQUILIBRIUM_REL_TOL * math.sqrt(lam1),
            schedule.max_inner_steps,
        )
        n += its
        record(n, lb_c1)
        if tracker2.step is not None:
            events.append(
                {"stage": 2, "step": tracker2.step, "beta": math.exp(tracker2.log_beta),
                 "ratio_to_target": math.exp(tracker2.log_beta) / bc2}
            )
        near = np.argmin(
            ((mu[:, None, :] - dataset.centers[None, :, :]) ** 2).sum(axis=-1), axis=1
        )
        quad = np.bincount(near // 2, minlength=4)
        summary.update(
            {
                "assignment": near.tolist(),
                "subclusters_covered": int(len(set(near.tolist()))),
                "prototypes_per_super": quad.tolist(),
                "tessellation_ok": bool(len(set(near.tolist())) == 8 and np.all(quad == 2)),
            }
        )
    summary["activation_steps"] = [e["step"] for e in events]
    summary["events"] = events
    summary["split_angle_deg"] = None
    log.summary.update(summary)
    return log
