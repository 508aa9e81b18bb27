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

import functools
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import __version__
from .csvio import read_table, run_identity, write_table
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
    _centred,
    _equilibrium,
    _joint_step,
    _mean_step,
    _spread,
    _Workspace,
    critical_spectrum,
    init_collapsed,
    split_direction,
)
from .mathcore import covariance, weighted_linfit

ACTIVATION_FACTOR = 10.0
ACTIVATION_CONSECUTIVE = 5
HYPOTHESIS_WINDOW_STEPS = 100
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
    seed: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.samples.ndim != 2 or len(self.labels) != len(self.samples):
            raise ValidationError("samples must be N x d with one label per row")
        c = self.centers.shape[0]
        if self.labels.min(initial=0) < 0 or (len(self.labels) and self.labels.max() >= c):
            raise ValidationError("labels out of component range")

    @property
    def n_components(self):
        return self.centers.shape[0]


def gen_bimodal(n, center_offset=2.0, scale=1.0, seed=0):
    """Two isotropic components at (-offset, 0) and (+offset, 0) in 2D."""
    if not math.isfinite(center_offset):
        raise ValidationError("center_offset must be finite")
    if center_offset == 0.0:
        raise ValidationError("center_offset 0 collapses both components onto one point")
    if not 0 < scale < math.inf or n < 2:
        raise ValidationError("need finite scale > 0 and n >= 2")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    z = scale * rng.standard_normal((n, 2))
    z[:, 0] += np.where(labels == 0, -center_offset, center_offset)
    centers = np.array([[-center_offset, 0.0], [center_offset, 0.0]])
    return SyntheticDataset(z, labels, "bimodal", centers, seed)


def gen_unimodal(n, dim=2, scale=1.0, seed=0):
    """A single isotropic component at the origin (the no-structure control)."""
    if not 0 < scale < math.inf or n < 2 or dim < 1:
        raise ValidationError("need finite scale > 0, n >= 2, dim >= 1")
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((n, dim))
    return SyntheticDataset(z, np.zeros(n, dtype=int), "unimodal", np.zeros((1, dim)), seed)


def gen_hierarchical(n, super_spacing, sub_spacing, scale, seed):
    """Four super-clusters on a square grid, each split into two sub-clusters.

    Super-centers sit at (+-super_spacing/2, +-super_spacing/2); each super
    holds two sub-centers offset +-sub_spacing/2 along x. Eight components,
    labels 0..7 with label//2 giving the super index. sub_spacing 0 is the
    degenerate one-level variant (allowed); all spacings 0 is rejected.
    """
    if not (math.isfinite(super_spacing) and math.isfinite(sub_spacing)):
        raise ValidationError("super_spacing and sub_spacing must be finite")
    if super_spacing == 0.0 and sub_spacing == 0.0:
        raise ValidationError("all centers coincide: no cluster structure")
    if not 0 < scale < math.inf or n < 8:
        raise ValidationError("need finite scale > 0 and n >= 8")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, n)
    supers = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float) * (super_spacing / 2.0)
    centers = np.repeat(supers, 2, axis=0)
    centers[:, 0] += np.tile([-sub_spacing / 2.0, sub_spacing / 2.0], 4)
    z = centers[labels] + scale * rng.standard_normal((n, 2))
    return SyntheticDataset(z, labels, "hierarchical", centers, seed)


def super_centers(dataset):
    """The 4 super-cluster centers of a hierarchical dataset (mean of each pair)."""
    if dataset.kind != "hierarchical" or dataset.n_components != 8:
        raise ValidationError("super_centers is defined for the 8-component hierarchical kind")
    return 0.5 * (dataset.centers[0::2] + dataset.centers[1::2])


# ---------------------------------------------------------------------------
# the collapse metric


def class_scatters(samples, labels):
    """(S_W, S_B): pooled within-class and count-weighted class-mean covariances (divisor N).

    Needs >= 2 classes, each with >= 2 samples.
    """
    z = np.asarray(samples, dtype=float)
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
    return s_w / n, s_b / n


def scatter_ratio(s_w, s_b, w):
    """trace(W S_W W^T)/trace(W S_B W^T): the NC1 of the cloud x W^T from x's class scatters.

    Coinciding class means raise DegenerateInputError.
    """
    tr_w, tr_b = (float(((w @ s) * w).sum()) for s in (s_w, s_b))
    if tr_b <= 0.0 or tr_b <= 1e-15 * tr_w:  # coincident means up to float residue
        raise DegenerateInputError("between-class scatter is zero: class means coincide")
    return tr_w / tr_b


def nc1(latents, labels):
    """Within/between class scatter ratio trace(S_W)/trace(S_B) of a labeled latent cloud."""
    s_w, s_b = class_scatters(latents, labels)
    return scatter_ratio(s_w, s_b, np.eye(len(s_w)))


def _or_none(fn, *args):
    """fn(*args), or None where it raises DegenerateInputError (an undefined NC1)."""
    try:
        return fn(*args)
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

    def record(self, step, log_beta, log_beta_c, nc1, op):
        """Append the reading at step, with log_ratio = log_beta - log_beta_c."""
        self.append(CriticalityReading(
            step=step, log_beta=log_beta, log_beta_c=log_beta_c,
            log_ratio=log_beta - log_beta_c, nc1=nc1, order_parameter=op,
        ))

    def column(self, name):
        vals = [getattr(r, name) for r in self.readings]
        if name == "nc1":
            vals = [math.nan if v is None else v for v in vals]
        return np.asarray(vals, dtype=float)


def write_trajectory_csv(log, path):
    """CSV with one leading comment line carrying the run identity."""
    identity = run_identity(log.experiment_id, log.config_hash, log.seed)
    rows = (
        [r.step] + [None if v is None else float(v) for v in (
            r.log_beta, r.log_beta_c, r.log_ratio, r.nc1, r.order_parameter)]
        for r in log.readings
    )
    write_table(path, TRAJECTORY_HEADER, rows, [identity])


def _reading(rec):
    return CriticalityReading(
        step=int(rec[0]),
        log_beta=float(rec[1]),
        log_beta_c=float(rec[2]),
        log_ratio=float(rec[3]),
        nc1=float(rec[4]) if rec[4].strip() else None,
        order_parameter=float(rec[5]),
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
    out.update(log.summary)
    return out


# ---------------------------------------------------------------------------
# activation detection and latent geometry (the protocols step the probe with
# the gmm_probe kernel on raw arrays: means mu and log precision lb)


class _ActivationTracker:
    """10x pre-critical-median, 5-consecutive activation detector.

    The threshold is purely relative, with no absolute floor: a state whose
    seed asymmetry is at roundoff level (say, prototypes merged by EM) can
    rise tenfold from noise and "activate" without splitting. Every protocol
    that feeds it must therefore keep a finite seed asymmetry.
    """

    def __init__(self):
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
        if len(self.recent) > ACTIVATION_CONSECUTIVE:
            self.recent.pop(0)
        if len(self.recent) == ACTIVATION_CONSECUTIVE and all(
            o > ACTIVATION_FACTOR * self.median for _, _, o in self.recent
        ):
            self.step, self.log_beta = self.recent[0][0], self.recent[0][1]
            return True
        return False


def _split_angle_deg(state, u):
    """Angle between the prototypes' split direction and the axis u, in [0, 90] degrees."""
    v = split_direction(state)
    cosv = abs(float(v @ u)) / (
        float(np.sqrt((v * v).sum())) * float(np.sqrt((u * u).sum()))
    )
    return math.degrees(math.acos(min(1.0, cosv)))


# ---------------------------------------------------------------------------
# drives: the fixed precision protocols, as ratios to each run's beta_c_hat
#
# anneal (run_forward_split mode "anneal"): log beta ramps linearly from the
# probe's log_beta_init to ANNEAL_HOLD_RATIO * beta_c_hat over ANNEAL_RAMP_STEPS
# mean-only steps at rate ANNEAL_HOLD_LR * K / 2 (K the probe's prototype
# count) and holds there until the activation detector fires (at most
# ANNEAL_MAX_STEPS steps in all). The equilibrium branch is then mapped from the
# hold level up to BRANCH_TOP_RATIO * beta_c_hat in ANNEAL_BRANCH_LEVELS
# geometric levels, each solved by EM from the previous level's means.
#
# reverse (run_reverse_traversal): REVERSE_LEVELS geometric levels descend from
# BRANCH_TOP_RATIO to REVERSE_BOTTOM_RATIO times beta_c_hat, each solved by EM
# from the previous level's means.
#
# Every EM solve stops after at most MAX_EM_ITERATIONS iterations.

ANNEAL_RAMP_STEPS = 1000
ANNEAL_HOLD_RATIO = 1.35
ANNEAL_HOLD_LR = 5e-3
ANNEAL_MAX_STEPS = 30000
ANNEAL_BRANCH_LEVELS = 12
BRANCH_TOP_RATIO = 2.4
REVERSE_LEVELS = 36
REVERSE_BOTTOM_RATIO = 0.3
MAX_EM_ITERATIONS = 9000


# ---------------------------------------------------------------------------
# protocols

# A diverging run overflows inside numpy before the kernel's finite guards see
# the result; the guards raise NumericalError, so the protocols (and the
# calibrate-hessian command) silence numpy's overflow/invalid warnings once per
# run instead of per kernel call. Each call is a fresh np.errstate, so it can be
# entered any number of times, as a decorator or a with block.
_quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")


def _activation_summary(log, *trackers):
    """The first reading at log_ratio >= 0, and each fired tracker's activation step."""
    return {
        "crossing_step": next((r.step for r in log.readings if r.log_ratio >= 0.0), None),
        "activation_steps": [t.step for t in trackers if t.step is not None],
    }


def _ramp_hold(ws, mu, lb0, lb1, ramp_steps, max_steps, lr, every, observe):
    """Mean-only GD while log beta ramps linearly from lb0 to lb1, then holds there.

    Step n (from 0) runs at lb = lb0 + (lb1 - lb0) min(1, n / ramp_steps).
    After each step with n % every == 0, observe(n, lb, mu) runs, and a
    true return stops the loop; at most max_steps steps run. Returns (mu, lb, n): the
    last step's means and log beta, and the step observe stopped at
    (max_steps when it never did).
    """
    n, lb = 0, lb0
    while n < max_steps:
        lb = lb0 + (lb1 - lb0) * min(1.0, n / ramp_steps)
        mu = _mean_step(ws, mu, math.exp(lb), lr)[0]
        if n % every == 0 and observe(n, lb, mu):
            break
        n += 1
    return mu, lb, n


def _branch(ws, mu, levels, n, tol, log, log_bc, nc1):
    """Solve each (beta, log_beta) level by EM, starting from the previous level's means.

    The step counter n advances by each level's EM iterations, and each
    level records one reading. Returns (mu, n, fields), fields holding the
    branch ([beta, order parameter] pairs), the per-level
    branch_iterations and the branch_max_residual.
    """
    branch, iterations, residuals = [], [], []
    for beta, lb in levels:
        mu, its, res = _equilibrium(ws, mu, beta, tol, MAX_EM_ITERATIONS)
        n += its
        op = _spread(mu)
        log.record(n, lb, log_bc, nc1, op)
        branch.append([float(beta), op])
        iterations.append(its)
        residuals.append(res)
    return mu, n, {"branch": branch, "branch_iterations": iterations,
                   "branch_max_residual": max(residuals)}


@_quiet_overflow()
def run_forward_split(dataset, config, mode="learned", steps=7000, record_every=20):
    """Drive the probe from below to above the critical precision.

    mode "learned" trains means and precision jointly for steps steps: beta
    rises on its own while the latents stay fixed. Mode "anneal" instead
    imposes the precision externally (the anneal drive above) and additionally
    maps the equilibrium branch upward for later overlap comparisons; it
    needs K_probe >= 2, since one prototype has no anti-symmetric channel to
    end the hold early. A reading is recorded every record_every steps.

    Returns (TrajectoryLog, trained GmmProbeState).
    """
    if mode not in ("learned", "anneal"):
        raise ValidationError(f"mode must be 'learned' or 'anneal', got {mode!r}")
    if steps < 1 or record_every < 1:
        raise ValidationError("steps and record_every must be >= 1")
    if mode == "anneal" and config.K_probe < 2:
        raise ValidationError("the anneal drive needs probe.k >= 2: one prototype cannot split")
    z = dataset.samples
    ws = _Workspace(config.K_probe, z)
    lam, spectrum = critical_spectrum(covariance(z))
    log_bc = -math.log(lam)
    rng = np.random.default_rng(dataset.seed + 99)
    mu = init_collapsed(z, config, rng).means
    const_nc1 = _or_none(nc1, z, dataset.labels)
    log = TrajectoryLog("forward-split", dataset.seed)
    tracker = _ActivationTracker()

    def observe(n, lb, mu):
        op = _spread(mu)
        log.record(n, lb, log_bc, const_nc1, op)
        return tracker.feed(n, lb, op, supercritical=lb >= log_bc)

    lb = config.log_beta_init
    if mode == "learned":
        for n in range(steps):
            mu, lb = _joint_step(ws, mu, lb, config.lr_means, config.lr_logbeta)
            if n % record_every == 0:
                observe(n, lb, mu)
    else:
        # hold level is ANNEAL_HOLD_RATIO * beta_c_hat = ANNEAL_HOLD_RATIO / lam; a
        # prototype's mean gradient carries its mass, about 1/K, so the rate scales with K / 2
        lb_hold = math.log(ANNEAL_HOLD_RATIO) - math.log(lam)
        mu, _, n = _ramp_hold(
            ws, mu, lb, lb_hold, ANNEAL_RAMP_STEPS, ANNEAL_MAX_STEPS,
            ANNEAL_HOLD_LR * config.K_probe / 2, record_every, observe,
        )
        # the branch starts at the hold level; n counts EM iterations from here on
        lb_top = math.log(BRANCH_TOP_RATIO) - math.log(lam)
        levels = [(math.exp(lb_level), lb_level)
                  for lb_level in np.linspace(lb_hold, lb_top, ANNEAL_BRANCH_LEVELS)]
        mu, _, fields = _branch(
            ws, mu, levels, n, EQUILIBRIUM_REL_TOL * math.sqrt(lam), log, log_bc, const_nc1,
        )
        log.summary.update(fields)
    # an annealed run's state keeps the initial log precision
    final = GmmProbeState(mu, lb, config.K_probe, z.shape[1])
    beta_c_hat = 1.0 / lam
    beta = None if tracker.step is None else math.exp(tracker.log_beta)
    log.summary.update({
        "beta_c_hat": beta_c_hat,
        "max_order_parameter": float(max(r.order_parameter for r in log.readings)),
        **_activation_summary(log, tracker),
        "activation_beta": beta,
        "overshoot_ratio": None if beta is None else beta / beta_c_hat,
        "split_angle_deg": _split_angle_deg(final, spectrum.eigenvectors[:, 0]),
        "split_direction": split_direction(final).tolist(),
    })
    return log, final


@_quiet_overflow()
def run_reverse_traversal(dataset, probe):
    """Anneal a split probe's precision back down through the crossing.

    Each descending level is solved by EM from the previous level's means,
    and the step counter advances by EM iterations; the merge point is the
    zero intercept of a straight-line fit to order_parameter^2 vs beta over
    the branch shoulder (readings between 25% and 60% of the plateau).
    """
    z = dataset.samples
    lam = critical_spectrum(covariance(z))[0]
    log_bc = -math.log(lam)
    beta_c_hat = 1.0 / lam
    ws = _Workspace(probe.K, z)
    log = TrajectoryLog("reverse-traversal", dataset.seed)
    betas = np.exp(np.linspace(
        math.log(BRANCH_TOP_RATIO * beta_c_hat), math.log(REVERSE_BOTTOM_RATIO * beta_c_hat),
        REVERSE_LEVELS,
    ))
    _, _, fields = _branch(
        ws, probe.means, [(b, math.log(b)) for b in betas], 0,
        EQUILIBRIUM_REL_TOL * math.sqrt(lam), log, log_bc, _or_none(nc1, z, dataset.labels),
    )
    arr = np.asarray(fields["branch"])
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
            **fields,
            "merge_beta": merge_beta,
            "merge_relative_error": None
            if merge_beta is None
            else (merge_beta - beta_c_hat) / beta_c_hat,
            "op_fraction_at_half_beta_c": float(arr[half_idx, 1] / plateau) if plateau else None,
        }
    )
    return log


def branch_overlap(forward_log, reverse_log):
    """Max relative order-parameter deviation between the two equilibrium branches.

    Both logs must carry a 'branch' summary ([beta, op] pairs); they are
    interpolated onto a common 10-point beta grid spanning [1.45, 2.3] times
    the forward run's estimated critical precision.
    """
    if "branch" not in forward_log.summary or "branch" not in reverse_log.summary:
        raise ValidationError("both logs need a mapped equilibrium branch")
    bc = forward_log.summary["beta_c_hat"]
    fwd = np.asarray(sorted(forward_log.summary["branch"]))
    rev = np.asarray(sorted(reverse_log.summary["branch"]))
    grid = np.linspace(1.45 * bc, 2.3 * bc, 10)
    fi = np.interp(grid, fwd[:, 0], fwd[:, 1])
    ri = np.interp(grid, rev[:, 0], rev[:, 1])
    top = np.maximum(fi, ri)
    # where both order parameters are 0 (one prototype, or no split) the branches agree
    return float(np.divide(np.abs(fi - ri), top, out=np.zeros(10), where=top > 0.0).max())


# ---------------------------------------------------------------------------
# endogenous crossing (toy encoder + probe co-evolution)


@dataclass
class ToyEncoderState:
    """Linear autoencoder x -> z = x W^T -> x_hat = z V^T, trained by GD on MSE;
    it reads the data only through S = x^T x / n for its step and x for its loss."""

    encode: np.ndarray  # d_lat x d_in
    decode: np.ndarray  # d_in x d_lat
    learning_rate: float
    step: int = 0

    def latents(self, x):
        return x @ self.encode.T

    def loss(self, x):
        err = self.latents(x) @ self.decode.T - x
        return float((err * err).mean() * x.shape[1])  # mean over rows of ||err||^2

    def gd_step(self, s):
        r = self.decode @ (self.encode @ s) - s  # (V W - I) S
        g_dec = 2.0 * r @ self.encode.T
        g_enc = 2.0 * self.decode.T @ r
        self.encode = self.encode - self.learning_rate * g_enc
        self.decode = self.decode - self.learning_rate * g_dec
        self.step += 1


def _mapped_covariance(w, cov):
    """W Cov W^T, symmetrised: the covariance of the cloud x W^T from x's covariance."""
    a = w @ cov @ w.T
    return (a + a.T) / 2.0


@_quiet_overflow()
def run_endogenous(dataset, encoder_lr, config, steps, latent_dim, init_weight_scale,
                   record_every):
    """Alternate one encoder GD step and one joint probe step on its latents.

    The encoder starts with small weights, so the latent cloud is compressed
    and beta(0) < beta_c(0); training spreads the latents (beta_c falls)
    while the probe's precision channel raises beta, so the two series cross
    without any external schedule. Stops early once activation fires.
    Encoder divergence raises AbortedRunError carrying the partial log.
    """
    if min(steps, latent_dim, record_every) < 1:
        raise ValidationError("steps, latent_dim and record_every must be >= 1")
    if not (0.0 < encoder_lr < math.inf and math.isfinite(init_weight_scale)):
        raise ValidationError("encoder_lr must be in (0, inf) and init_weight_scale finite")
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
    delta0 = config.log_beta_init + math.log(critical_spectrum(covariance(z))[0])
    if delta0 >= 0.0:
        raise PreconditionError(
            f"initial precision already supercritical: delta(0) = {delta0:.3f} >= 0"
        )
    log = TrajectoryLog("endogenous", dataset.seed, summary={"delta0": delta0})
    tracker = _ActivationTracker()
    loss_trace = []
    # x's moments, once: the step reads S, the batch xc, the record points
    # Cov(z) = W Cov(x) W^T and NC1 through the class scatters of x
    s = x.T @ x / x.shape[0]
    xc, x_bar, r_x = _centred(x)
    cov_x = covariance(x)
    scatters = _or_none(class_scatters, x, dataset.labels)
    for n in range(steps):
        enc.gd_step(s)
        ws.project(enc.encode, xc, x_bar, r_x)
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
            w = enc.encode
            log_bc = -math.log(critical_spectrum(_mapped_covariance(w, cov_x))[0])
            op = _spread(mu)
            log.record(n, lb, log_bc, scatters and _or_none(scatter_ratio, *scatters, w), op)
            loss_trace.append([n, loss])
            if tracker.feed(n, lb, op, supercritical=lb >= log_bc):
                break
    log.summary.update(
        {
            **_activation_summary(log, tracker),
            "final_loss": loss_trace[-1][1] if loss_trace else None,
            "loss_trace": loss_trace,
            "hypothesis_failures": audit_hypotheses(log),
            "encoder_steps": enc.step,
        }
    )
    return log


def audit_hypotheses(log):
    """Check the crossing argument's two premises on windowed averages.

    Premise 1: beta(t) non-decreasing; premise 2: beta_c(t) non-increasing —
    both on the means of consecutive HYPOTHESIS_WINDOW_STEPS-step windows, with
    the relative tolerance HYPOTHESIS_REL_TOL so float-level jitter near an
    asymptote is not reported. Returns a list of violation events (empty for a
    healthy run).
    """
    bins = {}
    for r in log.readings:
        bins.setdefault(r.step // HYPOTHESIS_WINDOW_STEPS, []).append(r)
    keys = sorted(bins)
    events = []
    prev_beta = prev_bc = None
    for kb in keys:
        grp = bins[kb]
        beta = float(np.mean([math.exp(r.log_beta) for r in grp]))
        bc = float(np.mean([math.exp(r.log_beta_c) for r in grp]))
        if prev_beta is not None and beta < prev_beta * (1.0 - HYPOTHESIS_REL_TOL):
            events.append(
                {"channel": "beta", "window_start_step": int(kb * HYPOTHESIS_WINDOW_STEPS),
                 "delta": beta - prev_beta}
            )
        if prev_bc is not None and bc > prev_bc * (1.0 + HYPOTHESIS_REL_TOL):
            events.append(
                {"channel": "beta_c", "window_start_step": int(kb * HYPOTHESIS_WINDOW_STEPS),
                 "delta": bc - prev_bc}
            )
        prev_beta, prev_bc = beta, bc
    return events


# ---------------------------------------------------------------------------
# hierarchical two-stage splitting


# hierarchy (run_hierarchical; ratios are to each stage's beta_c): stage 1 ramps
# from HIERARCHY_START_RATIO to HIERARCHY_HOLD_RATIO times beta_c1 over
# HIERARCHY_RAMP1_STEPS and holds there (at most HIERARCHY_MAX1_STEPS steps in
# all). When stage 1 fired and the within-super anisotropy reaches
# HIERARCHY_ANISOTROPY_GATE, an unobserved bridge ramps down to
# HIERARCHY_START_RATIO * beta_c2 over HIERARCHY_BRIDGE_STEPS and settles there
# for HIERARCHY_SETTLE_STEPS more; stage 2 then ramps to HIERARCHY_HOLD_RATIO *
# beta_c2 over HIERARCHY_RAMP2_STEPS and holds (at most HIERARCHY_MAX2_STEPS in
# all), and the means are solved by EM at that hold level.

HIERARCHY_START_RATIO = 0.5
HIERARCHY_HOLD_RATIO = 1.3
HIERARCHY_RAMP1_STEPS = 1500
HIERARCHY_MAX1_STEPS = 25000
HIERARCHY_BRIDGE_STEPS = 2500
HIERARCHY_SETTLE_STEPS = 800
HIERARCHY_RAMP2_STEPS = 2000
HIERARCHY_MAX2_STEPS = 12000
HIERARCHY_ANISOTROPY_GATE = 0.65


@_quiet_overflow()
def run_hierarchical(dataset, config, record_every):
    """Two-stage traversal of a hierarchical dataset with K = 8 prototypes.

    Stage 1 ramps the precision across beta_c1 = 1/lambda_max(total cov) and
    detects the super-cluster split via the global order parameter. Stage 2
    runs only when the pooled within-super covariance is anisotropic enough
    (top eigenvalue fraction >= HIERARCHY_ANISOTROPY_GATE); it ramps across
    beta_c2 = 1/lambda_max(within cov) and detects the sub-cluster split via
    the within-super order parameter. The means are then solved by EM at the
    stage-2 hold level, and the prototype-to-subcluster assignment of that
    equilibrium is reported for the tessellation check. A reading is recorded
    every record_every steps.
    """
    if record_every < 1:
        raise ValidationError("record_every must be >= 1")
    if dataset.kind != "hierarchical":
        raise ValidationError("run_hierarchical needs the hierarchical dataset kind")
    if config.K_probe != 8:
        raise ValidationError("the two-level protocol uses K_probe = 8")
    z = dataset.samples
    lam1, spectrum = critical_spectrum(covariance(z))
    log_bc1 = -math.log(lam1)
    bc1 = 1.0 / lam1
    sup = super_centers(dataset)
    sup_lab = dataset.labels // 2
    within = np.vstack([z[sup_lab == s] - z[sup_lab == s].mean(axis=0) for s in range(4)])
    try:
        lam2, w_spec = critical_spectrum((within.T @ within) / len(within))
    except DegenerateInputError as err:
        raise DegenerateInputError(f"within-super {err}") from None
    bc2 = 1.0 / lam2
    anisotropy = lam2 / float(np.sum(w_spec.eigenvalues))
    gate = anisotropy >= HIERARCHY_ANISOTROPY_GATE

    # corner-stratified jitter on the top principal axes: one prototype pair
    # aimed at each future super-cluster, so the 8-fold symmetry is broken
    # evenly instead of multinomially
    rng = np.random.default_rng(dataset.seed + 1000)
    axes = spectrum.eigenvectors[:, :2]
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    pattern = np.vstack([corners, corners])
    delta = 1e-3 * math.sqrt(lam1)
    mu = z.mean(axis=0) + delta * (pattern @ axes.T) + 0.1 * delta * rng.standard_normal((8, 2))
    ws = _Workspace(8, z)
    const_nc1 = _or_none(nc1, z, dataset.labels)
    log = TrajectoryLog("hierarchical", dataset.seed)

    def within_op(mu):
        g = np.argmin(((mu[:, None, :] - sup[None, :, :]) ** 2).sum(axis=-1), axis=1)
        tot = 0.0
        for s in range(4):
            m = mu[g == s]
            if len(m) > 1:
                tot += ((m - m.mean(axis=0)) ** 2).sum()
        return math.sqrt(tot / len(mu))

    tracker1 = _ActivationTracker()
    tracker2 = _ActivationTracker()

    def observe1(step, lb, mu):
        op = _spread(mu)
        log.record(step, lb, log_bc1, const_nc1, op)
        return tracker1.feed(step, lb, op, supercritical=lb >= math.log(bc1))

    def observe2(m, lb, mu):
        # stage 2 steps are numbered on from the settle reading at step n
        log.record(n + m + 1, lb, log_bc1, const_nc1, _spread(mu))
        return tracker2.feed(n + m + 1, lb, within_op(mu), supercritical=lb >= math.log(bc2))

    lr = config.lr_means
    # stage 1: ramp across bc1, hold, detect the super split
    mu, lb, n = _ramp_hold(
        ws, mu, math.log(HIERARCHY_START_RATIO * bc1), math.log(HIERARCHY_HOLD_RATIO * bc1),
        HIERARCHY_RAMP1_STEPS, HIERARCHY_MAX1_STEPS, lr, record_every, observe1,
    )
    summary = {
        "beta_c1_hat": bc1,
        "beta_c2_hat": bc2,
        "within_anisotropy": anisotropy,
        "second_stage_gate": bool(gate),
    }
    if gate and tracker1.step is not None:
        # bridge to below bc2 and settle there, unobserved; one reading at
        # lb_b1 follows, then stage 2 across bc2
        lb_b1 = math.log(HIERARCHY_START_RATIO * bc2)
        mu, _, m = _ramp_hold(
            ws, mu, lb, lb_b1, HIERARCHY_BRIDGE_STEPS,
            HIERARCHY_BRIDGE_STEPS + HIERARCHY_SETTLE_STEPS, lr, record_every, lambda *_: False,
        )
        n += m
        log.record(n, lb_b1, log_bc1, const_nc1, _spread(mu))
        lb_c1 = math.log(HIERARCHY_HOLD_RATIO * bc2)
        mu, _, m = _ramp_hold(
            ws, mu, lb_b1, lb_c1, HIERARCHY_RAMP2_STEPS, HIERARCHY_MAX2_STEPS, lr,
            record_every, observe2,
        )
        n += m + 1
        # finish: the equilibrium at the stage-2 hold level; n advances by EM iterations
        mu, n, _ = _branch(
            ws, mu, [(HIERARCHY_HOLD_RATIO * bc2, lb_c1)], n,
            EQUILIBRIUM_REL_TOL * math.sqrt(lam1), log, log_bc1, const_nc1,
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
    summary.update(_activation_summary(log, tracker1, tracker2))
    summary["events"] = [
        {"stage": stage, "step": t.step, "beta": math.exp(t.log_beta),
         "ratio_to_target": math.exp(t.log_beta) / bc}
        for stage, t, bc in ((1, tracker1, bc1), (2, tracker2, bc2)) if t.step is not None
    ]
    log.summary.update(summary)
    return log
