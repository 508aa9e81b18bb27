"""Four-shape classification of criticality trajectories.

A trajectory in the (log beta/beta_c, log10 NC1) plane is sorted into one of
four arc shapes:

  * FullV          ratio rises through zero and keeps rising while NC1 peaks
                   and then collapses (descent slope negative)
  * FoldBack       NC1 collapses while the ratio retraces downward after a
                   peak (descent slope positive)
  * DelayedEscape  the crossing happens early but NC1 stays flat for a
                   sizable fraction of the horizon before collapsing
  * NoArc          the two channels do not co-move (low |correlation|)

The decision procedure is: (1) the decoupling gate on whole-trajectory
Pearson correlation; (2) the plateau test on (descent onset - crossing) /
horizon; (3) the sign of the descent-leg Pearson correlation of log10 NC1
with log ratio, which is the sign of the leg's least-squares slope, the leg
starting at the ratio peak when the ratio folds back by at least
fold_return, else at the (smoothed) NC1 peak. A run whose channels co-move
but that never crosses (a truncated pre-critical segment), or that crosses
while NC1 never starts its descent, is flagged indeterminate rather than
forced into a class. The same pass reads the three binary kinematic axes
(initial criticality, rate ordering, dissipation regime) into its AxisReading.

The bundled exemplar CSVs (fixtures/exemplar_*.csv) are static trajectories
that classify reads; the seeded regime generators behind the recovery tests
live with the tests.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .mathcore import pearson

FULL_V = "FullV"
FOLD_BACK = "FoldBack"
DELAYED_ESCAPE = "DelayedEscape"
NO_ARC = "NoArc"
REGIMES = (FULL_V, FOLD_BACK, DELAYED_ESCAPE, NO_ARC)

NC1_LOG_FLOOR = 1e-15  # NC1 values are clamped here before taking log10


@dataclass(frozen=True)
class ClassifierThresholds:
    """Decision constants, the [taxonomy] keys of the same names (their values live there)."""

    decoupling_abs_corr: float  # below: channels considered decoupled
    plateau_fraction: float  # at or above: delayed escape
    descent_decades: float  # sustained NC1 drop that marks the onset
    fold_return: float  # ratio units retraced from peak = a fold
    smooth_window: int  # trailing mean window (readings)
    min_readings: int

    def __post_init__(self):
        if not (0 < self.decoupling_abs_corr < 1):
            raise ValidationError("decoupling_abs_corr must be in (0, 1)")
        if self.smooth_window < 1 or self.min_readings < 2 * self.smooth_window:
            raise ValidationError("need smooth_window >= 1 and min_readings >= 2x window")
        if not all(0 < x < math.inf
                   for x in (self.plateau_fraction, self.descent_decades, self.fold_return)):
            raise ValidationError("thresholds must be positive and finite")


@dataclass(frozen=True)
class AxisReading:
    """The three binary kinematic axes of a trajectory."""

    initial_criticality: str  # "sub" | "super"
    rate_ordering: str  # "beta_leads" | "beta_c_leads"
    dissipation_regime: str  # "normal" | "low"


@dataclass(frozen=True)
class ShapeClass:
    """Classification outcome, the evidence scalars behind it and the axes."""

    label: str  # one of REGIMES
    descent_corr: float
    descent_sign: int  # +-1
    plateau_fraction: float
    decoupling_corr: float
    axes: AxisReading
    indeterminate: bool = False  # set for a coupled run with no crossing or no descent onset

    def __post_init__(self):
        if self.label not in REGIMES:
            raise ValidationError(f"label must be one of {REGIMES}")
        for v in (self.descent_corr, self.plateau_fraction, self.decoupling_corr):
            if not math.isfinite(v):
                raise ValidationError("evidence fields must be finite")
        if self.descent_sign not in (-1, 1):
            raise ValidationError("descent_sign must be +-1")


def _channels(log, thresholds, horizon):
    if horizon is not None and not 0 < float(horizon) < math.inf:
        raise ValidationError("horizon must be positive and finite")
    if len(log.readings) < thresholds.min_readings:
        raise ValidationError(
            f"need >= {thresholds.min_readings} readings, got {len(log.readings)}"
        )
    if any(r.nc1 is None for r in log.readings):
        raise ValidationError("classification needs the NC1 channel on every reading")
    steps = np.asarray([r.step for r in log.readings], dtype=float)
    ratio = np.asarray([r.log_ratio for r in log.readings], dtype=float)
    nc1 = np.asarray([r.nc1 for r in log.readings], dtype=float)
    negative = nc1[nc1 < 0.0]  # NC1 is a ratio of PSD traces; zero is floored below
    if negative.size:
        raise ValidationError(f"NC1 must be >= 0, got {float(negative[0])!r}")
    lnc1 = np.log10(np.maximum(nc1, NC1_LOG_FLOOR))
    if not (np.all(np.isfinite(ratio)) and np.all(np.isfinite(lnc1))):
        raise ValidationError("non-finite channel values")
    return steps, ratio, lnc1


def _trailing_mean(values, window):
    kernel = np.ones(window) / window
    return np.convolve(values, kernel, mode="valid")  # sm[j] = mean(v[j:j+w])


def _descent_onset(lnc1, thresholds):
    """Index of the first sustained descent_decades drop of smoothed log10 NC1."""
    w = thresholds.smooth_window
    sm = _trailing_mean(lnc1, w)
    run_max = np.maximum.accumulate(sm)
    hits = np.nonzero(sm <= run_max - thresholds.descent_decades)[0]
    if len(hits) == 0:
        return None, sm
    # the window starting at hits[0] is already 0.5 decades down on average,
    # so the drop began at (or before) its first reading
    return int(hits[0]), sm


def _plateau_fraction(steps, onset_idx, crossing_idx, horizon):
    """Crossing-to-onset delay as a fraction of the run.

    With horizon None the delay is measured in recorded-sample count — at a
    uniform recording cadence this equals the step-span fraction, and it is
    invariant to any monotone reindexing of steps. An explicit horizon
    switches to step units: (step[onset] - step[crossing]) / horizon.
    """
    if onset_idx is None or crossing_idx is None:
        return 0.0
    if horizon is None:
        return max(0.0, (onset_idx - crossing_idx) / max(1, len(steps) - 1))
    return max(0.0, float(steps[onset_idx] - steps[crossing_idx]) / float(horizon))


def classify(log, horizon, thresholds):
    """Assign one of the four arc shapes to a trajectory log and read its axes.

    horizon, when not None, is the reference duration (in step units) for the
    plateau fraction; with None the plateau is the recorded-sample fraction
    (see _plateau_fraction). thresholds is a ClassifierThresholds, which the
    command reads from [taxonomy]. The result carries its evidence (descent
    correlation and slope sign, plateau fraction, whole-trajectory decoupling
    correlation) and the three binary kinematic axes. A coupled run that never
    crosses, or that crosses with no descent onset, is returned with
    indeterminate=True, its label, sign and descent_corr read from the
    whole-trajectory correlation.
    """
    steps, ratio, lnc1 = _channels(log, thresholds, horizon)
    onset_idx, sm = _descent_onset(lnc1, thresholds)
    crossing_hits = np.nonzero(ratio >= 0.0)[0]
    crossing_idx = int(crossing_hits[0]) if len(crossing_hits) else None
    plateau = _plateau_fraction(steps, onset_idx, crossing_idx, horizon)

    # the ratio's direction after the descent onset (else after the crossing)
    post = onset_idx if onset_idx is not None else crossing_idx or 0
    diffs = np.diff(ratio[post:])
    axes = AxisReading(
        initial_criticality="sub" if ratio[0] < 0.0 else "super",
        rate_ordering="beta_leads" if (diffs > 0).sum() >= (diffs < 0).sum() else "beta_c_leads",
        dissipation_regime="low" if plateau >= thresholds.plateau_fraction else "normal",
    )

    try:
        decoupling = pearson(ratio, lnc1)
    except DegenerateInputError:  # a constant channel co-moves with nothing
        decoupling = 0.0
    # the gate and plateau branches report the whole-trajectory correlation
    descent_corr, sign = decoupling, 1 if decoupling >= 0 else -1
    indeterminate = False
    if abs(decoupling) < thresholds.decoupling_abs_corr:
        label, plateau = NO_ARC, 0.0  # the evidence has no plateau; the axes read it
    elif crossing_idx is None or onset_idx is None:
        label, indeterminate = FULL_V if sign < 0 else FOLD_BACK, True
    elif plateau >= thresholds.plateau_fraction:
        label = DELAYED_ESCAPE
    else:
        # descent leg: from the ratio peak when the trajectory folds back,
        # else from the (smoothed) NC1 peak
        if float(ratio.max() - ratio[-1]) >= thresholds.fold_return:
            start = int(np.argmax(ratio))
        else:
            start = int(np.argmax(sm)) + (thresholds.smooth_window - 1) // 2
        start = max(0, min(start, len(ratio) - 3))
        leg_r, leg_n = ratio[start:], lnc1[start:]
        try:
            descent_corr = pearson(leg_r, leg_n)
        except DegenerateInputError:  # a channel constant over the leg has no slope
            descent_corr = 0.0
        # the least-squares slope has the sign of the same covariance
        sign = 1 if descent_corr >= 0 else -1
        label = FOLD_BACK if sign > 0 else FULL_V
    return ShapeClass(
        label=label, descent_corr=descent_corr, descent_sign=sign, plateau_fraction=plateau,
        decoupling_corr=decoupling, axes=axes, indeterminate=indeterminate,
    )
