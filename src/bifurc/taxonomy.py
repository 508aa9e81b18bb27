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
horizon; (3) the sign of the descent-leg slope of log10 NC1 vs log ratio,
with the leg starting at the ratio peak when the ratio folds back by at
least fold_return, else at the (smoothed) NC1 peak. A run that never
crosses yet shows coupled channels is flagged indeterminate (truncated
pre-critical segment) rather than forced into a class.

The bundled exemplar CSVs (fixtures/exemplar_*.csv) are static trajectories
that classify reads; the seeded regime generators behind the recovery tests
live with the tests.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .mathcore import pearson, weighted_linfit

FULL_V = "FullV"
FOLD_BACK = "FoldBack"
DELAYED_ESCAPE = "DelayedEscape"
NO_ARC = "NoArc"
REGIMES = (FULL_V, FOLD_BACK, DELAYED_ESCAPE, NO_ARC)

NC1_LOG_FLOOR = 1e-15  # NC1 values are clamped here before taking log10


@dataclass(frozen=True)
class ClassifierThresholds:
    """Decision constants; defaults documented in the classifier docstring."""

    decoupling_abs_corr: float = 0.5  # below: channels considered decoupled
    plateau_fraction: float = 0.1  # at or above: delayed escape
    descent_decades: float = 0.5  # sustained NC1 drop that marks the onset
    fold_return: float = 0.5  # ratio units retraced from peak = a fold
    smooth_window: int = 5  # trailing mean window (readings)
    min_readings: int = 20

    def __post_init__(self):
        if not (0 < self.decoupling_abs_corr < 1):
            raise ValidationError("decoupling_abs_corr must be in (0, 1)")
        if self.smooth_window < 1 or self.min_readings < 2 * self.smooth_window:
            raise ValidationError("need smooth_window >= 1 and min_readings >= 2x window")
        if not all(0 < x < math.inf
                   for x in (self.plateau_fraction, self.descent_decades, self.fold_return)):
            raise ValidationError("thresholds must be positive and finite")


@dataclass(frozen=True)
class ShapeClass:
    """Classification outcome plus the evidence scalars behind it."""

    label: str  # one of REGIMES
    descent_corr: float
    descent_sign: int  # +-1
    plateau_fraction: float
    decoupling_corr: float
    indeterminate: bool = False  # set for truncated pre-critical runs

    def __post_init__(self):
        if self.label not in REGIMES:
            raise ValidationError(f"label must be one of {REGIMES}")
        for v in (self.descent_corr, self.plateau_fraction, self.decoupling_corr):
            if not math.isfinite(v):
                raise ValidationError("evidence fields must be finite")
        if self.descent_sign not in (-1, 1):
            raise ValidationError("descent_sign must be +-1")


@dataclass(frozen=True)
class AxisReading:
    """The three binary kinematic axes of a trajectory."""

    initial_criticality: str  # "sub" | "super"
    rate_ordering: str  # "beta_leads" | "beta_c_leads"
    dissipation_regime: str  # "normal" | "low"


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
    lnc1 = np.log10(np.maximum([r.nc1 for r in log.readings], NC1_LOG_FLOOR))
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


def classify(log, horizon=None, thresholds=None):
    """Assign one of the four arc shapes to a trajectory log.

    horizon, when given, is the reference duration (in step units) for the
    plateau fraction; by default the plateau is the recorded-sample fraction
    (see _plateau_fraction). Thresholds: see ClassifierThresholds. The
    result carries its evidence (descent correlation and slope sign, plateau
    fraction, whole-trajectory decoupling correlation). A coupled run with
    no crossing is returned with indeterminate=True.
    """
    if thresholds is None:
        thresholds = ClassifierThresholds()
    steps, ratio, lnc1 = _channels(log, thresholds, horizon)

    try:
        decoupling = pearson(ratio, lnc1)
    except DegenerateInputError:  # a constant channel co-moves with nothing
        decoupling = 0.0
    if abs(decoupling) < thresholds.decoupling_abs_corr:
        return ShapeClass(
            label=NO_ARC, descent_corr=decoupling,
            descent_sign=1 if decoupling >= 0 else -1,
            plateau_fraction=0.0, decoupling_corr=decoupling,
        )

    crossing_hits = np.nonzero(ratio >= 0.0)[0]
    onset_idx, sm = _descent_onset(lnc1, thresholds)
    if len(crossing_hits) == 0:
        return ShapeClass(
            label=FULL_V if decoupling < 0 else FOLD_BACK,
            descent_corr=decoupling, descent_sign=1 if decoupling >= 0 else -1,
            plateau_fraction=0.0, decoupling_corr=decoupling, indeterminate=True,
        )
    crossing_idx = int(crossing_hits[0])

    plateau = _plateau_fraction(steps, onset_idx, crossing_idx, horizon)
    if plateau >= thresholds.plateau_fraction:
        return ShapeClass(
            label=DELAYED_ESCAPE, descent_corr=decoupling,
            descent_sign=1 if decoupling >= 0 else -1,
            plateau_fraction=plateau, decoupling_corr=decoupling,
        )

    # descent leg: from the ratio peak when the trajectory folds back,
    # else from the (smoothed) NC1 peak
    folds = float(ratio.max() - ratio[-1]) >= thresholds.fold_return
    if folds:
        start = int(np.argmax(ratio))
    else:
        w = thresholds.smooth_window
        start = int(np.argmax(sm)) + (w - 1) // 2
    start = min(start, len(ratio) - 3)
    if start < 0:
        start = 0
    leg_r, leg_n = ratio[start:], lnc1[start:]
    try:
        descent_corr = pearson(leg_r, leg_n)
    except DegenerateInputError:
        descent_corr = 0.0
    _, slope, _ = weighted_linfit(leg_r, leg_n, np.ones(len(leg_r)))
    sign = 1 if (slope > 0 or (slope == 0 and descent_corr >= 0)) else -1
    return ShapeClass(
        label=FOLD_BACK if sign > 0 else FULL_V,
        descent_corr=descent_corr, descent_sign=sign,
        plateau_fraction=plateau, decoupling_corr=decoupling,
    )


def axis_reading(log, horizon=None, thresholds=None):
    """The three binary kinematic axes; needs >= min_readings samples."""
    if thresholds is None:
        thresholds = ClassifierThresholds()
    steps, ratio, lnc1 = _channels(log, thresholds, horizon)
    initial = "sub" if ratio[0] < 0.0 else "super"
    onset_idx, _ = _descent_onset(lnc1, thresholds)
    crossing_hits = np.nonzero(ratio >= 0.0)[0]
    post = onset_idx
    if post is None:
        post = int(crossing_hits[0]) if len(crossing_hits) else 0
    diffs = np.diff(ratio[post:])
    rising = int((diffs > 0).sum())
    falling = int((diffs < 0).sum())
    ordering = "beta_leads" if rising >= falling else "beta_c_leads"
    crossing_idx = int(crossing_hits[0]) if len(crossing_hits) else None
    plateau = _plateau_fraction(steps, onset_idx, crossing_idx, horizon)
    regime = "low" if plateau >= thresholds.plateau_fraction else "normal"
    return AxisReading(initial, ordering, regime)
