"""Online two-state CUSUM detector over fused log-likelihood increments.

The cumulative sum S restarts at 0 on every detection; while in H0 a switch
to H1 fires at the first sample whose S exceeds the running minimum (which
includes the reset value 0) by lambda1, and symmetrically the running
maximum minus lambda0 triggers the switch back. Comparisons are strict, so
a sum exactly at threshold does not fire. The onset of a detection is the
first sample of that running extremum.

`_run_cusum` holds the sum negated while in H1, so that both states fire
when the sum exceeds its running minimum by the state's threshold. Negation
is exact in IEEE arithmetic, fl(-a - b) = -fl(a + b), so -S > fl(-S_max +
lambda0) exactly when S < fl(S_max - lambda0): every decision and onset is
that of the rule above. `learning._sweep` runs the same form for many cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch
from .gamma_model import HypothesisModel, log_pdf
from .series import H0, H1, SignalSeries


@dataclass(frozen=True)
class DetectionConfig:
    """Thresholds and acceleration/angular-velocity fusion weight."""

    lambda0: float
    lambda1: float
    alpha: float

    def __post_init__(self):
        if not (self.lambda0 > 0 and self.lambda1 > 0):  # NaN is refused too
            raise ValueError("thresholds must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class SensorModel:
    """Fitted hypothesis models plus detection configuration for one sensor."""

    acc: HypothesisModel
    ang: HypothesisModel
    config: DetectionConfig


@dataclass
class BinaryStateSeries:
    """Per-sample H0/H1 labels with the detected change points.

    ``change_points`` holds ``(sample_index, new_state)`` pairs at detection
    instants; ``onsets`` holds, for each change point, the running-extremum
    sample index that estimates when the change actually began.
    """

    t0: float
    dt: float
    states: np.ndarray
    change_points: list[tuple[int, int]] = field(default_factory=list)
    onsets: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.uint8)
        if len(self.onsets) != len(self.change_points):
            raise ValueError("onsets must pair with change_points")


def log_likelihood_ratio(x, m: HypothesisModel):
    """log p(x|H1) - log p(x|H0); positive favours the mobile state."""
    return log_pdf(x, m.h1) - log_pdf(x, m.h0)


def _run_cusum(inc, lam0, lam1):
    """Detection indices and onsets of one CUSUM pass over per-sample increments.

    The pass starts in H0. The first sample is the time origin (S = 0, no
    increment), as is every detection. The sum is held negated in H1, and the
    threshold pair swaps at each detection, so that both states fire the same
    way (module docstring).
    """
    sign, lam, other = 1.0, lam1, lam0
    s = s_min = 0.0
    i_min = 0
    index, onsets = [], []
    for i, x in enumerate(inc.tolist()[1:], 1):
        s += sign * x
        if s > s_min + lam:
            index.append(i)
            onsets.append(i_min)
            sign, lam, other = -sign, other, lam
            s = s_min = 0.0
            i_min = i
        elif s < s_min:
            s_min = s
            i_min = i
    return index, onsets


def _states(n, first, bounds) -> np.ndarray:
    """n states that start in `first` and switch at each index of `bounds`."""
    states = np.full(n, first, np.uint8)
    edges = [*bounds, n]
    for start, stop in zip(edges[::2], edges[1::2]):
        states[start:stop] = 1 - first
    return states


def fused_increments(acc: SignalSeries, ang: SignalSeries,
                     model: SensorModel) -> np.ndarray:
    """Per-sample weighted log-likelihood increments alpha*l_acc + (1-alpha)*l_ang."""
    if len(acc) != len(ang) or not np.isclose(acc.dt, ang.dt):
        raise LengthMismatch("acceleration and angular-velocity series must share timing")
    alpha = model.config.alpha
    l_acc = log_likelihood_ratio(acc.values, model.acc)
    l_ang = log_likelihood_ratio(ang.values, model.ang)
    return alpha * l_acc + (1.0 - alpha) * l_ang


def detect(acc: SignalSeries, ang: SignalSeries, model: SensorModel) -> BinaryStateSeries:
    """Run the detector over one sensor's two channel norms, starting in H0.

    Samples between a restart and the following detection carry the state
    held during that segment; `relabel_segments` moves the transitions back
    to the estimated onsets.
    """
    return detect_from_increments(fused_increments(acc, ang, model),
                                  model.config.lambda0, model.config.lambda1,
                                  acc.t0, acc.dt)


def detect_from_increments(inc: np.ndarray, lambda0: float, lambda1: float,
                           t0: float = 0.0, dt: float = 1.0) -> BinaryStateSeries:
    """Detector over precomputed per-sample increments, such as `fused_increments`."""
    inc = np.asarray(inc, dtype=float)
    index, onsets = _run_cusum(inc, lambda0, lambda1)
    # states alternate from H0: detection k (from 0) enters H1 when k is even
    change_points = [(i, H1 if k % 2 == 0 else H0) for k, i in enumerate(index)]
    return BinaryStateSeries(t0=t0, dt=dt, states=_states(len(inc), H0, index),
                             change_points=change_points, onsets=onsets)


def relabel_segments(raw: BinaryStateSeries) -> BinaryStateSeries:
    """Back-date every transition to its running-extremum onset sample."""
    if not raw.change_points:
        return BinaryStateSeries(raw.t0, raw.dt, raw.states.copy(), [], [])
    states = _states(len(raw.states), 1 - raw.change_points[0][1], raw.onsets)
    change_points = [(onset, st) for onset, (_, st) in zip(raw.onsets, raw.change_points)]
    return BinaryStateSeries(raw.t0, raw.dt, states, change_points, list(raw.onsets))
