"""Online two-state CUSUM detector over fused log-likelihood increments.

The cumulative sum S restarts at 0 on every detection; while in H0 a switch
to H1 fires at the first sample whose S exceeds the running minimum (which
includes the reset value 0) by lambda1, and symmetrically the running
maximum minus lambda0 triggers the switch back. Comparisons are strict, so
a sum exactly at threshold does not fire.
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
        if self.lambda0 <= 0 or self.lambda1 <= 0:
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


def _run_cusum(inc, lam0, lam1, state0):
    """Sequential CUSUM pass over per-sample increments.

    The first sample is the time origin (S = 0, no increment), mirroring the
    restart performed at every detection. Returns per-sample states plus
    change-point indices, their new states and the extremum-based onsets.
    """
    n = inc.shape[0]
    states = np.empty(n, np.uint8)
    cp_index = np.empty(n, np.int64)
    cp_state = np.empty(n, np.uint8)
    cp_onset = np.empty(n, np.int64)
    n_cp = 0
    state = state0
    s = 0.0
    s_min = 0.0
    s_max = 0.0
    i_min = 0
    i_max = 0
    seg_start = 0
    for i in range(1, n):
        s += inc[i]
        if state == 0:
            if s > s_min + lam1:
                for j in range(seg_start, i):
                    states[j] = 0
                cp_index[n_cp] = i
                cp_state[n_cp] = 1
                cp_onset[n_cp] = i_min
                n_cp += 1
                state = 1
                seg_start = i
                s = 0.0
                s_min = 0.0
                s_max = 0.0
                i_min = i
                i_max = i
                continue
        else:
            if s < s_max - lam0:
                for j in range(seg_start, i):
                    states[j] = 1
                cp_index[n_cp] = i
                cp_state[n_cp] = 0
                cp_onset[n_cp] = i_max
                n_cp += 1
                state = 0
                seg_start = i
                s = 0.0
                s_min = 0.0
                s_max = 0.0
                i_min = i
                i_max = i
                continue
        if s < s_min:
            s_min = s
            i_min = i
        if s > s_max:
            s_max = s
            i_max = i
    for j in range(seg_start, n):
        states[j] = state
    return states, cp_index[:n_cp], cp_state[:n_cp], cp_onset[:n_cp]


def fused_increments(acc: SignalSeries, ang: SignalSeries,
                     model: SensorModel) -> np.ndarray:
    """Per-sample weighted log-likelihood increments alpha*l_acc + (1-alpha)*l_ang."""
    if len(acc) != len(ang) or not np.isclose(acc.dt, ang.dt):
        raise LengthMismatch("acceleration and angular-velocity series must share timing")
    alpha = model.config.alpha
    l_acc = log_likelihood_ratio(acc.values, model.acc)
    l_ang = log_likelihood_ratio(ang.values, model.ang)
    return alpha * l_acc + (1.0 - alpha) * l_ang


def detect(acc: SignalSeries, ang: SignalSeries, model: SensorModel,
           initial: int = H0) -> BinaryStateSeries:
    """Run the detector over one sensor's two channel norms.

    Samples between a restart and the following detection carry the state
    held during that segment; `relabel_segments` moves the transitions back
    to the estimated onsets.
    """
    return detect_from_increments(fused_increments(acc, ang, model),
                                  model.config.lambda0, model.config.lambda1,
                                  initial, acc.t0, acc.dt)


def detect_from_increments(inc: np.ndarray, lambda0: float, lambda1: float,
                           initial: int = H0, t0: float = 0.0,
                           dt: float = 1.0) -> BinaryStateSeries:
    """Detector over precomputed per-sample increments, such as `fused_increments`."""
    states, cp_index, cp_state, cp_onset = _run_cusum(
        np.asarray(inc, dtype=float), lambda0, lambda1, initial)
    return BinaryStateSeries(
        t0=t0, dt=dt, states=states,
        change_points=[(int(i), int(st)) for i, st in zip(cp_index, cp_state)],
        onsets=[int(i) for i in cp_onset])


def relabel_segments(raw: BinaryStateSeries) -> BinaryStateSeries:
    """Back-date every transition to its running-extremum onset sample."""
    if not raw.change_points:
        return BinaryStateSeries(raw.t0, raw.dt, raw.states.copy(), [], [])
    n = len(raw.states)
    states = np.empty(n, np.uint8)
    pos = 0
    current = 1 - raw.change_points[0][1]
    for onset, new_state in zip(raw.onsets, (st for _, st in raw.change_points)):
        states[pos:onset] = current
        current = new_state
        pos = onset
    states[pos:] = current
    change_points = [(onset, st) for onset, (_, st) in zip(raw.onsets, raw.change_points)]
    return BinaryStateSeries(raw.t0, raw.dt, states, change_points, list(raw.onsets))
