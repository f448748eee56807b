"""Online two-state CUSUM detector over fused log-likelihood increments.

The detector runs in Page's drawup form on the cumulative sum C of the
increments, which is never restarted. While in H0 a switch to H1 fires at
the first sample whose C exceeds the running minimum of C since the last
detection (or since the first sample) by more than lambda1; symmetrically, a
switch back fires when C falls more than lambda0 below its running maximum
since the detection. Comparisons are strict, so a rise exactly at threshold
does not fire. The onset of a detection is the first sample of that running
extremum, and the detected states switch there.

`_run_cusum` holds s = C in H0 and s = -C in H1, so that both states fire
when s rises more than the state's threshold above its running minimum:
fl(s - s_min) > lambda. Negation is exact in IEEE arithmetic, fl(-a - (-b))
= fl(b - a), so every decision and onset is that of the rule above. The
decisions compare fl(C - min C), not a sum restarted at 0 at each detection,
so they can differ from that older form at rounding level. `learning._sweep`
runs the same rule for many cells, a block of samples at a time.
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
    sample index that estimates when the change actually began, and the
    states of `detect` switch there.
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

    The pass starts in H0. The first sample is the time origin: it adds no
    increment, so C = 0 there. `s` holds C in H0 and -C in H1: it is never
    restarted, only negated at each detection (sign * x adds to -C exactly
    what x adds to C, negated), and the threshold pair swaps, so that both
    states fire the same way (module docstring). A detection starts the new
    state's running minimum at its own sample.
    """
    sign, lam, other = 1.0, lam1, lam0
    s = s_min = 0.0
    i_min = 0
    index, onsets = [], []
    for i, x in enumerate(inc.tolist()[1:], 1):
        s += sign * x
        if s - s_min > lam:
            index.append(i)
            onsets.append(i_min)
            sign, lam, other = -sign, other, lam
            s = s_min = -s
            i_min = i
        elif s < s_min:
            s_min = s
            i_min = i
    return index, onsets


def _states(n, onsets) -> np.ndarray:
    """n states that start in H0 and switch at each index of `onsets`."""
    states = np.full(n, H0, np.uint8)
    edges = [*onsets, n]
    for start, stop in zip(edges[::2], edges[1::2]):
        states[start:stop] = H1
    return states


def fused_increments(acc: SignalSeries | None, ang: SignalSeries,
                     model: SensorModel) -> np.ndarray:
    """Per-sample weighted log-likelihood increments alpha*l_acc + (1-alpha)*l_ang.

    ``acc`` may be None only at alpha = 0, where l_acc has no weight: the
    increments are then (1-alpha)*l_ang. They take the same decisions as with
    ``acc`` given, where alpha*l_acc is a signed zero wherever l_acc is finite.
    """
    alpha = model.config.alpha
    if acc is None:
        if alpha != 0.0:
            raise ValueError(f"alpha = {alpha!r} weighs the acceleration channel, "
                             "which is not given")
        return (1.0 - alpha) * log_likelihood_ratio(ang.values, model.ang)
    if len(acc) != len(ang) or not np.isclose(acc.dt, ang.dt):
        raise LengthMismatch("acceleration and angular-velocity series must share timing")
    l_acc = log_likelihood_ratio(acc.values, model.acc)
    l_ang = log_likelihood_ratio(ang.values, model.ang)
    return alpha * l_acc + (1.0 - alpha) * l_ang


def detect(acc: SignalSeries | None, ang: SignalSeries,
           model: SensorModel) -> BinaryStateSeries:
    """Run the detector over one sensor's two channel norms, starting in H0;
    ``acc`` may be None at alpha = 0 (`fused_increments`), and the timing is
    ``ang``'s.

    The states switch at the onsets, each detection back-dated to the first
    sample of its running extremum; `change_points` keep the detection
    instants.
    """
    return detect_from_increments(fused_increments(acc, ang, model),
                                  model.config.lambda0, model.config.lambda1,
                                  ang.t0, ang.dt)


def detect_from_increments(inc: np.ndarray, lambda0: float, lambda1: float,
                           t0: float = 0.0, dt: float = 1.0) -> BinaryStateSeries:
    """Detector over precomputed per-sample increments, such as `fused_increments`."""
    inc = np.asarray(inc, dtype=float)
    index, onsets = _run_cusum(inc, lambda0, lambda1)
    # states alternate from H0: detection k (from 0) enters H1 when k is even
    change_points = [(i, H1 if k % 2 == 0 else H0) for k, i in enumerate(index)]
    return BinaryStateSeries(t0=t0, dt=dt, states=_states(len(inc), onsets),
                             change_points=change_points, onsets=onsets)
