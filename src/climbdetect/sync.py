"""Video/sensor clock alignment by cross-correlating pelvis accelerations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, TooFewSamples
from .series import AnnotationTrack, SignalSeries

DEFAULT_SMOOTH_WINDOW = 0.3
MIN_OVERLAP_SECONDS = 10.0


@dataclass
class TrajectorySeries:
    """Wall-plane pelvis positions from video tracking, metres, uniform rate."""

    t0: float
    dt: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("positions must be finite")

    def __len__(self) -> int:
        return len(self.x)


def _second_difference(y: np.ndarray, dt: float) -> np.ndarray:
    a = np.empty_like(y)
    a[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dt**2
    a[0] = (y[2] - 2.0 * y[1] + y[0]) / dt**2
    a[-1] = (y[-1] - 2.0 * y[-2] + y[-3]) / dt**2
    return a


def trajectory_to_acceleration(traj: TrajectorySeries,
                               smooth_window: float = DEFAULT_SMOOTH_WINDOW,
                               ) -> tuple[SignalSeries, SignalSeries]:
    """Lateral and vertical acceleration from a tracked trajectory.

    Positions are moving-average smoothed (tracking noise amplifies badly
    under double differentiation) and then differentiated with second-order
    central differences; endpoints use one-sided second differences.
    """
    from scipy.ndimage import uniform_filter1d  # here, so other commands start without scipy

    if len(traj) < 5:
        raise TooFewSamples(f"need at least 5 trajectory samples, got {len(traj)}")
    x, y = traj.x, traj.y
    window = int(round(smooth_window / traj.dt))
    if window > 1:
        x = uniform_filter1d(x, window, mode="nearest")
        y = uniform_filter1d(y, window, mode="nearest")
    return (SignalSeries(traj.t0, traj.dt, _second_difference(x, traj.dt)),
            SignalSeries(traj.t0, traj.dt, _second_difference(y, traj.dt)))


def _resample(series: SignalSeries, dt: float) -> SignalSeries:
    if np.isclose(series.dt, dt):
        return series
    t_old = series.times()
    t_new = np.arange(t_old[0], t_old[-1] + 0.5 * dt, dt)
    return SignalSeries(series.t0, dt, np.interp(t_new, t_old, series.values))


def _lag_correlation(a: np.ndarray, b: np.ndarray, lag: int) -> float:
    """Pearson correlation pairing b[i] with a[i - lag]."""
    start = max(0, lag)
    stop = min(len(b), len(a) + lag)
    if stop - start < 3:
        return 0.0
    bs = b[start:stop]
    as_ = a[start - lag:stop - lag]
    sa = np.std(as_)
    sb = np.std(bs)
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    return float(np.mean((as_ - np.mean(as_)) * (bs - np.mean(bs))) / (sa * sb))


def estimate_delay(a, b, max_lag: float) -> tuple[float, float]:
    """Delay of ``b`` relative to ``a`` maximizing normalized cross-correlation.

    ``a`` and ``b`` are SignalSeries or matched sequences of channels
    (e.g. lateral and vertical); channel correlations are summed per lag.
    Returns (delay_seconds, peak_correlation) with the peak correlation
    averaged over channels; ties are broken by the smaller |lag|.
    """
    a_ch = [a] if isinstance(a, SignalSeries) else list(a)
    b_ch = [b] if isinstance(b, SignalSeries) else list(b)
    if len(a_ch) != len(b_ch):
        raise ValueError("channel counts must match")
    dt = a_ch[0].dt
    b_ch = [_resample(s, dt) for s in b_ch]
    max_k = int(round(max_lag / dt))
    n_min = min(min(len(s) for s in a_ch), min(len(s) for s in b_ch))
    if (n_min - max_k) * dt < MIN_OVERLAP_SECONDS:
        raise InsufficientOverlap(
            f"{n_min} samples leave under {MIN_OVERLAP_SECONDS} s of overlap at lag {max_lag} s")
    lags = np.arange(-max_k, max_k + 1)
    scores = np.zeros(len(lags))
    for av, bv in zip(a_ch, b_ch):
        values_a = av.values
        values_b = bv.values
        for j, k in enumerate(lags):
            scores[j] += _lag_correlation(values_a, values_b, int(k))
    best = scores.max()
    candidates = lags[scores >= best - 1e-15]
    k_best = int(min(candidates, key=lambda k: (abs(k), k)))
    j_best = int(np.where(lags == k_best)[0][0])
    delay = k_best * dt + (b_ch[0].t0 - a_ch[0].t0)
    return delay, scores[j_best] / len(a_ch)


def shift_annotations(ann: AnnotationTrack, delay: float,
                      span: tuple[float, float] | None = None) -> AnnotationTrack:
    """Shift interval endpoints by ``delay``; clip to ``span`` when given."""
    intervals = []
    for start, end, label in ann.intervals:
        start, end = start + delay, end + delay
        if span is not None:
            start = max(start, span[0])
            end = min(end, span[1])
            if end <= start:
                continue
        intervals.append((start, end, label))
    return AnnotationTrack(site=ann.site, intervals=intervals)
