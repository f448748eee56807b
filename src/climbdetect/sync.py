"""Video/sensor clock alignment by cross-correlating pelvis accelerations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, TooFewSamples
from .series import AnnotationTrack, SignalSeries, resample_linear

DEFAULT_SMOOTH_WINDOW = 0.3
MIN_OVERLAP_SECONDS = 10.0
_STD_FLOOR = 1e-12  # a window whose std is below this correlates as 0.0
# Every lag whose fast score is this close to the best one is scored again
# exactly; the fast scores are trusted to well under this.
_NEAR_BEST = 1e-9
# A window's fast std is trusted above the floor only where its variance is
# at least this share of its channel's mean square, so that prefix-sum
# rounding stays far below _NEAR_BEST; the share also bounds that rounding
# when a std is shown to lie below the floor.
_MIN_VARIANCE_SHARE = 1e-2
# ... and only where its std is at least this share of the channel's largest
# magnitude, so that the exact path, which does not centre, is as accurate.
_MIN_STD_SHARE = 1e-6


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


def _moving_average(x: np.ndarray, size: int) -> np.ndarray:
    """Mean of every window of ``size`` samples that lies wholly inside
    ``x``: ``len(x) - size + 1`` values, the first centred on sample
    ``size // 2`` as ``scipy.ndimage.uniform_filter1d`` centres it.

    The sums are formed in the order ``uniform_filter1d(x, size,
    origin=-(size // 2))`` forms them (the first window added in sequence,
    then one entering minus one leaving sample per step, one division at the
    end), so the result is bit-equal to its first ``len(x) - size + 1``
    values.
    """
    return np.cumsum(np.concatenate([x[:size], x[size:] - x[:-size]]))[size - 1:] / size


def trajectory_to_acceleration(traj: TrajectorySeries,
                               smooth_window: float = DEFAULT_SMOOTH_WINDOW) -> SignalSeries:
    """Vertical acceleration from a tracked trajectory.

    Positions are moving-average smoothed (tracking noise amplifies badly
    under double differentiation) and then differentiated with second-order
    central differences. Only samples whose smoothing window and difference
    stencil lie wholly inside the trajectory are kept, so the series starts
    ``window // 2 + 1`` samples after the trajectory does.
    """
    window = max(int(round(smooth_window / traj.dt)), 1)
    if len(traj) < window + 4:
        raise TooFewSamples(f"need at least {window + 4} trajectory samples for a "
                            f"{window}-sample smoothing window, got {len(traj)}")
    y = traj.y
    start = 1
    if window > 1:
        y = _moving_average(y, window)
        start += window // 2
    return SignalSeries(traj.t0 + start * traj.dt, traj.dt, np.diff(y, 2) / traj.dt**2)


def _resample(series: SignalSeries, dt: float) -> SignalSeries:
    if np.isclose(series.dt, dt):
        return series
    _, values = resample_linear(series.times(), series.values[:, None], dt)
    return SignalSeries(series.t0, dt, values[:, 0])


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
    if sa < _STD_FLOOR or sb < _STD_FLOOR:
        return 0.0
    return float(np.mean((as_ - np.mean(as_)) * (bs - np.mean(bs))) / (sa * sb))


def _window_moments(x: np.ndarray, xc: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Mean and std of every window ``xc[lo[j]:hi[j]]`` of the centred
    ``xc = x - mean(x)`` from prefix sums, and whether ``np.std`` of the same
    window of ``x`` surely lies above, or surely below, the std floor."""
    p1 = np.concatenate([[0.0], np.cumsum(xc)])
    p2 = np.concatenate([[0.0], np.cumsum(xc * xc)])
    m = hi - lo
    mean = (p1[hi] - p1[lo]) / m
    var = np.maximum((p2[hi] - p2[lo]) / m - mean * mean, 0.0)
    std = np.sqrt(var)
    slack = _MIN_VARIANCE_SHARE * np.mean(xc * xc)
    magnitude = np.max(np.abs(x))
    above = (var >= slack) & (std >= max(2.0 * _STD_FLOOR, _MIN_STD_SHARE * magnitude))
    # np.std's rounding is at most about log2(len) ulps of the magnitude
    below = np.sqrt(var + slack) + 32.0 * np.finfo(float).eps * magnitude <= 0.5 * _STD_FLOOR
    return mean, std, above, below


def _fast_scores(a: np.ndarray, b: np.ndarray, lags: np.ndarray):
    """``_lag_correlation(a, b, k)`` for every k in ``lags`` at once, and
    whether each score is decided.

    The cross-products of every lag come from one zero-padded FFT of the
    centred series, the window means and variances from prefix sums
    (Lewis 1995, *Fast normalized cross-correlation*). A lag is decided
    where both windows' stds surely lie above the floor (the fast score
    then stands in for the exact one) or one surely lies below it (the
    score is 0.0). An undecided score is 0.0 here.
    """
    start = np.maximum(0, lags)
    stop = np.minimum(len(b), len(a) + lags)
    m = stop - start
    ac = a - a.mean()
    bc = b - b.mean()
    mean_a, std_a, above_a, below_a = _window_moments(a, ac, start - lags, stop - lags)
    mean_b, std_b, above_b, below_b = _window_moments(b, bc, start, stop)
    size = 1 << (len(a) + len(b) - 1).bit_length()  # a power of two: no wrap-around, fast
    cross = np.fft.irfft(np.fft.rfft(bc, size) * np.conj(np.fft.rfft(ac, size)), size)[lags]
    both = above_a & above_b
    scores = np.where(both, (cross / m - mean_a * mean_b) / np.where(both, std_a * std_b, 1.0), 0.0)
    return scores, (m >= 3) & (both | below_a | below_b)


def estimate_delay(a: SignalSeries, b: SignalSeries, max_lag: float) -> tuple[float, float]:
    """Delay of ``b`` relative to ``a`` maximizing normalized cross-correlation.

    Returns (delay_seconds, peak_correlation); ties are broken by the
    smaller |lag|.

    Every lag is scored at once by ``_fast_scores``. The lags it cannot
    decide, and those within ``_NEAR_BEST`` of its best decided score, are
    scored again with ``_lag_correlation``; the maximum, its 1e-15 tie band
    and the returned values are taken from those exact scores.
    """
    dt = a.dt
    b = _resample(b, dt)
    max_k = int(round(max_lag / dt))
    n_min = min(len(a), len(b))
    if (n_min - max_k) * dt < MIN_OVERLAP_SECONDS:
        raise InsufficientOverlap(
            f"{n_min} samples leave under {MIN_OVERLAP_SECONDS} s of overlap at lag {max_lag} s")
    lags = np.arange(-max_k, max_k + 1)
    fast, decided = _fast_scores(a.values, b.values, lags)
    top = fast[decided].max(initial=-np.inf)
    lags = lags[~decided | (fast >= top - _NEAR_BEST)]
    scores = np.array([_lag_correlation(a.values, b.values, int(k)) for k in lags])
    best = scores.max()
    candidates = lags[scores >= best - 1e-15]
    k_best = int(min(candidates, key=lambda k: (abs(k), k)))
    j_best = int(np.where(lags == k_best)[0][0])
    return k_best * dt + (b.t0 - a.t0), float(scores[j_best])


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
