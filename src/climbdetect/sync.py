"""Video/sensor clock alignment by cross-correlating pelvis accelerations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, SignalOverflow, TooFewSamples
from .series import AnnotationTrack, SignalSeries, resample_linear

DEFAULT_SMOOTH_WINDOW = 0.3
MIN_OVERLAP_SECONDS = 10.0
MAX_P_VALUE = 1e-6  # the largest p-value (estimate_delay's) of a peak that fixes a delay
# A lag is scored only where both of its windows hold at least this share of
# their channel's mean square as variance, so that prefix-sum rounding stays
# far below the 1e-9 tie band ...
_MIN_VARIANCE_SHARE = 1e-2
# ... and have a std above this share of the channel's largest magnitude;
# any other lag scores 0.0.
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
    ``window // 2 + 1`` samples after the trajectory does. Positions so far
    apart that the result is not finite raise `SignalOverflow`.
    """
    window = max(int(round(smooth_window / traj.dt)), 1)
    if len(traj) < window + 4:
        raise TooFewSamples(f"need at least {window + 4} trajectory samples for a "
                            f"{window}-sample smoothing window, got {len(traj)}")
    y = traj.y
    start = 1
    with np.errstate(over="ignore", invalid="ignore"):
        if window > 1:
            y = _moving_average(y, window)
            start += window // 2
        acceleration = np.diff(y, 2) / traj.dt**2
    if not np.isfinite(acceleration).all():
        raise SignalOverflow(f"the vertical acceleration overflows the float range "
                             f"at a {window}-sample smoothing window")
    return SignalSeries(traj.t0 + start * traj.dt, traj.dt, acceleration)


def _resample(series: SignalSeries, dt: float) -> SignalSeries:
    if np.isclose(series.dt, dt):
        return series
    _, values = resample_linear(series.times(), series.values[:, None], dt)
    return SignalSeries(series.t0, dt, values[:, 0])


def _window_moments(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Mean and std of every window ``x[lo[j]:hi[j]]`` of the centred ``x``
    from prefix sums, and whether the window passes the floor that a scored
    lag needs."""
    xc = x - x.mean()
    p1 = np.concatenate([[0.0], np.cumsum(xc)])
    p2 = np.concatenate([[0.0], np.cumsum(xc * xc)])
    m = hi - lo
    mean = (p1[hi] - p1[lo]) / m
    var = np.maximum((p2[hi] - p2[lo]) / m - mean * mean, 0.0)
    std = np.sqrt(var)
    floor = ((var >= _MIN_VARIANCE_SHARE * np.mean(xc * xc))
             & (std > _MIN_STD_SHARE * np.max(np.abs(x))))
    return mean, std, floor


def _fast_scores(a: np.ndarray, b: np.ndarray, lags: np.ndarray):
    """The Pearson correlation of ``b[i]`` with ``a[i - k]`` over the overlap
    of every lag k in ``lags``, and the products ``|c_a(j) c_b(j)|`` of the
    series' autocovariances for j = 0 .. min(len(a), len(b)) // 4.

    The cross-products of every lag come from one zero-padded FFT of the
    centred series, the window means and variances from prefix sums
    (Lewis 1995, *Fast normalized cross-correlation*), and the
    autocovariances from the same transforms. A lag whose overlap is under
    three samples, or one of whose windows fails the floor, scores 0.0.
    """
    start = np.maximum(0, lags)
    stop = np.minimum(len(b), len(a) + lags)
    m = stop - start
    mean_a, std_a, floor_a = _window_moments(a, start - lags, stop - lags)
    mean_b, std_b, floor_b = _window_moments(b, start, stop)
    size = 1 << (len(a) + len(b) - 1).bit_length()  # a power of two: no wrap-around, fast
    fa, fb = (np.fft.rfft(x - x.mean(), size) for x in (a, b))
    cross = np.fft.irfft(fb * np.conj(fa), size)[lags]
    scored = (m >= 3) & floor_a & floor_b
    scores = np.where(scored, (cross / m - mean_a * mean_b)
                      / np.where(scored, std_a * std_b, 1.0), 0.0)
    keep = min(len(a), len(b)) // 4 + 1
    covariances = np.abs(np.fft.irfft(np.abs(fa) ** 2, size)[:keep]
                         * np.fft.irfft(np.abs(fb) ** 2, size)[:keep])
    return scores, covariances


def estimate_delay(a: SignalSeries, b: SignalSeries,
                   max_lag: float) -> tuple[float, float, float, float]:
    """Delay of ``b`` relative to ``a`` maximizing normalized cross-correlation,
    the peak correlation, its p-value and the effective sample size n_eff.

    Every lag is scored at once by ``_fast_scores``; scores within 1e-9 of
    the best tie, and the smallest |lag| among them wins. At the chosen
    lag's overlap N, n_eff = N / (1 + 2 sum_{k=1..N/4} |rho_a(k) rho_b(k)|)
    with the series' autocorrelations rho (Bretherton et al. 1999, J. Climate
    12), and the p-value is the peak's one-sided Fisher-z p at n_eff,
    Sidak-corrected over max(1, (2K + 1) n_eff / N) independent lags of the
    2K + 1 searched. A peak at or below 0, or an n_eff of 3 or less, is no
    evidence: its p is that of z = 0.
    """
    dt = a.dt
    b = _resample(b, dt)
    max_k = int(round(max_lag / dt))
    n_min = min(len(a), len(b))
    if (n_min - max_k) * dt < MIN_OVERLAP_SECONDS:
        raise InsufficientOverlap(
            f"{n_min} samples leave under {MIN_OVERLAP_SECONDS} s of overlap at lag {max_lag} s")
    lags = np.arange(-max_k, max_k + 1)
    scores, covariances = _fast_scores(a.values, b.values, lags)
    candidates = lags[scores >= scores.max() - 1e-9]
    k_best = int(min(candidates, key=lambda k: (abs(k), k)))
    peak = float(scores[k_best + max_k])
    n = min(len(b), len(a) + k_best) - max(0, k_best)
    shared = covariances[1:n // 4 + 1].sum() / covariances[0] if covariances[0] > 0 else 0.0
    n_eff = n / (1.0 + 2.0 * float(shared))
    r = min(max(peak, 0.0), math.nextafter(1.0, 0.0))  # a score can round to 1
    one_sided = 0.5 * math.erfc(math.atanh(r) * math.sqrt(max(n_eff - 3.0, 0.0) / 2.0))
    p_value = -math.expm1(max(1.0, len(lags) * n_eff / n) * math.log1p(-one_sided))
    return k_best * dt + (b.t0 - a.t0), peak, p_value, n_eff


def shift_annotations(ann: AnnotationTrack, delay: float,
                      span: tuple[float, float]) -> AnnotationTrack:
    """Shift interval endpoints by ``delay`` and clip them to ``span``; an
    interval left empty is dropped."""
    intervals = []
    for start, end, label in ann.intervals:
        start, end = max(start + delay, span[0]), min(end + delay, span[1])
        if start < end:
            intervals.append((start, end, label))
    return AnnotationTrack(site=ann.site, intervals=intervals)
