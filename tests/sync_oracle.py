"""The per-lag delay search that ``sync.estimate_delay`` replaced: one
Pearson correlation per lag, each formed on its own. Tests hold the FFT
scores of ``sync._fast_scores`` and the chosen lag to it within 1e-9."""

import numpy as np

from climbdetect.errors import InsufficientOverlap
from climbdetect.sync import MIN_OVERLAP_SECONDS, _resample

STD_FLOOR = 1e-12  # a window whose std is below this correlates as 0.0


def _windows(a: np.ndarray, b: np.ndarray, lag: int):
    """The windows of a and b that lag pairs: b[i] with a[i - lag]."""
    start = max(0, lag)
    stop = min(len(b), len(a) + lag)
    return a[start - lag:stop - lag], b[start:stop]


def correlates(a: np.ndarray, b: np.ndarray, lag: int) -> bool:
    """Whether ``lag_correlation`` forms a correlation at ``lag``, not 0.0:
    the overlap holds 3 samples or more and both windows' stds reach the floor."""
    as_, bs = _windows(a, b, lag)
    return len(bs) >= 3 and np.std(as_) >= STD_FLOOR and np.std(bs) >= STD_FLOOR


def lag_correlation(a: np.ndarray, b: np.ndarray, lag: int) -> float:
    """Pearson correlation pairing b[i] with a[i - lag]."""
    if not correlates(a, b, lag):
        return 0.0
    as_, bs = _windows(a, b, lag)
    return float(np.mean((as_ - np.mean(as_)) * (bs - np.mean(bs))) / (np.std(as_) * np.std(bs)))


def estimate_delay_all_lags(a, b, max_lag: float) -> tuple[float, float]:
    """(delay, peak) of the largest per-lag correlation; scores within 1e-15
    of it tie, and the smallest |lag| wins."""
    dt = a.dt
    b = _resample(b, dt)
    max_k = int(round(max_lag / dt))
    n_min = min(len(a), len(b))
    if (n_min - max_k) * dt < MIN_OVERLAP_SECONDS:
        raise InsufficientOverlap(
            f"{n_min} samples leave under {MIN_OVERLAP_SECONDS} s of overlap at lag {max_lag} s")
    lags = np.arange(-max_k, max_k + 1)
    scores = np.array([lag_correlation(a.values, b.values, int(k)) for k in lags])
    best = scores.max()
    candidates = lags[scores >= best - 1e-15]
    k_best = int(min(candidates, key=lambda k: (abs(k), k)))
    j_best = int(np.where(lags == k_best)[0][0])
    return k_best * dt + (b.t0 - a.t0), float(scores[j_best])
