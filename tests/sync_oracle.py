"""The all-lags delay search that ``sync.estimate_delay`` replaced: one
``_lag_correlation`` call per lag. Tests hold the fast search equal to it."""

import numpy as np

from climbdetect.errors import InsufficientOverlap
from climbdetect.sync import MIN_OVERLAP_SECONDS, _lag_correlation, _resample


def estimate_delay_all_lags(a, b, max_lag: float) -> tuple[float, float]:
    dt = a.dt
    b = _resample(b, dt)
    max_k = int(round(max_lag / dt))
    n_min = min(len(a), len(b))
    if (n_min - max_k) * dt < MIN_OVERLAP_SECONDS:
        raise InsufficientOverlap(
            f"{n_min} samples leave under {MIN_OVERLAP_SECONDS} s of overlap at lag {max_lag} s")
    lags = np.arange(-max_k, max_k + 1)
    scores = np.array([_lag_correlation(a.values, b.values, int(k)) for k in lags])
    best = scores.max()
    candidates = lags[scores >= best - 1e-15]
    k_best = int(min(candidates, key=lambda k: (abs(k), k)))
    j_best = int(np.where(lags == k_best)[0][0])
    return k_best * dt + (b.t0 - a.t0), float(scores[j_best])
