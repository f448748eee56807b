"""The all-lags delay search that ``sync.estimate_delay`` replaced: one
``_lag_correlation`` call per lag and channel. Tests hold the fast search
equal to it."""

import numpy as np

from climbdetect.errors import InsufficientOverlap
from climbdetect.series import SignalSeries
from climbdetect.sync import MIN_OVERLAP_SECONDS, _lag_correlation, _resample


def estimate_delay_all_lags(a, b, max_lag: float) -> tuple[float, float]:
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
