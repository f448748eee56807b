"""The per-cell detector that every cell of ``learning._sweep`` is held equal to."""

import numpy as np

from climbdetect.cusum import BinaryStateSeries, detect_from_increments, relabel_segments
from climbdetect.learning import performance_coefficient


def pooled_score(prep, alpha: float, lambda0: float, lambda1: float) -> float:
    """c over the concatenated climbs of ``prep`` (a list of ``learning._SitePrep``)
    at one (alpha, lambda0, lambda1) cell; detections are onset-backdated."""
    states = []
    for item in prep:
        inc = alpha * item.l_acc + (1.0 - alpha) * item.l_ang
        raw = detect_from_increments(inc, lambda0, lambda1)
        states.append(relabel_segments(raw).states)
    pred = BinaryStateSeries(0.0, 1.0, np.concatenate(states))
    return performance_coefficient(pred, np.concatenate([item.truth for item in prep]))
