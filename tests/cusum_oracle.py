"""Page's drawup CUSUM rule transcribed from its definition: the oracle that
``cusum.detect_from_increments`` is held equal to."""

import numpy as np

from climbdetect.series import H0, H1


def naive_cusum(inc, lam0, lam1):
    """Page's drawup rule transcribed with O(n^2) rescans, starting in H0.

    C is the never-restarted sum of the increments after the first sample.
    In H0 a detection fires at the first sample whose C exceeds the minimum
    of C since the last detection by more than lambda1, in H1 at the first
    sample whose C falls more than lambda0 below the maximum since it.
    Returns the states, switching at the onsets, the change points and
    their onsets: the first sample of that extremum.
    """
    n = len(inc)
    change_points = []
    onsets = []
    state = H0
    sums = [0.0]  # C at every sample so far
    seg_start = 0
    for i in range(1, n):
        sums.append(sums[-1] + inc[i])
        segment = sums[seg_start:i]
        if state == H0 and sums[i] - min(segment) > lam1:
            extremum = min(segment)
        elif state == H1 and max(segment) - sums[i] > lam0:
            extremum = max(segment)
        else:
            continue
        change_points.append((i, 1 - state))
        onsets.append(seg_start + segment.index(extremum))
        state, seg_start = 1 - state, i
    return backdated_states(n, change_points, onsets), change_points, onsets


def backdated_states(n, change_points, onsets):
    """n states from H0, each change point's new state from its onset on."""
    states = np.full(n, H0, np.uint8)
    for onset, (_, state) in zip(onsets, change_points):
        states[onset:] = state
    return states
