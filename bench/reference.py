"""Reference computations that the output checks compare against.

Each function is written from the method's description, not from the
program: nothing here imports ``climbdetect``. The checks in
``workloads.py`` hold the program's outputs against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# Norms below this are floored before any log, as the method specifies.
SAMPLE_FLOOR = 1e-6

H0 = 0

FULL_BODY_NAMES = ("immobility", "postural_regulation", "hold_interaction", "traction")
SUBSTATE_NAMES = ("immobility", "use", "change", "exploration")


def gamma_log_pdf(x: np.ndarray, k: float, theta: float) -> np.ndarray:
    """Log density of Gamma(k, theta) at the floored samples."""
    x = np.maximum(np.asarray(x, dtype=float), SAMPLE_FLOOR)
    return (k - 1.0) * np.log(x) - x / theta - math.lgamma(k) - k * math.log(theta)


def gamma_mle(samples: np.ndarray) -> tuple[float, float]:
    """Exact maximum-likelihood (k, theta): the root of log k - digamma(k) = s,
    where s = log(mean) - mean(log) of the floored samples."""
    x = np.maximum(np.asarray(samples, dtype=float), SAMPLE_FLOOR)
    mean = float(np.mean(x))
    s = math.log(mean) - float(np.mean(np.log(x)))
    k = optimize.brentq(lambda k: math.log(k) - special.digamma(k) - s, 1e-6, 1e6)
    return k, mean / k


def log_likelihood_ratio(x: np.ndarray, h0: tuple[float, float],
                         h1: tuple[float, float]) -> np.ndarray:
    """log p(x | H1) - log p(x | H0) for (k, theta) pairs."""
    return gamma_log_pdf(x, *h1) - gamma_log_pdf(x, *h0)


def cusum(inc: np.ndarray, lambda0: float, lambda1: float,
          initial: int = H0) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Two-state CUSUM with the strict switching rule (Page 1954).

    The sum S starts at 0 on the first sample, which adds no increment, and
    restarts at 0 on every detection sample. In H0 a switch to H1 fires at
    the first sample where S is strictly greater than its running minimum
    plus lambda1; in H1 a switch back fires where S is strictly less than
    its running maximum minus lambda0. The running extrema include the
    restart value. Returns the per-sample states held between detections
    and, for each detection, ``(onset, new_state)``, where the onset is the
    first sample at which the running extremum that triggered it was
    reached.
    """
    n = len(inc)
    states = np.empty(n, np.uint8)
    changes: list[tuple[int, int]] = []
    state = initial
    origin = 0
    s = low = high = 0.0
    at_low = at_high = 0
    for i, step in enumerate(np.asarray(inc, dtype=float).tolist()[1:], start=1):
        s += step
        fired = (s > low + lambda1) if state == H0 else (s < high - lambda0)
        if fired:
            states[origin:i] = state
            changes.append((at_low if state == H0 else at_high, 1 - state))
            state = 1 - state
            origin = i
            s = low = high = 0.0
            at_low = at_high = i
            continue
        if s < low:
            low, at_low = s, i
        if s > high:
            high, at_high = s, i
    states[origin:] = state
    return states, changes


def relabel(n: int, changes: list[tuple[int, int]], initial: int = H0) -> np.ndarray:
    """States that switch at each detection's onset instead of at the detection."""
    out = np.full(n, initial, np.uint8)
    if changes:
        onsets = np.array([onset for onset, _ in changes])
        new = np.array([state for _, state in changes], np.uint8)
        last = np.searchsorted(onsets, np.arange(n), side="right") - 1
        out = np.where(last < 0, out, new[np.maximum(last, 0)]).astype(np.uint8)
    return out


def confusion(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """(TP, FP, P, N) with H1 as the positive class."""
    pred = np.asarray(pred, bool)
    truth = np.asarray(truth, bool)
    p = int(truth.sum())
    return (int((pred & truth).sum()), int((pred & ~truth).sum()), p, len(truth) - p)


def coefficient(pairs) -> float:
    """c = TP/P - FP/N over (prediction, truth) pairs pooled together."""
    tp = fp = p = n = 0
    for pred, truth in pairs:
        dtp, dfp, dp, dn = confusion(pred, truth)
        tp, fp, p, n = tp + dtp, fp + dfp, p + dp, n + dn
    return tp / p - fp / n


def detection_states(inc: np.ndarray, lambda0: float, lambda1: float) -> np.ndarray:
    """Onset-relabelled CUSUM states starting from H0."""
    _, changes = cusum(inc, lambda0, lambda1, H0)
    return relabel(len(inc), changes, H0)


def annotation_labels(intervals, t0: float, dt: float, n: int) -> np.ndarray:
    """Per-sample labels of ``(start, end, label)`` intervals.

    A sample takes the label of the first interval whose end is at or after
    its time, so a sample on a shared boundary belongs to the earlier
    interval; samples past the last end take the last label.
    """
    ends = np.array([end for _, end, _ in intervals])
    labels = np.array([label for _, _, label in intervals], np.uint8)
    t = t0 + dt * np.arange(n)
    return labels[np.minimum(np.searchsorted(ends, t, side="left"), len(labels) - 1)]


def plan_labels(segments, rate: float, n: int) -> np.ndarray:
    """Per-sample ground truth of a ``[(duration, state), ...]`` schedule.

    A segment covers the samples from its rounded start to its rounded end.
    """
    out = np.zeros(n, np.uint8)
    edge = 0.0
    for duration, state in segments:
        start = int(round(edge * rate))
        edge += duration
        out[start:min(n, int(round(edge * rate)))] = state
    return out


def full_body(limbs: list[np.ndarray], pelvis: np.ndarray) -> np.ndarray:
    """Truth table: any moving limb gives hold interaction, or traction when
    the pelvis moves too; a moving pelvis alone gives postural regulation."""
    any_limb = np.any(np.vstack(limbs).astype(bool), axis=0)
    # Index into FULL_BODY_NAMES.
    return (2 * any_limb + np.asarray(pelvis, bool)).astype(np.uint8)


def shift_intervals(intervals, delay: float, span: tuple[float, float]):
    """Intervals moved by ``delay``, clipped to ``span``; empty ones dropped."""
    out = []
    for start, end, label in intervals:
        start = max(start + delay, span[0])
        end = min(end + delay, span[1])
        if end > start:
            out.append((start, end, label))
    return out
