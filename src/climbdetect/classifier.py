"""Full-body state classification and per-limb sub-state refinement.

Combines the five per-sensor binary detections into one of four exclusive
full-body states, splits each limb's mobile periods into Use / Change /
Exploration episodes relative to the traction phases, and counts
exploratory versus performatory movements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .cusum import BinaryStateSeries
from .errors import LengthMismatch
from .series import ALL_SITES, LIMBS, SensorSite

DEFAULT_MIN_EPISODE_SECONDS = 0.1


class FullBodyState(IntEnum):
    IMMOBILITY = 0
    POSTURAL_REGULATION = 1
    HOLD_INTERACTION = 2
    TRACTION = 3


class LimbSubState(IntEnum):
    IMMOBILITY = 0
    USE = 1
    CHANGE = 2
    EXPLORATION = 3


@dataclass
class ActivityTimeline:
    """Per-sample full-body states plus per-limb sub-state tracks."""

    t0: float
    dt: float
    full_body: np.ndarray
    limb_substates: dict[SensorSite, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.full_body = np.asarray(self.full_body, dtype=np.uint8)
        for site, track in self.limb_substates.items():
            track = np.asarray(track, dtype=np.uint8)
            if len(track) != len(self.full_body):
                raise LengthMismatch(f"sub-state track for {site.value} has wrong length")
            self.limb_substates[site] = track


@dataclass
class LimbCounts:
    exploratory: int
    performatory: int

    @property
    def ratio(self) -> float:
        """Exploratory/performatory episode ratio; inf or nan sentinels at zero denominators."""
        if self.performatory == 0:
            return math.inf if self.exploratory else math.nan
        return self.exploratory / self.performatory


# The full-body state indexed by (any limb mobile, pelvis mobile).
_FULL_BODY_TABLE = np.array([
    [FullBodyState.IMMOBILITY, FullBodyState.POSTURAL_REGULATION],
    [FullBodyState.HOLD_INTERACTION, FullBodyState.TRACTION],
], dtype=np.uint8)


def full_body_state(limbs, pelvis) -> np.ndarray:
    """Truth table, sample by sample, over the four limb state arrays and the
    pelvis state array: uint8 `FullBodyState` codes."""
    pelvis = np.asarray(pelvis).astype(bool)
    any_limb = np.zeros(len(pelvis), dtype=bool)
    for states in limbs:
        any_limb |= np.asarray(states).astype(bool)
    return _FULL_BODY_TABLE[any_limb.astype(np.intp), pelvis.astype(np.intp)]


def episodes(states: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of 1 as (start, end) index pairs, end exclusive."""
    padded = np.concatenate([[0], np.asarray(states, dtype=np.int8), [0]])
    diff = np.diff(padded)
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return list(zip(starts.tolist(), ends.tolist()))


def suppress_short_episodes(states: np.ndarray, min_samples: int) -> np.ndarray:
    """Merge mobile episodes shorter than ``min_samples`` into the immobile context."""
    out = np.asarray(states, dtype=np.uint8).copy()
    if min_samples > 1:
        for start, end in episodes(out):
            if end - start < min_samples:
                out[start:end] = 0
    return out


def _traction(full_body: np.ndarray):
    """The traction mask of ``full_body`` and the start of each traction run."""
    traction = full_body == FullBodyState.TRACTION
    return traction, [start for start, _ in episodes(traction)]


def _limb_substates(limb: np.ndarray, traction: np.ndarray, onsets) -> np.ndarray:
    """Sub-state per sample of a limb the length of the ``traction`` mask, whose
    runs start at ``onsets``: a mobile episode overlapping traction is Use, the
    last free (non-Use) episode ending before an onset is its Change (if any),
    and every other is Exploration."""
    eps = episodes(limb)
    labels = np.array([LimbSubState.USE if traction[start:end].any()
                       else LimbSubState.EXPLORATION for start, end in eps], dtype=np.uint8)
    free = np.flatnonzero(labels != LimbSubState.USE)
    # the free episodes ending at or before each onset: the last of them is its Change
    before = np.searchsorted([eps[i][1] for i in free], onsets, side="right")
    labels[free[before[before > 0] - 1]] = LimbSubState.CHANGE
    out = np.full(len(limb), LimbSubState.IMMOBILITY, dtype=np.uint8)
    for (start, end), label in zip(eps, labels):
        out[start:end] = label
    return out


def _span(series: BinaryStateSeries) -> tuple[float, float]:
    """The times of the first and last sample of ``series``."""
    return series.t0, series.t0 + series.dt * (len(series.states) - 1)


def classify(detections: dict[SensorSite, BinaryStateSeries],
             min_episode_duration: float = DEFAULT_MIN_EPISODE_SECONDS) -> ActivityTimeline:
    """Build the activity timeline from the five per-sensor detections;
    `LengthMismatch` names every site without one, and a site whose first or
    last sample lies more than a sample period (its or the pelvis's, the
    larger) from the pelvis's.

    All series are aligned to the pelvis grid by nearest-sample lookup and
    de-chattered before the full-body pass; the minimum episode duration
    affects episode counts and is echoed in report provenance.
    """
    missing = [site.value for site in ALL_SITES if site not in detections]
    if missing:
        raise LengthMismatch(f"missing detections: {missing}")
    pelvis = detections[SensorSite.PELVIS]
    n = len(pelvis.states)
    for site in LIMBS:
        series = detections[site]
        (first, last), (p_first, p_last) = _span(series), _span(pelvis)
        gap, period = max(abs(first - p_first), abs(last - p_last)), max(series.dt, pelvis.dt)
        if gap > period and not math.isclose(gap, period):  # one period off, to rounding
            raise LengthMismatch(f"{site.value} spans {first:.3f} to {last:.3f} s, "
                                 f"the pelvis {p_first:.3f} to {p_last:.3f} s")
    t_grid = pelvis.t0 + pelvis.dt * np.arange(n)
    min_samples = int(round(min_episode_duration / pelvis.dt))

    def aligned(series: BinaryStateSeries) -> np.ndarray:
        idx = np.rint((t_grid - series.t0) / series.dt).astype(int)
        idx = np.clip(idx, 0, len(series.states) - 1)
        return suppress_short_episodes(series.states[idx], min_samples)

    limb_states = {site: aligned(detections[site]) for site in LIMBS}
    pelvis_states = aligned(pelvis)
    full_body = full_body_state(limb_states.values(), pelvis_states)
    traction = _traction(full_body)
    substates = {site: _limb_substates(states, *traction)
                 for site, states in limb_states.items()}
    return ActivityTimeline(t0=pelvis.t0, dt=pelvis.dt,
                            full_body=full_body, limb_substates=substates)


def exploration_report(timeline: ActivityTimeline) -> dict[SensorSite, LimbCounts]:
    """Episode counts per limb: Exploration + Change versus Use."""
    report = {}
    for site, track in timeline.limb_substates.items():
        exploratory = len(episodes(track == LimbSubState.EXPLORATION)) \
            + len(episodes(track == LimbSubState.CHANGE))
        performatory = len(episodes(track == LimbSubState.USE))
        report[site] = LimbCounts(exploratory=exploratory, performatory=performatory)
    return report
