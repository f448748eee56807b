"""Shared time-series containers: sensor sites, signal series, annotations."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Binary per-sensor motion states.
H0 = 0  # immobile
H1 = 1  # mobile

STATE_NAMES = {H0: "H0", H1: "H1"}


class SensorSite(str, Enum):
    LEFT_HAND = "lh"
    RIGHT_HAND = "rh"
    LEFT_FOOT = "lf"
    RIGHT_FOOT = "rf"
    PELVIS = "pelvis"


LIMBS = (
    SensorSite.RIGHT_HAND,
    SensorSite.LEFT_HAND,
    SensorSite.RIGHT_FOOT,
    SensorSite.LEFT_FOOT,
)

ALL_SITES = LIMBS + (SensorSite.PELVIS,)


@dataclass
class SignalSeries:
    """Uniformly sampled scalar signal starting at ``t0`` with step ``dt``."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))


@dataclass
class AnnotationTrack:
    """Manual H0/H1 intervals for one sensor site.

    Intervals are ``(t_start, t_end, label)`` with label in {H0, H1}; they are
    ordered, non-overlapping and jointly cover the annotated span.
    """

    site: SensorSite
    intervals: list[tuple[float, float, int]] = field(default_factory=list)

    def __post_init__(self):
        prev_end = None
        for start, end, label in self.intervals:
            if end < start:
                raise ValueError(f"interval ends before it starts: {start}..{end}")
            if label not in (H0, H1):
                raise ValueError(f"unknown label {label!r}")
            if prev_end is not None and start < prev_end - 1e-9:
                raise ValueError("intervals overlap or are out of order")
            prev_end = end


def rasterize_track(track: AnnotationTrack, t0: float, dt: float, n: int) -> np.ndarray:
    """Per-sample labels on a uniform grid.

    A sample takes the label of the interval containing its timestamp; a
    sample sitting exactly on a shared boundary takes the earlier interval's
    label. Samples outside the annotated span take the nearest interval.
    """
    if not track.intervals:
        raise ValueError("empty annotation track")
    ends = np.array([iv[1] for iv in track.intervals])
    labels = np.array([iv[2] for iv in track.intervals], dtype=np.uint8)
    t = t0 + dt * np.arange(n)
    idx = np.searchsorted(ends, t, side="left")
    idx = np.clip(idx, 0, len(track.intervals) - 1)
    return labels[idx]


def resample_linear(t: np.ndarray, columns: np.ndarray, dt: float):
    """``(t_new, resampled)``: each column of ``columns``, sampled at times ``t``, taken
    linearly onto ``t_new = t[0] + k*dt``, which ends within half a step of ``t[-1]``."""
    t_new = np.arange(t[0], t[-1] + 0.5 * dt, dt)
    return t_new, np.column_stack([np.interp(t_new, t, column) for column in columns.T])
