"""Synthetic labeled climbs with Gamma-distributed signal norms.

Ground-truth generator for end-to-end tests: per-site binary state plans
drive Gamma emissions for both detection channels, with annotations that
mirror the plan exactly; each sample is drawn from the state that
`series.rasterize_track` gives it under those annotations. All randomness
derives from a single seed through numpy's PCG64 via spawned SeedSequence
substreams, one per (site, purpose), so runs are reproducible across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import InvalidPlan
from .gamma_model import GammaParams, HypothesisModel
from .learning import LabeledClimb, SensorChannels
from .orientation import GRAVITY, ImuRecording
from .series import (ALL_SITES, H0, H1, AnnotationTrack, SensorSite, SignalSeries,
                     rasterize_track)

# Earth magnetic field direction seen by an identity-orientation sensor
# (north component with downward dip).
MAG_FIELD = np.array([0.5, 0.0, -np.sqrt(3.0) / 2.0])

# `random_plan` dwells: exponential with these means (s) in H0 and H1, and at
# least MIN_DWELL s, except the last
MEAN_DWELL = (6.0, 4.0)
MIN_DWELL = 1.0


@dataclass
class StatePlan:
    """Per-site schedule of (duration_seconds, state) segments."""

    segments: dict[SensorSite, list[tuple[float, int]]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.segments:
            raise InvalidPlan("plan has no sites")
        for site, segs in self.segments.items():
            if not segs:
                raise InvalidPlan(f"no segments for {site.value}")
            for duration, state in segs:
                if duration <= 0:
                    raise InvalidPlan(f"non-positive duration {duration} for {site.value}")
                if state not in (H0, H1):
                    raise InvalidPlan(f"unknown state {state!r}")

    def duration(self, site: SensorSite) -> float:
        return sum(d for d, _ in self.segments[site])


def default_models() -> dict[SensorSite, tuple[HypothesisModel, HypothesisModel]]:
    """Well-separated emission models, shared by all sites."""
    acc = HypothesisModel(h0=GammaParams(2.0, 0.05), h1=GammaParams(3.0, 1.0))
    ang = HypothesisModel(h0=GammaParams(2.0, 0.04), h1=GammaParams(2.5, 0.8))
    return {site: (acc, ang) for site in ALL_SITES}


def random_plan(duration: float, rng: np.random.Generator) -> StatePlan:
    """Independent alternating H0/H1 schedules at every site, with exponential dwells."""
    segments = {}
    for site in ALL_SITES:
        segs = []
        remaining = duration
        state = H0
        while remaining > 0:
            dwell = max(MIN_DWELL, float(rng.exponential(MEAN_DWELL[state])))
            dwell = min(dwell, remaining)
            segs.append((dwell, state))
            remaining -= dwell
            state = 1 - state
        segments[site] = segs
    return StatePlan(segments=segments)


@dataclass
class SimulatedClimb(LabeledClimb):
    """A simulated climb and the recordings ``simulate(..., triaxial=True)`` draws."""

    recordings: dict[SensorSite, ImuRecording] = field(default_factory=dict)


def simulate(plan: StatePlan,
             models: dict[SensorSite, tuple[HypothesisModel, HypothesisModel]] | None = None,
             sample_rate: float = 100.0, seed: int = 0,
             climb_id: str = "sim", triaxial: bool = False) -> SimulatedClimb:
    """Draw a labeled climb from the plan's scheduled Gamma emissions.

    With ``triaxial`` set, matching IMU recordings are generated as well:
    the gravity-free acceleration norm is distributed per model and given a
    random direction, the sensor is held at identity orientation, and
    gravity plus the magnetic field are added in the sensor frame. A site
    whose plan rounds to fewer than 2 samples raises `InvalidPlan`.
    """
    if models is None:
        models = default_models()
    missing = [s.value for s in plan.segments if s not in models]
    if missing:
        raise InvalidPlan(f"no models for sites: {missing}")
    root = np.random.SeedSequence(seed)
    site_seeds = dict(zip(sorted(plan.segments, key=lambda s: s.value),
                          root.spawn(len(plan.segments))))
    channels: dict[SensorSite, SensorChannels] = {}
    annotations: dict[SensorSite, AnnotationTrack] = {}
    recordings: dict[SensorSite, ImuRecording] = {}
    dt = 1.0 / sample_rate
    for site, segs in plan.segments.items():
        rng = np.random.default_rng(site_seeds[site])
        edges = list(accumulate((duration for duration, _ in segs), initial=0.0))
        annotations[site] = AnnotationTrack(site=site, intervals=[
            (start, end, state) for start, end, (_, state) in zip(edges, edges[1:], segs)])
        n = int(round(plan.duration(site) * sample_rate))
        if n < 2:
            raise InvalidPlan(f"{plan.duration(site)!r} s at {sample_rate!r} Hz gives "
                              f"{site.value} {n} samples, fewer than 2")
        labels = rasterize_track(annotations[site], 0.0, dt, n)
        acc_model, ang_model = models[site]
        series = {}
        for name, model in (("acc", acc_model), ("ang", ang_model)):
            v0 = rng.gamma(model.h0.k, model.h0.theta, n)
            v1 = rng.gamma(model.h1.k, model.h1.theta, n)
            series[name] = np.where(labels == H1, v1, v0)
        channels[site] = SensorChannels(
            acc=SignalSeries(0.0, dt, series["acc"]),
            ang=SignalSeries(0.0, dt, series["ang"]))
        if triaxial:
            def random_directions(count):
                v = rng.normal(size=(count, 3))
                return v / np.linalg.norm(v, axis=1, keepdims=True)

            accel = random_directions(n) * series["acc"][:, None]
            accel[:, 2] += GRAVITY
            gyro = random_directions(n) * series["ang"][:, None]
            recordings[site] = ImuRecording(
                site=site, sample_rate=sample_rate, t=dt * np.arange(n),
                accel=accel, gyro=gyro, mag=np.tile(MAG_FIELD, (n, 1)))
    return SimulatedClimb(climb_id=climb_id, channels=channels,
                          annotations=annotations, recordings=recordings)

