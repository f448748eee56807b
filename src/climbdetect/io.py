"""File formats: recording CSV, annotation/model JSON, detection and timeline CSV.

All writers format floats with ``repr`` and sort JSON keys, so identical
inputs always produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .classifier import ActivityTimeline, ExplorationReport, FullBodyState, LimbSubState
from .cusum import (BinaryStateSeries, DetectionConfig, HypothesisModel,
                    SensorModel)
from .errors import EmptyRecording, MalformedRecording
from .gamma_model import GammaParams
from .orientation import ImuRecording
from .series import (ALL_SITES, LIMBS, AnnotationTrack, SensorSite,
                     STATE_NAMES)
from .sync import TrajectorySeries

RECORDING_HEADER = "t,ax,ay,az,gx,gy,gz,mx,my,mz"
# A 99th-percentile gyro magnitude above this means the file is in deg/s
# (the hardware range is 1600 deg/s = 27.9 rad/s).
GYRO_DEGREES_THRESHOLD = 50.0

_LABEL_CODES = {name: code for code, name in STATE_NAMES.items()}


def _f(x) -> str:
    return repr(float(x))


def site_from_filename(path: Path) -> SensorSite:
    token = path.stem.rsplit("_", 1)[-1]
    return SensorSite(token)


def recording_path(directory: Path, climb_id: str, site: SensorSite) -> Path:
    return Path(directory) / f"{climb_id}_{site.value}.csv"


def annotations_path(directory: Path, climb_id: str) -> Path:
    return Path(directory) / f"{climb_id}_annotations.json"


def write_recording_csv(path, rec: ImuRecording) -> None:
    path = Path(path)
    mag = rec.mag if rec.mag is not None else np.zeros_like(rec.accel)
    lines = [RECORDING_HEADER]
    for i in range(len(rec)):
        row = [rec.t[i], *rec.accel[i], *rec.gyro[i], *mag[i]]
        lines.append(",".join(_f(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_recording_csv(path, site: SensorSite | None = None) -> ImuRecording:
    """Load a recording; auto-detects gyro units, resamples jittered clocks
    onto the nominal grid, and flags gaps longer than two sample periods."""
    path = Path(path)
    if site is None:
        site = site_from_filename(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    columns = RECORDING_HEADER.split(",")
    required = columns if "mx" in header else columns[:7]
    missing = [name for name in required if name not in header]
    if missing:
        raise MalformedRecording(f"{path}: missing column(s) {', '.join(missing)}")
    if not any(_data_text(line) for line in lines):
        raise EmptyRecording(f"{path}: no samples after the header")
    try:
        data, reason = np.loadtxt(lines, delimiter=",", ndmin=2), None
    except ValueError as exc:  # a token numpy cannot parse, or a ragged row
        data, reason = None, f"{path}: {exc}"
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        raise MalformedRecording(_first_bad_row(path, header, lines) or reason)
    cols = {name: i for i, name in enumerate(header)}
    t = data[:, cols["t"]]
    accel = data[:, [cols["ax"], cols["ay"], cols["az"]]]
    gyro = data[:, [cols["gx"], cols["gy"], cols["gz"]]]
    mag = None
    if "mx" in cols:
        mag = data[:, [cols["mx"], cols["my"], cols["mz"]]]
        if not np.any(np.abs(mag) > 1e-12):
            mag = None
    gyro_p99 = float(np.percentile(np.linalg.norm(gyro, axis=1), 99)) if len(gyro) else 0.0
    if gyro_p99 > GYRO_DEGREES_THRESHOLD:
        gyro = np.deg2rad(gyro)
    diffs = np.diff(t)
    dt = float(np.median(diffs)) if len(diffs) else 0.01
    gap_indices = (np.flatnonzero(diffs > 2.0 * dt) + 1).tolist()
    if gap_indices:
        warnings.warn(f"{path.name}: {len(gap_indices)} gaps longer than 2 sample periods")
    if len(diffs) and np.max(np.abs(diffs - dt)) > 0.1 * dt:
        t_new = np.arange(t[0], t[-1] + 0.5 * dt, dt)
        accel = np.column_stack([np.interp(t_new, t, accel[:, j]) for j in range(3)])
        gyro = np.column_stack([np.interp(t_new, t, gyro[:, j]) for j in range(3)])
        if mag is not None:
            mag = np.column_stack([np.interp(t_new, t, mag[:, j]) for j in range(3)])
        t = t_new
    return ImuRecording(site=site, sample_rate=1.0 / dt, t=t, accel=accel,
                        gyro=gyro, mag=mag, gap_indices=gap_indices)


def _data_text(line: str) -> str:
    """A CSV line as ``np.loadtxt`` reads it: comment cut, whitespace stripped."""
    return line.split("#", 1)[0].strip()


def _first_bad_row(path: Path, header: list[str], lines: list[str]) -> str | None:
    """``path:line: reason`` for the first row that is ragged or not all finite."""
    for lineno, line in enumerate(lines, start=2):
        text = _data_text(line)
        if not text:
            continue
        fields = text.split(",")
        if len(fields) != len(header):
            return f"{path}:{lineno}: {len(fields)} values, the header names {len(header)}"
        for name, token in zip(header, fields):
            try:
                value = float(token)
            except ValueError:
                return f"{path}:{lineno}: {name} is not a number: {token.strip()!r}"
            if not math.isfinite(value):
                return f"{path}:{lineno}: {name} is not finite: {token.strip()!r}"
    return None


def write_annotations_json(path, annotations: dict[SensorSite, AnnotationTrack]) -> None:
    doc = [
        {"site": site.value,
         "intervals": [{"start": float(s), "end": float(e),
                        "label": STATE_NAMES[lab]}
                       for s, e, lab in annotations[site].intervals]}
        for site in sorted(annotations, key=lambda s: s.value)
    ]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_annotations_json(path) -> dict[SensorSite, AnnotationTrack]:
    doc = json.loads(Path(path).read_text())
    out = {}
    for entry in doc:
        site = SensorSite(entry["site"])
        intervals = [(iv["start"], iv["end"], _LABEL_CODES[iv["label"]])
                     for iv in entry["intervals"]]
        out[site] = AnnotationTrack(site=site, intervals=intervals)
    return out


def _params_dict(p: GammaParams) -> dict:
    return {"k": p.k, "theta": p.theta}


def write_model_json(path, models: dict[SensorSite, SensorModel],
                     provenance: dict | None = None) -> None:
    doc = {"sensors": {}, "provenance": provenance or {}}
    for site in sorted(models, key=lambda s: s.value):
        m = models[site]
        doc["sensors"][site.value] = {
            "acc": {"h0": _params_dict(m.acc.h0), "h1": _params_dict(m.acc.h1)},
            "ang": {"h0": _params_dict(m.ang.h0), "h1": _params_dict(m.ang.h1)},
            "alpha": m.config.alpha,
            "lambda0": m.config.lambda0,
            "lambda1": m.config.lambda1,
        }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_model_json(path) -> dict[SensorSite, SensorModel]:
    doc = json.loads(Path(path).read_text())
    out = {}
    for token, entry in doc["sensors"].items():
        def hyp(channel):
            return HypothesisModel(
                h0=GammaParams(channel["h0"]["k"], channel["h0"]["theta"]),
                h1=GammaParams(channel["h1"]["k"], channel["h1"]["theta"]))
        out[SensorSite(token)] = SensorModel(
            acc=hyp(entry["acc"]), ang=hyp(entry["ang"]),
            config=DetectionConfig(lambda0=entry["lambda0"],
                                   lambda1=entry["lambda1"],
                                   alpha=entry["alpha"]))
    return out


def write_detection_csv(path, series: BinaryStateSeries) -> None:
    """Per-sample ``t,state`` rows followed by a change-point block."""
    lines = ["t,state"]
    t = series.t0 + series.dt * np.arange(len(series.states))
    for ti, st in zip(t, series.states):
        lines.append(f"{_f(ti)},{STATE_NAMES[int(st)]}")
    for (idx, st), onset in zip(series.change_points, series.onsets):
        lines.append(f"# change_point,{idx},{STATE_NAMES[st]},{onset}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_detection_csv(path) -> BinaryStateSeries:
    times, states, change_points, onsets = [], [], [], []
    with open(path) as fh:
        next(fh)  # header
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _, idx, st, onset = line.lstrip("# ").split(",")
                change_points.append((int(idx), _LABEL_CODES[st]))
                onsets.append(int(onset))
            else:
                ti, st = line.split(",")
                times.append(float(ti))
                states.append(_LABEL_CODES[st])
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return BinaryStateSeries(t0=times[0], dt=dt, states=np.array(states, np.uint8),
                             change_points=change_points, onsets=onsets)


_TIMELINE_SITES = (SensorSite.RIGHT_HAND, SensorSite.LEFT_HAND,
                   SensorSite.RIGHT_FOOT, SensorSite.LEFT_FOOT)


def write_timeline_csv(path, timeline: ActivityTimeline) -> None:
    lines = ["t,full_body,rh,lh,rf,lf"]
    t = timeline.t0 + timeline.dt * np.arange(len(timeline.full_body))
    tracks = [timeline.limb_substates[s] for s in _TIMELINE_SITES]
    for i, ti in enumerate(t):
        row = [FullBodyState(timeline.full_body[i]).name.lower()]
        row += [LimbSubState(track[i]).name.lower() for track in tracks]
        lines.append(f"{_f(ti)}," + ",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeline_csv(path) -> ActivityTimeline:
    fb_codes = {s.name.lower(): int(s) for s in FullBodyState}
    sub_codes = {s.name.lower(): int(s) for s in LimbSubState}
    times, full_body = [], []
    tracks: dict[SensorSite, list[int]] = {s: [] for s in _TIMELINE_SITES}
    with open(path) as fh:
        next(fh)
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 6:
                continue
            times.append(float(parts[0]))
            full_body.append(fb_codes[parts[1]])
            for site, token in zip(_TIMELINE_SITES, parts[2:]):
                tracks[site].append(sub_codes[token])
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return ActivityTimeline(
        t0=times[0], dt=dt, full_body=np.array(full_body, np.uint8),
        limb_substates={s: np.array(v, np.uint8) for s, v in tracks.items()})


def write_report_json(path, report: ExplorationReport, config: dict | None = None) -> None:
    doc = {"limbs": {}, "config": config or {}}
    for site in sorted(report.counts, key=lambda s: s.value):
        counts = report.counts[site]
        ratio = counts.ratio
        doc["limbs"][site.value] = {
            "exploratory": counts.exploratory,
            "performatory": counts.performatory,
            "ratio": ratio if np.isfinite(ratio) else None,
        }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_trajectory_csv(path) -> TrajectorySeries:
    with open(path) as fh:
        next(fh)  # header t,x,y
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    t = data[:, 0]
    dt = float(np.median(np.diff(t))) if len(t) > 1 else 1.0
    return TrajectorySeries(t0=float(t[0]), dt=dt, x=data[:, 1], y=data[:, 2])


def write_trajectory_csv(path, traj: TrajectorySeries) -> None:
    lines = ["t,x,y"]
    t = traj.t0 + traj.dt * np.arange(len(traj))
    for ti, xi, yi in zip(t, traj.x, traj.y):
        lines.append(f"{_f(ti)},{_f(xi)},{_f(yi)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
