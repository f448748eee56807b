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
from .errors import (EmptyRecording, InvalidParams, MalformedAnnotations,
                     MalformedModel, MalformedRecording)
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
# Rows a recording writer turns into Python floats at a time.
_BLOCK_ROWS = 256


def site_from_filename(path: Path) -> SensorSite:
    token = path.stem.rsplit("_", 1)[-1]
    return SensorSite(token)


def recording_path(directory: Path, climb_id: str, site: SensorSite) -> Path:
    return Path(directory) / f"{climb_id}_{site.value}.csv"


def annotations_path(directory: Path, climb_id: str) -> Path:
    return Path(directory) / f"{climb_id}_annotations.json"


def write_recording_csv(path, rec: ImuRecording) -> None:
    mag = rec.mag if rec.mag is not None else np.zeros_like(rec.accel)
    columns = (rec.t[:, None], rec.accel, rec.gyro, mag)
    lines = [RECORDING_HEADER]
    for start in range(0, len(rec), _BLOCK_ROWS):
        block = np.hstack([c[start:start + _BLOCK_ROWS] for c in columns])
        lines += [",".join(map(repr, row)) for row in block.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


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
    data = _read_rows(path, header, lines)
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


def _read_rows(path: Path, header: list[str], lines: list[str]) -> np.ndarray:
    """The numeric rows below ``header``: `EmptyRecording` when there are none,
    `MalformedRecording` naming ``path:line`` for a ragged or non-finite row."""
    if not any(_data_text(line) for line in lines):
        raise EmptyRecording(f"{path}: no samples after the header")
    try:
        data, reason = np.loadtxt(lines, delimiter=",", ndmin=2), None
    except ValueError as exc:  # a token numpy cannot parse, or a ragged row
        data, reason = None, f"{path}: {exc}"
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        numbers = [_number] * len(header)
        for lineno, line in enumerate(lines, start=2):
            if text := _data_text(line):
                _row_values(path, lineno, text.split(","), header, numbers)
        raise MalformedRecording(reason)
    return data


def _data_text(line: str) -> str:
    """A CSV line as ``np.loadtxt`` reads it: comment cut, whitespace stripped."""
    return line.split("#", 1)[0].strip()


def _row_values(path: Path, lineno: int, fields: list[str], names, parsers,
                expected: str = "the header names") -> list:
    """Each field parsed by its parser, or `MalformedRecording` naming
    ``path:line`` for a wrong field count or the first field that fails."""
    if len(fields) != len(names):
        raise MalformedRecording(
            f"{path}:{lineno}: {len(fields)} values, {expected} {len(names)}")
    values = []
    for name, token, parse in zip(names, fields, parsers):
        token = token.strip()
        try:
            values.append(parse(token))
        except ValueError as exc:
            raise MalformedRecording(f"{path}:{lineno}: {name} {exc}: {token!r}") from None
    return values


def _number(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError("is not a number") from None
    if not math.isfinite(value):
        raise ValueError("is not finite")
    return value


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError("is not an integer") from None


def _label(codes: dict[str, int]):
    """A parser from a label to its code."""
    def parse(token: str) -> int:
        if token not in codes:
            raise ValueError("is not a known label")
        return codes[token]
    return parse


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
    """Per-site tracks; `MalformedAnnotations` naming the file for invalid JSON
    or an entry that `_annotation_track` rejects."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
        raise MalformedAnnotations(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise MalformedAnnotations(f"{path}: expected a list of site entries")
    out = {}
    for i, entry in enumerate(doc):
        try:
            track = _annotation_track(entry)
        except (TypeError, ValueError) as exc:
            raise MalformedAnnotations(f"{path}: entry {i}: {exc}") from None
        out[track.site] = track
    return out


def _annotation_track(entry) -> AnnotationTrack:
    """One site's track from its JSON entry. A ValueError (a TypeError for an
    unhashable label) says what is wrong: a missing key, an unknown site or
    label, a start or end that is not a finite number, or intervals that
    `AnnotationTrack` refuses."""
    if not isinstance(entry, dict) or not {"site", "intervals"} <= entry.keys():
        raise ValueError("needs the keys 'site' and 'intervals'")
    site = SensorSite(entry["site"])
    intervals = []
    for iv in entry["intervals"]:
        if not isinstance(iv, dict) or not {"start", "end", "label"} <= iv.keys():
            raise ValueError("an interval needs the keys 'start', 'end' and 'label'")
        if iv["label"] not in _LABEL_CODES:
            raise ValueError(f"unknown label {iv['label']!r}")
        for key in ("start", "end"):
            value = iv[key]
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{key} is not a finite number: {value!r}")
        intervals.append((iv["start"], iv["end"], _LABEL_CODES[iv["label"]]))
    return AnnotationTrack(site=site, intervals=intervals)


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
    """Per-site models; `MalformedModel` naming the file for invalid JSON or no
    ``sensors`` object, and the site too for an entry `_sensor_model` rejects."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
        raise MalformedModel(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("sensors"), dict):
        raise MalformedModel(f"{path}: needs a 'sensors' object")
    out = {}
    for token, entry in doc["sensors"].items():
        try:
            out[SensorSite(token)] = _sensor_model(entry)
        except KeyError as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: missing key {exc}") from None
        except (TypeError, ValueError, InvalidParams) as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: {exc}") from None
    return out


def _sensor_model(entry) -> SensorModel:
    """One site's model from its JSON entry. A KeyError names a missing key; a
    TypeError, ValueError or `InvalidParams` says which value is refused."""
    def hyp(channel):
        return HypothesisModel(
            h0=GammaParams(channel["h0"]["k"], channel["h0"]["theta"]),
            h1=GammaParams(channel["h1"]["k"], channel["h1"]["theta"]))
    return SensorModel(
        acc=hyp(entry["acc"]), ang=hyp(entry["ang"]),
        config=DetectionConfig(lambda0=entry["lambda0"], lambda1=entry["lambda1"],
                               alpha=entry["alpha"]))


def write_detection_csv(path, series: BinaryStateSeries) -> None:
    """Per-sample ``t,state`` rows followed by a change-point block."""
    t = series.t0 + series.dt * np.arange(len(series.states))
    lines = ["t,state", *(f"{ti!r},{STATE_NAMES[st]}"
                          for ti, st in zip(t.tolist(), series.states.tolist()))]
    for (idx, st), onset in zip(series.change_points, series.onsets):
        lines.append(f"# change_point,{idx},{STATE_NAMES[st]},{onset}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_detection_csv(path) -> BinaryStateSeries:
    path = Path(path)
    state = _label(_LABEL_CODES)
    times, states, change_points, onsets = [], [], [], []
    for lineno, fields in _text_rows(path):
        if fields[0].startswith("#"):
            _, idx, st, onset = _row_values(
                path, lineno, fields, ("#", "index", "state", "onset"),
                (str, _integer, state, _integer), expected="a change point has")
            change_points.append((idx, st))
            onsets.append(onset)
        else:
            ti, st = _row_values(path, lineno, fields, ("t", "state"), (_number, state))
            times.append(ti)
            states.append(st)
    if not times:
        raise EmptyRecording(f"{path}: no samples after the header")
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return BinaryStateSeries(t0=times[0], dt=dt, states=np.array(states, np.uint8),
                             change_points=change_points, onsets=onsets)


def _text_rows(path: Path) -> list[tuple[int, list[str]]]:
    """``(line number, comma-separated fields)`` of each non-blank line after the header."""
    with open(path) as fh:
        lines = fh.readlines()[1:]
    return [(lineno, [token.strip() for token in line.split(",")])
            for lineno, line in enumerate(lines, start=2) if line.strip()]


_TIMELINE_SITES = (SensorSite.RIGHT_HAND, SensorSite.LEFT_HAND,
                   SensorSite.RIGHT_FOOT, SensorSite.LEFT_FOOT)


# Each state's name in the timeline, indexed by its code.
_FULL_BODY_NAMES = [s.name.lower() for s in FullBodyState]
_LIMB_NAMES = [s.name.lower() for s in LimbSubState]


def write_timeline_csv(path, timeline: ActivityTimeline) -> None:
    t = timeline.t0 + timeline.dt * np.arange(len(timeline.full_body))
    columns = [map(repr, t.tolist()),
               map(_FULL_BODY_NAMES.__getitem__, timeline.full_body.tolist())]
    columns += [map(_LIMB_NAMES.__getitem__, timeline.limb_substates[s].tolist())
                for s in _TIMELINE_SITES]
    lines = ["t,full_body,rh,lh,rf,lf", *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeline_csv(path) -> ActivityTimeline:
    path = Path(path)
    names = ["t", "full_body", *(site.value for site in _TIMELINE_SITES)]
    parsers = [_number, _label({s.name.lower(): int(s) for s in FullBodyState})]
    parsers += [_label({s.name.lower(): int(s) for s in LimbSubState})] * len(_TIMELINE_SITES)
    times, full_body = [], []
    tracks: dict[SensorSite, list[int]] = {s: [] for s in _TIMELINE_SITES}
    for lineno, fields in _text_rows(path):
        ti, fb, *limbs = _row_values(path, lineno, fields, names, parsers)
        times.append(ti)
        full_body.append(fb)
        for site, code in zip(_TIMELINE_SITES, limbs):
            tracks[site].append(code)
    if not times:
        raise EmptyRecording(f"{path}: no samples after the header")
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
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")  # t,x,y
        lines = fh.readlines()
    data = _read_rows(path, header, lines)
    t = data[:, 0]
    dt = float(np.median(np.diff(t))) if len(t) > 1 else 1.0
    return TrajectorySeries(t0=float(t[0]), dt=dt, x=data[:, 1], y=data[:, 2])


def write_trajectory_csv(path, traj: TrajectorySeries) -> None:
    t = traj.t0 + traj.dt * np.arange(len(traj))
    lines = ["t,x,y", *(f"{ti!r},{xi!r},{yi!r}" for ti, xi, yi
                        in zip(t.tolist(), traj.x.tolist(), traj.y.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
