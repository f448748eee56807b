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
from .orientation import DEFAULT_BETA, ImuRecording
from .series import LIMBS, STATE_NAMES, AnnotationTrack, SensorSite
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
    """Load a recording; refuses timestamps that do not strictly increase,
    auto-detects gyro units, and puts the samples on `_uniform_clock`."""
    path = Path(path)
    if site is None:
        site = site_from_filename(path)
    header, lines = _read_lines(path)
    columns = RECORDING_HEADER.split(",")
    cols = _column_index(path, header, columns if "mx" in header else columns[:7])
    data = _read_rows(path, header, lines, {})
    t = _increasing_times(path, lines, data[:, cols["t"]])
    accel, gyro, mag = ([cols[name] for name in columns[i:i + 3] if name in cols]
                        for i in (1, 4, 7))
    if not np.any(np.abs(data[:, mag]) > 1e-12):  # no mx, my, mz, or all of them 0
        mag = None
    gyro_p99 = float(np.percentile(np.linalg.norm(data[:, gyro], axis=1), 99))
    if gyro_p99 > GYRO_DEGREES_THRESHOLD:
        data[:, gyro] = np.deg2rad(data[:, gyro])
    t, dt, data = _uniform_clock(path, t, data, lone_dt=0.01)
    return ImuRecording(site=site, sample_rate=1.0 / dt, t=t, accel=data[:, accel],
                        gyro=data[:, gyro], mag=None if mag is None else data[:, mag])


def _uniform_clock(path: Path, t, data: np.ndarray, lone_dt: float):
    """``(t, dt, data)`` of a measured series: ``dt`` is the median step (``lone_dt``
    for one sample), a gap over two steps is warned of, and if any step is off ``dt``
    by over a tenth, ``t`` and each column of ``data`` go linearly onto ``t[0] + k*dt``."""
    diffs = np.diff(t)
    dt = float(np.median(diffs)) if len(diffs) else lone_dt
    gaps = int(np.count_nonzero(diffs > 2.0 * dt))
    if gaps:
        warnings.warn(f"{path}: {gaps} gaps longer than 2 sample periods")
    if len(diffs) and np.max(np.abs(diffs - dt)) > 0.1 * dt:
        t_new = np.arange(t[0], t[-1] + 0.5 * dt, dt)
        data = np.column_stack([np.interp(t_new, t, column) for column in data.T])
        t = t_new
    return t, dt, data


def _read_lines(path: Path) -> tuple[list[str], list[str]]:
    """The header's comma-separated names, each stripped, and the lines below it."""
    with open(path) as fh:
        return [name.strip() for name in fh.readline().split(",")], fh.readlines()


def _column_index(path: Path, header: list[str], required) -> dict[str, int]:
    """Each header name's column; `MalformedRecording` names any ``required`` one missing."""
    missing = [name for name in required if name not in header]
    if missing:
        raise MalformedRecording(f"{path}: missing column(s) {', '.join(missing)}")
    return {name: i for i, name in enumerate(header)}


def _read_rows(path: Path, header: list[str], lines: list[str], parsers: dict) -> np.ndarray:
    """The rows below ``header``, a column ``parsers`` names read by its parser, any
    other as a number: `EmptyRecording` when there are none, `MalformedRecording`
    naming ``path:line`` for a ragged row or the first field that fails."""
    if not any(_data_text(line) for line in lines):
        raise EmptyRecording(f"{path}: no samples after the header")
    converters = {i: parsers[name] for i, name in enumerate(header) if name in parsers}
    try:
        data, reason = np.loadtxt(lines, delimiter=",", ndmin=2,
                                  converters=converters or None), None
    except ValueError as exc:  # a token that cannot be parsed, or a ragged row
        data, reason = None, f"{path}: {exc}"
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        columns = [parsers.get(name, _number) for name in header]
        for lineno, line in enumerate(lines, start=2):
            if text := _data_text(line):
                _row_values(path, lineno, text.split(","), header, columns)
        raise MalformedRecording(reason)
    return data


def _increasing_times(path: Path, lines: list[str], t):
    """``t`` as read from ``lines``, or `MalformedRecording` naming ``path:line``
    of the first row whose t is not after the previous row's."""
    late = np.flatnonzero(np.diff(t) <= 0)
    if late.size:
        rows = [lineno for lineno, line in enumerate(lines, start=2) if _data_text(line)]
        i = int(late[0]) + 1
        raise MalformedRecording(f"{path}:{rows[i]}: t {float(t[i])!r} is not after "
                                 f"the previous row's {float(t[i - 1])!r}")
    return t


def _first_step(t) -> float:
    """A label file's step: its first, as a label code cannot be interpolated."""
    return float(t[1] - t[0]) if len(t) > 1 else 1.0


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


def _label(names: dict[int, str]):
    """A parser from a label in ``names``, whitespace stripped, to its code."""
    codes = {name: code for code, name in names.items()}

    def parse(token: str) -> int:
        token = token.strip()
        if token not in codes:
            raise ValueError("is not a known label")
        return codes[token]
    return parse


def _read_json(path: Path, error):
    """The document in ``path``; ``error`` naming the file when it is not valid JSON."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
        raise error(f"{path}: not valid JSON: {exc}") from None


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_annotations_json(path, annotations: dict[SensorSite, AnnotationTrack]) -> None:
    doc = [
        {"site": site.value,
         "intervals": [{"start": float(s), "end": float(e),
                        "label": STATE_NAMES[lab]}
                       for s, e, lab in annotations[site].intervals]}
        for site in sorted(annotations, key=lambda s: s.value)
    ]
    _write_json(path, doc)


def read_annotations_json(path) -> dict[SensorSite, AnnotationTrack]:
    """Per-site tracks; `MalformedAnnotations` naming the file for invalid JSON
    or an entry that `_annotation_track` rejects."""
    path = Path(path)
    doc = _read_json(path, MalformedAnnotations)
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
    _write_json(path, doc)


def read_model_json(path) -> tuple[dict[SensorSite, SensorModel], float]:
    """Per-site models and the filter gain beta they were fitted with: its
    ``provenance.beta``, or `orientation.DEFAULT_BETA` if it records none.
    `MalformedModel` names the file for invalid JSON, no ``sensors`` object or
    a bad ``provenance``, and the site too for an entry `_sensor_model` rejects."""
    path = Path(path)
    doc = _read_json(path, MalformedModel)
    if not isinstance(doc, dict) or not isinstance(doc.get("sensors"), dict):
        raise MalformedModel(f"{path}: needs a 'sensors' object")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise MalformedModel(f"{path}: 'provenance' is not an object")
    beta = provenance.get("beta", DEFAULT_BETA)
    if (not isinstance(beta, (int, float)) or isinstance(beta, bool)
            or not 0.0 <= beta < math.inf):
        raise MalformedModel(f"{path}: provenance beta is not a finite number >= 0: {beta!r}")
    out = {}
    for token, entry in doc["sensors"].items():
        try:
            out[SensorSite(token)] = _sensor_model(entry)
        except KeyError as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: missing key {exc}") from None
        except (TypeError, ValueError, InvalidParams) as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: {exc}") from None
    return out, float(beta)


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
    """Per-sample states, ``t`` and ``state`` found by name, and ``# change_point`` lines."""
    path = Path(path)
    header, lines = _read_lines(path)
    cols = _column_index(path, header, ("t", "state"))
    state = _label(STATE_NAMES)
    data = _read_rows(path, header, lines, {"state": state})
    t = _increasing_times(path, lines, data[:, cols["t"]])
    points = [_row_values(path, lineno, line.split(","), ("#", "index", "state", "onset"),
                          (str, _integer, state, _integer), expected="a change point has")
              for lineno, line in enumerate(lines, start=2)
              if line.split(",", 1)[0].strip() == "# change_point"]
    return BinaryStateSeries(t0=float(t[0]), dt=_first_step(t),
                             states=data[:, cols["state"]].astype(np.uint8),
                             change_points=[(idx, st) for _, idx, st, _ in points],
                             onsets=[onset for *_, onset in points])


# Each state's name in the timeline, indexed by its code.
_FULL_BODY_NAMES = {s.value: s.name.lower() for s in FullBodyState}
_LIMB_NAMES = {s.value: s.name.lower() for s in LimbSubState}
_TIMELINE_COLUMNS = ["t", "full_body", *(site.value for site in LIMBS)]
_TIMELINE_PARSERS = {"full_body": _label(_FULL_BODY_NAMES),
                     **dict.fromkeys(_TIMELINE_COLUMNS[2:], _label(_LIMB_NAMES))}


def write_timeline_csv(path, timeline: ActivityTimeline) -> None:
    t = timeline.t0 + timeline.dt * np.arange(len(timeline.full_body))
    columns = [map(repr, t.tolist()),
               map(_FULL_BODY_NAMES.__getitem__, timeline.full_body.tolist())]
    columns += [map(_LIMB_NAMES.__getitem__, timeline.limb_substates[s].tolist())
                for s in LIMBS]
    lines = [",".join(_TIMELINE_COLUMNS), *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_timeline_csv(path) -> ActivityTimeline:
    """A timeline, its columns found by name."""
    path = Path(path)
    header, lines = _read_lines(path)
    cols = _column_index(path, header, _TIMELINE_COLUMNS)
    data = _read_rows(path, header, lines, _TIMELINE_PARSERS)
    t = _increasing_times(path, lines, data[:, cols["t"]])
    return ActivityTimeline(
        t0=float(t[0]), dt=_first_step(t),
        full_body=data[:, cols["full_body"]].astype(np.uint8),
        limb_substates={s: data[:, cols[s.value]].astype(np.uint8) for s in LIMBS})


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
    _write_json(path, doc)


def read_trajectory_csv(path) -> TrajectorySeries:
    """A trajectory, its ``t``, ``x`` and ``y`` columns found by name, on `_uniform_clock`."""
    path = Path(path)
    header, lines = _read_lines(path)
    cols = _column_index(path, header, ("t", "x", "y"))
    data = _read_rows(path, header, lines, {})
    t = _increasing_times(path, lines, data[:, cols["t"]])
    t, dt, data = _uniform_clock(path, t, data, lone_dt=1.0)
    return TrajectorySeries(t0=float(t[0]), dt=dt, x=data[:, cols["x"]], y=data[:, cols["y"]])


def write_trajectory_csv(path, traj: TrajectorySeries) -> None:
    t = traj.t0 + traj.dt * np.arange(len(traj))
    lines = ["t,x,y", *(f"{ti!r},{xi!r},{yi!r}" for ti, xi, yi
                        in zip(t.tolist(), traj.x.tolist(), traj.y.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, manifest: dict) -> None:
    _write_json(path, manifest)
