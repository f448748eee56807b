"""File formats: recording CSV, annotation/model JSON, detection and timeline CSV;
the layout of a climbs directory, and the manifest beside a command's output.

All writers format floats with ``repr`` and sort JSON keys, so identical
inputs always produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import ActivityTimeline, FullBodyState, LimbCounts, LimbSubState
from .cusum import (BinaryStateSeries, DetectionConfig, HypothesisModel,
                    SensorModel)
from .errors import (ClimbDetectError, EmptyRecording, InvalidParams, MalformedAnnotations,
                     MalformedModel, MalformedRecording)
from .gamma_model import GammaParams
from .orientation import ImuRecording, check_beta
from .series import ALL_SITES, LIMBS, STATE_NAMES, AnnotationTrack, SensorSite, resample_linear
from .sync import TrajectorySeries

RECORDING_HEADER = "t,ax,ay,az,gx,gy,gz,mx,my,mz"
# A 99th-percentile gyro magnitude above this means the file is in deg/s
# (the hardware range is 1600 deg/s = 27.9 rad/s).
GYRO_DEGREES_THRESHOLD = 50.0

_LABEL_CODES = {name: code for code, name in STATE_NAMES.items()}
# Each CSV format: its columns in the writer's order, each mapped to the names
# of its labels by code, or to None for a float.
_RECORDING = dict.fromkeys(RECORDING_HEADER.split(","))
_DETECTION = {"t": None, "state": STATE_NAMES}
_TIMELINE = {"t": None, "full_body": {s.value: s.name.lower() for s in FullBodyState},
             **dict.fromkeys((site.value for site in LIMBS),
                             {s.value: s.name.lower() for s in LimbSubState})}
_TRAJECTORY = dict.fromkeys(("t", "x", "y"))
# Rows a CSV writer formats and writes at a time.
_BLOCK_ROWS = 256
# A clock is put on a uniform grid of at most this many times the rows read.
_MAX_GRID_ROWS = 2
# The shortest median step of a clock, s: no IMU or video tracker samples
# faster than 1 MHz, and the floor keeps the rate 1/dt, the dt^2 of a second
# difference and a smoothing window's sample count (`sync`) far inside the
# float range.
_MIN_STEP = 1e-6
# The longest, s: no IMU or video tracker samples slower than 1 Hz, and at a
# 10 s step the orientation filter overflows at its largest gain.
_MAX_STEP = 1.0


def recording_path(directory: Path, climb_id: str, site: SensorSite) -> Path:
    return Path(directory) / f"{climb_id}_{site.value}.csv"


def climb_recordings(directory) -> tuple[str, dict[SensorSite, Path]]:
    """The inverse of `recording_path`: the climb id and each present site's
    recording, in `ALL_SITES` order, of the ``<climb>_<site>.csv`` files in
    ``directory``; `ClimbDetectError` unless they are of one climb."""
    found = [(site, path) for site in ALL_SITES
             for path in Path(directory).glob(f"*_{site.value}.csv")]
    ids = sorted({path.stem.rsplit("_", 1)[0] for _, path in found})
    if not ids:
        raise ClimbDetectError(f"no recordings found in {directory}")
    if len(ids) > 1:
        raise ClimbDetectError(f"{directory}: recordings of {len(ids)} climbs ({', '.join(ids)})")
    return ids[0], dict(found)


def annotations_path(directory: Path, climb_id: str) -> Path:
    return Path(directory) / f"{climb_id}_annotations.json"


def climbs(directory) -> list[tuple[str, dict[SensorSite, Path], Path]]:
    """``(climb id, recordings, annotation file)`` of each subdirectory of
    ``directory`` holding a ``*.csv`` file, in name order: a folder of models or
    manifests is no climb. `ClimbDetectError` for none or a missing annotation file."""
    found = []
    for climb_dir in sorted(Path(directory).iterdir()):
        if climb_dir.is_dir() and any(climb_dir.glob("*.csv")):
            climb_id, paths = climb_recordings(climb_dir)
            ann_path = annotations_path(climb_dir, climb_id)
            if not ann_path.exists():
                raise ClimbDetectError(f"missing annotation file {ann_path}")
            found.append((climb_id, paths, ann_path))
    if not found:
        raise ClimbDetectError(f"no climb subdirectories in {directory}")
    return found


def _write_csv(path, format: dict, columns, tail=()) -> None:
    """The header of ``format``, the rows of ``columns`` (one array per column of
    ``format``, a float written by its ``repr``, a label by its name) formatted
    and written `_BLOCK_ROWS` at a time, then ``tail``, each line ending in a
    newline."""
    formats = [repr if names is None else names.__getitem__ for names in format.values()]
    with open(path, "w") as fh:
        fh.write(",".join(format) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = [map(f, column[start:start + _BLOCK_ROWS].tolist())
                      for f, column in zip(formats, columns)]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")
        fh.writelines(line + "\n" for line in tail)


# Bytes per row of a recording as `write_recording_csv` writes it (about 155):
# `cli` weighs each `fork_map` job by its file size over this, parsing nothing twice.
RECORDING_ROW_BYTES = 150


def write_recording_csv(path, rec: ImuRecording) -> None:
    mag = rec.mag if rec.mag is not None else np.zeros_like(rec.accel)
    _write_csv(path, _RECORDING, [rec.t, *rec.accel.T, *rec.gyro.T, *mag.T])


def read_recording_csv(path, site: SensorSite) -> ImuRecording:
    """Load the recording of `site`; refuses timestamps that do not strictly
    increase, any of mx, my, mz without the other two and an accel, gyro or
    mag reading whose squared norm overflows, auto-detects gyro
    units, and puts the samples on `_uniform_clock`. The streams, and ``t`` on a
    clock that is not resampled, are column slices of one table in the writer's
    column order: a header in any other order is copied into it once."""
    path = Path(path)
    columns = list(_RECORDING)
    # with any of mx, my, mz, all three are required
    cols, data, _ = _read_table(path, lambda header: _RECORDING if any(
        name in header for name in columns[7:]) else dict.fromkeys(columns[:7]))
    order = [cols[name] for name in columns if name in cols]
    if order != list(range(len(order))):
        data = data[:, order]
    gyro = data[:, 4:7]
    streams = {"accel": data[:, 1:4], "gyro": gyro}
    if len(order) > 7:
        streams["mag"] = data[:, 7:10]
    with np.errstate(over="ignore"):  # a norm that overflows is refused by its line
        norms = {name: np.linalg.norm(values, axis=1) for name, values in streams.items()}
    overflows = ~np.all([np.isfinite(norm) for norm in norms.values()], axis=0)
    if overflows.any():
        i = int(np.argmax(overflows))
        name = next(name for name, norm in norms.items() if not np.isfinite(norm[i]))
        raise MalformedRecording(f"{path}:{_row_line(path, i)}: the squared norm of the "
                                 f"{name} reading overflows")
    if _percentile(norms["gyro"], 99) > GYRO_DEGREES_THRESHOLD:
        np.deg2rad(gyro, out=gyro)
    # no mx, my, mz, or all of them 0
    has_mag = len(order) > 7 and bool(np.any(np.abs(data[:, 7:10]) > 1e-12))
    t, dt, data = _uniform_clock(path, data[:, 0], data)
    return ImuRecording(site=site, sample_rate=1.0 / dt, t=t, accel=data[:, 1:4],
                        gyro=data[:, 4:7], mag=data[:, 7:10] if has_mag else None)


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` from `np.partition`: the middle value, or the mean
    of the two middle values, as numpy forms it."""
    k = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, k)[k])
    low, high = np.partition(values, [k - 1, k])[k - 1:k + 1].tolist()
    return (low + high) / 2


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` from `np.partition`, by numpy's ``linear``
    rule: the order statistics either side of the virtual index ``(n - 1) * q /
    100`` (both the largest from the last index on), blended as numpy's ``_lerp``
    blends them. Neither function imports ``numpy.ma``, as numpy's do."""
    n = len(values)
    index = (n - 1) * (q / 100)
    below = math.floor(index) if index < n - 1 else -1
    above = below + 1 if below >= 0 else -1
    part = np.partition(values, [below, above])
    low, high = float(part[below]), float(part[above])
    gamma = index - below
    step = high - low
    return high - step * (1 - gamma) if gamma >= 0.5 else low + step * gamma


def _uniform_clock(path: Path, t, data: np.ndarray):
    """``(t, dt, data)`` of a measured series of two or more samples: ``dt`` is the
    median step, a gap over two steps is warned of, and if any step is off ``dt``
    by over a tenth, ``t`` and each column of ``data`` go linearly onto ``t[0] + k*dt``.
    A median step under `_MIN_STEP` is refused by the line of the first step under
    it; a clock whose grid would hold over `_MAX_GRID_ROWS` times its rows, or whose
    steps or span are not finite, by the line of its longest step; a median step
    over `_MAX_STEP` by the line of the first step over it; and a resampled value
    that overflows by its file."""
    with np.errstate(over="ignore"):  # a step that overflows is refused below
        diffs = np.diff(t)
    dt = _median(diffs)
    if dt < _MIN_STEP:
        i = int(np.argmax(diffs < _MIN_STEP)) + 1
        raise MalformedRecording(
            f"{path}:{_row_line(path, i)}: the median step of t, {dt!r} s, is under "
            f"{_MIN_STEP:g} s (a rate over {1 / _MIN_STEP:g} Hz)")
    # the grid's span to a step past t[-1]; Python floats overflow to inf with no
    # warning, and an inf or nan ratio is refused
    span = float(t[-1]) + dt - float(t[0])
    if not span / dt <= _MAX_GRID_ROWS * len(t):
        i = int(np.argmax(diffs)) + 1
        raise MalformedRecording(
            f"{path}:{_row_line(path, i)}: t {float(t[i])!r} is too far after "
            f"{float(t[i - 1])!r} for a uniform clock of {len(t)} rows at the median "
            f"step, {dt!r} s")
    if dt > _MAX_STEP:
        i = int(np.argmax(diffs > _MAX_STEP)) + 1
        raise MalformedRecording(
            f"{path}:{_row_line(path, i)}: the median step of t, {dt!r} s, is over "
            f"{_MAX_STEP:g} s (a rate under {1 / _MAX_STEP:g} Hz)")
    gaps = int(np.count_nonzero(diffs > 2.0 * dt))
    if gaps:
        warnings.warn(f"{path}: {gaps} gaps longer than 2 sample periods")
    if np.max(np.abs(diffs - dt)) > 0.1 * dt:
        t, data = resample_linear(t, data, dt)
        if not np.isfinite(data).all():  # a slope between two rows overflowed
            raise MalformedRecording(f"{path}: a value overflows on the uniform clock")
    return t, dt, data


def _read_table(path: Path, format):
    """``(cols, data, t)`` of a CSV table: each header name's column, the rows
    below the header as one `np.loadtxt` parses them from the open file (a
    label column of ``format`` by its label's code, any other as a number),
    and the ``t`` column. ``format`` is the columns the header must name, or a
    function of the header giving them. `EmptyRecording` when there are no rows;
    `MalformedRecording` for one row, as a clock's step needs two, or a missing
    column, and naming ``path:line`` for a bad row, bytes that are not UTF-8 or a
    t not after the previous row's, the one case that reads the lines again."""
    with open(path, encoding="utf-8") as fh:
        try:
            header = [name.strip() for name in fh.readline().split(",")]
        except UnicodeDecodeError:  # on some line of the first block read
            for _ in _lines(path, first=1):
                pass
            raise
        if callable(format):
            format = format(header)
        missing = [name for name in format if name not in header]
        if missing:
            raise MalformedRecording(f"{path}: missing column(s) {', '.join(missing)}")
        cols = {name: i for i, name in enumerate(header)}
        parsers = {name: _label(names) for name, names in format.items() if names}
        converters = {i: parsers[name] for i, name in enumerate(header) if name in parsers}
        try:
            with warnings.catch_warnings():  # an empty table is refused below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data, reason = np.loadtxt(fh, delimiter=",", ndmin=2,
                                          converters=converters or None), None
        except ValueError as exc:  # a token that cannot be parsed, or a ragged row
            data, reason = None, f"{path}: {exc}"
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        columns = [parsers.get(name, _number) for name in header]
        rows = 0
        for rows, (lineno, text) in enumerate(_data_lines(path), start=1):
            _row_values(path, lineno, text.split(","), header, columns)
        if not rows:  # np.loadtxt found none, or failed on a line of blanks
            raise EmptyRecording(f"{path}: no samples after the header")
        raise MalformedRecording(reason)
    if len(data) < 2:
        raise MalformedRecording(f"{path}: one row after the header; a clock's step needs two")
    t = data[:, cols["t"]]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if late.size:
        i = int(late[0]) + 1
        raise MalformedRecording(f"{path}:{_row_line(path, i)}: t {float(t[i])!r} is not after "
                                 f"the previous row's {float(t[i - 1])!r}")
    return cols, data, t


def _lines(path: Path, first: int = 2):
    """``(line number, line)`` of each line from ``first`` (2: below the header) on, streamed."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in itertools.islice(enumerate(fh, start=1), first - 1, None):
            # surrogateescape reads each byte that is not UTF-8 as U+DC80 to U+DCFF
            if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
                raise MalformedRecording(f"{path}:{lineno}: not UTF-8 text")
            yield lineno, line


def _data_lines(path: Path):
    """``(line number, text)`` of each line below the header that holds a row: its
    text as ``np.loadtxt`` reads it, comment cut and whitespace stripped."""
    return ((lineno, text) for lineno, line in _lines(path)
            if (text := line.split("#", 1)[0].strip()))


def _row_line(path: Path, i: int) -> int:
    """The line number of row ``i`` (from 0) of a table, read again."""
    return next(itertools.islice(_data_lines(path), i, None))[0]


def _row_values(path: Path, lineno: int, fields: list[str], names, parsers) -> list:
    """Each field parsed by its parser, or `MalformedRecording` naming
    ``path:line`` for a wrong field count or the first field that fails."""
    if len(fields) != len(names):
        raise MalformedRecording(
            f"{path}:{lineno}: {len(fields)} values, the header names {len(names)}")
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
    """The document in ``path``, every number in it a float (an integer too large
    for one is inf); ``error`` naming the file when it is not valid JSON."""
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_int=float)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
        raise error(f"{path}: not valid JSON: {exc}") from None


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_annotations_json(path, annotations: dict[SensorSite, AnnotationTrack]) -> None:
    doc = [
        {"site": site.value,
         "intervals": [{"start": float(s), "end": float(e),
                        "label": STATE_NAMES[lab]}
                       for s, e, lab in annotations[site].intervals]}
        for site in sorted(annotations, key=lambda s: s.value)
    ]
    write_json(path, doc)


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
        intervals.append((_json_number(iv, "start"), _json_number(iv, "end"),
                          _LABEL_CODES[iv["label"]]))
    return AnnotationTrack(site=site, intervals=intervals)


def _json_number(entry: dict, key: str) -> float:
    """``entry[key]`` if it is a JSON number: an int or float, not a bool, and
    finite; a ValueError naming ``key`` if not, a KeyError if it is missing."""
    value = entry[key]
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ValueError(f"{key} is not a finite number: {value!r}")
    return value


def _params_dict(p: GammaParams) -> dict:
    return {"k": p.k, "theta": p.theta}


def write_model_json(path, models: dict[SensorSite, SensorModel], provenance: dict) -> None:
    doc = {"sensors": {}, "provenance": provenance}
    for site in sorted(models, key=lambda s: s.value):
        m = models[site]
        doc["sensors"][site.value] = {
            "acc": {"h0": _params_dict(m.acc.h0), "h1": _params_dict(m.acc.h1)},
            "ang": {"h0": _params_dict(m.ang.h0), "h1": _params_dict(m.ang.h1)},
            "alpha": m.config.alpha,
            "lambda0": m.config.lambda0,
            "lambda1": m.config.lambda1,
        }
    write_json(path, doc)


def read_model_json(path) -> tuple[dict[SensorSite, SensorModel], float | None]:
    """Per-site models and the filter gain beta they were fitted with: its
    ``provenance.beta``, or None if it records none. `MalformedModel` names the
    file for invalid JSON, no ``sensors`` object, a bad ``provenance`` or no beta
    where a site has alpha > 0, and the site too for an entry `_sensor_model` rejects."""
    path = Path(path)
    doc = _read_json(path, MalformedModel)
    if not isinstance(doc, dict) or not isinstance(doc.get("sensors"), dict):
        raise MalformedModel(f"{path}: needs a 'sensors' object")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise MalformedModel(f"{path}: 'provenance' is not an object")
    beta = None
    if "beta" in provenance:
        try:
            beta = check_beta(_json_number(provenance, "beta"))
        except ValueError as exc:
            raise MalformedModel(f"{path}: provenance {exc}") from None
    out = {}
    for token, entry in doc["sensors"].items():
        try:
            out[SensorSite(token)] = _sensor_model(entry)
        except KeyError as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: missing key {exc}") from None
        except (TypeError, ValueError, InvalidParams) as exc:
            raise MalformedModel(f"{path}: sensor {token!r}: {exc}") from None
    filtered = sorted(site.value for site, model in out.items() if model.config.alpha > 0)
    if beta is None and filtered:
        raise MalformedModel(f"{path}: provenance records no beta, the filter gain "
                             f"that alpha > 0 needs at {', '.join(filtered)}")
    return out, beta


def _sensor_model(entry) -> SensorModel:
    """One site's model from its JSON entry. A KeyError names a missing key; a
    TypeError, ValueError or `InvalidParams` says which value is refused."""
    def params(h):
        return GammaParams(_json_number(h, "k"), _json_number(h, "theta"))

    def hyp(channel):
        return HypothesisModel(h0=params(channel["h0"]), h1=params(channel["h1"]))
    return SensorModel(
        acc=hyp(entry["acc"]), ang=hyp(entry["ang"]),
        config=DetectionConfig(lambda0=_json_number(entry, "lambda0"),
                               lambda1=_json_number(entry, "lambda1"),
                               alpha=_json_number(entry, "alpha")))


def write_detection_csv(path, series: BinaryStateSeries) -> None:
    """Per-sample ``t,state`` rows followed by a change-point block."""
    t = series.t0 + series.dt * np.arange(len(series.states))
    _write_csv(path, _DETECTION, [t, series.states], tail=(
        f"# change_point,{idx},{STATE_NAMES[st]},{onset}"
        for (idx, st), onset in zip(series.change_points, series.onsets)))


def write_timeline_csv(path, timeline: ActivityTimeline) -> None:
    t = timeline.t0 + timeline.dt * np.arange(len(timeline.full_body))
    _write_csv(path, _TIMELINE, [t, timeline.full_body,
                                 *(timeline.limb_substates[s] for s in LIMBS)])


def read_timeline_csv(path) -> ActivityTimeline:
    """A timeline, its columns found by name; its step is its first (a label code
    cannot be interpolated), in Python floats, which overflow to inf with no warning."""
    path = Path(path)
    cols, data, t = _read_table(path, _TIMELINE)
    return ActivityTimeline(
        t0=float(t[0]), dt=float(t[1]) - float(t[0]),
        full_body=data[:, cols["full_body"]].astype(np.uint8),
        limb_substates={s: data[:, cols[s.value]].astype(np.uint8) for s in LIMBS})


def write_report_json(path, report: dict[SensorSite, LimbCounts], config: dict) -> None:
    doc = {"limbs": {}, "config": config}
    for site in sorted(report, key=lambda s: s.value):
        counts = report[site]
        ratio = counts.ratio
        doc["limbs"][site.value] = {
            "exploratory": counts.exploratory,
            "performatory": counts.performatory,
            "ratio": ratio if np.isfinite(ratio) else None,
        }
    write_json(path, doc)


def read_trajectory_csv(path) -> TrajectorySeries:
    """A trajectory, its ``t``, ``x`` and ``y`` columns found by name, on `_uniform_clock`."""
    path = Path(path)
    cols, data, t = _read_table(path, _TRAJECTORY)
    t, dt, data = _uniform_clock(path, t, data)
    return TrajectorySeries(t0=float(t[0]), dt=dt, x=data[:, cols["x"]], y=data[:, cols["y"]])


def write_trajectory_csv(path, traj: TrajectorySeries) -> None:
    _write_csv(path, _TRAJECTORY, [traj.t0 + traj.dt * np.arange(len(traj)), traj.x, traj.y])


def write_manifest(out, command: str, config: dict) -> None:
    """``<out>.manifest.json``: the command and configuration that wrote ``out``,
    and the tool and version that ran it."""
    write_json(f"{out}.manifest.json", {"tool": "climbdetect", "version": __version__,
                                        "command": command, "config": config})
