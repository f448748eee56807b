"""The CSV writers of ``climbdetect.io`` written one element at a time, as
oracles for the bytes of the writers, which format whole rows from lists.

Each function returns the text its writer puts in the file: every float is
``repr(float(v))`` of one numpy scalar, and every state name comes from its
enum.
"""

import numpy as np

from climbdetect.classifier import FullBodyState, LimbSubState
from climbdetect.io import RECORDING_HEADER
from climbdetect.series import STATE_NAMES, SensorSite

TIMELINE_SITES = (SensorSite.RIGHT_HAND, SensorSite.LEFT_HAND,
                  SensorSite.RIGHT_FOOT, SensorSite.LEFT_FOOT)


def _f(x) -> str:
    return repr(float(x))


def recording_text(rec) -> str:
    mag = rec.mag if rec.mag is not None else np.zeros_like(rec.accel)
    lines = [RECORDING_HEADER]
    for i in range(len(rec)):
        row = [rec.t[i], *rec.accel[i], *rec.gyro[i], *mag[i]]
        lines.append(",".join(_f(v) for v in row))
    return "\n".join(lines) + "\n"


def detection_text(series) -> str:
    lines = ["t,state"]
    t = series.t0 + series.dt * np.arange(len(series.states))
    for ti, st in zip(t, series.states):
        lines.append(f"{_f(ti)},{STATE_NAMES[int(st)]}")
    for (idx, st), onset in zip(series.change_points, series.onsets):
        lines.append(f"# change_point,{idx},{STATE_NAMES[st]},{onset}")
    return "\n".join(lines) + "\n"


def timeline_text(timeline) -> str:
    lines = ["t,full_body,rh,lh,rf,lf"]
    t = timeline.t0 + timeline.dt * np.arange(len(timeline.full_body))
    tracks = [timeline.limb_substates[s] for s in TIMELINE_SITES]
    for i, ti in enumerate(t):
        row = [FullBodyState(timeline.full_body[i]).name.lower()]
        row += [LimbSubState(track[i]).name.lower() for track in tracks]
        lines.append(f"{_f(ti)}," + ",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_text(traj) -> str:
    lines = ["t,x,y"]
    t = traj.t0 + traj.dt * np.arange(len(traj))
    for ti, xi, yi in zip(t, traj.x, traj.y):
        lines.append(f"{_f(ti)},{_f(xi)},{_f(yi)}")
    return "\n".join(lines) + "\n"
