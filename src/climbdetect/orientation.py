"""Sensor orientation estimation and gravity-free signal extraction.

A gradient-descent complementary filter (MARG form) fuses gyroscope
integration with accelerometer and magnetometer corrections. Quaternions
are (w, x, y, z) and rotate sensor-frame vectors into the Earth frame
(magnetic North, West, vertical up): v_earth = q (0, v_s) q*.

A filter step is written in closed form on Python floats (Madgwick 2010):
the gyro derivative term by term, the gravity and field residuals and their
gradients from the rotation's Jacobian, so a step builds no arrays. The
initial attitude (Markley's quaternion from a rotation matrix) and the
rotation of the accelerations into the Earth frame are closed-form too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import EmptyRecording, MalformedRecording
from .series import SensorSite, SignalSeries

GRAVITY = 9.81
DEFAULT_BETA = 0.1
DEFAULT_CONVERGENCE_WINDOW = 3.0

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
_BLOCK = 1024


@dataclass
class ImuRecording:
    """Time-stamped tri-axial accel/gyro/mag streams for one body site.

    Units: accel m/s^2, gyro rad/s, mag unitless direction. ``mag`` may be
    None (IMU-only mode): heading is then unconstrained but gravity removal
    is unaffected. ``gap_indices`` flags samples preceded by a gap longer
    than two nominal periods. A non-finite timestamp, or a stream not shaped
    (len(t), 3) or holding a non-finite value, raises `MalformedRecording`
    naming the site.
    """

    site: SensorSite
    sample_rate: float
    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    mag: np.ndarray | None = None
    gap_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.isfinite(self.t).all():
            raise MalformedRecording(f"{self.site.value}: t holds a non-finite value")
        if len(self.t) and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        for name in ("accel", "gyro", "mag"):
            if name == "mag" and self.mag is None:
                continue
            values = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, values)
            if values.shape != (len(self.t), 3):
                raise MalformedRecording(f"{self.site.value}: {name} is shaped "
                                         f"{values.shape}, not ({len(self.t)}, 3)")
            if not np.isfinite(values).all():
                raise MalformedRecording(f"{self.site.value}: {name} holds a non-finite value")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate


def _field_gradient(w, x, y, z, bx, bz, mx, my, mz):
    """Gradient J^T f of 0.5*|f|^2, f = conj(q) (0, b) q - m, for b = (bx, 0, bz).

    J = 2 [[a, d, -c, b], [b, c, d, -a], [c, -b, a, d]] is the Jacobian in
    (w, x, y, z) of conj(q) (0, b) q, which is quadratic in q and so is J q / 2.
    """
    a = w * bx - y * bz
    b = x * bz - z * bx
    c = y * bx + w * bz
    d = x * bx + z * bz
    fx = w * a + x * d - y * c + z * b - mx
    fy = w * b + x * c + y * d - z * a - my
    fz = w * c - x * b + y * a + z * d - mz
    return (2.0 * (a * fx + b * fy + c * fz),
            2.0 * (d * fx + c * fy - b * fz),
            2.0 * (d * fy - c * fx + a * fz),
            2.0 * (b * fx - a * fy + d * fz))


def _step(q, accel, gyro, mag, dt: float, beta: float) -> tuple:
    """`filter_update` on Python floats: q is (w, x, y, z), mag may be None."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    w, x, y, z = q
    gx, gy, gz = gyro
    # q_dot = 0.5 * q (0, gyro)
    dw = 0.5 * (-x * gx - y * gy - z * gz)
    dx = 0.5 * (w * gx + y * gz - z * gy)
    dy = 0.5 * (w * gy - x * gz + z * gx)
    dz = 0.5 * (w * gz + x * gy - y * gx)
    if beta > 0.0:
        ax, ay, az = accel
        a_norm = math.hypot(ax, ay, az)
        if a_norm > 1e-9:
            g = _field_gradient(w, x, y, z, 0.0, 1.0, ax / a_norm, ay / a_norm, az / a_norm)
            m_norm = 0.0 if mag is None else math.hypot(*mag)
            if m_norm > 1e-9:
                mx, my, mz = mag[0] / m_norm, mag[1] / m_norm, mag[2] / m_norm
                # h = q (0, m) conj(q); the Earth-frame field reference is its
                # horizontal magnitude north and its measured vertical component.
                ww, xx, yy, zz = w * w, x * x, y * y, z * z
                hx = (ww + xx - yy - zz) * mx + 2.0 * ((x * y - w * z) * my + (x * z + w * y) * mz)
                hy = (ww - xx + yy - zz) * my + 2.0 * ((x * y + w * z) * mx + (y * z - w * x) * mz)
                hz = (ww - xx - yy + zz) * mz + 2.0 * ((x * z - w * y) * mx + (y * z + w * x) * my)
                g = [gi + mi for gi, mi in
                     zip(g, _field_gradient(w, x, y, z, math.hypot(hx, hy), hz, mx, my, mz))]
            g_norm = math.hypot(*g)
            if g_norm > 1e-12:
                dw, dx, dy, dz = (dw - beta * g[0] / g_norm, dx - beta * g[1] / g_norm,
                                  dy - beta * g[2] / g_norm, dz - beta * g[3] / g_norm)
    w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
    n = math.hypot(w, x, y, z)
    return w / n, x / n, y / n, z / n


def filter_update(q, accel, gyro, mag, dt: float, beta: float) -> np.ndarray:
    """One complementary-filter step.

    Advances the gyro integration and, when beta > 0 and the accelerometer
    reading is usable, applies a normalized gradient step of magnitude beta
    toward gravity (and magnetic-field, when given) agreement. Degenerate
    accel falls back to pure gyro propagation. The result is renormalized.
    """
    q, accel, gyro = (np.asarray(v, dtype=float).tolist() for v in (q, accel, gyro))
    mag = None if mag is None else np.asarray(mag, dtype=float).tolist()
    return np.array(_step(q, accel, gyro, mag, float(dt), float(beta)))


def initial_orientation(accel, mag=None) -> np.ndarray:
    """Attitude from a single (assumed stationary) accel/mag reading.

    Accelerometer fixes the up direction, magnetometer the heading; without
    a magnetometer the heading is arbitrary. Returns identity for a
    degenerate accelerometer reading.
    """
    accel = np.asarray(accel, dtype=float)
    a_norm = np.linalg.norm(accel)
    if a_norm < 1e-9:
        return _IDENTITY.copy()
    up = accel / a_norm
    north = None
    if mag is not None:
        mag = np.asarray(mag, dtype=float)
        horiz = mag - (mag @ up) * up
        h_norm = np.linalg.norm(horiz)
        if h_norm > 1e-9:
            north = horiz / h_norm
    if north is None:
        ref = np.array([1.0, 0.0, 0.0]) if abs(up[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        horiz = ref - (ref @ up) * up
        north = horiz / np.linalg.norm(horiz)
    west = np.cross(up, north)
    # Rows: Earth axes in sensor coordinates.
    return _quat_from_matrix(np.vstack([north, west, up]).tolist())


def _quat_from_matrix(r) -> np.ndarray:
    """Unit (w, x, y, z) of a rotation matrix given as nested lists.

    Markley's method: the branch is the largest of the three diagonal
    entries and the trace (the first, on a tie), which keeps the pivot
    component of the quaternion away from zero.
    """
    trace = r[0][0] + r[1][1] + r[2][2]
    choice = int(np.argmax([r[0][0], r[1][1], r[2][2], trace]))
    if choice == 3:
        xyzw = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1], 1.0 + trace]
    else:
        i, j, k = choice, (choice + 1) % 3, (choice + 2) % 3
        xyzw = [0.0] * 4
        xyzw[i] = 1.0 - trace + 2.0 * r[i][i]
        xyzw[j] = r[j][i] + r[i][j]
        xyzw[k] = r[k][i] + r[i][k]
        xyzw[3] = r[k][j] - r[j][k]
    x, y, z, w = xyzw
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return np.array([w / n, x / n, y / n, z / n])


def estimate_orientation(recording: ImuRecording, beta: float = DEFAULT_BETA,
                         convergence_window: float = DEFAULT_CONVERGENCE_WINDOW) -> np.ndarray:
    """Per-sample orientation quaternions (n, 4) for a recording.

    The filter starts from the first sample's accel/mag attitude and runs
    forward; orientations within the initial convergence window are replaced
    by the estimate reached at its end, which prevents startup gravity
    leakage into the earliest samples.
    """
    n = len(recording)
    if n == 0:
        raise EmptyRecording("recording has no samples")
    t, accel, gyro, mag = recording.t, recording.accel, recording.gyro, recording.mag
    quats = np.empty((n, 4))
    q = initial_orientation(accel[0], None if mag is None else mag[0]).tolist()
    quats[0] = q
    # Rows go to the step as Python floats a block at a time: whole arrays
    # as lists would hold a few MB per site.
    for start in range(1, n, _BLOCK):
        stop = start + _BLOCK
        rows = zip(np.diff(t[start - 1:stop]).tolist(), accel[start:stop].tolist(),
                   gyro[start:stop].tolist(),
                   repeat(None) if mag is None else mag[start:stop].tolist())
        quats[start:stop] = [q := _step(q, a, g, m, dt, beta) for dt, a, g, m in rows]
    if convergence_window > 0:
        w_end = int(np.searchsorted(recording.t, recording.t[0] + convergence_window))
        quats[:w_end] = quats[min(w_end, n - 1)]
    return quats


def earth_acceleration(recording: ImuRecording, beta: float = DEFAULT_BETA,
                       convergence_window: float = DEFAULT_CONVERGENCE_WINDOW) -> np.ndarray:
    """Gravity-free acceleration components (n, 3) in the Earth frame."""
    quats = estimate_orientation(recording, beta, convergence_window)
    a_earth = _rotate(quats, recording.accel)
    a_earth[:, 2] -= GRAVITY
    return a_earth


def _rotate(quats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate each row of ``v`` (n, 3) by the normalised quaternion of its row.

    The rotation matrix of q, (w² + x² − y² − z², 2(xy − wz), …), applied
    column by column; quaternions of any nonzero norm are normalised first.
    """
    w, x, y, z = quats.T
    n = np.sqrt(x * x + y * y + z * z + w * w)
    w, x, y, z = w / n, x / n, y / n, z / n
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    vx, vy, vz = v.T
    out = np.empty_like(v)
    out[:, 0] = (x2 - y2 - z2 + w2) * vx + 2 * (xy - zw) * vy + 2 * (xz + yw) * vz
    out[:, 1] = 2 * (xy + zw) * vx + (-x2 + y2 - z2 + w2) * vy + 2 * (yz - xw) * vz
    out[:, 2] = 2 * (xz - yw) * vx + 2 * (yz + xw) * vy + (-x2 - y2 + z2 + w2) * vz
    return out


def linear_acceleration(recording: ImuRecording, beta: float = DEFAULT_BETA,
                        convergence_window: float = DEFAULT_CONVERGENCE_WINDOW) -> SignalSeries:
    """Norm of the Earth-frame acceleration after removing gravity."""
    a_earth = earth_acceleration(recording, beta, convergence_window)
    return SignalSeries(t0=float(recording.t[0]), dt=recording.dt,
                        values=np.linalg.norm(a_earth, axis=1))


def angular_velocity_norm(recording: ImuRecording) -> SignalSeries:
    """Per-sample Euclidean norm of the gyroscope reading, rad/s."""
    if len(recording) == 0:
        raise EmptyRecording("recording has no samples")
    return SignalSeries(t0=float(recording.t[0]), dt=recording.dt,
                        values=np.linalg.norm(recording.gyro, axis=1))
