"""Sensor orientation estimation and gravity-free signal extraction.

A gradient-descent complementary filter (MARG form) fuses gyroscope
integration with accelerometer and magnetometer corrections. Quaternions
are (w, x, y, z) and rotate sensor-frame vectors into the Earth frame
(magnetic North, West, vertical up): v_earth = q (0, v_s) q*.

The filter is one loop on Python floats. For each block of samples, numpy
first builds the inputs that do not depend on the attitude (dt, gyro, accel
and mag over their norms, and whether each is usable), one packed row per
sample; the loop then runs each step inlined in closed form (Madgwick 2010):
the gyro derivative term by term, the gravity and field residuals and half
their gradients from the rotation's Jacobian, each quaternion product once.
The initial attitude (Markley's quaternion from a rotation matrix) and the
rotation of the accelerations into the Earth frame, a block of rows at a
time, are closed-form numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRecording, MalformedRecording
from .series import SensorSite, SignalSeries

GRAVITY = 9.81
DEFAULT_BETA = 0.1
# The largest filter gain. A step's half gradient g has |g| <= 4, its gravity
# and field terms each a residual of at most 2 times half a Jacobian of norm 2,
# so beta * g, formed before its division by |g|, stays below the largest float
# (1.8e308) for beta up to 4.4e307; the bound is half that, rounded down.
MAX_BETA = 2e307
CONVERGENCE_WINDOW = 3.0  # seconds the filter converges for (`estimate_orientation`)

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
# Rows the filter loop holds as Python floats at a time, and rows rotated into
# the Earth frame at a time: each bounds a transient, not the result.
_BLOCK = 512
_ROTATE_BLOCK = 4096


@dataclass
class ImuRecording:
    """Time-stamped tri-axial accel/gyro/mag streams for one body site.

    Units: accel m/s^2, gyro rad/s, mag unitless direction. ``mag`` may be
    None (IMU-only mode): heading is then unconstrained but gravity removal
    is unaffected. A non-finite timestamp, or a stream not shaped
    (len(t), 3) or holding a non-finite value, raises `MalformedRecording`
    naming the site.
    """

    site: SensorSite
    sample_rate: float
    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    mag: np.ndarray | None = None

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


def check_beta(beta) -> float:
    """``beta`` as a float, or ValueError unless it is a number from 0 to `MAX_BETA`."""
    beta = float(beta)
    if not 0.0 <= beta <= MAX_BETA:
        raise ValueError(f"beta {beta!r} is not a number from 0 to {MAX_BETA:g}")
    return beta


def _rows(dt, accel, gyro, mag, beta: float):
    """The step's inputs that do not depend on q, one packed tuple per sample:
    dt, gyro (3), accel over its norm (3), a correction flag, mag over its
    norm (3) and a mag flag.

    A sample is corrected when beta > 0 and its accel is usable, and uses
    mag when that is usable too; entries a sample does not use are 0.
    """
    dt = np.asarray(dt, dtype=float)
    if not (dt > 0.0).all():
        raise ValueError("dt must be positive")
    columns = np.zeros((12, len(dt)))
    columns[0] = dt
    columns[1:4] = np.reshape(gyro, (-1, 3)).T
    if beta > 0.0:
        corrected = _unit_rows(accel, columns[4:7].T)
        columns[7] = corrected
        if mag is not None:
            columns[11] = corrected & _unit_rows(mag, columns[8:11].T)
    return zip(*columns.tolist())


def _unit_rows(v, out: np.ndarray) -> np.ndarray:
    """Write each row of ``v`` over its `math.hypot` norm into ``out`` where the
    reading is usable (norm > 1e-9), and return where it is."""
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    norm = np.array(list(map(math.hypot, *v.T.tolist())))
    usable = norm > 1e-9
    np.divide(v, norm[:, None], out=out, where=usable[:, None])
    return usable


def _run(q, rows, beta: float) -> list:
    """The filter from q = (w, x, y, z) over `_rows`: w, x, y, z of each row in
    one flat list.

    Each step is closed form on Python floats (Madgwick 2010), inlined: the
    gyro derivative term by term, then g = J^T f / 2, half the gradient of
    0.5*|f|^2, for the gravity residual f = conj(q) (0, 0, 0, 1) q - a and,
    with mag, the field residual f = conj(q) (0, b) q - m, b = (|h_xy|, 0,
    h_z). For b = (bx, 0, bz), J = 2 [[A, D, -C, B], [B, C, D, -A], [C, -B,
    A, D]] is the Jacobian in (w, x, y, z) of conj(q) (0, b) q = J q / 2
    (A = -y, B = x, C = w, D = z for gravity). `math.hypot` scales exactly
    by powers of two, so beta g / |g| is the full gradient's. Each product
    of two of w, x, y, z is formed once, and each sample's arithmetic is
    fixed, so the result does not depend on how the rows are blocked.
    """
    hypot = math.hypot
    w, x, y, z = q
    out = []
    for dt, gx, gy, gz, ax, ay, az, corrected, mx, my, mz, has_mag in rows:
        # q_dot = 0.5 * q (0, gyro)
        dw = 0.5 * (-x * gx - y * gy - z * gz)
        dx = 0.5 * (w * gx + y * gz - z * gy)
        dy = 0.5 * (w * gy - x * gz + z * gx)
        dz = 0.5 * (w * gz + x * gy - y * gx)
        if corrected:
            # The gravity residual f = conj(q) (0, 0, 0, 1) q - a, each term in
            # the order of the Jacobian row it comes from, and J^T f / 2.
            ww, xx, yy, zz = w * w, x * x, y * y, z * z
            wx, wy, xz, yz = w * x, w * y, x * z, y * z
            fx = -wy + xz - wy + xz - ax
            fy = wx + wx + yz + yz - ay
            fz = ww - xx - yy + zz - az
            g0 = -y * fx + x * fy + w * fz
            g1 = z * fx + w * fy - x * fz
            g2 = z * fy - w * fx - y * fz
            g3 = x * fx + y * fy + z * fz
            if has_mag:
                # h = q (0, m) conj(q); the Earth-frame field reference is its
                # horizontal magnitude north and its measured vertical component.
                xy, wz = x * y, w * z
                hx = (ww + xx - yy - zz) * mx + 2.0 * ((xy - wz) * my + (xz + wy) * mz)
                hy = (ww - xx + yy - zz) * my + 2.0 * ((xy + wz) * mx + (yz - wx) * mz)
                hz = (ww - xx - yy + zz) * mz + 2.0 * ((xz - wy) * mx + (yz + wx) * my)
                bx = hypot(hx, hy)
                a = w * bx - y * hz
                b = x * hz - z * bx
                c = y * bx + w * hz
                d = x * bx + z * hz
                fx = w * a + x * d - y * c + z * b - mx
                fy = w * b + x * c + y * d - z * a - my
                fz = w * c - x * b + y * a + z * d - mz
                g0 += a * fx + b * fy + c * fz
                g1 += d * fx + c * fy - b * fz
                g2 += d * fy - c * fx + a * fz
                g3 += b * fx - a * fy + d * fz
            g_norm = hypot(g0, g1, g2, g3)
            if g_norm > 5e-13:
                dw = dw - beta * g0 / g_norm
                dx = dx - beta * g1 / g_norm
                dy = dy - beta * g2 / g_norm
                dz = dz - beta * g3 / g_norm
        w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
        n = hypot(w, x, y, z)
        w, x, y, z = w / n, x / n, y / n, z / n
        out += w, x, y, z
    return out


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


def estimate_orientation(recording: ImuRecording, beta: float = DEFAULT_BETA) -> np.ndarray:
    """Per-sample orientation quaternions (n, 4) for a recording.

    The filter starts from the first sample's accel/mag attitude and runs
    forward; orientations within the first `CONVERGENCE_WINDOW` seconds are
    replaced by the estimate reached at its end, which prevents startup
    gravity leakage into the earliest samples. A beta that `check_beta`
    refuses raises ValueError.
    """
    n = len(recording)
    if n == 0:
        raise EmptyRecording("recording has no samples")
    t, accel, gyro, mag = recording.t, recording.accel, recording.gyro, recording.mag
    quats = np.empty((n, 4))
    beta = check_beta(beta)
    q = initial_orientation(accel[0], None if mag is None else mag[0]).tolist()
    quats[0] = q
    # Rows go to the filter as Python floats a block at a time: whole arrays
    # as lists would hold a few MB per site.
    for start in range(1, n, _BLOCK):
        stop = start + _BLOCK
        rows = _rows(np.diff(t[start - 1:stop]), accel[start:stop], gyro[start:stop],
                     None if mag is None else mag[start:stop], beta)
        block = _run(q, rows, beta)
        quats[start:stop] = np.reshape(block, (-1, 4))
        q = block[-4:]
    w_end = int(np.searchsorted(t, t[0] + CONVERGENCE_WINDOW))
    quats[:w_end] = quats[min(w_end, n - 1)]
    return quats


def earth_acceleration(recording: ImuRecording, beta: float = DEFAULT_BETA) -> np.ndarray:
    """Gravity-free acceleration components (n, 3) in the Earth frame."""
    quats = estimate_orientation(recording, beta)
    a_earth = np.empty_like(recording.accel)
    for start in range(0, len(quats), _ROTATE_BLOCK):
        rows = slice(start, start + _ROTATE_BLOCK)
        a_earth[rows] = _rotate(quats[rows], recording.accel[rows])
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


def linear_acceleration(recording: ImuRecording, beta: float = DEFAULT_BETA) -> SignalSeries:
    """Norm of the Earth-frame acceleration after removing gravity."""
    a_earth = earth_acceleration(recording, beta)
    return SignalSeries(t0=float(recording.t[0]), dt=recording.dt,
                        values=np.linalg.norm(a_earth, axis=1))


def angular_velocity_norm(recording: ImuRecording) -> SignalSeries:
    """Per-sample Euclidean norm of the gyroscope reading, rad/s."""
    if len(recording) == 0:
        raise EmptyRecording("recording has no samples")
    return SignalSeries(t0=float(recording.t[0]), dt=recording.dt,
                        values=np.linalg.norm(recording.gyro, axis=1))
