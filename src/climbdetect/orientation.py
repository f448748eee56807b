"""Sensor orientation estimation and gravity-free signal extraction.

A gradient-descent complementary filter (MARG form) fuses gyroscope
integration with accelerometer and magnetometer corrections. Quaternions
are (w, x, y, z) and rotate sensor-frame vectors into the Earth frame
(magnetic North, West, vertical up): v_earth = q (0, v_s) q*.

The filter is one loop on Python floats. For each block of samples, numpy
first builds the inputs that do not depend on the attitude (dt, gyro, accel
and mag over their norms, and whether each is usable), one packed row per
sample; the loop then runs each step inlined in closed form (Madgwick 2010):
the gyro derivative term by term, the gravity and field residuals and their
gradients from the rotation's Jacobian. `filter_update` is the same loop over
one row. The initial attitude (Markley's quaternion from a rotation matrix)
and the rotation of the accelerations into the Earth frame are closed-form
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _check_beta(beta) -> float:
    """``beta`` as a float, or ValueError if it is negative or not finite."""
    beta = float(beta)
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be a finite number >= 0, not {beta!r}")
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
    gyro derivative term by term, then the gradient J^T f of 0.5*|f|^2 for
    the gravity residual f = conj(q) (0, 0, 0, 1) q - a and, with mag, the
    field residual f = conj(q) (0, b) q - m, b = (|h_xy|, 0, h_z). For
    b = (bx, 0, bz), J = 2 [[A, D, -C, B], [B, C, D, -A], [C, -B, A, D]] is
    the Jacobian in (w, x, y, z) of conj(q) (0, b) q, which is quadratic in
    q and so is J q / 2. Each sample's arithmetic is fixed, so the result
    does not depend on how the rows are blocked.
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
            # The gravity residual and gradient: the field's for b = (0, 0, 1).
            # The products by 0.0 stay: without them some zeros in the result
            # would change sign.
            a = w * 0.0 - y
            b = x - z * 0.0
            c = y * 0.0 + w
            d = x * 0.0 + z
            fx = w * a + x * d - y * c + z * b - ax
            fy = w * b + x * c + y * d - z * a - ay
            fz = w * c - x * b + y * a + z * d - az
            g0 = 2.0 * (a * fx + b * fy + c * fz)
            g1 = 2.0 * (d * fx + c * fy - b * fz)
            g2 = 2.0 * (d * fy - c * fx + a * fz)
            g3 = 2.0 * (b * fx - a * fy + d * fz)
            if has_mag:
                # h = q (0, m) conj(q); the Earth-frame field reference is its
                # horizontal magnitude north and its measured vertical component.
                ww, xx, yy, zz = w * w, x * x, y * y, z * z
                xy, wz, xz, wy, yz, wx = x * y, w * z, x * z, w * y, y * z, w * x
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
                g0 += 2.0 * (a * fx + b * fy + c * fz)
                g1 += 2.0 * (d * fx + c * fy - b * fz)
                g2 += 2.0 * (d * fy - c * fx + a * fz)
                g3 += 2.0 * (b * fx - a * fy + d * fz)
            g_norm = hypot(g0, g1, g2, g3)
            if g_norm > 1e-12:
                dw = dw - beta * g0 / g_norm
                dx = dx - beta * g1 / g_norm
                dy = dy - beta * g2 / g_norm
                dz = dz - beta * g3 / g_norm
        w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
        n = hypot(w, x, y, z)
        w, x, y, z = w / n, x / n, y / n, z / n
        out += w, x, y, z
    return out


def filter_update(q, accel, gyro, mag, dt: float, beta: float) -> np.ndarray:
    """One complementary-filter step.

    Advances the gyro integration and, when beta > 0 and the accelerometer
    reading is usable, applies a normalized gradient step of magnitude beta
    toward gravity (and magnetic-field, when given) agreement. Degenerate
    accel falls back to pure gyro propagation. The result is renormalized.
    A dt that is not positive, or a beta that is negative or not finite,
    raises ValueError.
    """
    beta = _check_beta(beta)
    rows = _rows([dt], accel, gyro, mag, beta)
    return np.array(_run(np.asarray(q, dtype=float).tolist(), rows, beta))


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
    leakage into the earliest samples. A negative or non-finite beta raises
    ValueError.
    """
    n = len(recording)
    if n == 0:
        raise EmptyRecording("recording has no samples")
    t, accel, gyro, mag = recording.t, recording.accel, recording.gyro, recording.mag
    quats = np.empty((n, 4))
    beta = _check_beta(beta)
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
