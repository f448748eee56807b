"""Quaternion helpers for the tests, and three oracles for the filter step of
``climbdetect.orientation``.

Quaternions are (w, x, y, z) and rotate sensor-frame vectors into the
Earth frame: v_earth = q (0, v_s) q*. `program_step` is one step of the
library's filter loop, the step `estimate_orientation` runs for each sample.
The product-form oracle (`product_form_update`, its gradient
`product_form_gradient`) builds each field residual and its gradient from
quaternion products, one basis quaternion at a time, instead of the closed
form the library uses. The per-sample oracle (`closed_form_step`, chained by
`chained_orientation`) is the closed form one sample and one function call
at a time: the library's fused loop must give bit-identical quaternions.
`padded_run` is the loop in the form the library ran before it computed each
quaternion product once: the gravity residual from the general field
gradient's a, b, c, d at b = (0, 0, 1), products by 0.0 included, and both
gradients doubled. The library's loop must give equal values; only the signs
of some zeros differ.
`physical_recording` is a recording built from the physics of a moving
sensor, with its true linear acceleration to test the filter against, in the
simulator's field or in one that `disturbed_field` distorts.
"""

import math

import numpy as np

from climbdetect import orientation
from climbdetect.orientation import GRAVITY, ImuRecording
from climbdetect.series import SensorSite
from climbdetect.simulator import MAG_FIELD


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a sensor-frame vector into the Earth frame."""
    p = np.array([0.0, v[0], v[1], v[2]])
    return quat_multiply(quat_multiply(q, p), quat_conjugate(q))[1:]


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    half = 0.5 * angle
    return np.array([math.cos(half), *(math.sin(half) * ax)])


def quat_distance(a, b) -> float:
    """Sign-insensitive quaternion distance min(|a-b|, |a+b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def _field_gradient(q, ref_earth, meas_sensor) -> np.ndarray:
    """Gradient of 0.5*|conj(q) (0,ref) q - meas|^2 with respect to q."""
    p = np.array([0.0, ref_earth[0], ref_earth[1], ref_earth[2]])
    qc = quat_conjugate(q)
    f = quat_multiply(quat_multiply(qc, p), q)[1:] - meas_sensor
    grad = np.empty(4)
    basis = np.eye(4)
    for i in range(4):
        e = basis[i]
        d = quat_multiply(quat_multiply(quat_conjugate(e), p), q) \
            + quat_multiply(quat_multiply(qc, p), e)
        grad[i] = d[1:] @ f
    return grad


def program_step(q, accel, gyro, mag, dt: float, beta: float) -> np.ndarray:
    """One step of the library's filter from q: `orientation._run` over the one
    `orientation._rows` row of a sample, as `estimate_orientation` runs it.

    It advances the gyro integration and, when beta > 0 and the accelerometer
    reading is usable, applies a normalized gradient step of magnitude beta
    toward gravity (and magnetic-field, when given) agreement. A dt that is
    not positive, or a beta that `check_beta` refuses, raises ValueError.
    """
    beta = orientation.check_beta(beta)
    rows = orientation._rows([dt], accel, gyro, mag, beta)
    return np.array(orientation._run(np.asarray(q, dtype=float).tolist(), rows, beta))


def product_form_gradient(q, accel, mag):
    """The gradient a corrected step normalizes, from quaternion products, or
    None when the accelerometer reading is unusable and the step is not
    corrected."""
    q = np.asarray(q, dtype=float)
    accel = np.asarray(accel, dtype=float)
    # math.hypot, as the library does: the norm is correctly rounded, and
    # an ulp off in a unit reading is amplified by the normalized gradient
    # when the residual is small.
    a_norm = math.hypot(*accel)
    if a_norm <= 1e-9:
        return None
    grad = _field_gradient(q, np.array([0.0, 0.0, 1.0]), accel / a_norm)
    if mag is not None:
        mag = np.asarray(mag, dtype=float)
        m_norm = math.hypot(*mag)
        if m_norm > 1e-9:
            m_hat = mag / m_norm
            h = quat_rotate(q, m_hat)
            # Earth-frame field reference: horizontal magnitude north,
            # measured vertical component.
            b = np.array([math.hypot(h[0], h[1]), 0.0, h[2]])
            grad = grad + _field_gradient(q, b, m_hat)
    return grad


def product_form_update(q, accel, gyro, mag, dt: float, beta: float) -> np.ndarray:
    """One complementary-filter step, written with quaternion products."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    q = np.asarray(q, dtype=float)
    omega = np.array([0.0, gyro[0], gyro[1], gyro[2]])
    q_dot = 0.5 * quat_multiply(q, omega)
    grad = product_form_gradient(q, accel, mag) if beta > 0.0 else None
    if grad is not None:
        g_norm = np.linalg.norm(grad)
        if g_norm > 1e-12:
            q_dot = q_dot - beta * grad / g_norm
    q = q + q_dot * dt
    return q / np.linalg.norm(q)


def closed_form_field_gradient(w, x, y, z, bx, bz, mx, my, mz):
    """J^T f / 2, half the gradient of 0.5*|f|^2, f = conj(q) (0, b) q - m, for
    b = (bx, 0, bz).

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
    return (a * fx + b * fy + c * fz,
            d * fx + c * fy - b * fz,
            d * fy - c * fx + a * fz,
            b * fx - a * fy + d * fz)


def _field(w, x, y, z, mx, my, mz):
    """h = q (0, m) conj(q) for a unit m."""
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    xy, wz, xz, wy, yz, wx = x * y, w * z, x * z, w * y, y * z, w * x
    return ((ww + xx - yy - zz) * mx + 2.0 * ((xy - wz) * my + (xz + wy) * mz),
            (ww - xx + yy - zz) * my + 2.0 * ((xy + wz) * mx + (yz - wx) * mz),
            (ww - xx - yy + zz) * mz + 2.0 * ((xz - wy) * mx + (yz + wx) * my))


def closed_form_step(q, accel, gyro, mag, dt: float, beta: float) -> tuple:
    """One filter step on Python floats: q is (w, x, y, z), mag may be None."""
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
            ax, ay, az = ax / a_norm, ay / a_norm, az / a_norm
            # the gravity residual, each term in the order of its Jacobian row
            fx = -(w * y) + x * z - w * y + x * z - ax
            fy = w * x + w * x + y * z + y * z - ay
            fz = w * w - x * x - y * y + z * z - az
            g = (-y * fx + x * fy + w * fz, z * fx + w * fy - x * fz,
                 z * fy - w * fx - y * fz, x * fx + y * fy + z * fz)
            m_norm = 0.0 if mag is None else math.hypot(*mag)
            if m_norm > 1e-9:
                mx, my, mz = mag[0] / m_norm, mag[1] / m_norm, mag[2] / m_norm
                # the Earth-frame field reference is h's horizontal magnitude
                # north and its measured vertical component
                hx, hy, hz = _field(w, x, y, z, mx, my, mz)
                g = [gi + mi for gi, mi in
                     zip(g, closed_form_field_gradient(w, x, y, z, math.hypot(hx, hy), hz,
                                                       mx, my, mz))]
            g_norm = math.hypot(*g)
            if g_norm > 5e-13:
                dw, dx, dy, dz = (dw - beta * g[0] / g_norm, dx - beta * g[1] / g_norm,
                                  dy - beta * g[2] / g_norm, dz - beta * g[3] / g_norm)
    w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
    n = math.hypot(w, x, y, z)
    return w / n, x / n, y / n, z / n


def padded_run(q, rows, beta: float) -> list:
    """`orientation._run` as the library ran it with the gravity residual padded
    by products by 0.0 and both gradients doubled: the flat w, x, y, z of each
    of the `orientation._rows` ``rows`` from q."""
    w, x, y, z = q
    out = []
    for dt, gx, gy, gz, ax, ay, az, corrected, mx, my, mz, has_mag in rows:
        dw = 0.5 * (-x * gx - y * gy - z * gz)
        dx = 0.5 * (w * gx + y * gz - z * gy)
        dy = 0.5 * (w * gy - x * gz + z * gx)
        dz = 0.5 * (w * gz + x * gy - y * gx)
        if corrected:
            # a = w * 0.0 - y * 1.0, b = x * 1.0 - z * 0.0, and so on
            g = [2.0 * v for v in closed_form_field_gradient(w, x, y, z, 0.0, 1.0, ax, ay, az)]
            if has_mag:
                hx, hy, hz = _field(w, x, y, z, mx, my, mz)
                g = [gi + 2.0 * mi for gi, mi in
                     zip(g, closed_form_field_gradient(w, x, y, z, math.hypot(hx, hy), hz,
                                                       mx, my, mz))]
            g_norm = math.hypot(*g)
            if g_norm > 1e-12:
                dw, dx, dy, dz = (dw - beta * g[0] / g_norm, dx - beta * g[1] / g_norm,
                                  dy - beta * g[2] / g_norm, dz - beta * g[3] / g_norm)
        w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
        n = math.hypot(w, x, y, z)
        w, x, y, z = w / n, x / n, y / n, z / n
        out += w, x, y, z
    return out


def chained_orientation(q0, t, accel, gyro, mag, beta: float) -> np.ndarray:
    """Quaternions (n, 4) from q0 and `closed_form_step` chained one sample at
    a time over the rows of the arrays; mag may be None."""
    quats = np.empty((len(t), 4))
    q = quats[0] = np.asarray(q0, dtype=float).tolist()
    for i in range(1, len(t)):
        q = quats[i] = closed_form_step(
            q, accel[i].tolist(), gyro[i].tolist(), None if mag is None else mag[i].tolist(),
            float(t[i] - t[i - 1]), beta)
    return quats


def _sinusoids(rng: np.random.Generator, t: np.ndarray, amplitude: float) -> np.ndarray:
    """(n, 3): per axis, the sum of six sinusoids of amplitude U(0, ``amplitude``),
    frequency U(0.1, 1.5) Hz and a random phase."""
    a, f, p = (rng.uniform(low, high, (6, 3)) for low, high in
               ((0.0, amplitude), (0.1, 1.5), (0.0, 2.0 * np.pi)))
    return np.einsum("kj,nkj->nj", a, np.sin(2.0 * np.pi * f * t[:, None, None] + p))


def disturbed_field(rng: np.random.Generator, t: np.ndarray, rms: float) -> np.ndarray:
    """(n, 3) Earth-frame field: the simulator's `MAG_FIELD` plus, per axis, three
    sinusoids of frequency U(0.02, 0.2) Hz, a random phase and amplitude
    U(0, 1), the sum scaled so that its norm has root mean square ``rms``: a
    slow distortion, as a climber passing a steel wall frame feels it."""
    a, f, p = (rng.uniform(low, high, (3, 3)) for low, high in
               ((0.0, 1.0), (0.02, 0.2), (0.0, 2.0 * np.pi)))
    bias = np.einsum("kj,nkj->nj", a, np.sin(2.0 * np.pi * f * t[:, None, None] + p))
    return MAG_FIELD + bias * (rms / np.sqrt(np.mean(np.sum(bias * bias, axis=1))))


def physical_recording(seed: int, rate_amplitude: float, accel_amplitude: float,
                       mag: bool = True, seconds: float = 60.0, rate: float = 100.0,
                       field_rms: float = 0.0):
    """``(recording, linear acceleration)`` of a sensor that turns at body rates
    ω and moves with Earth-frame linear acceleration a (n, 3), each drawn by
    `_sinusoids`. The attitude starts at identity and follows q_i = q_{i-1} ⊗
    exp(ω_i dt / 2); the readings are accel = Rᵀ(a + g) + N(0, 0.05²), gyro =
    ω + N(0, 0.01²) and mag = Rᵀ m + N(0, 0.01²), m the simulator's
    `MAG_FIELD` (drawn either way, so that both forms share the rest). With
    ``field_rms`` > 0, m is `disturbed_field` at that RMS, drawn from a stream
    of its own, so that the other readings keep their values."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / rate
    t = np.arange(round(seconds * rate)) * dt
    omega = _sinusoids(rng, t, rate_amplitude)
    linear = _sinusoids(rng, t, accel_amplitude)
    quats = np.empty((len(t), 4))
    quats[0] = q = [1.0, 0.0, 0.0, 0.0]
    for i in range(1, len(t)):
        half = omega[i] * (dt / 2.0)
        angle = math.hypot(*half)
        step = [math.cos(angle), *(half * (math.sin(angle) / angle if angle else 1.0))]
        q = quats[i] = quat_multiply(q, step)
    w, x, y, z = (quats / np.linalg.norm(quats, axis=1, keepdims=True)).T
    # R of each attitude, which rotates sensor-frame vectors into the Earth frame
    r = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    accel = (np.einsum("jin,nj->ni", r, linear + [0.0, 0.0, GRAVITY])
             + rng.normal(0.0, 0.05, linear.shape))
    gyro = omega + rng.normal(0.0, 0.01, omega.shape)
    earth_field = (disturbed_field(np.random.default_rng([seed, 1]), t, field_rms)
                   if field_rms > 0.0 else np.broadcast_to(MAG_FIELD, omega.shape))
    field = np.einsum("jin,nj->ni", r, earth_field) + rng.normal(0.0, 0.01, omega.shape)
    return ImuRecording(site=SensorSite.PELVIS, sample_rate=rate, t=t, accel=accel,
                        gyro=gyro, mag=field if mag else None), linear
