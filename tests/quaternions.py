"""Quaternion helpers for the tests, and two oracles for the filter step of
``climbdetect.orientation``.

Quaternions are (w, x, y, z) and rotate sensor-frame vectors into the
Earth frame: v_earth = q (0, v_s) q*. The product-form oracle
(`filter_update`) builds each field residual and its gradient from
quaternion products, one basis quaternion at a time, instead of the closed
form the library uses. The per-sample oracle (`closed_form_step`, chained by
`chained_orientation`) is the closed form one sample and one function call
at a time, with the general field gradient for both references: the
library's fused loop must give bit-identical quaternions.
"""

import math

import numpy as np


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


def filter_update(q, accel, gyro, mag, dt: float, beta: float) -> np.ndarray:
    """One complementary-filter step, written with quaternion products."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    q = np.asarray(q, dtype=float)
    omega = np.array([0.0, gyro[0], gyro[1], gyro[2]])
    q_dot = 0.5 * quat_multiply(q, omega)
    if beta > 0.0:
        accel = np.asarray(accel, dtype=float)
        a_norm = np.linalg.norm(accel)
        if a_norm > 1e-9:
            grad = _field_gradient(q, np.array([0.0, 0.0, 1.0]), accel / a_norm)
            if mag is not None:
                mag = np.asarray(mag, dtype=float)
                m_norm = np.linalg.norm(mag)
                if m_norm > 1e-9:
                    m_hat = mag / m_norm
                    h = quat_rotate(q, m_hat)
                    # Earth-frame field reference: horizontal magnitude north,
                    # measured vertical component.
                    b = np.array([math.hypot(h[0], h[1]), 0.0, h[2]])
                    grad = grad + _field_gradient(q, b, m_hat)
            g_norm = np.linalg.norm(grad)
            if g_norm > 1e-12:
                q_dot = q_dot - beta * grad / g_norm
    q = q + q_dot * dt
    return q / np.linalg.norm(q)


def closed_form_field_gradient(w, x, y, z, bx, bz, mx, my, mz):
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
            g = closed_form_field_gradient(w, x, y, z, 0.0, 1.0,
                                           ax / a_norm, ay / a_norm, az / a_norm)
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
                     zip(g, closed_form_field_gradient(w, x, y, z, math.hypot(hx, hy), hz,
                                                       mx, my, mz))]
            g_norm = math.hypot(*g)
            if g_norm > 1e-12:
                dw, dx, dy, dz = (dw - beta * g[0] / g_norm, dx - beta * g[1] / g_norm,
                                  dy - beta * g[2] / g_norm, dz - beta * g[3] / g_norm)
    w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
    n = math.hypot(w, x, y, z)
    return w / n, x / n, y / n, z / n


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
