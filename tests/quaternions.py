"""Quaternion helpers for the tests, and the product-form filter step that
serves as the oracle for ``climbdetect.orientation.filter_update``.

Quaternions are (w, x, y, z) and rotate sensor-frame vectors into the
Earth frame: v_earth = q (0, v_s) q*. The oracle builds each field residual
and its gradient from quaternion products, one basis quaternion at a time,
instead of the closed form the library uses.
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
