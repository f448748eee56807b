import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from climbdetect.errors import EmptyRecording, MalformedRecording
from climbdetect.orientation import (GRAVITY, ImuRecording, _rotate,
                                     angular_velocity_norm, earth_acceleration,
                                     estimate_orientation, filter_update,
                                     initial_orientation, linear_acceleration)
from climbdetect.series import ALL_SITES, SensorSite
from climbdetect.simulator import random_plan, simulate
from quaternions import chained_orientation, closed_form_step
from quaternions import filter_update as product_form_update
from quaternions import quat_distance, quat_from_axis_angle, quat_rotate

MAG_EARTH = np.array([0.5, 0.0, -np.sqrt(3.0) / 2.0])
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def stationary_recording(attitude: Rotation, n=500, rate=100.0, mag=True,
                         accel_noise=0.0, seed=0):
    """Recording of a motionless sensor held at the given attitude."""
    rng = np.random.default_rng(seed)
    r = attitude.as_matrix()
    accel = np.tile(r.T @ np.array([0.0, 0.0, GRAVITY]), (n, 1))
    if accel_noise:
        accel = accel + rng.normal(0.0, accel_noise, (n, 3))
    mag_s = np.tile(r.T @ MAG_EARTH, (n, 1)) if mag else None
    return ImuRecording(site=SensorSite.PELVIS, sample_rate=rate,
                        t=np.arange(n) / rate, accel=accel,
                        gyro=np.zeros((n, 3)), mag=mag_s)


def random_recording(n, mag=True, seed=17):
    """A recording of random rows on a jittered clock."""
    rng = np.random.default_rng(seed)
    return ImuRecording(site=SensorSite.LEFT_FOOT, sample_rate=100.0,
                        t=np.cumsum(rng.uniform(0.005, 0.015, n)),
                        accel=rng.normal([0.0, 0.0, GRAVITY], 2.0, (n, 3)),
                        gyro=rng.normal(0.0, 1.0, (n, 3)),
                        mag=rng.normal(MAG_EARTH, 0.1, (n, 3)) if mag else None)


def assert_bit_equal(got, want):
    """Equal floats, and equal signs on the zeros among them."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestFilterUpdate:
    def test_equilibrium_is_fixed_point(self):
        q = filter_update(IDENTITY, [0.0, 0.0, GRAVITY], [0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0], dt=0.01, beta=0.1)
        assert quat_distance(q, IDENTITY) < 1e-12

    def test_quaternion_stays_normalized(self):
        rng = np.random.default_rng(8)
        q = IDENTITY
        for _ in range(200):
            q = filter_update(q, rng.normal(0, 5, 3), rng.normal(0, 3, 3),
                              rng.normal(0, 1, 3), dt=0.01, beta=0.3)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    def test_gyro_only_matches_closed_form(self):
        q = IDENTITY
        for _ in range(100):
            q = filter_update(q, [0, 0, GRAVITY], [0.0, 0.0, np.pi], None,
                              dt=0.01, beta=0.0)
        expected = quat_from_axis_angle([0, 0, 1], np.pi)
        assert quat_distance(q, expected) < 1e-3

    def test_degenerate_accel_falls_back_to_gyro(self):
        with_beta = filter_update(IDENTITY, [0, 0, 0], [0.1, 0, 0], None,
                                  dt=0.01, beta=0.5)
        gyro_only = filter_update(IDENTITY, [0, 0, 0], [0.1, 0, 0], None,
                                  dt=0.01, beta=0.0)
        np.testing.assert_allclose(with_beta, gyro_only)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            filter_update(IDENTITY, [0, 0, GRAVITY], [0, 0, 0], None, dt=0.0, beta=0.1)
        with pytest.raises(ValueError):
            filter_update(IDENTITY, [0, 0, GRAVITY], [0, 0, 0], None, dt=0.01, beta=-1.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        lambda beta: filter_update(IDENTITY, [0, 0, GRAVITY], [0, 0, 0], None, 0.01, beta),
        lambda beta: estimate_orientation(stationary_recording(Rotation.identity(), 20), beta),
        lambda beta: earth_acceleration(stationary_recording(Rotation.identity(), 20), beta),
        lambda beta: linear_acceleration(stationary_recording(Rotation.identity(), 20), beta),
    ], ids=["filter_update", "estimate_orientation", "earth_acceleration",
            "linear_acceleration"])
    def test_nonfinite_beta_refused(self, call, beta):
        # nan fails both beta < 0 and beta > 0, and inf gives nan quaternions
        with pytest.raises(ValueError, match="beta must be a finite number >= 0"):
            call(beta)


def _vectors(scale):
    return st.lists(st.floats(-scale, scale), min_size=3, max_size=3)


_STEPS = dict(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
                 lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v)),
              accel=st.one_of(st.just([0.0, 0.0, 0.0]), _vectors(30.0)),
              gyro=_vectors(20.0),
              mag=st.one_of(st.none(), st.just([0.0, 0.0, 0.0]), _vectors(2.0)),
              dt=st.floats(1e-4, 0.5),
              beta=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))


class TestClosedFormStep:
    """The closed-form step against the quaternion-product oracle."""

    @settings(max_examples=400, deadline=None)
    @given(**_STEPS)
    def test_matches_product_form(self, q, accel, gyro, mag, dt, beta):
        got = filter_update(q, accel, gyro, mag, dt, beta)
        want = product_form_update(q, accel, gyro, mag, dt, beta)
        assert np.max(np.abs(got - want)) <= 1e-14

    @settings(max_examples=400, deadline=None)
    @given(**_STEPS)
    def test_filter_update_is_the_per_sample_oracle(self, q, accel, gyro, mag, dt, beta):
        assert_bit_equal(filter_update(q, accel, gyro, mag, dt, beta),
                         np.array(closed_form_step(q.tolist(), accel, gyro, mag, dt, beta)))

    @pytest.mark.parametrize("mag", [None, (1.0, -0.0, 0.0)], ids=["imu-only", "marg"])
    def test_signed_zero_grid(self, mag):
        # Attitudes on the axes and a still sensor give exact zeros in q and
        # in the gravity gradient; their signs reach the result only in a few
        # of these cases, which a form that drops the general gradient's
        # products by 0.0 gets wrong.
        for q in itertools.product([0.0, -0.0, 1.0], repeat=4):
            for accel in itertools.product([0.0, -0.0, 1.0, -1.0], repeat=3):
                if any(q):
                    assert_bit_equal(
                        filter_update(q, accel, [0.0, 0.0, 0.0], mag, 0.01, 0.5),
                        np.array(closed_form_step(q, accel, [0.0, 0.0, 0.0], mag, 0.01, 0.5)))

    def test_simulated_climb_matches_product_form_loop(self):
        plan = random_plan(60.0, np.random.default_rng(3))
        rec = simulate(plan, seed=3, triaxial=True).recordings[SensorSite.PELVIS]
        quats = estimate_orientation(rec, beta=0.1, convergence_window=0.0)
        want = np.empty_like(quats)
        want[0] = initial_orientation(rec.accel[0], rec.mag[0])
        for i in range(1, len(rec)):
            want[i] = product_form_update(want[i - 1], rec.accel[i], rec.gyro[i],
                                          rec.mag[i], rec.t[i] - rec.t[i - 1], 0.1)
        assert len(rec) == 6000
        assert np.max(np.abs(quats - want)) <= 1e-13

    @pytest.mark.parametrize("mag", [True, False], ids=["marg", "imu-only"])
    def test_estimate_equals_chained_updates_across_blocks(self, mag):
        n = 2500
        rec = random_recording(n, mag)
        quats = estimate_orientation(rec, beta=0.2, convergence_window=0.0)
        q = initial_orientation(rec.accel[0], rec.mag[0] if mag else None)
        assert np.array_equal(quats[0], q)
        for i in range(1, n):
            q = filter_update(q, rec.accel[i], rec.gyro[i], rec.mag[i] if mag else None,
                              rec.t[i] - rec.t[i - 1], 0.2)
            assert np.array_equal(quats[i], q), i


def per_sample_oracle(rec, beta):
    """`closed_form_step` chained one sample at a time from the first attitude."""
    q0 = initial_orientation(rec.accel[0], None if rec.mag is None else rec.mag[0])
    return chained_orientation(q0, rec.t, rec.accel, rec.gyro, rec.mag, beta)


_ROW_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, GRAVITY, 5e-324, -1.5e-310]),
                        st.floats(-30.0, 30.0))


class TestFusedLoopOracle:
    """`estimate_orientation`, one loop over packed rows, is bit-equal to the
    closed-form step called once per sample, signs of zero included."""

    @pytest.fixture(scope="class")
    def climb(self):
        return simulate(random_plan(30.0, np.random.default_rng(5)), seed=5, triaxial=True)

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("site", ALL_SITES, ids=lambda s: s.value)
    def test_simulated_sites(self, climb, site, beta):
        rec = climb.recordings[site]
        assert rec.mag is not None
        assert_bit_equal(estimate_orientation(rec, beta, 0.0), per_sample_oracle(rec, beta))

    @pytest.mark.parametrize("mag", [True, False], ids=["marg", "imu-only"])
    def test_still_sensor_at_identity(self, mag):
        rec = stationary_recording(Rotation.identity(), n=300, mag=mag)
        quats = estimate_orientation(rec, 0.1, 0.0)
        assert (quats[:, 1:] == 0.0).all()
        assert_bit_equal(quats, per_sample_oracle(rec, 0.1))

    def test_rows_with_zero_accel_or_zero_mag(self):
        rec = random_recording(600)
        rec.accel[5::7] = 0.0
        rec.mag[3::5] = 0.0
        rec.mag[::11] = -0.0
        assert_bit_equal(estimate_orientation(rec, 0.3, 0.0), per_sample_oracle(rec, 0.3))

    @pytest.mark.parametrize("n", [1, 2, 1024, 1025, 2500])
    def test_lengths_around_blocks(self, n):
        rec = random_recording(n, seed=n)
        assert_bit_equal(estimate_orientation(rec, 0.2, 0.0), per_sample_oracle(rec, 0.2))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), mag=st.booleans(),
           beta=st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 5.0)))
    def test_random_rows(self, data, n, mag, beta):
        def stream():
            return np.reshape(data.draw(st.lists(_ROW_VALUES, min_size=3 * n,
                                                 max_size=3 * n)), (n, 3))
        dts = data.draw(st.lists(st.floats(1e-3, 0.1), min_size=n, max_size=n))
        rec = ImuRecording(site=SensorSite.RIGHT_HAND, sample_rate=100.0, t=np.cumsum(dts),
                           accel=stream(), gyro=stream(), mag=stream() if mag else None)
        assert_bit_equal(estimate_orientation(rec, beta, 0.0), per_sample_oracle(rec, beta))


class TestRecordingValidation:
    @pytest.mark.parametrize("name, change, message", [
        ("accel", lambda v: v[:, :2], "accel is shaped (5, 2), not (5, 3)"),
        ("gyro", lambda v: v[:4], "gyro is shaped (4, 3), not (5, 3)"),
        ("mag", lambda v: v.ravel(), "mag is shaped (15,), not (5, 3)"),
        ("accel", lambda v: np.where(np.arange(15).reshape(5, 3) == 7, np.nan, v),
         "accel holds a non-finite value"),
        ("gyro", lambda v: np.where(np.arange(15).reshape(5, 3) == 0, np.inf, v),
         "gyro holds a non-finite value"),
        ("mag", lambda v: np.where(np.arange(15).reshape(5, 3) == 14, -np.inf, v),
         "mag holds a non-finite value"),
        ("t", lambda v: np.where(np.arange(5) == 1, np.nan, v), "t holds a non-finite value"),
        ("t", lambda v: np.where(np.arange(5) == 4, np.inf, v), "t holds a non-finite value"),
        ("t", lambda v: np.where(np.arange(5) == 0, -np.inf, v), "t holds a non-finite value"),
    ], ids=["accel-columns", "gyro-rows", "mag-flat", "accel-nan", "gyro-inf", "mag-inf",
            "t-nan", "t-inf", "t-neg-inf"])
    def test_malformed_stream_names_site(self, name, change, message):
        streams = {"t": np.arange(5) / 100.0, "accel": np.tile([0.0, 0.0, GRAVITY], (5, 1)),
                   "gyro": np.zeros((5, 3)), "mag": np.tile(MAG_EARTH, (5, 1))}
        streams[name] = change(streams[name])
        with pytest.raises(MalformedRecording, match=r"^rf: ") as exc:
            ImuRecording(site=SensorSite.RIGHT_FOOT, sample_rate=100.0, **streams)
        assert message in str(exc.value)


class TestScipyRotationOracle:
    """The closed-form rotations against scipy's ``Rotation``."""

    def test_rotate_matches_apply(self):
        rng = np.random.default_rng(21)
        n = 20_000
        # unit, tiny and large quaternion norms
        quats = rng.normal(size=(n, 4)) * np.exp(rng.uniform(-8.0, 8.0, (n, 1)))
        v = rng.normal(0.0, 20.0, (n, 3))
        want = Rotation.from_quat(quats[:, [1, 2, 3, 0]]).apply(v)
        assert np.max(np.abs(_rotate(quats, v) - want)) <= 1e-13

    def test_earth_acceleration_matches_apply(self):
        plan = random_plan(20.0, np.random.default_rng(4))
        rec = simulate(plan, seed=4, triaxial=True).recordings[SensorSite.LEFT_FOOT]
        quats = estimate_orientation(rec)
        want = Rotation.from_quat(quats[:, [1, 2, 3, 0]]).apply(rec.accel)
        want[:, 2] -= GRAVITY
        assert np.max(np.abs(earth_acceleration(rec) - want)) <= 1e-13

    # Near the identity and near half turns, where another branch's pivot
    # component is close to zero and would lose the precision checked here.
    @pytest.mark.parametrize("attitude, branch", [
        (Rotation.from_euler("xyz", [1e-3, -2e-3, 3e-3], degrees=True), 3),
        (Rotation.from_euler("xz", [179.999, 1e-3], degrees=True), 0),
        (Rotation.from_euler("yx", [179.999, -1e-3], degrees=True), 1),
        (Rotation.from_euler("zy", [179.999, 1e-3], degrees=True), 2),
    ], ids=["trace", "x-diagonal", "y-diagonal", "z-diagonal"])
    def test_initial_orientation_matches_from_matrix(self, attitude, branch):
        r = attitude.as_matrix()
        assert np.argmax([r[0, 0], r[1, 1], r[2, 2], np.trace(r)]) == branch
        got = initial_orientation(r.T @ np.array([0.0, 0.0, GRAVITY]), r.T @ MAG_EARTH)
        xyzw = Rotation.from_matrix(r).as_quat()
        want = np.array([xyzw[3], *xyzw[:3]])
        sign = 1.0 if got @ want >= 0 else -1.0
        np.testing.assert_allclose(got, sign * want, rtol=0, atol=1e-12)


class TestOrientationEstimation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stationary_attitude_recovered(self, seed):
        attitude = Rotation.random(random_state=seed)
        rec = stationary_recording(attitude, n=500)
        quats = estimate_orientation(rec, beta=0.1)
        # gravity direction seen by the estimate matches the measurement
        q = quats[-1]
        up_sensor = quat_rotate(np.array([q[0], -q[1], -q[2], -q[3]]),
                                [0.0, 0.0, 1.0])
        measured_up = rec.accel[-1] / np.linalg.norm(rec.accel[-1])
        angle = np.degrees(np.arccos(np.clip(up_sensor @ measured_up, -1, 1)))
        assert angle < 0.5

    def test_linear_acceleration_stationary_is_small(self):
        rec = stationary_recording(Rotation.random(random_state=12), n=600)
        out = linear_acceleration(rec, beta=0.1)
        after_window = out.values[int(3.0 / rec.dt):]
        assert np.max(after_window) < 0.05

    def test_free_fall_reads_gravity_norm(self):
        n = 300
        rec = ImuRecording(site=SensorSite.LEFT_HAND, sample_rate=100.0,
                           t=np.arange(n) / 100.0, accel=np.zeros((n, 3)),
                           gyro=np.zeros((n, 3)))
        out = linear_acceleration(rec, beta=0.1, convergence_window=0.0)
        np.testing.assert_allclose(out.values, GRAVITY, atol=1e-9)

    def test_mounting_rotation_invariance(self):
        base = stationary_recording(Rotation.identity(), n=600)
        mounted = stationary_recording(Rotation.from_euler("xyz", [40, -25, 130],
                                                           degrees=True), n=600)
        a = linear_acceleration(base).values
        b = linear_acceleration(mounted).values
        assert np.max(np.abs(a[300:] - b[300:])) < 0.1

    def test_motion_bursts_and_plateaus(self):
        # alternate stillness with shaking; output shows bursts over near-zero plateaus
        rng = np.random.default_rng(5)
        n = 1200
        rate = 100.0
        moving = (np.arange(n) // 200) % 2 == 1
        accel = np.tile([0.0, 0.0, GRAVITY], (n, 1))
        accel[moving] += rng.normal(0.0, 3.0, (int(moving.sum()), 3))
        rec = ImuRecording(site=SensorSite.RIGHT_FOOT, sample_rate=rate,
                           t=np.arange(n) / rate, accel=accel,
                           gyro=np.zeros((n, 3)),
                           mag=np.tile(MAG_EARTH, (n, 1)))
        out = linear_acceleration(rec).values
        assert out[moving].mean() > 10 * out[400:600].mean()

    def test_imu_only_mode_removes_gravity(self):
        rec = stationary_recording(Rotation.random(random_state=31), n=600, mag=False)
        out = linear_acceleration(rec, beta=0.1)
        assert np.max(out.values[300:]) < 0.05

    def test_empty_recording_raises(self):
        rec = ImuRecording(site=SensorSite.PELVIS, sample_rate=100.0,
                           t=np.empty(0), accel=np.empty((0, 3)),
                           gyro=np.empty((0, 3)))
        with pytest.raises(EmptyRecording):
            linear_acceleration(rec)
        with pytest.raises(EmptyRecording):
            angular_velocity_norm(rec)


class TestAngularVelocityNorm:
    def test_zero_gyro(self):
        rec = stationary_recording(Rotation.identity(), n=100)
        assert np.all(angular_velocity_norm(rec).values == 0.0)

    def test_pythagorean_triple(self):
        n = 10
        rec = ImuRecording(site=SensorSite.LEFT_FOOT, sample_rate=100.0,
                           t=np.arange(n) / 100.0,
                           accel=np.tile([0.0, 0.0, GRAVITY], (n, 1)),
                           gyro=np.tile([3.0, 4.0, 0.0], (n, 1)))
        np.testing.assert_allclose(angular_velocity_norm(rec).values, 5.0)

    def test_matches_elementwise_norm_oracle(self):
        rng = np.random.default_rng(13)
        gyro = rng.normal(0, 2, (500, 3))
        rec = ImuRecording(site=SensorSite.RIGHT_HAND, sample_rate=100.0,
                           t=np.arange(500) / 100.0,
                           accel=np.tile([0.0, 0.0, GRAVITY], (500, 1)),
                           gyro=gyro)
        expected = np.sqrt(np.sum(gyro**2, axis=1))
        np.testing.assert_allclose(angular_velocity_norm(rec).values, expected)
        assert np.all(angular_velocity_norm(rec).values >= 0)


def test_initial_orientation_aligns_gravity():
    attitude = Rotation.random(random_state=44)
    r = attitude.as_matrix()
    q = initial_orientation(r.T @ np.array([0, 0, GRAVITY]), r.T @ MAG_EARTH)
    up = quat_rotate(q, r.T @ np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(up, [0.0, 0.0, 1.0], atol=1e-9)


def test_earth_acceleration_components_are_frame_correct():
    rec = stationary_recording(Rotation.random(random_state=2), n=500)
    comp = earth_acceleration(rec)
    assert np.max(np.abs(comp[300:])) < 0.05
