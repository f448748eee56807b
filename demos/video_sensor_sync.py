"""Align video and sensor clocks by cross-correlating pelvis accelerations.

Run with ``python3 demos/video_sensor_sync.py``. A synthetic pelvis
trajectory (as a video tracker would produce) is generated together with a
matching IMU recording whose clock runs 1.8 s behind the video clock; the
delay is recovered from the two vertical acceleration estimates and used to
move video-clock annotations onto the sensor clock. The demo exits with 1
when the recovered delay is more than 0.05 s off, or when its p-value is
above ``sync.MAX_P_VALUE``, the level at which `climbdetect sync` accepts a
delay.
"""

import sys

import numpy as np

from climbdetect import orientation, sync
from climbdetect.series import AnnotationTrack, SensorSite, SignalSeries

RATE = 50.0
DURATION = 40.0
TRUE_DELAY = 1.8  # video timestamps sit this far ahead of the sensor clock
TOLERANCE = 0.05

t = np.arange(int(DURATION * RATE)) / RATE
# smooth wall-plane motion: lateral x, vertical y (metres)
x = 0.6 * np.sin(0.7 * t) + 0.2 * np.sin(2.1 * t + 0.5)
y = 0.4 * np.sin(1.2 * t + 0.3) + 0.1 * np.sin(3.0 * t)

# the sensor sees the analytic second derivatives, plus gravity, at a fixed
# attitude (identity here for clarity); only the vertical one fixes the delay:
# the filter's heading is not the wall's, and it tilts to absorb slow lateral
# acceleration. As in `climbdetect sync`, the filter runs without the
# magnetometer: the vertical component does not depend on heading
ax = -0.6 * 0.49 * np.sin(0.7 * t) - 0.2 * 4.41 * np.sin(2.1 * t + 0.5)
az = -0.4 * 1.44 * np.sin(1.2 * t + 0.3) - 0.1 * 9.0 * np.sin(3.0 * t)
recording = orientation.ImuRecording(
    site=SensorSite.PELVIS, sample_rate=RATE, t=t,
    accel=np.column_stack([ax, np.zeros_like(t), az + orientation.GRAVITY]),
    gyro=np.zeros((len(t), 3)), mag=None)

# video trajectory on its own (shifted) clock
trajectory = sync.TrajectorySeries(t0=TRUE_DELAY, dt=1.0 / RATE, x=x, y=y)
vertical = sync.trajectory_to_acceleration(trajectory)

a_earth = orientation.earth_acceleration(recording, beta=0.02)
sensor_vertical = SignalSeries(float(t[0]), 1.0 / RATE, a_earth[:, 2])

delay, peak, p_value, n_eff = sync.estimate_delay(sensor_vertical, vertical, max_lag=10.0)
print(f"true delay     : {TRUE_DELAY:.3f} s")
print(f"estimated delay: {delay:.3f} s (peak correlation {peak:.3f}, "
      f"p = {p_value:.2g} at {n_eff:.1f} effective samples)")

# annotations made against the video clock move back onto the sensor clock
video_annotations = AnnotationTrack(
    site=SensorSite.PELVIS,
    intervals=[(TRUE_DELAY, 20.0 + TRUE_DELAY, 0),
               (20.0 + TRUE_DELAY, 35.0 + TRUE_DELAY, 1)])
on_sensor_clock = sync.shift_annotations(video_annotations, -delay,
                                         span=(float(t[0]), float(t[-1])))
print("annotations on the sensor clock:")
for start, end, label in on_sensor_clock.intervals:
    print(f"  {start:6.2f} .. {end:6.2f}  state {label}")
if abs(delay - TRUE_DELAY) > TOLERANCE:
    sys.exit(f"error: the estimated delay is more than {TOLERANCE} s off")
if p_value > sync.MAX_P_VALUE:
    sys.exit(f"error: the peak is not evidence of a delay (p = {p_value:.2g})")
