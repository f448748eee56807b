"""End-to-end walkthrough: simulate climbs, learn models, detect, classify.

Run with ``python3 demos/end_to_end_pipeline.py``. Everything happens
in-memory on synthetic data; the console output mirrors what the CLI
pipeline (simulate -> fit -> detect -> classify -> report) produces from
files on disk.
"""

import numpy as np

from climbdetect import (classifier, cusum, learning, simulator)
from climbdetect.series import ALL_SITES, SensorSite

# 1. Simulate three annotated climbs: per-site alternating mobility plans
#    drive Gamma-distributed acceleration and angular-velocity norms.
models = simulator.default_models()
climbs = [
    simulator.simulate(
        simulator.random_plan(120.0, np.random.default_rng(10 + i)),
        models, sample_rate=50, seed=20 + i, climb_id=f"climb{i + 1}")
    for i in range(3)
]
print(f"simulated {len(climbs)} climbs, "
      f"{len(climbs[0].channels[SensorSite.PELVIS].acc.values)} samples each")

# 2. Learn per-sensor hypothesis models and detection parameters from the
#    annotations (Gamma MLE per state, then a grid search over the fusion
#    weight and the two switching thresholds).
sensor_models, scores = learning.learn_sensor_models(
    climbs, mode="fused",
    lambda_grid=learning.default_lambda_grid(8, 1.0, 200.0),
    alpha_grid=np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
for site in ALL_SITES:
    cfg = sensor_models[site].config
    print(f"  {site.value:6s} alpha={cfg.alpha:.2f} lambda0={cfg.lambda0:7.2f} "
          f"lambda1={cfg.lambda1:7.2f} c={scores[site]:.3f}")

# 3. Detect per-sensor motion states on one climb with the learned models,
#    back-dating each transition to its estimated onset.
climb = climbs[0]
detections = {}
for site in ALL_SITES:
    ch = climb.channels[site]
    detections[site] = cusum.detect(ch.acc, ch.ang, sensor_models[site])
    print(f"  {site.value:6s} {len(detections[site].change_points)} change points")

# 4. Combine the five binary streams into the full-body activity timeline
#    and per-limb sub-states, then summarize exploratory vs performatory
#    movements.
timeline = classifier.classify(detections)
samples_per_state = {
    classifier.FullBodyState(s).name.lower(): int(np.sum(timeline.full_body == s))
    for s in classifier.FullBodyState}
print("full-body samples:", samples_per_state)

report = classifier.exploration_report(timeline)
for site, counts in report.items():
    ratio = f"{counts.ratio:.2f}" if np.isfinite(counts.ratio) else "undefined"
    print(f"  {site.value:6s} exploratory={counts.exploratory} "
          f"performatory={counts.performatory} ratio={ratio}")
