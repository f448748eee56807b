"""Per-limb motion-state detection and climbing activity classification.

Pipeline: IMU recordings are turned into gravity-free acceleration and
angular-velocity norms (`orientation`), modelled per motion hypothesis with
Gamma densities (`gamma_model`), segmented by an online CUSUM detector
(`cusum`) whose models and thresholds are learned from annotated climbs
(`learning`, synchronized via `sync`), and finally combined into full-body
states and per-limb sub-states (`classifier`). `simulator` provides seeded
synthetic ground truth and `cli` the command-line front end.
"""

__version__ = "0.1.0"  # the one place it is set: pyproject.toml reads it
