"""Per-limb motion-state detection and climbing activity classification.

Pipeline: IMU recordings are turned into gravity-free acceleration and
angular-velocity norms (`orientation`), modelled per motion hypothesis with
Gamma densities (`gamma_model`), segmented by an online CUSUM detector
(`cusum`) whose models and thresholds are learned from annotated climbs
(`learning`, synchronized via `sync`), and finally combined into full-body
states and per-limb sub-states (`classifier`). `simulator` provides seeded
synthetic ground truth and `cli` the command-line front end.
"""

from .classifier import (ActivityTimeline, FullBodyState, LimbSubState, classify,
                         exploration_report, full_body_state, limb_substates)
from .cusum import (BinaryStateSeries, DetectionConfig, SensorModel, detect,
                    log_likelihood_ratio)
from .errors import ClimbDetectError
from .gamma_model import (GammaParams, HypothesisModel, chi_square_gof,
                          fit_mle, log_pdf)
from .learning import (LabeledClimb, SensorChannels, cross_validate, fit_models,
                       learn_sensor_models, performance_coefficient)
from .orientation import (ImuRecording, angular_velocity_norm, filter_update,
                          linear_acceleration)
from .series import (ALL_SITES, H0, H1, LIMBS, AnnotationTrack, SensorSite,
                     SignalSeries)
from .simulator import StatePlan, random_plan, simulate
from .sync import (TrajectorySeries, estimate_delay, shift_annotations,
                   trajectory_to_acceleration)

__version__ = "0.1.0"  # the one place it is set: pyproject.toml reads it
