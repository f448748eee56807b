"""Model fitting, threshold calibration and cross-validation.

Per-sensor Gamma hypothesis models are fitted on the concatenated annotated
signals; detection thresholds and the fusion weight are then grid-searched
against the performance coefficient c = TP/P - FP/N (twice the ROC distance
to the chance diagonal). The entry points are `learn_sensor_models` (fit and
calibrate on all climbs) and `cross_validate` (leave-one-climb-out). Both
calibrate through `_calibrate`, which scores every (alpha, lambda0, lambda1)
cell in one vectorised CUSUM sweep whose lanes are the climbs of every
problem being calibrated: one sweep per site of the site's climbs in
`learn_sensor_models`, and in `cross_validate` every fold's training and
held-out climbs plus the full refit, swept in groups of whole folds of at
most `_SWEEP_LANES` lanes. The per-cell detector and relabelling in
`_pooled_score` score single cells only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cusum import (BinaryStateSeries, DetectionConfig, SensorModel,
                    detect_from_increments, log_likelihood_ratio,
                    relabel_segments)
from .errors import DegenerateTruth, MissingState
from .gamma_model import HypothesisModel, fit_mle
from .orientation import (DEFAULT_BETA, ImuRecording, angular_velocity_norm,
                          linear_acceleration)
from .series import (ALL_SITES, H0, H1, AnnotationTrack, SensorSite,
                     SignalSeries, rasterize_track)

MIN_STATE_SAMPLES = 30

ALPHA_MODES = ("acc", "ang", "fused")


@dataclass
class SensorChannels:
    """The two detection inputs for one sensor: acceleration and angular-velocity norms."""

    acc: SignalSeries
    ang: SignalSeries


@dataclass
class LabeledClimb:
    """One climb's per-sensor signals with synchronized annotations."""

    climb_id: str
    channels: dict[SensorSite, SensorChannels]
    annotations: dict[SensorSite, AnnotationTrack] = field(default_factory=dict)
    recordings: dict[SensorSite, ImuRecording] = field(default_factory=dict)

    @classmethod
    def from_recordings(cls, climb_id: str,
                        recordings: dict[SensorSite, ImuRecording],
                        annotations: dict[SensorSite, AnnotationTrack] | None = None,
                        beta: float = DEFAULT_BETA) -> "LabeledClimb":
        channels = {
            site: SensorChannels(acc=linear_acceleration(rec, beta),
                                 ang=angular_velocity_norm(rec))
            for site, rec in recordings.items()
        }
        return cls(climb_id=climb_id, channels=channels,
                   annotations=dict(annotations or {}), recordings=dict(recordings))


def default_lambda_grid(n: int = 20, low: float = 0.1, high: float = 1000.0) -> np.ndarray:
    """Log-spaced threshold candidates, used for both lambda axes."""
    return np.geomspace(low, high, n)


def default_alpha_grid(step: float = 0.1) -> np.ndarray:
    return np.round(np.arange(0.0, 1.0 + step / 2, step), 10)


def _state_labels(climb: LabeledClimb, site: SensorSite) -> np.ndarray:
    ann = climb.annotations.get(site)
    if ann is None:
        raise MissingState(f"no annotation for site {site.value} in climb {climb.climb_id}")
    ch = climb.channels[site]
    return rasterize_track(ann, ch.acc.t0, ch.acc.dt, len(ch.acc))


def fit_models(climbs: list[LabeledClimb], site: SensorSite,
               ) -> tuple[HypothesisModel, HypothesisModel]:
    """Fit the (acc, ang) hypothesis models for one site on pooled climbs."""
    acc_parts, ang_parts, label_parts = [], [], []
    for climb in climbs:
        ch = climb.channels[site]
        acc_parts.append(ch.acc.values)
        ang_parts.append(ch.ang.values)
        label_parts.append(_state_labels(climb, site))
    acc = np.concatenate(acc_parts)
    ang = np.concatenate(ang_parts)
    labels = np.concatenate(label_parts)
    models = []
    for values in (acc, ang):
        params = []
        for state in (H0, H1):
            selected = values[labels == state]
            if len(selected) < MIN_STATE_SAMPLES:
                raise MissingState(
                    f"state H{state} has {len(selected)} samples at {site.value}; "
                    f"need {MIN_STATE_SAMPLES}")
            params.append(fit_mle(selected))
        models.append(HypothesisModel(h0=params[0], h1=params[1]))
    return models[0], models[1]


def _coefficient(pred: np.ndarray, truth: np.ndarray) -> float:
    """c = TP/P - FP/N of binary arrays, with H1 as the positive class."""
    pred = pred.astype(bool)
    truth = truth.astype(bool)
    p = int(np.count_nonzero(truth))
    n = len(truth) - p
    if p == 0 or n == 0:
        raise DegenerateTruth("truth must contain both states")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred & ~truth))
    return tp / p - fp / n


def performance_coefficient(pred: BinaryStateSeries, truth) -> float:
    """c = TP/P - FP/N in [-1, 1]; truth is an AnnotationTrack or label array."""
    if isinstance(truth, AnnotationTrack):
        truth = rasterize_track(truth, pred.t0, pred.dt, len(pred.states))
    truth = np.asarray(truth)
    if len(truth) != len(pred.states):
        raise ValueError("prediction and truth must share the sample grid")
    return _coefficient(pred.states, truth)


@dataclass
class _SitePrep:
    """Per-climb precomputations reused across grid cells."""

    l_acc: np.ndarray
    l_ang: np.ndarray
    truth: np.ndarray


def _prepare(climbs: list[LabeledClimb], site: SensorSite,
             models: tuple[HypothesisModel, HypothesisModel]) -> list[_SitePrep]:
    acc_model, ang_model = models
    prep = []
    for climb in climbs:
        ch = climb.channels[site]
        prep.append(_SitePrep(
            l_acc=log_likelihood_ratio(ch.acc.values, acc_model),
            l_ang=log_likelihood_ratio(ch.ang.values, ang_model),
            truth=_state_labels(climb, site)))
    return prep


def _pooled_score(prep: list[_SitePrep], alpha: float,
                  lambda0: float, lambda1: float) -> float:
    """c over the concatenated climbs; detections are onset-backdated."""
    states = []
    for item in prep:
        inc = alpha * item.l_acc + (1.0 - alpha) * item.l_ang
        raw = detect_from_increments(inc, lambda0, lambda1)
        states.append(relabel_segments(raw).states)
    return _coefficient(np.concatenate(states),
                        np.concatenate([item.truth for item in prep]))


# Sample rows of increments built at a time, so that the sweep holds O(cells)
# per step, not O(samples x lanes x alphas)
_BLOCK = 256

# Lanes that `cross_validate` sweeps together at most, unless one fold alone
# has more. Its folds and full refit are n^2 + n lanes for n climbs; swept in
# groups of whole folds, its peak memory grows linearly in n, not with n^2.
_SWEEP_LANES = 16


def _sweep(problems: list[list[_SitePrep]], alphas, lambda_grid: np.ndarray) -> np.ndarray:
    """c of every (problem, alpha, lambda1, lambda0) cell, as an array indexed in that order.

    A problem is the list of climbs one plane is pooled over, and each of its
    planes equals `_pooled_score` at every cell. A lane is one (problem,
    climb) pair. All lanes advance together, one sample index per step: this
    is the vector form of `cusum._run_cusum`, one element per cell of every
    lane. Past its climb's end a lane gets zero increments, which never fire
    and never lower the running minimum. After relabelling, the H1 segments
    are [o1, o2), [o3, o4), ... for the onsets o1 <= o2 <= ..., so each
    detection adds +-(truth prefix sum at its onset) to TP and +-onset to the
    predicted H1 length, and a cell still in H1 at the end of its climb closes
    its segment there.
    """
    alphas = np.asarray(alphas, dtype=float)
    size = len(lambda_grid)
    per_lane = len(alphas) * size * size
    lanes = [(k, item) for k, prep in enumerate(problems) for item in prep]
    lengths = [len(item.truth) for _, item in lanes]
    truth_sums = [np.concatenate(([0], np.cumsum(item.truth.astype(bool))))
                  for _, item in lanes]
    p, n = [0] * len(problems), [0] * len(problems)
    for (k, _), total, truth_sum in zip(lanes, lengths, truth_sums):
        p[k] += int(truth_sum[-1])
        n[k] += total - int(truth_sum[-1])
    if any(pk == 0 or nk == 0 for pk, nk in zip(p, n)):
        raise DegenerateTruth("truth must contain both states")
    cells = len(lanes) * per_lane
    lam = np.tile(np.repeat(lambda_grid, size), len(alphas) * len(lanes))
    lam_other = np.tile(lambda_grid, size * len(alphas) * len(lanes))
    # each cell's lane's truth prefix sums start at truth_at[cell] in truth_flat
    truth_flat = np.concatenate(truth_sums)
    truth_at = np.repeat(np.cumsum([0] + [len(t) for t in truth_sums[:-1]]), per_lane)
    # counts summed over each lane's climb, exact in float64 below 2**53
    tp = np.zeros(cells)
    predicted_h1 = np.zeros(cells)
    sign = np.ones(cells)  # +1 in H0, -1 in H1
    s = np.zeros(cells)
    s_min = np.zeros(cells)
    i_min = np.zeros(cells, np.int64)
    # one row per (lane, alpha), one column per threshold pair; views of s and sign
    s_rows = s.reshape(len(lanes) * len(alphas), -1)
    sign_rows = sign.reshape(len(lanes) * len(alphas), -1)
    longest = max(lengths)
    for start in range(1, longest, _BLOCK):
        stop = min(start + _BLOCK, longest)
        # row i - start, column (lane, alpha) holds alpha * l_acc[i] +
        # (1 - alpha) * l_ang[i], the same operations as `_pooled_score`, so
        # every sum is bit-identical
        block = np.zeros((stop - start, len(lanes), len(alphas)))
        for j, (_, item) in enumerate(lanes):
            if lengths[j] <= start:
                continue
            rows = slice(start, min(stop, lengths[j]))
            block[:rows.stop - start, j] = (alphas * item.l_acc[rows, None]
                                            + (1.0 - alphas) * item.l_ang[rows, None])
        block = block.reshape(stop - start, -1, 1)
        for i in range(start, stop):
            s_rows += sign_rows * block[i - start]
            fired = (s > s_min + lam).nonzero()[0]
            if fired.size:
                onset = i_min[fired]
                before = sign[fired]
                tp[fired] -= before * truth_flat[truth_at[fired] + onset]
                predicted_h1[fired] -= before * onset
                sign[fired] = -before
                lam[fired], lam_other[fired] = lam_other[fired], lam[fired]
                s[fired] = 0.0
                s_min[fired] = 0.0
                i_min[fired] = i
            lower = s < s_min
            np.copyto(s_min, s, where=lower)
            np.copyto(i_min, i, where=lower)
    in_h1 = sign < 0
    tp[in_h1] += np.repeat([t[-1] for t in truth_sums], per_lane)[in_h1]
    predicted_h1[in_h1] += np.repeat(lengths, per_lane)[in_h1]
    # pool each problem's lanes
    problem_tp = np.zeros((len(problems), per_lane))
    problem_h1 = np.zeros((len(problems), per_lane))
    lane_problem = [k for k, _ in lanes]
    np.add.at(problem_tp, lane_problem, tp.reshape(len(lanes), per_lane))
    np.add.at(problem_h1, lane_problem, predicted_h1.reshape(len(lanes), per_lane))
    p_col = np.asarray(p, dtype=float)[:, None]
    n_col = np.asarray(n, dtype=float)[:, None]
    c = problem_tp / p_col - (problem_h1 - problem_tp) / n_col
    return c.reshape(len(problems), len(alphas), size, size)


def _best_cell(plane: np.ndarray, lambda_grid: np.ndarray) -> tuple[float, float, float]:
    """(lambda0, lambda1, c) of the last maximum in lambda1-outer, lambda0-inner order."""
    flat = plane.ravel()
    k = flat.size - 1 - int(np.argmax(flat[::-1]))
    lam1_index, lam0_index = divmod(k, len(lambda_grid))
    return float(lambda_grid[lam0_index]), float(lambda_grid[lam1_index]), float(flat[k])


def _mode_alphas(mode: str, alpha_grid) -> list[float]:
    """The fusion weights a mode searches: 1 for acc, 0 for ang, the grid for fused."""
    if mode in ("acc", "ang"):
        return [1.0 if mode == "acc" else 0.0]
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    return [float(alpha) for alpha in np.asarray(alpha_grid, dtype=float)]


def _calibrate(problems: list[list[_SitePrep]], mode_alphas: dict[str, list[float]],
               lambda_grid) -> list[dict[str, tuple[float, float, float, float]]]:
    """Per problem, each mode's calibrated (alpha, lambda0, lambda1, c).

    One sweep scores the planes of the union of the modes' weights. Within a
    plane the last maximum wins (`_best_cell`: the larger lambda1, then the
    larger lambda0, so fewer alarms); over a mode's weights, the first.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0 or not all(mode_alphas.values()):
        raise ValueError("empty calibration grid")
    alphas = sorted({alpha for grid in mode_alphas.values() for alpha in grid})
    results = []
    for planes in _sweep(problems, alphas, lambda_grid):
        cells = {alpha: _best_cell(plane, lambda_grid) for alpha, plane in zip(alphas, planes)}
        best = {}
        for mode, grid in mode_alphas.items():
            alpha = max(grid, key=lambda a: cells[a][2])  # the first maximum
            best[mode] = (alpha, *cells[alpha])
        results.append(best)
    return results


@dataclass
class ModeResult:
    """Cross-validation outcome for one (sensor, alpha-mode) pair."""

    score: float
    optimal_score: float
    lambda0: float
    lambda1: float
    alpha: float
    fold_scores: list[float] = field(default_factory=list)
    fold_optimal: list[float] = field(default_factory=list)


@dataclass
class EvaluationReport:
    """Per (sensor site, alpha-mode) cross-validation scores and parameters."""

    entries: dict[tuple[SensorSite, str], ModeResult] = field(default_factory=dict)


def learn_sensor_models(climbs: list[LabeledClimb], mode: str = "fused",
                        alpha_grid=None, lambda_grid=None,
                        sites=None) -> tuple[dict[SensorSite, SensorModel], dict[SensorSite, float]]:
    """Fit models and calibrate thresholds/alpha on all given climbs."""
    if sites is None:
        sites = [s for s in ALL_SITES if all(s in c.channels for c in climbs)]
    mode_alphas = {mode: _mode_alphas(mode, alpha_grid)}
    sensor_models: dict[SensorSite, SensorModel] = {}
    scores: dict[SensorSite, float] = {}
    for site in sites:
        models = fit_models(climbs, site)
        alpha, lam0, lam1, c = _calibrate(
            [_prepare(climbs, site, models)], mode_alphas, lambda_grid)[0][mode]
        sensor_models[site] = SensorModel(
            acc=models[0], ang=models[1],
            config=DetectionConfig(lambda0=lam0, lambda1=lam1, alpha=alpha))
        scores[site] = c
    return sensor_models, scores


def cross_validate(climbs: list[LabeledClimb], alpha_grid=None, lambda_grid=None,
                   sites=None) -> EvaluationReport:
    """Leave-one-climb-out evaluation for every sensor and alpha mode.

    For each held-out climb the models and parameters are learned on the
    remaining climbs and scored on the held-out one; the per-fold optimal
    score repeats the learning on the held-out climb itself, bounding what
    the detector could achieve. Reported parameters come from a final fit on
    all climbs.
    """
    if len(climbs) < 2:
        raise ValueError("cross-validation needs at least 2 climbs")
    if sites is None:
        sites = [s for s in ALL_SITES if all(s in c.channels for c in climbs)]
    mode_alphas = {mode: _mode_alphas(mode, alpha_grid) for mode in ALPHA_MODES}
    # each fold, and the full refit, is as many lanes as there are climbs;
    # at most _SWEEP_LANES lanes are swept together (one fold or refit at least)
    units = list(range(len(climbs))) + [None]
    per_sweep = max(1, _SWEEP_LANES // len(climbs))
    report = EvaluationReport()
    for site in sites:
        fold_scores = {mode: [] for mode in ALPHA_MODES}
        fold_optimal = {mode: [] for mode in ALPHA_MODES}
        for first in range(0, len(units), per_sweep):
            problems, held_preps = [], []
            for held_idx in units[first:first + per_sweep]:
                if held_idx is None:  # the full refit
                    problems.append(_prepare(climbs, site, fit_models(climbs, site)))
                    continue
                held = climbs[held_idx]
                train = [c for i, c in enumerate(climbs) if i != held_idx]
                train_models = fit_models(train, site)
                problems.append(_prepare(train, site, train_models))
                problems.append(_prepare([held], site, fit_models([held], site)))
                held_preps.append(_prepare([held], site, train_models))
            best = _calibrate(problems, mode_alphas, lambda_grid)
            for fold, held_prep_train in enumerate(held_preps):
                for mode in ALPHA_MODES:
                    alpha, lam0, lam1, _ = best[2 * fold][mode]
                    fold_scores[mode].append(
                        _pooled_score(held_prep_train, alpha, lam0, lam1))
                    fold_optimal[mode].append(best[2 * fold + 1][mode][3])
        for mode in ALPHA_MODES:
            # the full refit is the last problem of the last group
            alpha, lam0, lam1, _ = best[-1][mode]
            report.entries[(site, mode)] = ModeResult(
                score=float(np.mean(fold_scores[mode])),
                optimal_score=float(np.mean(fold_optimal[mode])),
                lambda0=lam0, lambda1=lam1, alpha=alpha,
                fold_scores=fold_scores[mode],
                fold_optimal=fold_optimal[mode])
    return report
