"""Model fitting, threshold calibration and cross-validation, from signal norms.

Per-sensor Gamma hypothesis models are fitted on the concatenated annotated
signals; detection thresholds and the fusion weight are then grid-searched
against the performance coefficient c = TP/P - FP/N (twice the ROC distance
to the chance diagonal). The entry points are `learn_sensor_models` (fit and
calibrate on all climbs) and `cross_validate` (leave-one-climb-out). Both map
a per-site body over the sites of the climbs, which every climb must have,
through `_map_sites`. Each site is calibrated by one `_calibrate` of a flat
list of problems, each a list of climbs with its fitted models: the site's
climbs in `learn_sensor_models`; in `cross_validate` every fold's training
and held-out climbs, then the full refit. `_calibrate` scores every (alpha,
lambda0, lambda1) cell of a problem in one CUSUM sweep whose lanes are its
climbs, consecutive problems sharing a sweep of at most `_SWEEP_LANES`
lanes. The sweep runs the drawup rule of `cusum._run_cusum` a block of
`_BLOCK` samples at a time: every cell is screened once per block, and only
the cells that detect in it step through it sample by sample.
`cross_validate` scores each held-out climb with the fold's `SensorModel`
through `cusum.detect`, whose back-dated states `climbdetect detect` and
`classify` use too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cusum import (BinaryStateSeries, DetectionConfig, SensorModel, detect,
                    log_likelihood_ratio)
from .errors import DegenerateTruth, MissingState, TooFewSamples
from .gamma_model import MIN_FIT_SAMPLES, HypothesisModel, fit_mle
from .parallel import fork_map
from .series import (ALL_SITES, H0, H1, AnnotationTrack, SensorSite,
                     SignalSeries, rasterize_track)

ALPHA_MODES = ("acc", "ang", "fused")

# The default calibration grid, also the CLI's: log-spaced thresholds on each
# lambda axis, and alpha from 0 to 1 in steps.
DEFAULT_GRID_POINTS = 20
DEFAULT_GRID_MIN = 0.1
DEFAULT_GRID_MAX = 1000.0
DEFAULT_ALPHA_STEP = 0.1


@dataclass
class SensorChannels:
    """The two detection inputs for one sensor: acceleration and angular-velocity norms."""

    acc: SignalSeries
    ang: SignalSeries


@dataclass
class LabeledClimb:
    """One climb's per-sensor signal norms with synchronized annotations, and
    no raw recording: `simulator.SimulatedClimb` adds the simulator's."""

    climb_id: str
    channels: dict[SensorSite, SensorChannels]
    annotations: dict[SensorSite, AnnotationTrack] = field(default_factory=dict)


def default_lambda_grid(n: int = DEFAULT_GRID_POINTS, low: float = DEFAULT_GRID_MIN,
                        high: float = DEFAULT_GRID_MAX) -> np.ndarray:
    """Log-spaced threshold candidates, used for both lambda axes."""
    return np.geomspace(low, high, n)


def default_alpha_grid(step: float = DEFAULT_ALPHA_STEP) -> np.ndarray:
    return np.round(np.arange(0.0, 1.0 + step / 2, step), 10)


def _sites(climbs: list[LabeledClimb]) -> list[SensorSite]:
    """The sites of the climbs, in `ALL_SITES` order; every climb must have each."""
    sites = [s for s in ALL_SITES if any(s in c.channels for c in climbs)]
    for climb in climbs:
        for site in sites:
            if site not in climb.channels:
                raise MissingState(f"no signals for site {site.value} in climb {climb.climb_id}")
    return sites


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
            if len(selected) < MIN_FIT_SAMPLES:
                raise MissingState(
                    f"state H{state} has {len(selected)} samples at {site.value}; need "
                    f"{MIN_FIT_SAMPLES}, pooled over {', '.join(c.climb_id for c in climbs)}")
            params.append(fit_mle(selected))
        models.append(HypothesisModel(h0=params[0], h1=params[1]))
    return models[0], models[1]


def performance_coefficient(pred: BinaryStateSeries, truth) -> float:
    """c = TP/P - FP/N in [-1, 1], with H1 as the positive class, of the
    states against the label array ``truth`` on their grid."""
    truth = np.asarray(truth).astype(bool)
    if len(truth) != len(pred.states):
        raise ValueError("prediction and truth must share the sample grid")
    predicted = pred.states.astype(bool)
    p = int(np.count_nonzero(truth))
    n = len(truth) - p
    if p == 0 or n == 0:
        raise DegenerateTruth("truth must contain both states")
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted & ~truth))
    return tp / p - fp / n


@dataclass
class _SitePrep:
    """Per-climb precomputations reused across grid cells."""

    l_acc: np.ndarray
    l_ang: np.ndarray
    truth: np.ndarray


def _prepare(climbs: list[LabeledClimb], site: SensorSite,
             models: tuple[HypothesisModel, HypothesisModel]) -> list[_SitePrep]:
    acc_model, ang_model = models
    return [_SitePrep(l_acc=log_likelihood_ratio(climb.channels[site].acc.values, acc_model),
                      l_ang=log_likelihood_ratio(climb.channels[site].ang.values, ang_model),
                      truth=_state_labels(climb, site)) for climb in climbs]


# Samples per block of the calibration sweep: the sums of every row are built
# a block at a time, so that the sweep holds O(cells) memory, and every cell
# is screened once per block
_BLOCK = 64

# Lanes that `_calibrate` sweeps together at most, unless one problem alone
# has more. The folds and full refit of `cross_validate` are n^2 + n lanes
# for n climbs; swept in groups, its peak memory grows linearly in n, not
# with n^2.
_SWEEP_LANES = 16


def _sweep(problems: list[list[_SitePrep]], alphas, lambda_grid: np.ndarray) -> np.ndarray:
    """c of every (problem, alpha, lambda1, lambda0) cell, as an array indexed in that order.

    A problem is the list of climbs one plane is pooled over: each cell holds
    c of the climbs' back-dated `cusum.detect` passes pooled. A lane is one
    (problem, climb) pair and a row one (lane, alpha) pair, whose cells share
    the never-restarted sum C of the row's fused increments. Every cell runs
    the rule of `cusum._run_cusum`, on C in H0 and on -C in H1, a block of
    `_BLOCK` samples at a time (`_Cells.advance`). Past its climb's end a
    lane gets zero increments, which never fire and never lower a running
    minimum.
    """
    alphas = np.asarray(alphas, dtype=float)
    size = len(lambda_grid)
    per_lane = len(alphas) * size * size
    lanes = [(k, item) for k, prep in enumerate(problems) for item in prep]
    lengths = [len(item.truth) for _, item in lanes]
    # lane j's truth prefix sums, from 0 at sample 0, start at truth_at[j]
    truth_at = np.cumsum([0] + lengths[:-1]) + np.arange(len(lanes))
    truth_sums = np.zeros(sum(lengths) + len(lanes), np.int32)
    for at, length, (_, item) in zip(truth_at, lengths, lanes):
        np.cumsum(item.truth.astype(bool), dtype=np.int32,
                  out=truth_sums[at + 1:at + 1 + length])
    positives = [int(truth_sums[at + length]) for at, length in zip(truth_at, lengths)]
    p, n = [0] * len(problems), [0] * len(problems)
    for (k, _), total, positive in zip(lanes, lengths, positives):
        p[k] += positive
        n[k] += total - positive
    if any(pk == 0 or nk == 0 for pk, nk in zip(p, n)):
        raise DegenerateTruth("truth must contain both states")
    cells = _Cells(lambda_grid, truth_sums, np.repeat(truth_at, len(alphas)))
    carry = np.zeros(len(lanes) * len(alphas))
    for start in range(1, max(lengths), _BLOCK):
        block = _block_sums(lanes, lengths, alphas, start, carry)
        carry = block[-1, ::2].copy()
        cells.advance(block, start)
    # a cell still in H1 at the end of its climb closes its segment there;
    # then each problem's lanes are pooled
    in_h1 = cells.in_h1.reshape(len(lanes), per_lane)
    tp = cells.tp.reshape(len(lanes), per_lane)
    predicted_h1 = cells.predicted_h1.reshape(len(lanes), per_lane)
    problem_tp = np.zeros((len(problems), per_lane))
    problem_h1 = np.zeros((len(problems), per_lane))
    for j, (k, _) in enumerate(lanes):
        problem_tp[k] += tp[j] + in_h1[j] * positives[j]
        problem_h1[k] += predicted_h1[j] + in_h1[j] * lengths[j]
    p_col = np.asarray(p, dtype=float)[:, None]
    n_col = np.asarray(n, dtype=float)[:, None]
    c = problem_tp / p_col - (problem_h1 - problem_tp) / n_col
    return c.reshape(len(problems), len(alphas), size, size)


def _block_sums(lanes, lengths, alphas, start, carry) -> np.ndarray:
    """The sums C of every row at samples start, start + 1, ..., next to -C.

    Row i - start, column 2 * r holds C[i] of row r = (lane, alpha): the
    carried sum plus the increments alpha * l_acc + (1 - alpha) * l_ang up
    to sample i. Column 2 * r + 1 holds -C[i]. The increments take the same
    operations as `cusum.fused_increments`, and cumsum adds them in the order
    of `cusum._run_cusum`, so every sum is bit-identical to that pass.
    """
    stop = min(start + _BLOCK, max(lengths))
    inc = np.zeros((stop - start + 1, len(lanes), len(alphas)))
    inc[0] = carry.reshape(len(lanes), len(alphas))
    for j, (_, item) in enumerate(lanes):
        if lengths[j] > start:
            steps = slice(start, min(stop, lengths[j]))
            inc[1:steps.stop - start + 1, j] = (alphas * item.l_acc[steps, None]
                                                + (1.0 - alphas) * item.l_ang[steps, None])
    sums = np.cumsum(inc.reshape(len(inc), -1), axis=0)[1:]
    block = np.empty((len(sums), sums.shape[1], 2))
    block[:, :, 0] = sums
    np.negative(sums, out=block[:, :, 1])
    return block.reshape(len(sums), -1)


class _Cells:
    """The detector state of every cell of a sweep, in (row, lambda1 * lambda0) arrays.

    `e` is the running minimum of the cell's sum (C in H0, -C in H1) since
    its last detection and `i_min` the first sample of it. The back-dated
    H1 segments are [o1, o2), [o3, o4), ... for the onsets
    o1 <= o2 <= ..., so each detection adds +-(truth prefix sum at its
    onset) to `tp` and +-onset to `predicted_h1`.
    """

    def __init__(self, lambda_grid, truth_sums, truth_at):
        """`truth_sums[truth_at[r]:]` are the truth prefix sums of row r."""
        size = len(lambda_grid)
        shape = (len(truth_at), size * size)
        self.lam1 = np.repeat(lambda_grid, size)  # the H0 threshold, by column
        self.lam0 = np.tile(lambda_grid, size)    # the H1 threshold
        self.in_h1 = np.zeros(shape, bool)
        self.e = np.zeros(shape)
        self.i_min = np.zeros(shape, np.int32)
        self.tp = np.zeros(shape, np.int32)
        self.predicted_h1 = np.zeros(shape, np.int32)
        self.truth_sums, self.truth_at = truth_sums, truth_at

    def advance(self, block, start):
        """Advance every cell through `block`, whose row i is sample start + i."""
        firing = self._screen(block, start)
        if firing.size:
            # at most half the cells step at a time, so that their stepping
            # state stays smaller than the state of all cells
            for part in np.array_split(firing, -(-2 * firing.size // self.e.size)):
                self._step(block, start, part)

    def _pick(self, out, stat):
        """out = the statistic of each cell's block column: stat[row, in_h1]."""
        np.copyto(out, stat[:, :1])
        np.copyto(out, stat[:, 1:], where=self.in_h1)
        return out

    def _exceeds(self, values, out):
        """out = values above the threshold of each cell's state."""
        np.greater(values, self.lam1, out=out)
        np.greater(values, self.lam0, out=out, where=self.in_h1)
        return out

    def _screen(self, block, start):
        """The flat indices of the cells that detect in `block`; every other
        cell is advanced through it.

        A cell's first detection in the block is at the first sample that
        rises more than its threshold above the smaller of `e` and the
        block's running minimum before it. As fl(a - m) is monotone in a and
        in m, a cell fires in the block exactly when the block maximum minus
        `e`, or the largest rise within the block, exceeds its threshold. A
        cell that does not fire only takes the block minimum, and its first
        sample, when it lies below `e`.
        """
        shape = (len(self.e), 2)  # a row's C column, then its -C column
        # per column, NaN ignored: a sum that turns NaN stays NaN and never fires
        top = np.fmax.reduce(block, axis=0).reshape(shape)
        rise = np.fmin.accumulate(block, axis=0)
        rise = np.fmax.reduce(np.subtract(block, rise, out=rise), axis=0).reshape(shape)
        bottom = np.fmin.reduce(block, axis=0)
        bottom_at = (start + (block == bottom).argmax(axis=0)).reshape(shape)
        # allocated per block, so that they are freed before the firing cells step
        values = np.empty(self.e.shape)
        fire, lower = np.empty(self.e.shape, bool), np.empty(self.e.shape, bool)
        np.subtract(self._pick(values, top), self.e, out=values)
        self._exceeds(values, fire)
        np.logical_or(fire, self._exceeds(self._pick(values, rise), lower), out=fire)
        firing = np.flatnonzero(fire)
        np.less(self._pick(values, bottom.reshape(shape)), self.e, out=lower)
        np.logical_and(lower, np.logical_not(fire, out=fire), out=lower)
        np.copyto(self.e, values, where=lower)
        np.copyto(self.i_min, bottom_at[:, :1], where=lower)
        np.copyto(self.i_min, bottom_at[:, 1:], where=np.logical_and(lower, self.in_h1, out=fire))
        return firing

    def _step(self, block, start, firing):
        """Step the cells at the flat indices `firing` through the block
        sample by sample, in the rule of `cusum._run_cusum`."""
        e, i_min = self.e.ravel()[firing], self.i_min.ravel()[firing]
        h1 = self.in_h1.ravel()[firing]
        # the thresholds of the cell's state and of the other; "wrap" takes
        # the entry of the cell's position in its row
        lam, other = self.lam1.take(firing, mode="wrap"), self.lam0.take(firing, mode="wrap")
        lam[h1], other[h1] = other[h1], lam[h1]
        column = firing // self.lam1.size  # the cell's block column
        column *= 2
        column += h1
        rise, below, fired = np.empty(len(e)), np.empty(len(e), bool), np.empty(len(e), bool)
        # detections not yet booked: at most about one per two cells
        hits, onsets, columns, unbooked = [], [], [], 0
        for i, block_i in enumerate(block, start):
            v = block_i.take(column)
            np.subtract(v, e, out=rise)
            np.less(v, e, out=below)
            np.fmin(e, v, out=e)
            np.putmask(i_min, below, i)
            np.greater(rise, lam, out=fired)
            hit = fired.nonzero()[0]
            if hit.size:
                hits.append(hit)
                onsets.append(i_min[hit])
                columns.append(column[hit])
                column[hit] = flipped = columns[-1] ^ 1
                e[hit] = block_i.take(flipped)  # -v, the new state's sum
                i_min[hit] = i
                lam_hit = lam[hit]
                lam[hit] = other[hit]
                other[hit] = lam_hit
                unbooked += hit.size
                if 2 * unbooked >= self.e.size:
                    self._book(firing, hits, onsets, columns)
                    unbooked = 0
        self.e.ravel()[firing] = e
        self.i_min.ravel()[firing] = i_min
        self.in_h1.ravel()[firing] = column & 1
        if hits:
            self._book(firing, hits, onsets, columns)

    def _book(self, firing, hits, onsets, columns):
        """Add detections to `tp` and `predicted_h1`, and empty the lists:
        per detection, the position of its cell in `firing`, its onset and
        its cell's block column before it."""
        hit = firing[np.concatenate(hits)]
        onset = np.concatenate(onsets)
        # entering H1 (from an even column) opens a segment at its onset,
        # leaving H1 closes one
        sign = 2 * (np.concatenate(columns) & 1).astype(np.int32) - 1
        del hits[:], onsets[:], columns[:]
        np.add.at(self.predicted_h1.ravel(), hit, sign * onset)
        at = self.truth_at[hit // self.lam1.size]
        at += onset
        np.add.at(self.tp.ravel(), hit, sign * self.truth_sums[at])


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
    return [float(alpha) for alpha in np.asarray(alpha_grid, dtype=float)]


def _calibrate(site: SensorSite, problems, mode_alphas: dict[str, list[float]],
               lambda_grid) -> list[dict[str, tuple[DetectionConfig, float]]]:
    """Per problem, each mode's calibrated `DetectionConfig` and its c, in input order.

    A problem is a (climbs, (acc model, ang model)) pair, calibrated at
    `site`. Consecutive problems are swept together, at most `_SWEEP_LANES`
    lanes at a time (a larger problem alone), and each group's likelihood
    ratios live only for its sweep, so that the peak memory of many problems
    is that of one group. A sweep scores the planes of the union of the
    modes' weights. Within a plane of the sorted grid the last maximum wins
    (`_best_cell`: the larger lambda1, then the larger lambda0, so fewer
    alarms); over a mode's weights, the first.
    """
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    if lambda_grid.size == 0 or not all(mode_alphas.values()):
        raise ValueError("empty calibration grid")
    alphas = sorted({alpha for grid in mode_alphas.values() for alpha in grid})
    groups, lanes = [], 0
    for climbs, models in problems:
        if not groups or lanes + len(climbs) > _SWEEP_LANES:
            groups.append([])
            lanes = 0
        groups[-1].append((climbs, models))
        lanes += len(climbs)
    results = []
    for group in groups:
        for planes in _sweep([_prepare(climbs, site, models) for climbs, models in group],
                             alphas, lambda_grid):
            cells = {alpha: _best_cell(plane, lambda_grid) for alpha, plane in zip(alphas, planes)}
            best = {}
            for mode, grid in mode_alphas.items():
                alpha = max(grid, key=lambda a: cells[a][2])  # the first maximum
                lambda0, lambda1, c = cells[alpha]
                best[mode] = DetectionConfig(lambda0=lambda0, lambda1=lambda1, alpha=alpha), c
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


def _map_sites(fn, climbs: list[LabeledClimb], *args) -> dict:
    """fn(climbs, site, *args) by site, at every site of the climbs; the sites
    are shared among the CPUs by `fork_map`, each weighed by its samples."""
    sites = _sites(climbs)
    return dict(zip(sites, fork_map(
        fn, [(climbs, site, *args) for site in sites],
        [sum(len(climb.channels[site].acc) for climb in climbs) for site in sites])))


def learn_sensor_models(climbs: list[LabeledClimb], mode: str = "fused", *, alpha_grid,
                        lambda_grid) -> tuple[dict[SensorSite, SensorModel],
                                                   dict[SensorSite, float]]:
    """Fit models and calibrate thresholds/alpha at every site of the climbs."""
    learnt = _map_sites(_learn_site, climbs, mode, {mode: _mode_alphas(mode, alpha_grid)},
                        lambda_grid)
    return ({site: model for site, (model, _) in learnt.items()},
            {site: score for site, (_, score) in learnt.items()})


def _learn_site(climbs, site, mode, mode_alphas, lambda_grid) -> tuple[SensorModel, float]:
    acc, ang = models = fit_models(climbs, site)
    config, score = _calibrate(site, [(climbs, models)], mode_alphas, lambda_grid)[0][mode]
    return SensorModel(acc=acc, ang=ang, config=config), score


def cross_validate(climbs: list[LabeledClimb], alpha_grid,
                   lambda_grid) -> dict[tuple[SensorSite, str], ModeResult]:
    """Leave-one-climb-out `ModeResult` for every site of the climbs and alpha mode.

    For each held-out climb the models and parameters are learned on the
    remaining climbs, and the held-out climb is scored with that
    `SensorModel` as `classify` runs it; the per-fold optimal score repeats
    the learning on the held-out climb itself, bounding what the detector
    could achieve. Reported parameters come from a final fit on all climbs.
    """
    if len(climbs) < 2:
        raise TooFewSamples(f"cross-validation needs at least 2 climbs, got {len(climbs)}")
    mode_alphas = {mode: _mode_alphas(mode, alpha_grid) for mode in ALPHA_MODES}
    evaluated = _map_sites(_cross_validate_site, climbs, mode_alphas, lambda_grid)
    return {(site, mode): result for site, entries in evaluated.items()
            for mode, result in entries.items()}


def _cross_validate_site(climbs, site, mode_alphas, lambda_grid) -> dict[str, ModeResult]:
    """Each mode's `ModeResult` at one site, from one `_calibrate` of the
    problems train_0, held_0, ..., train_n-1, held_n-1 and the full refit."""
    problems = []
    for fold, held in enumerate(climbs):
        train = climbs[:fold] + climbs[fold + 1:]
        problems += [(train, fit_models(train, site)), ([held], fit_models([held], site))]
    problems.append((climbs, fit_models(climbs, site)))
    best = _calibrate(site, problems, mode_alphas, lambda_grid)
    fold_scores = {mode: [] for mode in ALPHA_MODES}
    # zip stops at the last fold, before the full refit
    for held, (_, (acc, ang)), configs in zip(climbs, problems[0::2], best[0::2]):
        ch = held.channels[site]
        truth = _state_labels(held, site)
        for mode in ALPHA_MODES:
            model = SensorModel(acc=acc, ang=ang, config=configs[mode][0])
            pred = detect(ch.acc, ch.ang, model)
            fold_scores[mode].append(performance_coefficient(pred, truth))
    entries = {}
    for mode in ALPHA_MODES:
        fold_optimal = [optimum[mode][1] for optimum in best[1::2]]
        config, _ = best[-1][mode]
        entries[mode] = ModeResult(
            score=float(np.mean(fold_scores[mode])),
            optimal_score=float(np.mean(fold_optimal)),
            lambda0=config.lambda0, lambda1=config.lambda1, alpha=config.alpha,
            fold_scores=fold_scores[mode], fold_optimal=fold_optimal)
    return entries
