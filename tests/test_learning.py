import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_oracle import pooled_score

from climbdetect import learning
from climbdetect.cusum import (BinaryStateSeries, detect, detect_from_increments,
                               relabel_segments)
from climbdetect.errors import DegenerateTruth, MissingState
from climbdetect.gamma_model import GammaParams, HypothesisModel, fit_mle
from climbdetect.learning import (ALPHA_MODES, LabeledClimb, SensorChannels,
                                  _best_cell, _calibrate, _prepare, _SitePrep,
                                  _sweep, _SWEEP_LANES, cross_validate,
                                  default_alpha_grid, default_lambda_grid,
                                  fit_models, learn_sensor_models,
                                  performance_coefficient)
from climbdetect.series import (H0, H1, AnnotationTrack, SensorSite,
                                SignalSeries, rasterize_track)
from climbdetect.simulator import default_models, random_plan, simulate

SITE = SensorSite.LEFT_FOOT


def make_climbs(n=3, duration=60.0, seed=0):
    return [simulate(random_plan(duration, np.random.default_rng(seed + 10 * i)),
                     seed=seed + i, climb_id=f"c{i}") for i in range(n)]


def pred_series(states):
    return BinaryStateSeries(0.0, 0.01, np.asarray(states, np.uint8), [], [])


def calibrate(climbs, grid, mode="fused", alphas=None):
    """The (alpha, lambda0, lambda1, c) that `learn_sensor_models` calibrates at SITE."""
    models, scores = learn_sensor_models(climbs, mode=mode, alpha_grid=alphas,
                                         lambda_grid=grid, sites=[SITE])
    config = models[SITE].config
    return config.alpha, config.lambda0, config.lambda1, scores[SITE]


class TestRasterization:
    def test_sample_takes_containing_interval(self):
        track = AnnotationTrack(site=SITE, intervals=[(0.0, 1.0, H0), (1.0, 2.0, H1)])
        labels = rasterize_track(track, 0.0, 0.25, 8)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0, 1, 1, 1])

    def test_boundary_takes_earlier_interval(self):
        track = AnnotationTrack(site=SITE, intervals=[(0.0, 1.0, H0), (1.0, 2.0, H1)])
        # the sample exactly at t = 1.0 belongs to the earlier interval
        assert rasterize_track(track, 1.0, 0.5, 1)[0] == H0

    def test_idempotent_and_duration_preserving(self):
        track = AnnotationTrack(site=SITE,
                                intervals=[(0.0, 0.5, H1), (0.5, 1.7, H0),
                                           (1.7, 3.0, H1)])
        dt = 0.01
        labels = rasterize_track(track, 0.0, dt, 300)
        h1_duration = labels.sum() * dt
        true_h1 = 0.5 + 1.3
        assert abs(h1_duration - true_h1) <= dt + 1e-9


class TestFitModels:
    def test_degenerate_annotation_raises(self):
        climb = make_climbs(1)[0]
        climb.annotations[SITE] = AnnotationTrack(
            site=SITE, intervals=[(0.0, 60.0, H0)])
        with pytest.raises(MissingState):
            fit_models([climb], SITE)

    def test_recovers_generator_parameters(self):
        climbs = make_climbs(3, duration=120.0, seed=5)
        acc_model, ang_model = fit_models(climbs, SITE)
        truth_acc, truth_ang = default_models()[SITE]
        for fitted, truth in ((acc_model, truth_acc), (ang_model, truth_ang)):
            for state in ("h0", "h1"):
                f, t = getattr(fitted, state), getattr(truth, state)
                assert f.k == pytest.approx(t.k, rel=0.1)
                assert f.theta == pytest.approx(t.theta, rel=0.1)

    def test_pooling_equals_manual_concatenation(self):
        climbs = make_climbs(2, seed=9)
        acc_model, _ = fit_models(climbs, SITE)
        values = np.concatenate([c.channels[SITE].acc.values for c in climbs])
        labels = np.concatenate([
            rasterize_track(c.annotations[SITE], 0.0, 0.01,
                            len(c.channels[SITE].acc)) for c in climbs])
        manual_h0 = fit_mle(values[labels == H0])
        assert acc_model.h0.k == pytest.approx(manual_h0.k, abs=1e-12)
        assert acc_model.h0.theta == pytest.approx(manual_h0.theta, abs=1e-12)


class TestPerformanceCoefficient:
    def test_perfect_prediction(self):
        truth = np.array([0, 0, 1, 1, 0, 1], np.uint8)
        assert performance_coefficient(pred_series(truth), truth) == 1.0

    def test_constant_predictions_score_zero(self):
        truth = np.array([0, 1, 0, 1], np.uint8)
        assert performance_coefficient(pred_series(np.ones(4)), truth) == 0.0
        assert performance_coefficient(pred_series(np.zeros(4)), truth) == 0.0

    def test_swap_identity(self):
        # TP/P - FP/N equals TN/N - FN/P
        rng = np.random.default_rng(17)
        for _ in range(50):
            truth = rng.integers(0, 2, 200).astype(np.uint8)
            if truth.sum() in (0, 200):
                continue
            pred = rng.integers(0, 2, 200).astype(np.uint8)
            tp = np.sum((pred == 1) & (truth == 1))
            fp = np.sum((pred == 1) & (truth == 0))
            fn = np.sum((pred == 0) & (truth == 1))
            tn = np.sum((pred == 0) & (truth == 0))
            p, n = tp + fn, fp + tn
            c = performance_coefficient(pred_series(pred), truth)
            assert c == pytest.approx(tp / p - fp / n, abs=1e-12)
            assert c == pytest.approx(tn / n - fn / p, abs=1e-12)

    def test_degenerate_truth(self):
        with pytest.raises(DegenerateTruth):
            performance_coefficient(pred_series([0, 1, 0]), np.zeros(3, np.uint8))

    def test_accepts_annotation_track(self):
        track = AnnotationTrack(site=SITE, intervals=[(0.0, 0.02, H0), (0.02, 0.06, H1)])
        # sample at the 0.02 boundary takes the earlier (H0) label
        pred = pred_series([0, 0, 0, 1, 1])
        assert performance_coefficient(pred, track) == 1.0


class TestOptimization:
    def setup_method(self):
        self.climbs = make_climbs(2, seed=21)
        # the models `learn_sensor_models` fits on the same climbs
        self.models = fit_models(self.climbs, SITE)

    def test_single_point_grid(self):
        alpha, lam0, lam1, c = calibrate(self.climbs, [12.0], alphas=[1.0])
        assert (alpha, lam0, lam1) == (1.0, 12.0, 12.0)
        assert -1.0 <= c <= 1.0

    def test_matches_brute_force_over_grid(self):
        grid = np.array([2.0, 10.0, 50.0])
        _, lam0, lam1, c = calibrate(self.climbs, grid, alphas=[0.5])
        # exhaustive re-evaluation of every cell, independent of the search order
        prep = _prepare(self.climbs, SITE, self.models)
        all_cells = [pooled_score(prep, 0.5, float(g0), float(g1))
                     for g1 in grid for g0 in grid]
        assert c == max(all_cells)
        assert pooled_score(prep, 0.5, lam0, lam1) == c

    def test_result_is_grid_member_and_deterministic(self):
        grid = default_lambda_grid(5, 1.0, 100.0)
        first = calibrate(self.climbs, grid, alphas=[0.7])
        second = calibrate(self.climbs, grid, alphas=[0.7])
        assert first == second
        assert first[1] in grid and first[2] in grid

    def test_good_fit_scores_high(self):
        grid = default_lambda_grid(8, 1.0, 200.0)
        assert calibrate(self.climbs, grid, alphas=[0.0])[3] >= 0.9

    def test_alpha_singleton_reduces_to_thresholds(self):
        grid = np.array([5.0, 20.0])
        alpha, lam0, lam1, c = calibrate(self.climbs, grid, alphas=[0.0])
        assert alpha == 0.0
        plane = _sweep([_prepare(self.climbs, SITE, self.models)], [0.0], grid)[0][0]
        assert (lam0, lam1, c) == _best_cell(plane, grid)
        assert (alpha, lam0, lam1, c) == calibrate(self.climbs, grid, mode="ang")

    def test_alpha_search_dominates_extremes(self):
        grid = np.array([2.0, 10.0, 50.0])
        c_best = calibrate(self.climbs, grid, alphas=[0.0, 0.5, 1.0])[3]
        c0 = calibrate(self.climbs, grid, mode="ang")[3]
        c1 = calibrate(self.climbs, grid, mode="acc")[3]
        assert c_best >= max(c0, c1)

    def test_uninformative_acceleration_pushes_alpha_down(self):
        # flat acceleration models, informative angular channel
        flat = HypothesisModel(h0=GammaParams(2.0, 0.5), h1=GammaParams(2.0, 0.5))
        models = {SITE: (flat, default_models()[SITE][1])}
        climbs = [simulate(random_plan(90.0, np.random.default_rng(33 + i)),
                           models={s: models.get(s, default_models()[s])
                                   for s in default_models()},
                           seed=40 + i, climb_id=f"f{i}") for i in range(2)]
        alpha, _, _, _ = calibrate(climbs, default_lambda_grid(8, 1, 200),
                                   alphas=default_alpha_grid())
        assert alpha <= 0.2


def exact_prep(increments, truth):
    """One climb whose increments are exact binary fractions at alpha 0, 0.5 and 1."""
    inc = np.asarray(increments, dtype=float)
    return _SitePrep(l_acc=inc, l_ang=inc, truth=np.asarray(truth, np.uint8))


class TestSweep:
    """The one-pass sweep against `pooled_score`, the per-cell detector."""

    def assert_matches_oracle(self, prep, alphas, grid):
        grid = np.asarray(grid, dtype=float)
        planes = _sweep([prep], alphas, grid)[0]
        assert planes.shape == (len(alphas), len(grid), len(grid))
        for alpha, plane in zip(alphas, planes):
            for lam1, row in zip(grid, plane):
                for lam0, c in zip(grid, row):
                    assert c == pooled_score(prep, alpha, float(lam0), float(lam1)), \
                        (alpha, lam0, lam1)
        return planes

    def assert_lanes_match(self, problems, alphas, grid):
        """Every problem's planes, swept with the others as lanes of one pass,
        equal its planes swept alone."""
        grid = np.asarray(grid, dtype=float)
        planes = _sweep(problems, alphas, grid)
        assert planes.shape == (len(problems), len(alphas), len(grid), len(grid))
        for prep, plane in zip(problems, planes):
            assert np.array_equal(plane, _sweep([prep], alphas, grid)[0])
        return planes

    def test_unequal_pooled_climbs(self):
        climbs = [simulate(random_plan(duration, np.random.default_rng(seed)),
                           seed=seed, climb_id=f"u{seed}")
                  for seed, duration in ((31, 20.0), (32, 13.0))]
        prep = _prepare(climbs, SITE, fit_models(climbs, SITE))
        assert len(prep[0].truth) != len(prep[1].truth)
        self.assert_matches_oracle(prep, [0.0, 0.35, 1.0],
                                   default_lambda_grid(6, 0.1, 300.0))

    def test_ties_follow_the_strict_rule(self):
        # at lambda = 2 the first climb's sum touches lambda1 (sample 2) and the
        # second's falls to exactly lambda0 below its maximum (sample 2): under
        # the strict rule neither fires. The third climb's running minimum is
        # tied at samples 1-3, so its onset is sample 1, the first of the tie.
        prep = [exact_prep([0, 1, 1, -1, -1, -1, -1, -1], [1, 1, 0, 0, 0, 0, 0, 0]),
                exact_prep([0, 3, -2, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1]),
                exact_prep([0, -1, 0, 0, 3, 0, -3, 0], [0, 1, 1, 1, 1, 0, 0, 0])]
        self.assert_matches_oracle(prep, [0.0, 0.5, 1.0], [1.0, 2.0, 4.0])

    def test_one_point_grid(self):
        climbs = make_climbs(2, duration=20.0, seed=41)
        prep = _prepare(climbs, SITE, fit_models(climbs, SITE))
        self.assert_matches_oracle(prep, [0.3], [12.0])

    def test_plateau_picks_the_last_maximum(self):
        # increments far above the thresholds below 10 detect each change at
        # its first sample, so all those cells score the same c
        truth = np.repeat([0, 1, 0, 1, 0], 20)
        prep = [exact_prep(np.where(truth == 1, 10.0, -10.0), truth)]
        grid = np.array([1.0, 2.0, 3.0, 1000.0])
        plane = self.assert_matches_oracle(prep, [1.0], grid)[0]
        assert plane[:3, :3].min() == plane.max()
        assert plane[3].max() < plane.max() and plane[:, 3].max() < plane.max()
        assert _best_cell(plane, grid) == (3.0, 3.0, plane.max())

    def test_default_grid_memory_is_per_cell(self):
        climb = make_climbs(1, duration=60.0, seed=7)[0]
        assert len(climb.channels[SITE].acc) == 6000
        models = fit_models([climb], SITE)
        tracemalloc.start()
        try:
            _calibrate([_prepare([climb], SITE, models)],
                       {"fused": list(default_alpha_grid())}, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (cells x samples) float64 matrix would take 4,400 * 6,000 * 8 B = 211 MB
        assert peak < 20e6

    def test_memory_does_not_grow_with_the_climb(self):
        # the sums are built a block at a time; of the climb's length, the
        # sweep holds only the truth prefix sums, 4 B per sample
        def peak(duration):
            climb = make_climbs(1, duration=duration, seed=7)[0]
            prep = _prepare([climb], SITE, fit_models([climb], SITE))
            tracemalloc.start()
            try:
                _sweep([prep], default_alpha_grid(), default_lambda_grid())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(30.0), peak(120.0)
        assert max(short, long) <= 1.1 * min(short, long)

    def test_problems_of_unequal_lanes(self):
        climbs = [simulate(random_plan(duration, np.random.default_rng(seed)),
                           seed=seed, climb_id=f"u{seed}")
                  for seed, duration in ((34, 13.0), (35, 20.0), (36, 16.0))]
        models = fit_models(climbs, SITE)
        problems = [_prepare(climbs[:2], SITE, models), _prepare(climbs[2:], SITE, models),
                    _prepare(climbs[::-1], SITE, fit_models(climbs[1:], SITE))]
        assert len({len(item.truth) for item in problems[0] + problems[1]}) == 3
        alphas, grid = [0.0, 0.35, 1.0], default_lambda_grid(5, 0.1, 300.0)
        planes = self.assert_lanes_match(problems, alphas, grid)
        for prep, plane in zip(problems, planes):
            for alpha, alpha_plane in zip(alphas, plane):
                for lam1, row in zip(grid, alpha_plane):
                    for lam0, c in zip(grid, row):
                        assert c == pooled_score(prep, alpha, float(lam0), float(lam1))

    @settings(max_examples=150, deadline=None)
    @given(problems=st.lists(st.lists(
        st.integers(2, 14).flatmap(lambda size: st.tuples(
            st.lists(st.integers(-3, 3), min_size=size, max_size=size),
            st.lists(st.integers(-3, 3), min_size=size, max_size=size),
            st.lists(st.integers(0, 1), min_size=size, max_size=size))),
        min_size=1, max_size=3), min_size=1, max_size=4),
        grid=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    def test_integer_lanes_tie_as_the_oracle(self, problems, grid):
        # integer sums tie exactly with each other and with the thresholds,
        # within a lane and across lanes
        problems = [[_SitePrep(l_acc=np.asarray(acc, float), l_ang=np.asarray(ang, float),
                               truth=np.asarray(truth, np.uint8))
                     for acc, ang, truth in prep] for prep in problems]
        for prep in problems:  # both states in every problem
            prep[0].truth[:2] = (0, 1)
        alphas, grid = [0.0, 0.5, 1.0], np.asarray(sorted(grid), float)
        planes = self.assert_lanes_match(problems, alphas, grid)
        for prep, plane in zip(problems, planes):
            for alpha, alpha_plane in zip(alphas, plane):
                for lam1, row in zip(grid, alpha_plane):
                    for lam0, c in zip(grid, row):
                        assert c == pooled_score(prep, alpha, float(lam0), float(lam1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lane_matches_its_own_sweep(self, bad):
        inc = np.array([0, 1, -2, 3, -1, 2, -3, 1, 1, -1], float)
        truth = [0, 0, 1, 1, 1, 0, 0, 1, 1, 0]
        spoiled = inc.copy()
        spoiled[4] = bad
        problems = [[exact_prep(inc[:7], truth[:7]), exact_prep(spoiled, truth)],
                    [exact_prep(inc, truth)], [exact_prep(spoiled[::-1], truth)]]
        with np.errstate(invalid="ignore"):  # alpha 0 times an infinite increment
            self.assert_lanes_match(problems, [0.0, 0.5, 1.0], [1.0, 2.0, 4.0])

    def test_cross_validation_memory_is_per_cell(self):
        climbs = make_climbs(3, duration=60.0, seed=60)
        tracemalloc.start()
        try:
            cross_validate(climbs, sites=[SITE])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 12 lanes (6 training, 3 held-out, 3 full-refit climbs) x 4,400 cells
        assert peak < 20e6

    def test_cross_validation_memory_is_linear_in_the_climbs(self):
        # n climbs make n^2 + n lanes: 20 for 4 climbs, 110 for 10. Swept at
        # once, 10 climbs would peak about five times as high as 4; the peak
        # may grow at most linearly, so less than 2.5-fold
        base = make_climbs(3, duration=15.0, seed=60)

        def peak(n):
            climbs = [LabeledClimb(f"c{i}", base[i % 3].channels, base[i % 3].annotations)
                      for i in range(n)]
            tracemalloc.start()
            try:
                cross_validate(climbs, alpha_grid=[0.0, 0.5, 1.0],
                               lambda_grid=default_lambda_grid(5, 1, 200), sites=[SITE])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10) < 2.5 * peak(4)


class TestSweepBlocks:
    """The sweep's planes do not depend on its block size."""

    BLOCKS = (1, 2, 7, 64)

    def assert_blocks_match_oracle(self, monkeypatch, problems, alphas, grid):
        grid = np.asarray(grid, dtype=float)
        by_block = []
        for block in self.BLOCKS:
            monkeypatch.setattr(learning, "_BLOCK", block)
            by_block.append(_sweep(problems, alphas, grid))
        for planes in by_block[1:]:
            assert np.array_equal(planes, by_block[0])
        for prep, plane in zip(problems, by_block[0]):
            for alpha, alpha_plane in zip(alphas, plane):
                for lam1, row in zip(grid, alpha_plane):
                    for lam0, c in zip(grid, row):
                        assert c == pooled_score(prep, alpha, float(lam0), float(lam1))

    def test_simulated_lanes_ending_mid_block(self, monkeypatch):
        climbs = [simulate(random_plan(duration, np.random.default_rng(seed)),
                           seed=seed, climb_id=f"b{seed}")
                  for seed, duration in ((51, 13.0), (52, 9.5), (53, 7.3))]
        models = fit_models(climbs, SITE)
        problems = [_prepare(climbs, SITE, models), _prepare(climbs[1:], SITE, models)]
        # every lane ends inside a block of each size above 1
        assert all((len(item.truth) - 1) % block for item in problems[0] for block in (2, 7, 64))
        self.assert_blocks_match_oracle(monkeypatch, problems, [0.0, 0.35, 1.0],
                                        default_lambda_grid(5, 0.1, 300.0))

    def test_integer_detections_at_block_edges(self, monkeypatch):
        # at lambda 2 every step of +-3 detects: at samples 8 and 14, the first
        # and last of the second 7-sample block, at 65 and 128, the first and
        # last of the second 64-sample block, and five times in samples 30-34
        steps = {8: 3, 14: -3, 30: 3, 31: -3, 32: 3, 33: -3, 34: 3, 65: -3, 128: 3}
        inc = np.zeros(140)
        inc[list(steps)] = list(steps.values())
        assert [i for i, _ in detect_from_increments(inc, 2.0, 2.0).change_points] == list(steps)
        truth = np.zeros(140, np.uint8)
        truth[8:14] = truth[30:70] = 1
        noise = np.random.default_rng(3).integers(-3, 4, 150)
        problems = [[exact_prep(inc, truth)],
                    [exact_prep(noise, np.arange(150) % 40 < 15),
                     exact_prep(inc[:100], truth[:100])]]
        self.assert_blocks_match_oracle(monkeypatch, problems, [0.0, 0.5, 1.0], [1.0, 2.0, 4.0])


class TestCrossValidation:
    def test_identical_climbs_match_optimal(self):
        base = make_climbs(1, duration=60.0, seed=50)[0]
        copies = [LabeledClimb(f"copy{i}", base.channels, base.annotations)
                  for i in range(3)]
        report = cross_validate(copies, alpha_grid=[0.0, 1.0],
                                lambda_grid=default_lambda_grid(5, 1, 100),
                                sites=[SITE])
        result = report.entries[(SITE, "ang")]
        assert result.score == pytest.approx(result.optimal_score, abs=0.02)

    def test_scores_and_bounds(self):
        climbs = make_climbs(3, duration=60.0, seed=60)
        report = cross_validate(climbs, alpha_grid=[0.0, 0.5, 1.0],
                                lambda_grid=default_lambda_grid(5, 1, 200),
                                sites=[SITE])
        for mode in ("acc", "ang", "fused"):
            result = report.entries[(SITE, mode)]
            assert -1.0 <= result.score <= 1.0
            assert abs(result.score - result.optimal_score) < 0.1
            for fold_score, fold_opt in zip(result.fold_scores, result.fold_optimal):
                assert fold_opt >= fold_score - 0.02

    def test_modes_share_one_sweep_with_the_full_refit(self):
        climbs = make_climbs(3, duration=30.0, seed=80)
        grid = default_lambda_grid(4, 0.1, 3.0)
        alpha_grid = [0.0, 0.3, 0.6, 0.9]  # no 1.0: acc needs a plane of its own
        report = cross_validate(climbs, alpha_grid=alpha_grid, lambda_grid=grid,
                                sites=[SITE])
        for mode in ALPHA_MODES:
            result = report.entries[(SITE, mode)]
            expected = calibrate(climbs, grid, mode, alpha_grid)
            assert (result.alpha, result.lambda0, result.lambda1) == expected[:3]
        # fused settles inside its grid, so no mode can pass with another's plane
        assert len({report.entries[(SITE, m)].alpha for m in ALPHA_MODES}) == 3

    def test_folds_swept_in_groups_score_as_alone(self):
        # 5 climbs make 30 lanes, more than one sweep takes: folds 0-2 are
        # swept together, then folds 3-4 with the full refit
        climbs = make_climbs(5, duration=15.0, seed=60)
        assert 5 * 6 > _SWEEP_LANES >= 3 * 5
        alpha_grid, grid = [0.0, 0.5, 1.0], default_lambda_grid(4, 0.1, 3.0)
        report = cross_validate(climbs, alpha_grid=alpha_grid, lambda_grid=grid,
                                sites=[SITE])
        for mode in ALPHA_MODES:
            result = report.entries[(SITE, mode)]
            for fold, held in enumerate(climbs):
                train = climbs[:fold] + climbs[fold + 1:]
                alpha, lam0, lam1, _ = calibrate(train, grid, mode, alpha_grid)
                assert result.fold_scores[fold] == pooled_score(
                    _prepare([held], SITE, fit_models(train, SITE)), alpha, lam0, lam1)
                assert result.fold_optimal[fold] == calibrate([held], grid, mode,
                                                              alpha_grid)[3]
            expected = calibrate(climbs, grid, mode, alpha_grid)
            assert (result.alpha, result.lambda0, result.lambda1) == expected[:3]

    def test_requires_two_climbs(self):
        with pytest.raises(ValueError):
            cross_validate(make_climbs(1))

    def test_missing_state_is_the_first_fold_fit_to_lack_one(self):
        climbs = make_climbs(3, duration=30.0, seed=60)
        # fold 0 pools climbs 1 and 2, so only fold 1's held-out fit lacks H1
        climbs[1].annotations[SITE] = AnnotationTrack(site=SITE, intervals=[(0.0, 30.0, H0)])
        climbs[2].annotations[SITE] = AnnotationTrack(site=SITE, intervals=[(0.0, 30.0, H1)])
        with pytest.raises(MissingState) as expected:
            fit_models([climbs[1]], SITE)
        with pytest.raises(MissingState) as raised:
            cross_validate(climbs, alpha_grid=[0.0, 1.0], lambda_grid=[1.0, 10.0],
                           sites=[SITE])
        assert str(raised.value) == str(expected.value)
        assert "state H1 has 0 samples" in str(raised.value)


def test_learn_sensor_models_roundtrip_scoring():
    climbs = make_climbs(2, duration=60.0, seed=70)
    models, scores = learn_sensor_models(
        climbs, mode="ang", lambda_grid=default_lambda_grid(5, 1, 200),
        sites=[SITE])
    assert scores[SITE] >= 0.9
    held = make_climbs(1, duration=60.0, seed=99)[0]
    channels = held.channels[SITE]
    c = performance_coefficient(
        relabel_segments(detect(channels.acc, channels.ang, models[SITE])),
        held.annotations[SITE])
    assert c >= 0.8
