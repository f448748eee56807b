import numpy as np
import pytest

from climbdetect.cusum import DetectionConfig, SensorModel, detect
from climbdetect.errors import InvalidPlan
from climbdetect.gamma_model import GammaParams, HypothesisModel, fit_mle
from climbdetect.learning import performance_coefficient
from climbdetect.series import ALL_SITES, H0, H1, SensorSite, rasterize_track
from climbdetect.simulator import StatePlan, default_models, random_plan, simulate

RH = SensorSite.RIGHT_HAND


def single_site_plan(segs, site=RH):
    return StatePlan(segments={site: segs})


class TestStatePlan:
    def test_rejects_empty(self):
        with pytest.raises(InvalidPlan):
            StatePlan(segments={})

    def test_rejects_empty_site(self):
        with pytest.raises(InvalidPlan):
            StatePlan(segments={RH: []})

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(InvalidPlan):
            single_site_plan([(0.0, H0)])

    def test_rejects_bad_state(self):
        with pytest.raises(InvalidPlan):
            single_site_plan([(5.0, 2)])

    def test_duration(self):
        plan = single_site_plan([(5.0, H0), (3.0, H1)])
        assert plan.duration(RH) == pytest.approx(8.0)


class TestRandomPlan:
    def test_covers_duration_all_sites(self):
        plan = random_plan(60.0, np.random.default_rng(0))
        assert set(plan.segments) == set(ALL_SITES)
        for site in ALL_SITES:
            assert plan.duration(site) == pytest.approx(60.0)

    def test_alternates_states(self):
        plan = random_plan(120.0, np.random.default_rng(1))
        for segs in plan.segments.values():
            labels = [s for _, s in segs]
            assert labels[0] == H0
            assert all(x != y for x, y in zip(labels, labels[1:]))

    def test_minimum_dwell(self):
        plan = random_plan(300.0, np.random.default_rng(2))
        for segs in plan.segments.values():
            # only the final truncated segment may undercut the minimum
            assert all(d >= 1.0 - 1e-9 for d, _ in segs[:-1])
        # and draws below it are raised to it
        assert any(d == 1.0 for segs in plan.segments.values() for d, _ in segs[:-1])

    def test_seed_determinism(self):
        a = random_plan(90.0, np.random.default_rng(42))
        b = random_plan(90.0, np.random.default_rng(42))
        assert a.segments == b.segments


class TestSimulate:
    def plan(self, duration=30.0, seed=0):
        return random_plan(duration, np.random.default_rng(seed))

    @pytest.mark.parametrize("duration, rate", [(0.004, 100.0), (0.012, 100.0), (10.0, 1e-3)])
    def test_plan_of_fewer_than_two_samples_is_refused(self, duration, rate):
        with pytest.raises(InvalidPlan, match="fewer than 2"):
            simulate(single_site_plan([(duration, H0)]), sample_rate=rate, triaxial=True)

    def test_two_samples_are_enough(self):
        climb = simulate(single_site_plan([(0.02, H0)]), sample_rate=100.0, triaxial=True)
        assert len(climb.recordings[RH]) == 2

    def test_shapes_and_sites(self):
        climb = simulate(self.plan(), sample_rate=50, seed=7, climb_id="c1")
        assert climb.climb_id == "c1"
        assert set(climb.channels) == set(ALL_SITES)
        for site in ALL_SITES:
            acc, ang = climb.channels[site].acc, climb.channels[site].ang
            assert len(acc.values) == len(ang.values) == 30 * 50
            assert acc.dt == pytest.approx(0.02)
            assert np.all(acc.values > 0) and np.all(ang.values > 0)

    def test_annotations_mirror_plan(self):
        plan = self.plan()
        climb = simulate(plan, sample_rate=50, seed=7)
        for site in ALL_SITES:
            intervals = climb.annotations[site].intervals
            assert [s for _, _, s in intervals] == [s for _, s in plan.segments[site]]
            assert intervals[0][0] == 0.0
            for (_, end, _), (start, _, _) in zip(intervals, intervals[1:]):
                assert end == pytest.approx(start)
            assert intervals[-1][1] == pytest.approx(plan.duration(site))

    def test_seed_bit_identical(self):
        plan = self.plan()
        a = simulate(plan, sample_rate=50, seed=99)
        b = simulate(plan, sample_rate=50, seed=99)
        for site in ALL_SITES:
            np.testing.assert_array_equal(a.channels[site].acc.values,
                                          b.channels[site].acc.values)
            np.testing.assert_array_equal(a.channels[site].ang.values,
                                          b.channels[site].ang.values)

    def test_different_seeds_differ(self):
        plan = self.plan()
        a = simulate(plan, sample_rate=50, seed=1)
        b = simulate(plan, sample_rate=50, seed=2)
        assert not np.array_equal(a.channels[RH].acc.values,
                                  b.channels[RH].acc.values)

    def test_missing_model_raises(self):
        models = default_models()
        del models[RH]
        with pytest.raises(InvalidPlan):
            simulate(self.plan(), models, seed=0)

    def test_parameter_recovery_within_ten_percent(self):
        # long single-state stretches let MLE recover the generating params
        models = default_models()
        plan = single_site_plan([(200.0, H0), (200.0, H1)])
        climb = simulate(plan, models, sample_rate=100, seed=5)
        acc = climb.channels[RH].acc.values
        n = len(acc) // 2
        acc_model = models[RH][0]
        for samples, truth in ((acc[:n], acc_model.h0), (acc[n:], acc_model.h1)):
            fit = fit_mle(samples)
            assert fit.k == pytest.approx(truth.k, rel=0.1)
            assert fit.theta == pytest.approx(truth.theta, rel=0.1)

    def test_single_switch_detected_near_truth(self):
        models = default_models()
        plan = single_site_plan([(10.0, H0), (10.0, H1)])
        climb = simulate(plan, models, sample_rate=100, seed=11)
        ch = climb.channels[RH]
        sensor = SensorModel(models[RH][0], models[RH][1],
                             DetectionConfig(lambda0=20.0, lambda1=20.0, alpha=0.5))
        raw = detect(ch.acc, ch.ang, sensor)
        up = [(idx, onset) for (idx, s), onset
              in zip(raw.change_points, raw.onsets) if s == H1]
        assert len(up) >= 1
        assert abs(up[0][1] * ch.acc.dt - 10.0) <= 0.2

    def test_high_agreement_with_annotations(self):
        models = default_models()
        climb = simulate(self.plan(duration=60.0, seed=3), models,
                         sample_rate=50, seed=3)
        sensor = SensorModel(models[RH][0], models[RH][1],
                             DetectionConfig(lambda0=15.0, lambda1=15.0, alpha=0.5))
        ch = climb.channels[SensorSite.PELVIS]
        pred = detect(ch.acc, ch.ang, sensor)
        truth = rasterize_track(climb.annotations[SensorSite.PELVIS], pred.t0, pred.dt,
                                len(pred.states))
        c = performance_coefficient(pred, truth)
        assert c > 0.9

    @pytest.mark.parametrize("rate", [100.0, 50.0, 33.0])
    def test_emissions_follow_the_rasterized_annotations(self, rate):
        # H0 draws lie near 2e-3 and H1 draws near 400, so each sample's
        # state can be read off its value; it must be the state that
        # `rasterize_track` gives the sample, boundary samples included
        model = HypothesisModel(h0=GammaParams(2.0, 1e-3), h1=GammaParams(400.0, 1.0))
        models = {site: (model, model) for site in ALL_SITES}
        disagree = 0
        for seed in range(20):
            climb = simulate(self.plan(seed=seed), models, sample_rate=rate, seed=seed)
            for site in ALL_SITES:
                acc = climb.channels[site].acc
                labels = rasterize_track(climb.annotations[site], acc.t0, acc.dt, len(acc))
                disagree += int(np.count_nonzero((acc.values > 1.0) != (labels == H1)))
        assert disagree == 0

    def test_triaxial_recordings_norms_match_channels(self):
        climb = simulate(self.plan(duration=10.0), sample_rate=100, seed=21,
                         triaxial=True)
        for site in ALL_SITES:
            rec = climb.recordings[site]
            assert rec.accel.shape == (1000, 3)
            assert rec.gyro.shape == (1000, 3)
            # gravity removed at identity attitude leaves the drawn magnitudes
            lin = rec.accel - np.array([0.0, 0.0, 9.81])
            np.testing.assert_allclose(np.linalg.norm(lin, axis=1),
                                       climb.channels[site].acc.values, rtol=1e-9)
            np.testing.assert_allclose(np.linalg.norm(rec.gyro, axis=1),
                                       climb.channels[site].ang.values, rtol=1e-9)
