import math

import numpy as np
import pytest
from cusum_oracle import backdated_states, naive_cusum
from hypothesis import given, settings
from hypothesis import strategies as st

from climbdetect.cusum import (DetectionConfig, SensorModel, detect,
                               detect_from_increments, fused_increments,
                               log_likelihood_ratio)
from climbdetect.errors import LengthMismatch
from climbdetect.gamma_model import GammaParams, HypothesisModel
from climbdetect.series import H0, H1, SignalSeries

WIDE = HypothesisModel(h0=GammaParams(1.0, 1.0), h1=GammaParams(1.0, 4.0))


def naive_restarted_cusum(inc, lam0, lam1):
    """The threshold inequalities on a sum restarted at 0 at every detection,
    transcribed with O(n^2) rescans, starting in H0.

    On exact (integer) sums this is the drawup rule of `naive_cusum`; they
    part only where rounding differs. Returns what `naive_cusum` does.
    """
    n = len(inc)
    change_points = []
    onsets = []
    state = H0
    seg_values = [0.0]  # S at the segment origin
    s = 0.0
    seg_start = 0
    for i in range(1, n):
        s += inc[i]
        if state == H0 and s > min(seg_values) + lam1:
            change_points.append((i, H1))
            onsets.append(seg_start + seg_values.index(min(seg_values)))
            state, s, seg_values, seg_start = H1, 0.0, [0.0], i
            continue
        if state == H1 and s < max(seg_values) - lam0:
            change_points.append((i, H0))
            onsets.append(seg_start + seg_values.index(max(seg_values)))
            state, s, seg_values, seg_start = H0, 0.0, [0.0], i
            continue
        seg_values.append(s)
    return backdated_states(n, change_points, onsets), change_points, onsets


def make_model(alpha=1.0, lam0=10.0, lam1=10.0):
    return SensorModel(acc=WIDE, ang=WIDE,
                       config=DetectionConfig(lambda0=lam0, lambda1=lam1, alpha=alpha))


def series(values):
    return SignalSeries(0.0, 0.01, np.asarray(values, dtype=float))


class TestLogLikelihoodRatio:
    def test_identical_hypotheses_give_zero(self):
        m = HypothesisModel(h0=GammaParams(2.0, 1.0), h1=GammaParams(2.0, 1.0))
        for x in (0.0, 0.5, 3.0, 50.0):
            assert log_likelihood_ratio(x, m) == 0.0

    def test_hand_value(self):
        # (-ln4 - 2) - (-8)
        assert log_likelihood_ratio(8.0, WIDE) == pytest.approx(
            -math.log(4.0) - 2.0 + 8.0, abs=1e-12)

    def test_sign_flips_at_density_crossover(self):
        x_star = 4.0 * math.log(4.0) / 3.0  # equal densities for the two scales
        assert x_star == pytest.approx(1.8484, abs=1e-4)
        assert log_likelihood_ratio(x_star - 1e-6, WIDE) < 0
        assert log_likelihood_ratio(x_star + 1e-6, WIDE) > 0


class TestDetect:
    def test_zero_increments_keep_initial_state(self):
        m = SensorModel(acc=HypothesisModel(WIDE.h0, WIDE.h0),
                        ang=HypothesisModel(WIDE.h0, WIDE.h0),
                        config=DetectionConfig(5.0, 5.0, 0.5))
        x = series(np.linspace(0.1, 3.0, 200))
        out = detect(x, x, m)
        assert out.change_points == []
        assert np.all(out.states == H0)

    def test_worked_constant_example(self):
        x = series(np.full(10, 8.0))
        out = detect(x, x, make_model(alpha=1.0, lam1=10.0))
        assert out.change_points == [(3, H1)]
        increment = log_likelihood_ratio(8.0, WIDE)
        assert 3 * increment == pytest.approx(13.841, abs=1e-3)
        assert list(out.states) == [1] * 10

    def test_alpha_extremes_reduce_to_single_channel(self):
        rng = np.random.default_rng(0)
        acc = series(rng.gamma(2.0, 1.0, 500))
        ang = series(rng.gamma(1.0, 0.5, 500))
        for alpha, channel in ((0.0, ang), (1.0, acc)):
            fused = detect(acc, ang, make_model(alpha=alpha, lam0=4.0, lam1=4.0))
            single = detect(channel, channel, make_model(alpha=1.0 if alpha else 0.0,
                                                         lam0=4.0, lam1=4.0))
            assert fused.change_points == single.change_points
            np.testing.assert_array_equal(fused.states, single.states)

    @pytest.mark.parametrize("lam", [0.5, 4.0, 20.0])
    def test_no_acceleration_at_alpha_zero(self, lam):
        # alpha = 0 gives l_acc no weight: without it, the same states,
        # change points and onsets, timed by ang
        rng = np.random.default_rng(5)
        scale = np.repeat([1.0, 4.0, 1.0, 4.0], 200)  # WIDE's H0, H1, H0, H1
        acc = SignalSeries(3.0, 0.01, rng.gamma(2.0, 1.0, 800))
        ang = SignalSeries(3.0, 0.01, rng.gamma(1.0, scale))
        m = make_model(alpha=0.0, lam0=lam, lam1=lam)
        given, absent = detect(acc, ang, m), detect(None, ang, m)
        assert absent.change_points and absent.change_points == given.change_points
        assert absent.onsets == given.onsets
        np.testing.assert_array_equal(absent.states, given.states)
        assert (absent.t0, absent.dt) == (ang.t0, ang.dt)

    @pytest.mark.parametrize("alpha", [1e-12, 0.5, 1.0])
    def test_no_acceleration_needs_alpha_zero(self, alpha):
        x = series(np.ones(10))
        for run in (fused_increments, detect):
            with pytest.raises(ValueError, match="acceleration"):
                run(None, x, make_model(alpha=alpha))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            detect(series(np.ones(5)), series(np.ones(6)), make_model())

    def test_determinism(self):
        rng = np.random.default_rng(4)
        acc = series(rng.gamma(2.0, 1.0, 1000))
        ang = series(rng.gamma(2.0, 0.6, 1000))
        m = make_model(alpha=0.4, lam0=3.0, lam1=5.0)
        first = detect(acc, ang, m)
        second = detect(acc, ang, m)
        np.testing.assert_array_equal(first.states, second.states)
        assert first.change_points == second.change_points
        assert first.onsets == second.onsets


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_transcription(self, seed):
        rng = np.random.default_rng(seed)
        inc = rng.normal(0.0, 2.0, 3000) + np.where(
            (np.arange(3000) // 250) % 2, 1.5, -1.5)
        lam0 = float(rng.uniform(2.0, 30.0))
        lam1 = float(rng.uniform(2.0, 30.0))
        out = detect_from_increments(inc, lam0, lam1)
        ref_states, ref_cps, ref_onsets = naive_cusum(inc, lam0, lam1)
        assert out.change_points == ref_cps
        assert out.onsets == ref_onsets
        np.testing.assert_array_equal(out.states, ref_states)

    @settings(max_examples=500, deadline=None)
    @given(inc=st.lists(st.integers(-3, 3), max_size=120),
           lam0=st.integers(1, 6), lam1=st.integers(1, 6))
    def test_matches_naive_transcription_at_exact_ties(self, inc, lam0, lam1):
        # integer sums hit the thresholds and tie their running extrema exactly
        inc = np.asarray(inc, dtype=float)
        out = detect_from_increments(inc, float(lam0), float(lam1))
        ref_states, ref_cps, ref_onsets = naive_cusum(inc, lam0, lam1)
        np.testing.assert_array_equal(out.states, ref_states)
        assert out.change_points == ref_cps
        assert out.onsets == ref_onsets
        # exact sums: the restarted-sum rule decides the same
        restarted_states, restarted_cps, restarted_onsets = naive_restarted_cusum(inc, lam0, lam1)
        np.testing.assert_array_equal(restarted_states, ref_states)
        assert restarted_cps == ref_cps
        assert restarted_onsets == ref_onsets

    def test_rounding_follows_the_drawup(self):
        # C = 0, -2.1, -1.6, -0.9000000000000001, -1.3000000000000003: in H1
        # from sample 3, fl(C[3] - C[4]) = 0.40000000000000013 exceeds lambda0,
        # so the drawup fires at sample 4, while a sum restarted at sample 3
        # reaches -0.4, exactly lambda0 below its maximum, and does not
        inc = np.array([0.0, -2.1, 0.5, 0.7, -0.4, 0.3])
        out = detect_from_increments(inc, 0.4, 0.5)
        assert out.change_points == [(3, H1), (4, H0)]
        assert naive_cusum(inc, 0.4, 0.5)[1] == out.change_points
        assert naive_restarted_cusum(inc, 0.4, 0.5)[1] == [(3, H1)]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            inc = rng.normal(0.5, 3.0, 2000)
            lam1 = float(rng.uniform(1.0, 20.0))
            counts = []
            for factor in (1.0, 2.0):
                out = detect_from_increments(inc, 5.0, lam1 * factor)
                counts.append(sum(1 for _, st in out.change_points if st == H1))
            assert counts[1] <= counts[0]


class TestRelabelSegments:
    def test_backdates_to_extremum(self):
        # worked example: detection at 3, extremum at the origin; the states
        # switch at the onset, the change point keeps the detection instant
        x = series(np.full(10, 8.0))
        out = detect(x, x, make_model())
        assert out.onsets == [0]
        assert np.all(out.states == H1)
        assert out.change_points == [(3, H1)]

    def test_block_onsets_near_truth(self):
        rng = np.random.default_rng(9)
        h0 = GammaParams(2.0, 0.05)
        h1 = GammaParams(3.0, 1.0)
        truth = (np.arange(2000) // 200) % 2
        x = np.where(truth, rng.gamma(h1.k, h1.theta, 2000),
                     rng.gamma(h0.k, h0.theta, 2000))
        m = SensorModel(acc=HypothesisModel(h0, h1), ang=HypothesisModel(h0, h1),
                        config=DetectionConfig(8.0, 8.0, 1.0))
        out = detect(series(x), series(x), m)
        true_onsets = np.flatnonzero(np.diff(truth)) + 1
        got_onsets = np.array(out.onsets)
        assert len(got_onsets) == len(true_onsets)
        assert np.all(np.abs(got_onsets - true_onsets) <= 20)


def test_running_extrema_match_naive_rescan():
    # covered indirectly by oracle equivalence; assert the bookkeeping on a
    # crafted sequence with interior extrema
    inc = np.array([0.0, 2.0, -3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    out = detect_from_increments(inc, 100.0, 4.5)
    ref_states, ref_cps, ref_onsets = naive_cusum(inc, 100.0, 4.5)
    assert out.change_points == ref_cps
    assert out.onsets == ref_onsets
    # the running minimum sits at index 2 (S = -1), so onset back-dates there
    assert out.onsets == [2]


def test_fused_increments_are_convex_combination():
    rng = np.random.default_rng(2)
    acc = series(rng.gamma(2.0, 1.0, 100))
    ang = series(rng.gamma(1.0, 0.4, 100))
    m = make_model(alpha=0.3)
    l_acc = log_likelihood_ratio(acc.values, m.acc)
    l_ang = log_likelihood_ratio(ang.values, m.ang)
    np.testing.assert_allclose(fused_increments(acc, ang, m),
                               0.3 * l_acc + 0.7 * l_ang)
