import itertools
import math

import numpy as np
import pytest

from climbdetect import classifier
from climbdetect.classifier import (ActivityTimeline, FullBodyState,
                                    LimbSubState, classify, episodes,
                                    exploration_report, full_body_state,
                                    suppress_short_episodes)
from climbdetect.cusum import BinaryStateSeries
from climbdetect.errors import LengthMismatch
from climbdetect.series import LIMBS, SensorSite


def limb_substates(limb, full_body) -> np.ndarray:
    """The sub-state track `classify` gives ``limb`` beside the ``full_body`` states
    of equal length: `classifier._limb_substates` over its traction runs."""
    limb = np.asarray(limb, dtype=np.uint8)
    full_body = np.asarray(full_body, dtype=np.uint8)
    return classifier._limb_substates(limb, *classifier._traction(full_body))


def naive_substates(limb, full_body):
    """Brute-force sub-state labeler: scan episodes and traction onsets directly."""
    limb = np.asarray(limb)
    full_body = np.asarray(full_body)
    n = len(limb)
    eps = []
    i = 0
    while i < n:
        if limb[i]:
            j = i
            while j < n and limb[j]:
                j += 1
            eps.append((i, j))
            i = j
        else:
            i += 1
    labels = {}
    for ep in eps:
        if any(full_body[k] == FullBodyState.TRACTION for k in range(*ep)):
            labels[ep] = LimbSubState.USE
    onsets = [k for k in range(n)
              if full_body[k] == FullBodyState.TRACTION
              and (k == 0 or full_body[k - 1] != FullBodyState.TRACTION)]
    for onset in onsets:
        candidates = [ep for ep in eps
                      if labels.get(ep) != LimbSubState.USE and ep[1] <= onset]
        if candidates:
            labels[max(candidates, key=lambda ep: ep[1])] = LimbSubState.CHANGE
    out = np.full(n, LimbSubState.IMMOBILITY, dtype=np.uint8)
    for ep in eps:
        out[ep[0]:ep[1]] = labels.get(ep, LimbSubState.EXPLORATION)
    return out


def dwelling_runs(rng, n, mean, values):
    """``n`` samples in runs of exponential dwells with the given mean, each
    run a value drawn from ``values``."""
    out = np.empty(n, np.uint8)
    start = 0
    while start < n:
        end = start + 1 + int(rng.exponential(mean))
        out[start:end] = rng.choice(values)
        start = end
    return out


class TestFullBodyState:
    def test_paper_cases(self):
        # one sample per case; only the first limb ever moves
        limbs = [np.array([0, 0, 1, 1]), np.zeros(4), np.zeros(4), np.zeros(4)]
        got = full_body_state(limbs, np.array([0, 1, 0, 1]))
        assert got.tolist() == [FullBodyState.IMMOBILITY, FullBodyState.POSTURAL_REGULATION,
                                FullBodyState.HOLD_INTERACTION, FullBodyState.TRACTION]

    def test_exhaustive_partition(self):
        combos = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        got = full_body_state(list(combos[:, :4].T), combos[:, 4])
        assert got.shape == (32,) and got.dtype == np.uint8
        counts = {state: int(np.count_nonzero(got == state)) for state in FullBodyState}
        assert counts[FullBodyState.IMMOBILITY] == 1
        assert counts[FullBodyState.POSTURAL_REGULATION] == 1
        assert counts[FullBodyState.HOLD_INTERACTION] == 15
        assert counts[FullBodyState.TRACTION] == 15


class TestLimbSubstates:
    def test_all_immobile(self):
        out = limb_substates(np.zeros(50), np.zeros(50))
        assert np.all(out == LimbSubState.IMMOBILITY)

    def test_three_episode_example(self):
        # E1 and E2 precede a traction block, E3 lies inside it:
        # E1 -> Exploration, E2 -> Change, E3 -> Use
        limb = np.zeros(100, np.uint8)
        limb[10:20] = 1   # E1
        limb[30:40] = 1   # E2
        limb[60:70] = 1   # E3
        full_body = np.full(100, FullBodyState.HOLD_INTERACTION, np.uint8)
        full_body[50:80] = FullBodyState.TRACTION
        out = limb_substates(limb, full_body)
        assert np.all(out[10:20] == LimbSubState.EXPLORATION)
        assert np.all(out[30:40] == LimbSubState.CHANGE)
        assert np.all(out[60:70] == LimbSubState.USE)
        assert np.all(out[limb == 0] == LimbSubState.IMMOBILITY)

    def test_episode_after_final_traction_is_exploration(self):
        limb = np.zeros(60, np.uint8)
        limb[50:55] = 1
        full_body = np.zeros(60, np.uint8)
        full_body[20:30] = FullBodyState.TRACTION
        out = limb_substates(limb, full_body)
        assert np.all(out[50:55] == LimbSubState.EXPLORATION)

    def test_onset_without_preceding_episode_has_no_change(self):
        limb = np.zeros(40, np.uint8)
        limb[30:35] = 1
        full_body = np.zeros(40, np.uint8)
        full_body[5:10] = FullBodyState.TRACTION
        out = limb_substates(limb, full_body)
        assert not np.any(out == LimbSubState.CHANGE)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 1000
        limb = (rng.random(n) < 0.4).astype(np.uint8)
        full_body = rng.integers(0, 4, n).astype(np.uint8)
        inputs = [(limb, full_body)]
        # i.i.d. samples make runs of 1-3 samples; detections dwell for many,
        # so runs with exponential dwells of several means follow
        for limb_mean, body_mean in itertools.product((3, 20, 100), repeat=2):
            inputs.append((dwelling_runs(rng, n, limb_mean, [0, 1]),
                           dwelling_runs(rng, n, body_mean, list(FullBodyState))))
        for limb, full_body in inputs:
            got = limb_substates(limb, full_body)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, naive_substates(limb, full_body))

    @pytest.mark.parametrize("limb_runs, traction_runs, expected", [
        # traction from sample 0: the episode inside it is Use, the onset has
        # no Change, and the free episode before the second onset is its Change
        ([(0, 5), (12, 15)], [(0, 10), (20, 25)], {(0, 5): "USE", (12, 15): "CHANGE"}),
        # a free episode ending exactly at an onset is its Change; one sample
        # longer, it would overlap the traction and be Use
        ([(10, 20)], [(20, 30)], {(10, 20): "CHANGE"}),
        ([(10, 21)], [(20, 30)], {(10, 21): "USE"}),
        # onsets with no free episode before them: none at all, or only Use
        ([(30, 35)], [(5, 10), (15, 20)], {(30, 35): "EXPLORATION"}),
        ([(6, 8), (30, 35)], [(5, 10), (15, 20)], {(6, 8): "USE", (30, 35): "EXPLORATION"}),
        # two onsets with no episode between them share one Change
        ([(1, 3), (5, 6)], [(10, 12), (14, 16)], {(1, 3): "EXPLORATION", (5, 6): "CHANGE"}),
    ])
    def test_edge_cases_match_bruteforce_oracle(self, limb_runs, traction_runs, expected):
        n = 40
        limb = np.zeros(n, np.uint8)
        for start, end in limb_runs:
            limb[start:end] = 1
        full_body = np.full(n, FullBodyState.HOLD_INTERACTION, np.uint8)
        for start, end in traction_runs:
            full_body[start:end] = FullBodyState.TRACTION
        got = limb_substates(limb, full_body)
        np.testing.assert_array_equal(got, naive_substates(limb, full_body))
        for (start, end), name in expected.items():
            assert np.all(got[start:end] == LimbSubState[name]), (start, end)

    def test_every_sample_labeled(self):
        rng = np.random.default_rng(123)
        limb = (rng.random(500) < 0.5).astype(np.uint8)
        full_body = rng.integers(0, 4, 500).astype(np.uint8)
        out = limb_substates(limb, full_body)
        assert np.all(out[limb == 0] == LimbSubState.IMMOBILITY)
        assert np.all(np.isin(out[limb == 1],
                              [LimbSubState.USE, LimbSubState.CHANGE,
                               LimbSubState.EXPLORATION]))

    def test_at_most_one_change_per_onset(self):
        rng = np.random.default_rng(7)
        limb = (rng.random(800) < 0.4).astype(np.uint8)
        full_body = rng.integers(0, 4, 800).astype(np.uint8)
        out = limb_substates(limb, full_body)
        n_onsets = int(np.sum((full_body == FullBodyState.TRACTION)
                              & ~np.concatenate([[False],
                                                 full_body[:-1] == FullBodyState.TRACTION])))
        n_change = len(episodes((out == LimbSubState.CHANGE).astype(np.uint8)))
        assert n_change <= n_onsets


class TestClassify:
    def binary(self, states, dt=0.01):
        return BinaryStateSeries(0.0, dt, np.asarray(states, np.uint8), [], [])

    def detections(self, limb_states, pelvis_states):
        out = {site: self.binary(states)
               for site, states in zip(LIMBS, limb_states)}
        out[SensorSite.PELVIS] = self.binary(pelvis_states)
        return out

    def test_all_immobile(self):
        zeros = np.zeros(100)
        timeline = classify(self.detections([zeros] * 4, zeros))
        assert np.all(timeline.full_body == FullBodyState.IMMOBILITY)
        for track in timeline.limb_substates.values():
            assert np.all(track == LimbSubState.IMMOBILITY)

    def test_scripted_plan_passthrough(self):
        # feed ground-truth detections; the timeline must match the script
        n = 600
        limb1 = np.zeros(n)
        limb1[100:200] = 1   # with pelvis moving: traction
        limb1[300:400] = 1   # pelvis still: hold interaction
        pelvis = np.zeros(n)
        pelvis[100:200] = 1
        pelvis[450:500] = 1  # alone: postural regulation
        timeline = classify(self.detections(
            [limb1, np.zeros(n), np.zeros(n), np.zeros(n)], pelvis))
        assert np.all(timeline.full_body[100:200] == FullBodyState.TRACTION)
        assert np.all(timeline.full_body[300:400] == FullBodyState.HOLD_INTERACTION)
        assert np.all(timeline.full_body[450:500] == FullBodyState.POSTURAL_REGULATION)
        assert np.all(timeline.full_body[:100] == FullBodyState.IMMOBILITY)
        rh = timeline.limb_substates[SensorSite.RIGHT_HAND]
        assert np.all(rh[100:200] == LimbSubState.USE)

    def test_short_episodes_filtered(self):
        n = 200
        limb = np.zeros(n)
        limb[50:55] = 1  # 5 samples < 10-sample minimum
        limb[100:150] = 1
        timeline = classify(self.detections(
            [limb, np.zeros(n), np.zeros(n), np.zeros(n)], np.zeros(n)),
            min_episode_duration=0.1)
        rh = timeline.limb_substates[SensorSite.RIGHT_HAND]
        assert np.all(rh[50:55] == LimbSubState.IMMOBILITY)
        assert np.all(rh[100:150] != LimbSubState.IMMOBILITY)

    @pytest.mark.parametrize("seed", range(5))
    def test_traction_runs_found_once(self, seed, monkeypatch):
        # the four limbs share one traction mask and its onsets, and each
        # limb's track is still `limb_substates` of its states
        rng = np.random.default_rng(seed)
        limbs = [dwelling_runs(rng, 2000, 40.0, [0, 1]) for _ in LIMBS]
        pelvis = dwelling_runs(rng, 2000, 40.0, [0, 1])
        calls = []
        traction = classifier._traction
        monkeypatch.setattr(classifier, "_traction",
                            lambda full_body: calls.append(1) or traction(full_body))
        timeline = classify(self.detections(limbs, pelvis), min_episode_duration=0.0)
        assert len(calls) == 1
        for site, states in zip(LIMBS, limbs):
            np.testing.assert_array_equal(timeline.limb_substates[site],
                                          limb_substates(states, timeline.full_body))

    def test_missing_limb_raises(self):
        zeros = np.zeros(10)
        detections = {SensorSite.PELVIS: self.binary(zeros),
                      SensorSite.LEFT_HAND: self.binary(zeros)}
        with pytest.raises(LengthMismatch):
            classify(detections)

    def test_missing_sites_are_named_before_alignment(self):
        # without the pelvis there is no grid to align to: every missing
        # site is named, not a KeyError raised
        detections = {SensorSite.LEFT_HAND: self.binary(np.zeros(10))}
        with pytest.raises(LengthMismatch) as raised:
            classify(detections)
        assert str(raised.value) == "missing detections: ['rh', 'rf', 'lf', 'pelvis']"

    @pytest.mark.parametrize("t0, n, spans", [
        (0.0, 90, "rh spans 0.000 to 0.890 s"), (0.1, 90, "rh spans 0.100 to 0.990 s"),
        (0.0, 102, "rh spans 0.000 to 1.010 s"), (-0.02, 100, "rh spans -0.020 to 0.970 s")])
    def test_sites_must_cover_one_span(self, t0, n, spans):
        # a limb that starts or ends more than a sample period from the pelvis
        # is refused, not clipped onto the pelvis grid
        detections = self.detections([np.zeros(100)] * 4, np.zeros(100))
        detections[SensorSite.RIGHT_HAND] = BinaryStateSeries(
            t0, 0.01, np.zeros(n, np.uint8), [], [])
        with pytest.raises(LengthMismatch) as raised:
            classify(detections)
        assert str(raised.value) == f"{spans}, the pelvis 0.000 to 0.990 s"

    @pytest.mark.parametrize("t0, n", [(0.01, 99), (0.0, 101), (-0.01, 102)])
    def test_spans_within_a_sample_period_are_one(self, t0, n):
        detections = self.detections([np.zeros(100)] * 4, np.zeros(100))
        detections[SensorSite.RIGHT_HAND] = BinaryStateSeries(
            t0, 0.01, np.zeros(n, np.uint8), [], [])
        assert len(classify(detections).full_body) == 100

    def test_nearest_sample_alignment(self):
        # limb sampled at half the pelvis rate still aligns
        pelvis = self.binary(np.zeros(100), dt=0.01)
        limb = np.zeros(50)
        limb[20:40] = 1
        dets = {site: self.binary(np.zeros(50), dt=0.02) for site in LIMBS}
        dets[LIMBS[0]] = BinaryStateSeries(0.0, 0.02, limb.astype(np.uint8), [], [])
        dets[SensorSite.PELVIS] = pelvis
        timeline = classify(dets, min_episode_duration=0.0)
        assert np.all(timeline.full_body[41:79] == FullBodyState.HOLD_INTERACTION)


class TestExplorationReport:
    def timeline(self, tracks):
        n = len(next(iter(tracks.values())))
        return ActivityTimeline(0.0, 0.01, np.zeros(n, np.uint8),
                                limb_substates=tracks)

    def test_all_immobility(self):
        track = np.zeros(100, np.uint8)
        report = exploration_report(self.timeline({site: track.copy()
                                                   for site in LIMBS}))
        for counts in report.values():
            assert (counts.exploratory, counts.performatory) == (0, 0)
            assert math.isnan(counts.ratio)

    def test_three_episode_counts(self):
        track = np.zeros(100, np.uint8)
        track[10:20] = LimbSubState.EXPLORATION
        track[30:40] = LimbSubState.CHANGE
        track[60:70] = LimbSubState.USE
        report = exploration_report(self.timeline({LIMBS[0]: track}))
        counts = report[LIMBS[0]]
        assert counts.exploratory == 2
        assert counts.performatory == 1
        assert counts.ratio == 2.0

    def test_infinite_ratio_sentinel(self):
        track = np.zeros(50, np.uint8)
        track[10:20] = LimbSubState.EXPLORATION
        report = exploration_report(self.timeline({LIMBS[0]: track}))
        assert report[LIMBS[0]].ratio == math.inf

    def test_counts_survive_uniform_resampling(self):
        track = np.zeros(120, np.uint8)
        track[10:30] = LimbSubState.EXPLORATION
        track[50:70] = LimbSubState.USE
        doubled = np.repeat(track, 2)
        a = exploration_report(self.timeline({LIMBS[0]: track}))[LIMBS[0]]
        b = exploration_report(self.timeline({LIMBS[0]: doubled}))[LIMBS[0]]
        assert (a.exploratory, a.performatory) == (b.exploratory, b.performatory)


def test_suppress_short_episodes():
    states = np.array([0, 1, 1, 0, 1, 1, 1, 1, 0], np.uint8)
    out = suppress_short_episodes(states, min_samples=3)
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1, 0])
