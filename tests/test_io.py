import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracles
from climbdetect import io
from climbdetect.classifier import ActivityTimeline, ExplorationReport, LimbCounts
from climbdetect.cusum import (BinaryStateSeries, DetectionConfig,
                               HypothesisModel, SensorModel)
from climbdetect.errors import (ClimbDetectError, EmptyRecording, MalformedAnnotations,
                               MalformedModel, MalformedRecording)
from climbdetect.gamma_model import GammaParams
from climbdetect.orientation import ImuRecording
from climbdetect.series import ALL_SITES, LIMBS, AnnotationTrack, SensorSite
from climbdetect.sync import TrajectorySeries


def make_recording(n=200, rate=100.0, site=SensorSite.RIGHT_HAND, mag=True):
    rng = np.random.default_rng(0)
    t = np.arange(n) / rate
    return ImuRecording(
        site=site, sample_rate=rate, t=t,
        accel=rng.normal(0, 1, (n, 3)) + [0, 0, 9.81],
        gyro=rng.normal(0, 0.5, (n, 3)),
        mag=rng.normal(0, 0.3, (n, 3)) + [0.5, 0, -0.8] if mag else None)


class TestRecordingCsv:
    def test_roundtrip(self, tmp_path):
        rec = make_recording()
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, rec)
        back = io.read_recording_csv(path)
        assert back.site == SensorSite.RIGHT_HAND
        np.testing.assert_allclose(back.t, rec.t, atol=1e-12)
        np.testing.assert_allclose(back.accel, rec.accel)
        np.testing.assert_allclose(back.gyro, rec.gyro)
        np.testing.assert_allclose(back.mag, rec.mag)

    def test_site_from_filename(self, tmp_path):
        for site in ALL_SITES:
            path = tmp_path / f"climb-03_{site.value}.csv"
            io.write_recording_csv(path, make_recording(n=10, site=site))
            assert io.read_recording_csv(path).site == site

    def test_zero_mag_treated_as_absent(self, tmp_path):
        rec = make_recording(mag=False)
        path = tmp_path / "c1_lh.csv"
        io.write_recording_csv(path, rec)
        assert io.read_recording_csv(path).mag is None

    def test_gyro_degrees_autoconverted(self, tmp_path):
        rec = make_recording()
        deg = ImuRecording(site=rec.site, sample_rate=rec.sample_rate, t=rec.t,
                           accel=rec.accel, gyro=np.rad2deg(rec.gyro),
                           mag=rec.mag)
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, deg)
        back = io.read_recording_csv(path)
        np.testing.assert_allclose(back.gyro, rec.gyro, atol=1e-10)

    def test_jittered_clock_resampled(self, tmp_path):
        rec = make_recording()
        jitter = np.random.default_rng(1).uniform(-0.002, 0.002, len(rec.t))
        jitter[0] = jitter[-1] = 0.0
        wobbly = ImuRecording(site=rec.site, sample_rate=rec.sample_rate,
                              t=rec.t + jitter, accel=rec.accel,
                              gyro=rec.gyro, mag=rec.mag)
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, wobbly)
        back = io.read_recording_csv(path)
        np.testing.assert_allclose(np.diff(back.t), np.diff(back.t)[0], atol=1e-9)

    def test_gap_flagged_with_warning(self, tmp_path):
        rec = make_recording()
        t = rec.t.copy()
        t[100:] += 0.5  # half-second dropout
        gappy = ImuRecording(site=rec.site, sample_rate=rec.sample_rate, t=t,
                             accel=rec.accel, gyro=rec.gyro, mag=rec.mag)
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, gappy)
        with pytest.warns(UserWarning, match="gap"):
            back = io.read_recording_csv(path)
        assert back.gap_indices

    @pytest.mark.parametrize("corrupt, message", [
        # line 6 of the file is lines[5]; its gz value becomes nan
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 4)[0] + ",nan,0.0,0.0,0.0"]
         + lines[6:], ":6: gz is not finite: 'nan'"),
        (lambda lines: lines[:1], "no samples"),
        (lambda lines: [lines[0].replace("gz", "gyro_z")] + lines[1:],
         "missing column(s) gz"),
        (lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:],
         ":8: 9 values, the header names 10"),
        # Python's float() reads 1_0, numpy does not: numpy's reason is kept
        (lambda lines: lines[:3] + ["1_0" + lines[3][lines[3].index(","):]] + lines[4:],
         "could not convert string '1_0'"),
    ], ids=["nan", "header-only", "renamed-column", "short-row", "unparsable"])
    def test_malformed_recording_names_file(self, tmp_path, corrupt, message):
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, make_recording(n=20, mag=False))
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(ClimbDetectError) as exc:
            io.read_recording_csv(path)
        assert str(exc.value).startswith(str(path))
        assert message in str(exc.value)


class TestAnnotationsJson:
    def test_roundtrip(self, tmp_path):
        annotations = {
            site: AnnotationTrack(site=site,
                                  intervals=[(0.0, 2.5, 0), (2.5, 7.25, 1),
                                             (7.25, 10.0, 0)])
            for site in ALL_SITES}
        path = tmp_path / "c1_annotations.json"
        io.write_annotations_json(path, annotations)
        back = io.read_annotations_json(path)
        assert set(back) == set(ALL_SITES)
        for site in ALL_SITES:
            assert back[site].intervals == annotations[site].intervals


    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc[1]["intervals"][0].update(label="moving"),
         "entry 1: unknown label 'moving'"),
        (lambda doc: doc[0].update(site="head"), "entry 0: 'head' is not a valid SensorSite"),
        (lambda doc: doc[2]["intervals"][1].pop("end"),
         "entry 2: an interval needs the keys 'start', 'end' and 'label'"),
        (lambda doc: doc[3].pop("intervals"),
         "entry 3: needs the keys 'site' and 'intervals'"),
        (lambda doc: doc[0]["intervals"][2].update(start="7.25"),
         "entry 0: start is not a finite number: '7.25'"),
        (lambda doc: doc[4]["intervals"][0].update(end=float("nan")),
         "entry 4: end is not a finite number: nan"),
        (lambda doc: doc[0]["intervals"][0].update(label=["H0"]),
         "entry 0: unhashable type"),
        (lambda doc: doc[1]["intervals"][1].update(end=1.0),
         "entry 1: interval ends before it starts"),
    ], ids=["unknown-label", "unknown-site", "missing-end", "missing-intervals",
            "string-start", "nan-end", "list-label", "end-before-start"])
    def test_malformed_annotations_name_file(self, tmp_path, corrupt, message):
        path = tmp_path / "c1_annotations.json"
        io.write_annotations_json(path, {
            site: AnnotationTrack(site=site, intervals=[(0.0, 2.5, 0), (2.5, 7.25, 1),
                                                        (7.25, 10.0, 0)])
            for site in ALL_SITES})
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedAnnotations) as exc:
            io.read_annotations_json(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("text, message", [
        ('[{"site": "rh", "intervals": [', "not valid JSON"),
        ('{"site": "rh", "intervals": []}', "expected a list of site entries"),
    ], ids=["truncated", "not-a-list"])
    def test_annotations_document_names_file(self, tmp_path, text, message):
        path = tmp_path / "c1_annotations.json"
        path.write_text(text)
        with pytest.raises(ClimbDetectError, match=message) as exc:
            io.read_annotations_json(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestModelJson:
    def model(self):
        return SensorModel(
            acc=HypothesisModel(h0=GammaParams(2.0, 0.05), h1=GammaParams(3.0, 1.0)),
            ang=HypothesisModel(h0=GammaParams(1.5, 0.04), h1=GammaParams(2.5, 0.8)),
            config=DetectionConfig(lambda0=12.5, lambda1=30.0, alpha=0.7))

    def test_roundtrip(self, tmp_path):
        models = {site: self.model() for site in ALL_SITES}
        path = tmp_path / "model.json"
        io.write_model_json(path, models, provenance={"climbs": ["c1"]})
        back = io.read_model_json(path)
        assert back == models

    def test_deterministic_bytes(self, tmp_path):
        models = {site: self.model() for site in ALL_SITES}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        io.write_model_json(a, models)
        io.write_model_json(b, models)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc.pop("sensors"), "needs a 'sensors' object"),
        (lambda doc: doc.update(sensors=["rh"]), "needs a 'sensors' object"),
        (lambda doc: doc["sensors"].update(head=doc["sensors"]["rh"]),
         "sensor 'head': 'head' is not a valid SensorSite"),
        (lambda doc: doc["sensors"]["lf"].pop("acc"), "sensor 'lf': missing key 'acc'"),
        (lambda doc: doc["sensors"]["rh"]["ang"]["h1"].pop("theta"),
         "sensor 'rh': missing key 'theta'"),
        (lambda doc: doc["sensors"]["lh"].update(lambda0=-1),
         "sensor 'lh': thresholds must be positive"),
        (lambda doc: doc["sensors"]["lh"].update(lambda1=float("nan")),
         "sensor 'lh': thresholds must be positive"),
        (lambda doc: doc["sensors"]["pelvis"].update(alpha=1.5),
         "sensor 'pelvis': alpha must lie in [0, 1]"),
        (lambda doc: doc["sensors"]["rf"]["acc"]["h0"].update(k=0.0),
         "sensor 'rf': parameters must be positive"),
        (lambda doc: doc["sensors"]["rf"]["ang"]["h0"].update(theta="0.04"),
         "sensor 'rf': must be real number"),
        (lambda doc: doc["sensors"].update(rh=[1, 2]), "sensor 'rh': list indices"),
    ], ids=["missing-sensors", "sensors-list", "unknown-site", "missing-channel",
            "missing-theta", "negative-lambda0", "nan-lambda1", "alpha-above-one",
            "zero-k", "string-theta", "entry-list"])
    def test_malformed_model_names_file_and_site(self, tmp_path, corrupt, message):
        path = tmp_path / "model.json"
        io.write_model_json(path, {site: self.model() for site in ALL_SITES})
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel) as exc:
            io.read_model_json(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"sensors": {"rh": ')
        with pytest.raises(MalformedModel, match="not valid JSON") as exc:
            io.read_model_json(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestDetectionCsv:
    def test_roundtrip(self, tmp_path):
        series = BinaryStateSeries(
            t0=0.5, dt=0.01,
            states=np.array([0, 0, 1, 1, 1, 0], np.uint8),
            change_points=[(2, 1), (5, 0)], onsets=[1, 4])
        path = tmp_path / "det.csv"
        io.write_detection_csv(path, series)
        back = io.read_detection_csv(path)
        assert back.t0 == pytest.approx(series.t0)
        assert back.dt == pytest.approx(series.dt)
        np.testing.assert_array_equal(back.states, series.states)
        assert back.change_points == series.change_points
        assert back.onsets == series.onsets

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: lines[:2] + ["0.52,mobile"] + lines[3:], MalformedRecording,
         ":3: state is not a known label: 'mobile'"),
        (lambda lines: lines[:-1] + ["# change_point,5,H0"], MalformedRecording,
         ":9: 3 values, a change point has 4"),
    ], ids=["header-only", "unknown-state", "short-change-point"])
    def test_malformed_detection_names_file(self, tmp_path, corrupt, error, message):
        path = tmp_path / "det.csv"
        io.write_detection_csv(path, BinaryStateSeries(
            t0=0.5, dt=0.01, states=np.array([0, 0, 1, 1, 1, 0], np.uint8),
            change_points=[(2, 1), (5, 0)], onsets=[1, 4]))
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(error) as exc:
            io.read_detection_csv(path)
        assert str(exc.value).startswith(str(path))
        assert message in str(exc.value)


class TestTimelineCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 50
        timeline = ActivityTimeline(
            t0=0.0, dt=0.02,
            full_body=rng.integers(0, 4, n).astype(np.uint8),
            limb_substates={site: rng.integers(0, 4, n).astype(np.uint8)
                            for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        back = io.read_timeline_csv(path)
        np.testing.assert_array_equal(back.full_body, timeline.full_body)
        for site in LIMBS:
            np.testing.assert_array_equal(back.limb_substates[site],
                                          timeline.limb_substates[site])

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
         MalformedRecording, ":4: 5 values, the header names 6"),
        (lambda lines: lines[:2] + ["0.02,climbing" + lines[2][lines[2].index(",", 5):]]
         + lines[3:], MalformedRecording, ":3: full_body is not a known label: 'climbing'"),
        (lambda lines: lines[:4] + ["x" + lines[4]] + lines[5:], MalformedRecording,
         ":5: t is not a number: 'x0.06'"),
    ], ids=["header-only", "short-row", "unknown-state", "unparsable-time"])
    def test_malformed_timeline_names_file(self, tmp_path, corrupt, error, message):
        timeline = ActivityTimeline(
            t0=0.0, dt=0.02, full_body=np.zeros(6, np.uint8),
            limb_substates={site: np.zeros(6, np.uint8) for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(error) as exc:
            io.read_timeline_csv(path)
        assert str(exc.value).startswith(str(path))
        assert message in str(exc.value)


class TestReportJson:
    def test_nonfinite_ratio_written_as_null(self, tmp_path):
        report = ExplorationReport(counts={
            SensorSite.RIGHT_HAND: LimbCounts(exploratory=2, performatory=1),
            SensorSite.LEFT_HAND: LimbCounts(exploratory=3, performatory=0),
            SensorSite.RIGHT_FOOT: LimbCounts(exploratory=0, performatory=0),
        })
        path = tmp_path / "report.json"
        io.write_report_json(path, report)
        import json
        doc = json.loads(path.read_text())
        assert doc["limbs"]["rh"]["ratio"] == 2.0
        assert doc["limbs"]["lh"]["ratio"] is None
        assert doc["limbs"]["rf"]["ratio"] is None


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        traj = TrajectorySeries(t0=1.0, dt=0.04, x=rng.normal(0, 1, 100),
                                y=rng.normal(0, 1, 100))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        back = io.read_trajectory_csv(path)
        assert back.t0 == pytest.approx(1.0)
        assert back.dt == pytest.approx(0.04)
        np.testing.assert_allclose(back.x, traj.x)
        np.testing.assert_allclose(back.y, traj.y)

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: lines[:2] + ["0.04,nan,0.0"] + lines[3:], MalformedRecording,
         ":3: x is not finite: 'nan'"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
         MalformedRecording, ":4: 2 values, the header names 3"),
        (lambda lines: lines[:4] + ["0.12,0.5,zero"] + lines[5:], MalformedRecording,
         ":5: y is not a number: 'zero'"),
    ], ids=["header-only", "nan", "short-row", "unparsable"])
    def test_malformed_trajectory_names_file(self, tmp_path, corrupt, error, message):
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, TrajectorySeries(
            t0=0.0, dt=0.04, x=np.linspace(0, 1, 8), y=np.zeros(8)))
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(error) as exc:
            io.read_trajectory_csv(path)
        assert str(exc.value).startswith(str(path))
        assert message in str(exc.value)


# Finite floats with signed zeros and subnormals drawn often.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e300, 1e300))


def _column(n):
    return st.lists(_FLOATS, min_size=n, max_size=n).map(np.array)


class TestWriterBytes:
    """Each writer's bytes against its one-element-at-a-time oracle."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 12), mag=st.booleans())
    def test_recording(self, tmp_path, data, n, mag):
        t = np.array(sorted(data.draw(st.lists(_FLOATS, min_size=n, max_size=n,
                                               unique=True))))
        rec = ImuRecording(
            site=SensorSite.PELVIS, sample_rate=100.0, t=t,
            accel=data.draw(_column(3 * n)).reshape(n, 3),
            gyro=data.draw(_column(3 * n)).reshape(n, 3),
            mag=data.draw(_column(3 * n)).reshape(n, 3) if mag else None)
        path = tmp_path / "c1_pelvis.csv"
        io.write_recording_csv(path, rec)
        assert path.read_text() == csv_oracles.recording_text(rec)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(t0=_FLOATS, dt=st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e298, 1e298)),
           states=st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_detection(self, tmp_path, t0, dt, states):
        change_points = [(i, code) for i, code in enumerate(states)
                         if i and code != states[i - 1]]
        series = BinaryStateSeries(t0=t0, dt=dt, states=np.array(states, np.uint8),
                                   change_points=change_points,
                                   onsets=[i - 1 for i, _ in change_points])
        path = tmp_path / "det.csv"
        io.write_detection_csv(path, series)
        assert path.read_text() == csv_oracles.detection_text(series)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_FLOATS,
           dt=st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e298, 1e298)),
           n=st.integers(1, 12))
    def test_timeline(self, tmp_path, data, t0, dt, n):
        codes = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: np.array(v, np.uint8))
        timeline = ActivityTimeline(
            t0=t0, dt=dt, full_body=data.draw(codes),
            limb_substates={site: data.draw(codes) for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        assert path.read_text() == csv_oracles.timeline_text(timeline)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_FLOATS,
           dt=st.one_of(st.sampled_from([5e-324, 1.5e-310]), st.floats(1e-300, 1e298)),
           n=st.integers(1, 12))
    def test_trajectory(self, tmp_path, data, t0, dt, n):
        traj = TrajectorySeries(t0=t0, dt=dt, x=data.draw(_column(n)), y=data.draw(_column(n)))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        assert path.read_text() == csv_oracles.trajectory_text(traj)
