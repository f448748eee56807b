import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracles
from climbdetect import io
from climbdetect.classifier import (ActivityTimeline, ExplorationReport, FullBodyState,
                                    LimbCounts, LimbSubState)
from climbdetect.cusum import (BinaryStateSeries, DetectionConfig,
                               HypothesisModel, SensorModel)
from climbdetect.errors import (ClimbDetectError, EmptyRecording, MalformedAnnotations,
                               MalformedModel, MalformedRecording)
from climbdetect.gamma_model import GammaParams
from climbdetect.orientation import DEFAULT_BETA, ImuRecording
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
            io.read_recording_csv(path)

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
        # t must increase strictly from row to row
        (lambda lines: lines[:1] + lines[:0:-1],
         ":3: t 0.18 is not after the previous row's 0.19"),
        (lambda lines: lines[:4] + [lines[5], lines[4]] + lines[6:],
         ":6: t 0.03 is not after the previous row's 0.04"),
        (lambda lines: lines[:5] + [lines[4]] + lines[6:],
         ":6: t 0.03 is not after the previous row's 0.03"),
        # blank and comment lines count as lines, not as rows
        (lambda lines: lines[:3] + ["", "# resumed", lines[4], lines[3]] + lines[5:],
         ":7: t 0.02 is not after the previous row's 0.03"),
    ], ids=["nan", "header-only", "renamed-column", "short-row", "unparsable",
            "reversed-t", "swapped-t", "repeated-t", "comment-then-swapped-t"])
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
        back, beta = io.read_model_json(path)
        assert back == models
        assert beta == DEFAULT_BETA  # the model does not record its beta

    @pytest.mark.parametrize("beta", [0.02, 0, 3.5])
    def test_beta_from_provenance(self, tmp_path, beta):
        path = tmp_path / "model.json"
        io.write_model_json(path, {SensorSite.PELVIS: self.model()},
                            provenance={"beta": beta, "climbs": ["c1"]})
        _, back = io.read_model_json(path)
        assert back == beta and type(back) is float

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
        (lambda doc: doc.update(provenance=[0.1]), "'provenance' is not an object"),
        (lambda doc: doc.update(provenance="beta=0.1"), "'provenance' is not an object"),
        (lambda doc: doc["provenance"].update(beta=-0.1),
         "provenance beta is not a finite number >= 0: -0.1"),
        (lambda doc: doc["provenance"].update(beta=float("nan")),
         "provenance beta is not a finite number >= 0: nan"),
        (lambda doc: doc["provenance"].update(beta=float("inf")),
         "provenance beta is not a finite number >= 0: inf"),
        (lambda doc: doc["provenance"].update(beta="0.1"),
         "provenance beta is not a finite number >= 0: '0.1'"),
        (lambda doc: doc["provenance"].update(beta=True),
         "provenance beta is not a finite number >= 0: True"),
        (lambda doc: doc["provenance"].update(beta=None),
         "provenance beta is not a finite number >= 0: None"),
    ], ids=["missing-sensors", "sensors-list", "unknown-site", "missing-channel",
            "missing-theta", "negative-lambda0", "nan-lambda1", "alpha-above-one",
            "zero-k", "string-theta", "entry-list", "provenance-list",
            "provenance-string", "negative-beta", "nan-beta", "infinite-beta",
            "string-beta", "bool-beta", "null-beta"])
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

    def test_columns_found_by_name(self, tmp_path):
        path = tmp_path / "det.csv"
        path.write_text("state,t\nH0,0.5\nH1,0.51\nH1,0.52\n# change_point,1,H1,0\n")
        back = io.read_detection_csv(path)
        assert (back.t0, back.dt) == (0.5, 0.51 - 0.5)
        np.testing.assert_array_equal(back.states, [0, 1, 1])
        assert (back.change_points, back.onsets) == ([(1, 1)], [0])

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: ["time,label"] + lines[1:], MalformedRecording,
         ": missing column(s) t, state"),
        (lambda lines: lines[:2] + ["0.52,mobile"] + lines[3:], MalformedRecording,
         ":3: state is not a known label: 'mobile'"),
        (lambda lines: lines[:-1] + ["# change_point,5,H0"], MalformedRecording,
         ":9: 3 values, a change point has 4"),
        # t must increase strictly from sample row to sample row
        (lambda lines: lines[:1] + lines[6:0:-1] + lines[7:], MalformedRecording,
         ":3: t 0.54 is not after the previous row's 0.55"),
        (lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:], MalformedRecording,
         ":5: t 0.52 is not after the previous row's 0.53"),
        (lambda lines: lines[:4] + [lines[3]] + lines[5:], MalformedRecording,
         ":5: t 0.52 is not after the previous row's 0.52"),
        # change-point rows count as lines, not as sample rows
        (lambda lines: lines[:3] + [lines[8], lines[2]] + lines[3:8], MalformedRecording,
         ":5: t 0.51 is not after the previous row's 0.51"),
    ], ids=["header-only", "unnamed-columns", "unknown-state", "short-change-point", "reversed-t",
            "swapped-t", "repeated-t", "change-point-then-repeated-t"])
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

    def test_columns_found_by_name(self, tmp_path):
        # lh's column before rh's, as the header says
        path = tmp_path / "timeline.csv"
        path.write_text("t,full_body,lh,rh,rf,lf\n"
                        "0.0,traction,use,exploration,change,immobility\n")
        back = io.read_timeline_csv(path)
        assert back.full_body.tolist() == [FullBodyState.TRACTION]
        assert {site.value: track.tolist() for site, track in back.limb_substates.items()} == {
            "lh": [LimbSubState.USE], "rh": [LimbSubState.EXPLORATION],
            "rf": [LimbSubState.CHANGE], "lf": [LimbSubState.IMMOBILITY]}

    def test_spaces_around_fields(self, tmp_path):
        path = tmp_path / "timeline.csv"
        path.write_text("t,full_body,rh,lh,rf,lf\n"
                        "0.0, immobility,use ,immobility, change , exploration\r\n"
                        " 0.02 ,traction,use,use,use,use\n")
        back = io.read_timeline_csv(path)
        assert (back.t0, back.dt) == (0.0, 0.02)
        assert back.full_body.tolist() == [FullBodyState.IMMOBILITY, FullBodyState.TRACTION]
        assert back.limb_substates[SensorSite.LEFT_FOOT].tolist() == [
            LimbSubState.EXPLORATION, LimbSubState.USE]

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: ["a,b,c,d,e,f"] + lines[1:], MalformedRecording,
         ": missing column(s) t, full_body, rh, lh, rf, lf"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
         MalformedRecording, ":4: 5 values, the header names 6"),
        (lambda lines: lines[:2] + ["0.02,climbing" + lines[2][lines[2].index(",", 5):]]
         + lines[3:], MalformedRecording, ":3: full_body is not a known label: 'climbing'"),
        (lambda lines: lines[:4] + ["x" + lines[4]] + lines[5:], MalformedRecording,
         ":5: t is not a number: 'x0.06'"),
        # t must increase strictly from row to row
        (lambda lines: lines[:1] + lines[:0:-1], MalformedRecording,
         ":3: t 0.08 is not after the previous row's 0.1"),
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], MalformedRecording,
         ":4: t 0.02 is not after the previous row's 0.04"),
        (lambda lines: lines[:6] + [lines[5]], MalformedRecording,
         ":7: t 0.08 is not after the previous row's 0.08"),
        # blank lines count as lines, not as rows
        (lambda lines: lines[:3] + ["", lines[2]] + lines[4:], MalformedRecording,
         ":5: t 0.02 is not after the previous row's 0.02"),
    ], ids=["header-only", "unnamed-columns", "short-row", "unknown-state", "unparsable-time",
            "reversed-t", "swapped-t", "repeated-t", "blank-then-repeated-t"])
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

    @pytest.mark.parametrize("order", ["t,y,x", "y,x,t", "x,t,y"])
    def test_columns_found_by_name(self, tmp_path, order):
        rng = np.random.default_rng(4)
        traj = TrajectorySeries(t0=1.0, dt=0.04, x=rng.normal(0, 1, 20),
                                y=rng.normal(0, 1, 20))
        columns = {"t": traj.t0 + traj.dt * np.arange(20), "x": traj.x, "y": traj.y}
        names = order.split(",")
        path = tmp_path / "traj.csv"
        path.write_text("\n".join([order] + [",".join(map(repr, row)) for row in zip(
            *(columns[name].tolist() for name in names))]) + "\n")
        back = io.read_trajectory_csv(path)
        assert back.t0 == 1.0
        assert back.dt == pytest.approx(0.04)
        np.testing.assert_array_equal(back.x, traj.x)
        np.testing.assert_array_equal(back.y, traj.y)

    def test_jittered_clock_resampled(self, tmp_path):
        rng = np.random.default_rng(5)
        t = 1.0 + 0.04 * np.arange(100)
        jitter = rng.uniform(-0.008, 0.008, len(t))
        jitter[0] = jitter[-1] = 0.0
        x, y = np.sin(t), np.cos(t)
        path = tmp_path / "traj.csv"
        path.write_text("\n".join(["t,x,y"] + [f"{ti!r},{xi!r},{yi!r}" for ti, xi, yi in zip(
            (t + jitter).tolist(), x.tolist(), y.tolist())]) + "\n")
        back = io.read_trajectory_csv(path)
        assert back.t0 == 1.0
        assert back.dt == pytest.approx(0.04, rel=0.1)
        assert len(back) == round((t[-1] - t[0]) / back.dt) + 1
        # linear interpolation between the jittered samples, at the uniform times
        np.testing.assert_array_equal(
            back.y, np.interp(back.t0 + back.dt * np.arange(len(back)), t + jitter, y))

    def test_gap_flagged_with_warning(self, tmp_path):
        t = 0.04 * np.arange(100)
        t[50:] += 0.2  # five frames lost
        path = tmp_path / "traj.csv"
        path.write_text("\n".join(["t,x,y"] + [f"{ti!r},0.0,{math.sin(ti)!r}"
                                               for ti in t.tolist()]) + "\n")
        with pytest.warns(UserWarning, match="traj.csv: 1 gaps longer than 2 sample periods"):
            back = io.read_trajectory_csv(path)
        assert back.dt == pytest.approx(0.04)
        assert len(back) == 105  # the gap filled by linear interpolation
        np.testing.assert_allclose(back.y[[0, 49, 55, 104]], np.sin(t[[0, 49, 50, 99]]),
                                   atol=1e-12)

    @pytest.mark.parametrize("corrupt, error, message", [
        (lambda lines: lines[:1], EmptyRecording, "no samples"),
        (lambda lines: lines[:2] + ["0.04,nan,0.0"] + lines[3:], MalformedRecording,
         ":3: x is not finite: 'nan'"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
         MalformedRecording, ":4: 2 values, the header names 3"),
        (lambda lines: lines[:4] + ["0.12,0.5,zero"] + lines[5:], MalformedRecording,
         ":5: y is not a number: 'zero'"),
        (lambda lines: lines[:1] + lines[:0:-1], MalformedRecording,
         ":3: t 0.24 is not after the previous row's 0.28"),
        (lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], MalformedRecording,
         ":4: t 0.04 is not after the previous row's 0.08"),
        (lambda lines: lines[:3] + ["0.04,0.5,0.0"] + lines[4:], MalformedRecording,
         ":4: t 0.04 is not after the previous row's 0.04"),
        (lambda lines: ["time,a,b"] + lines[1:], MalformedRecording,
         ": missing column(s) t, x, y"),
        (lambda lines: ["t,x,z"] + lines[1:], MalformedRecording, ": missing column(s) y"),
    ], ids=["header-only", "nan", "short-row", "unparsable",
            "reversed-t", "swapped-t", "repeated-t", "unnamed-columns", "no-y-column"])
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


# Clocks whose written times strictly increase and whose steps stay within
# rounding of dt, so that every reader keeps the samples as written.
_T0 = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
_DT = st.floats(1e-3, 10.0)


class TestRoundTrips:
    """Each reader gives back what its writer wrote."""

    @staticmethod
    def same_clock(back, t0, dt, n):
        assert back.t0 == t0
        # a label file's step is its first; a measured series' is the median
        assert back.dt == (pytest.approx(dt, rel=1e-6) if n > 1 else 1.0)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(t0=_T0, dt=_DT, states=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_detection(self, tmp_path, t0, dt, states):
        change_points = [(i, code) for i, code in enumerate(states)
                         if i and code != states[i - 1]]
        series = BinaryStateSeries(t0=t0, dt=dt, states=np.array(states, np.uint8),
                                   change_points=change_points,
                                   onsets=[max(i - 2, 0) for i, _ in change_points])
        path = tmp_path / "det.csv"
        io.write_detection_csv(path, series)
        back = io.read_detection_csv(path)
        self.same_clock(back, t0, dt, len(states))
        assert back.states.dtype == np.uint8
        np.testing.assert_array_equal(back.states, series.states)
        assert back.change_points == series.change_points
        assert back.onsets == series.onsets

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_T0, dt=_DT, n=st.integers(1, 30))
    def test_timeline(self, tmp_path, data, t0, dt, n):
        codes = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: np.array(v, np.uint8))
        timeline = ActivityTimeline(
            t0=t0, dt=dt, full_body=data.draw(codes),
            limb_substates={site: data.draw(codes) for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        back = io.read_timeline_csv(path)
        self.same_clock(back, t0, dt, n)
        np.testing.assert_array_equal(back.full_body, timeline.full_body)
        assert back.limb_substates.keys() == timeline.limb_substates.keys()
        for site in LIMBS:
            np.testing.assert_array_equal(back.limb_substates[site],
                                          timeline.limb_substates[site])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_T0, dt=_DT, n=st.integers(1, 30))
    def test_trajectory(self, tmp_path, data, t0, dt, n):
        traj = TrajectorySeries(t0=t0, dt=dt, x=data.draw(_column(n)), y=data.draw(_column(n)))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        back = io.read_trajectory_csv(path)
        self.same_clock(back, t0, dt, n)
        np.testing.assert_array_equal(back.x, traj.x)
        np.testing.assert_array_equal(back.y, traj.y)
