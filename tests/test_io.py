import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracles
from climbdetect import io
from climbdetect.classifier import ActivityTimeline, FullBodyState, LimbCounts, LimbSubState
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
        back = io.read_recording_csv(path, SensorSite.RIGHT_HAND)
        assert back.site == SensorSite.RIGHT_HAND
        np.testing.assert_allclose(back.t, rec.t, atol=1e-12)
        np.testing.assert_allclose(back.accel, rec.accel)
        np.testing.assert_allclose(back.gyro, rec.gyro)
        np.testing.assert_allclose(back.mag, rec.mag)

    def test_zero_mag_treated_as_absent(self, tmp_path):
        rec = make_recording(mag=False)
        path = tmp_path / "c1_lh.csv"
        io.write_recording_csv(path, rec)
        assert io.read_recording_csv(path, SensorSite.LEFT_HAND).mag is None

    def test_gyro_degrees_autoconverted(self, tmp_path):
        rec = make_recording()
        deg = ImuRecording(site=rec.site, sample_rate=rec.sample_rate, t=rec.t,
                           accel=rec.accel, gyro=np.rad2deg(rec.gyro),
                           mag=rec.mag)
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, deg)
        back = io.read_recording_csv(path, SensorSite.RIGHT_HAND)
        np.testing.assert_allclose(back.gyro, rec.gyro, atol=1e-10)

    @pytest.mark.parametrize("column, value, name", [
        (1, "1e200", "accel"), (3, "-1.4e154", "accel"), (4, "3e160", "gyro"),
        (6, "1.4e154", "gyro"), (7, "1e200", "mag"), (9, "-1.4e154", "mag")])
    def test_overflowing_norm_refused(self, tmp_path, column, value, name):
        # a finite reading whose squared norm overflows is refused by its line,
        # before the deg/s rule and with no overflow warning
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, make_recording())
        lines = path.read_text().splitlines()
        for lineno, text in ((51, value), (81, value)):
            fields = lines[lineno - 1].split(",")
            fields[column] = text
            lines[lineno - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedRecording) as exc:
                io.read_recording_csv(path, SensorSite.RIGHT_HAND)
        assert str(exc.value) == (f"{path}:51: the squared norm of the {name} "
                                  "reading overflows")

    def test_largest_norm_read(self, tmp_path):
        # 1.3e154 squared is 1.69e308, within the float range
        rec = make_recording()
        rec.accel[50] = [1.3e154, 0.0, 9.81]
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, rec)
        back = io.read_recording_csv(path, SensorSite.RIGHT_HAND)
        assert back.accel.tobytes() == rec.accel.tobytes()

    def test_jittered_clock_resampled(self, tmp_path):
        rec = make_recording()
        jitter = np.random.default_rng(1).uniform(-0.002, 0.002, len(rec.t))
        jitter[0] = jitter[-1] = 0.0
        wobbly = ImuRecording(site=rec.site, sample_rate=rec.sample_rate,
                              t=rec.t + jitter, accel=rec.accel,
                              gyro=rec.gyro, mag=rec.mag)
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, wobbly)
        back = io.read_recording_csv(path, SensorSite.RIGHT_HAND)
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
            io.read_recording_csv(path, SensorSite.RIGHT_HAND)

    @pytest.mark.parametrize("order", ["t,ax,gx,ay,gy,az,gz,mx,my,mz",
                                       "mz,my,mx,gz,gy,gx,az,ay,ax,t"])
    def test_columns_found_by_name(self, tmp_path, order):
        # streams whose x, y, z are not side by side read as the writer's
        # order reads, each a column slice of one table
        written = tmp_path / "c1_rh.csv"
        io.write_recording_csv(written, make_recording(n=50))
        header, *rows = written.read_text().splitlines()
        index = [header.split(",").index(name) for name in order.split(",")]
        reordered = tmp_path / "c2_rh.csv"
        reordered.write_text("\n".join([order] + [
            ",".join(row.split(",")[i] for i in index) for row in rows]) + "\n")
        want = io.read_recording_csv(written, SensorSite.RIGHT_HAND)
        back = io.read_recording_csv(reordered, SensorSite.RIGHT_HAND)
        assert back.sample_rate == want.sample_rate
        table = back.t.base
        assert table is not None
        for name in ("t", "accel", "gyro", "mag"):
            assert getattr(back, name).tobytes() == getattr(want, name).tobytes()
            assert getattr(back, name).base is table

    @pytest.mark.parametrize("corrupt, message", [
        # line 6 of the file is lines[5]; its gz value becomes nan
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 4)[0] + ",nan,0.0,0.0,0.0"]
         + lines[6:], ":6: gz is not finite: 'nan'"),
        (lambda lines: lines[:1], "no samples"),
        (lambda lines: [lines[0].replace("gz", "gyro_z")] + lines[1:],
         "missing column(s) gz"),
        # my and mz without mx
        (lambda lines: [",".join(line.split(",")[:7] + line.split(",")[8:]) for line in lines],
         ": missing column(s) mx"),
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
    ], ids=["nan", "header-only", "renamed-column", "partial-magnetometer", "short-row",
            "unparsable", "reversed-t", "swapped-t", "repeated-t", "comment-then-swapped-t"])
    def test_malformed_recording_names_file(self, tmp_path, corrupt, message):
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, make_recording(n=20, mag=False))
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(ClimbDetectError) as exc:
            io.read_recording_csv(path, SensorSite.RIGHT_HAND)
        assert str(exc.value).startswith(str(path))
        assert message in str(exc.value)


class TestClimbRecordings:
    def test_inverse_of_recording_path(self, tmp_path):
        # the sites present, in ALL_SITES order; files of no site are not recordings
        for site in (SensorSite.PELVIS, SensorSite.LEFT_HAND):
            io.recording_path(tmp_path, "climb_01", site).write_text("")
        for name in ("climb_01_annotations.json", "backup_notes.csv", "climb_01_lh.json"):
            (tmp_path / name).write_text("")
        climb_id, paths = io.climb_recordings(tmp_path)
        assert climb_id == "climb_01"
        assert list(paths.items()) == [
            (site, io.recording_path(tmp_path, "climb_01", site))
            for site in ALL_SITES if site in (SensorSite.PELVIS, SensorSite.LEFT_HAND)]

    @pytest.mark.parametrize("names, message", [
        ([], "no recordings found in {}"),
        (["c2_lf.csv", "c1_rh.csv", "c1_lf.csv"], "{}: recordings of 2 climbs (c1, c2)"),
    ], ids=["none", "two-climbs"])
    def test_one_climb_is_required(self, tmp_path, names, message):
        for name in names:
            (tmp_path / name).write_text("")
        with pytest.raises(ClimbDetectError) as exc:
            io.climb_recordings(tmp_path)
        assert str(exc.value) == message.format(tmp_path)


class TestClimbs:
    @staticmethod
    def climb(directory, climb_id, sites=(SensorSite.PELVIS,), annotated=True):
        directory.mkdir(parents=True)
        for site in sites:
            io.recording_path(directory, climb_id, site).write_text("")
        if annotated:
            io.annotations_path(directory, climb_id).write_text("")

    def test_climbs_in_name_order(self, tmp_path):
        # by directory name, not climb id; folders without a CSV file, and files,
        # are no climbs
        self.climb(tmp_path / "b", "alpha", (SensorSite.LEFT_HAND, SensorSite.PELVIS))
        self.climb(tmp_path / "a", "zeta")
        (tmp_path / "empty").mkdir()
        (tmp_path / "models").mkdir()
        (tmp_path / "models" / "model.json").write_text("{}")
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "eval.json.manifest.json").write_text("{}")
        (tmp_path / "notes.csv").write_text("")
        assert io.climbs(tmp_path) == [
            ("zeta", {SensorSite.PELVIS: tmp_path / "a" / "zeta_pelvis.csv"},
             tmp_path / "a" / "zeta_annotations.json"),
            ("alpha", {SensorSite.LEFT_HAND: tmp_path / "b" / "alpha_lh.csv",
                       SensorSite.PELVIS: tmp_path / "b" / "alpha_pelvis.csv"},
             tmp_path / "b" / "alpha_annotations.json")]

    @pytest.mark.parametrize("case", ["none", "no-csv", "no-recording", "no-annotations"])
    def test_refusals(self, tmp_path, case):
        # a folder holding a CSV file is a climb, refused by name if it is not one
        message = {"none": "no climb subdirectories in {}",
                   "no-csv": "no climb subdirectories in {}",
                   "no-recording": "no recordings found in {}/det",
                   "no-annotations": "missing annotation file {}/c1/c1_annotations.json"}[case]
        if case == "no-csv":
            (tmp_path / "empty").mkdir()
            (tmp_path / "models").mkdir()
            (tmp_path / "models" / "model.json").write_text("{}")
        elif case == "no-recording":
            self.climb(tmp_path / "c1", "c1")
            (tmp_path / "det").mkdir()
            (tmp_path / "det" / "c1_lh_detection.csv").write_text("")
        elif case == "no-annotations":
            self.climb(tmp_path / "c1", "c1", annotated=False)
        with pytest.raises(ClimbDetectError) as exc:
            io.climbs(tmp_path)
        assert str(exc.value) == message.format(tmp_path)


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
        (lambda doc: doc[2]["intervals"][0].update(start=10**400),
         "entry 2: start is not a finite number: inf"),
    ], ids=["unknown-label", "unknown-site", "missing-end", "missing-intervals",
            "string-start", "nan-end", "list-label", "end-before-start", "huge-integer-start"])
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
    def model(self, alpha=0.7):
        return SensorModel(
            acc=HypothesisModel(h0=GammaParams(2.0, 0.05), h1=GammaParams(3.0, 1.0)),
            ang=HypothesisModel(h0=GammaParams(1.5, 0.04), h1=GammaParams(2.5, 0.8)),
            config=DetectionConfig(lambda0=12.5, lambda1=30.0, alpha=alpha))

    def test_roundtrip(self, tmp_path):
        models = {site: self.model() for site in ALL_SITES}
        path = tmp_path / "model.json"
        io.write_model_json(path, models, provenance={"beta": 0.02, "climbs": ["c1"]})
        assert io.read_model_json(path) == (models, 0.02)

    def test_no_beta_at_alpha_zero_everywhere_is_none(self, tmp_path):
        # the acceleration channel has no weight, so no filter runs
        models = {site: self.model(alpha=0.0) for site in ALL_SITES}
        path = tmp_path / "model.json"
        io.write_model_json(path, models, provenance={"climbs": ["c1"]})
        assert io.read_model_json(path) == (models, None)

    def test_no_beta_where_a_site_has_alpha_is_refused(self, tmp_path):
        models = {site: self.model(alpha=0.0) for site in ALL_SITES}
        models[SensorSite.PELVIS] = models[SensorSite.LEFT_FOOT] = self.model(alpha=0.1)
        path = tmp_path / "model.json"
        io.write_model_json(path, models, provenance={"climbs": ["c1"]})
        with pytest.raises(MalformedModel) as exc:
            io.read_model_json(path)
        assert str(exc.value) == (f"{path}: provenance records no beta, the filter gain "
                                  f"that alpha > 0 needs at lf, pelvis")

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
        io.write_model_json(a, models, {})
        io.write_model_json(b, models, {})
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
         "sensor 'lh': lambda1 is not a finite number: nan"),
        (lambda doc: doc["sensors"]["pelvis"].update(alpha=1.5),
         "sensor 'pelvis': alpha must lie in [0, 1]"),
        (lambda doc: doc["sensors"]["rf"]["acc"]["h0"].update(k=0.0),
         "sensor 'rf': parameters must be positive"),
        (lambda doc: doc["sensors"]["rf"]["ang"]["h0"].update(theta="0.04"),
         "sensor 'rf': theta is not a finite number: '0.04'"),
        (lambda doc: doc["sensors"].update(rh=[1, 2]), "sensor 'rh': list indices"),
        (lambda doc: doc.update(provenance=[0.1]), "'provenance' is not an object"),
        (lambda doc: doc.update(provenance="beta=0.1"), "'provenance' is not an object"),
        (lambda doc: doc["provenance"].update(beta=-0.1),
         "provenance beta -0.1 is not a number from 0 to 2e+307"),
        (lambda doc: doc["provenance"].update(beta=float("nan")),
         "provenance beta is not a finite number: nan"),
        (lambda doc: doc["provenance"].update(beta=float("inf")),
         "provenance beta is not a finite number: inf"),
        (lambda doc: doc["provenance"].update(beta="0.1"),
         "provenance beta is not a finite number: '0.1'"),
        (lambda doc: doc["provenance"].update(beta=True),
         "provenance beta is not a finite number: True"),
        (lambda doc: doc["provenance"].update(beta=None),
         "provenance beta is not a finite number: None"),
        (lambda doc: doc["provenance"].update(beta=10**400),
         "provenance beta is not a finite number: inf"),
        (lambda doc: doc["sensors"]["rf"]["acc"]["h0"].update(k=10**400),
         "sensor 'rf': k is not a finite number: inf"),
    ], ids=["missing-sensors", "sensors-list", "unknown-site", "missing-channel",
            "missing-theta", "negative-lambda0", "nan-lambda1", "alpha-above-one",
            "zero-k", "string-theta", "entry-list", "provenance-list",
            "provenance-string", "negative-beta", "nan-beta", "infinite-beta",
            "string-beta", "bool-beta", "null-beta", "huge-integer-beta", "huge-integer-k"])
    def test_malformed_model_names_file_and_site(self, tmp_path, corrupt, message):
        path = tmp_path / "model.json"
        io.write_model_json(path, {site: self.model() for site in ALL_SITES}, {})
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
                        "0.0,traction,use,exploration,change,immobility\n"
                        "0.02,immobility,immobility,use,use,change\n")
        back = io.read_timeline_csv(path)
        assert back.full_body.tolist() == [FullBodyState.TRACTION, FullBodyState.IMMOBILITY]
        assert {site.value: track.tolist() for site, track in back.limb_substates.items()} == {
            "lh": [LimbSubState.USE, LimbSubState.IMMOBILITY],
            "rh": [LimbSubState.EXPLORATION, LimbSubState.USE],
            "rf": [LimbSubState.CHANGE, LimbSubState.USE],
            "lf": [LimbSubState.IMMOBILITY, LimbSubState.CHANGE]}

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
        report = {
            SensorSite.RIGHT_HAND: LimbCounts(exploratory=2, performatory=1),
            SensorSite.LEFT_HAND: LimbCounts(exploratory=3, performatory=0),
            SensorSite.RIGHT_FOOT: LimbCounts(exploratory=0, performatory=0),
        }
        path = tmp_path / "report.json"
        io.write_report_json(path, report, {})
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


def _peak_bytes(call, *args) -> int:
    """The most memory `tracemalloc` sees allocated at once while ``call(*args)`` runs."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def far_off_table(path, header: str, t) -> None:
    """A table of ``header`` whose rows are at times ``t``, every other value 1.0."""
    others = ",1.0" * (len(header.split(",")) - 1)
    path.write_text("\n".join([header] + [f"{ti!r}{others}" for ti in t]) + "\n")


class TestFarOffClock:
    """A clock that no uniform grid of twice its rows holds is refused by the
    line of its longest step, and one whose median step is under 1 us or over
    1 s by the line of the first such step, before any grid is allocated or a
    warning shown."""

    # one step far past the others, one past the longest grid numpy holds, and
    # one that overflows: each was once put on a grid of 1,000,001 rows, failed
    # in np.arange, or warned of the overflow and failed on a step of inf
    @pytest.mark.parametrize("t, line, reason", [
        ([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 1e4], 8,
         "t 10000.0 is too far after 0.05 for a uniform clock of 7 rows at the median "
         "step, 0.010000000000000002 s"),
        ([0.0, 0.01, 0.02, 0.03, 1e200], 6,
         "t 1e+200 is too far after 0.03 for a uniform clock of 5 rows at the median "
         "step, 0.01 s"),
        ([-1e308, 1e308], 3,
         "t 1e+308 is too far after -1e+308 for a uniform clock of 2 rows at the median "
         "step, inf s"),
        # steps under the floor: the first read as a rate of inf
        ([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323], 3,
         "the median step of t, 5e-324 s, is under 1e-06 s (a rate over 1e+06 Hz)"),
        ([0.0, 1e-160, 2e-160, 3e-160, 4e-160], 3,
         "the median step of t, 1e-160 s, is under 1e-06 s (a rate over 1e+06 Hz)"),
        ([0.0, 9e-7, 1.8e-6, 2.7e-6, 3.6e-6], 3,
         "the median step of t, 9e-07 s, is under 1e-06 s (a rate over 1e+06 Hz)"),
        # steps over the ceiling, on which the filter once overflowed at the
        # largest gain: the first step over it is not the first step
        ([0.0, 10.0, 20.0, 30.0, 40.0], 3,
         "the median step of t, 10.0 s, is over 1 s (a rate under 1 Hz)"),
        ([0.0, 0.5, 10.5, 20.5, 30.5], 4,
         "the median step of t, 10.0 s, is over 1 s (a rate under 1 Hz)"),
        ([0.0, 1.01, 2.02, 3.03, 4.04], 3,
         "the median step of t, 1.01 s, is over 1 s (a rate under 1 Hz)"),
    ], ids=["far", "past-numpy", "overflowing", "subnormal-step", "tiny-step", "near-step",
            "slow-step", "slow-after-fast", "near-slow-step"])
    @pytest.mark.parametrize("read, header", [
        (lambda path: io.read_recording_csv(path, SensorSite.PELVIS), io.RECORDING_HEADER),
        (io.read_trajectory_csv, "t,x,y"),
    ], ids=["recording", "trajectory"])
    def test_refused_by_its_line(self, tmp_path, read, header, t, line, reason):
        path = tmp_path / "input.csv"
        far_off_table(path, header, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MalformedRecording) as exc:
                read(path)
        assert str(exc.value) == f"{path}:{line}: {reason}"
        # far from the 168 MB of the grid of 1,000,001 rows
        assert _peak_bytes(pytest.raises, MalformedRecording, read, path) < 1e6

    def test_a_step_over_the_floor_is_read(self, tmp_path):
        path = tmp_path / "traj.csv"
        far_off_table(path, "t,x,y", [0.0, 2e-6, 4e-6, 6e-6])
        assert io.read_trajectory_csv(path).dt == 2e-6

    def test_a_step_at_the_ceiling_is_read(self, tmp_path):
        path = tmp_path / "traj.csv"
        far_off_table(path, "t,x,y", [0.0, 1.0, 2.0, 3.0])
        assert io.read_trajectory_csv(path).dt == 1.0

    def test_a_value_that_overflows_on_the_grid_is_refused(self, tmp_path):
        # x goes from -1e308 to 1e308 in one step: its slope is inf
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y\n0,-1e308,0\n0.01,1e308,0\n0.025,0,0\n0.03,0,0\n0.04,0,0\n")
        with pytest.raises(MalformedRecording) as exc:
            io.read_trajectory_csv(path)
        assert str(exc.value) == f"{path}: a value overflows on the uniform clock"

    def test_a_label_file_keeps_a_first_step_that_overflows(self, tmp_path):
        # it is not resampled: its step is inf, with no overflow warning
        path = tmp_path / "timeline.csv"
        path.write_text("t,full_body,rh,lh,rf,lf\n-1e308,immobility,use,use,use,use\n"
                        "1e308,traction,use,use,use,use\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert io.read_timeline_csv(path).dt == math.inf

    @pytest.mark.parametrize("last, rows", [(2.0, 21), (2.2, None)])
    def test_a_grid_of_over_twice_the_rows_is_refused(self, tmp_path, last, rows):
        # 11 rows 0.1 s apart but for the last step: a grid of 21 rows holds
        # them, one of 23 would not
        path = tmp_path / "traj.csv"
        far_off_table(path, "t,x,y", [0.1 * k for k in range(10)] + [last])
        if rows is None:
            with pytest.raises(MalformedRecording, match=":12: t 2.2 is too far after 0.9"):
                io.read_trajectory_csv(path)
        else:
            with pytest.warns(UserWarning, match="1 gaps longer than 2 sample periods"):
                assert len(io.read_trajectory_csv(path)) == rows


class TestStreamedTables:
    """Readers parse from the open file and writers write `_BLOCK_ROWS` lines at
    a time, so neither holds the text of the whole file; a read recording
    holds its parsed table alone."""

    ROWS = 6000
    PARSED = ROWS * len(io.RECORDING_HEADER.split(",")) * 8  # bytes of the parsed table

    @pytest.fixture
    def written(self, tmp_path):
        path = tmp_path / "c1_rh.csv"
        io.write_recording_csv(path, make_recording(n=self.ROWS))
        return path

    def test_read_peak_is_under_two_and_a_half_arrays(self, written):
        # a first read imports what numpy loads on first use, which is not
        # the reader's memory
        io.read_recording_csv(written, SensorSite.RIGHT_HAND)
        peak = _peak_bytes(io.read_recording_csv, written, SensorSite.RIGHT_HAND)
        assert peak < 2.5 * self.PARSED

    def test_held_recording_is_one_table(self, written):
        # t, accel, gyro and mag are column slices of the parsed table (1.9x
        # the table when the streams were copied out of it)
        io.read_recording_csv(written, SensorSite.RIGHT_HAND)
        tracemalloc.start()
        try:
            rec = io.read_recording_csv(written, SensorSite.RIGHT_HAND)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rec.mag is not None
        assert held <= 1.1 * self.PARSED

    def test_write_peak_is_under_half_a_megabyte(self, written):
        rec = io.read_recording_csv(written, SensorSite.RIGHT_HAND)
        assert _peak_bytes(io.write_recording_csv, written, rec) < 0.5e6

    @pytest.mark.parametrize("read, header", [
        (lambda path: io.read_recording_csv(path, SensorSite.RIGHT_HAND), io.RECORDING_HEADER),
        (io.read_trajectory_csv, "t,x,y"),
        (io.read_timeline_csv, "t,full_body,rh,lh,rf,lf"),
    ], ids=["recording", "trajectory", "timeline"])
    def test_comments_and_blank_lines_are_no_rows(self, tmp_path, read, header):
        # and np.loadtxt's warning on empty input does not reach the caller
        path = tmp_path / "table.csv"
        path.write_text(header + "\n\n# a comment\n \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyRecording, match="no samples after the header"):
                read(path)

    @pytest.mark.parametrize("read, header, row", [
        (lambda path: io.read_recording_csv(path, SensorSite.RIGHT_HAND), io.RECORDING_HEADER,
         "0.0,0,0,9.81,0,0,0,0.5,0,-0.8"),
        (io.read_trajectory_csv, "t,x,y", "0.0,0.1,1.2"),
        (io.read_timeline_csv, "t,full_body,rh,lh,rf,lf", "0.0,traction,use,use,use,use"),
    ], ids=["recording", "trajectory", "timeline"])
    def test_one_row_is_refused(self, tmp_path, read, header, row):
        # no step can be taken from it; comments and blank lines are no second row
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n# a comment\n{row}\n\n")
        with pytest.raises(MalformedRecording) as exc:
            read(path)
        assert str(exc.value) == f"{path}: one row after the header; a clock's step needs two"


@pytest.mark.parametrize("n", [0, io._BLOCK_ROWS, io._BLOCK_ROWS + 1])
class TestWriterBytesAroundBlocks:
    """Each writer's bytes against its oracle with no rows and around a block's end."""

    def test_recording(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rec = ImuRecording(site=SensorSite.PELVIS, sample_rate=100.0,
                           t=np.cumsum(rng.uniform(0.005, 0.015, n)),
                           accel=rng.normal(size=(n, 3)), gyro=rng.normal(size=(n, 3)),
                           mag=rng.normal(size=(n, 3)))
        path = tmp_path / "c1_pelvis.csv"
        io.write_recording_csv(path, rec)
        assert path.read_text() == csv_oracles.recording_text(rec)

    def test_detection(self, tmp_path, n):
        states = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
        change_points = [(i, int(code)) for i, code in enumerate(states)
                         if i and code != states[i - 1]]
        series = BinaryStateSeries(t0=0.5, dt=0.01, states=states,
                                   change_points=change_points,
                                   onsets=[i - 1 for i, _ in change_points])
        path = tmp_path / "det.csv"
        io.write_detection_csv(path, series)
        assert path.read_text() == csv_oracles.detection_text(series)

    def test_timeline(self, tmp_path, n):
        rng = np.random.default_rng(n)
        timeline = ActivityTimeline(
            t0=0.0, dt=0.02, full_body=rng.integers(0, 4, n).astype(np.uint8),
            limb_substates={site: rng.integers(0, 4, n).astype(np.uint8) for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        assert path.read_text() == csv_oracles.timeline_text(timeline)

    def test_trajectory(self, tmp_path, n):
        rng = np.random.default_rng(n)
        traj = TrajectorySeries(t0=1.0, dt=0.04, x=rng.normal(size=n), y=rng.normal(size=n))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        assert path.read_text() == csv_oracles.trajectory_text(traj)


# Clocks whose written times strictly increase and whose steps stay within
# rounding of dt, so that every reader keeps the samples as written. A
# measured series' median step is at most 1 s, after rounding t0 + k dt.
_T0 = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
_DT = st.floats(1e-3, 10.0)
_MEASURED_DT = st.floats(1e-3, 0.999)


class TestRoundTrips:
    """Each reader gives back what its writer wrote."""

    @staticmethod
    def same_clock(back, t0, dt):
        assert back.t0 == t0
        # a label file's step is its first; a measured series' is the median
        assert back.dt == pytest.approx(dt, rel=1e-6)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_T0, dt=_MEASURED_DT, n=st.integers(2, 30), mag=st.booleans())
    def test_recording(self, tmp_path, data, t0, dt, n, mag):
        # gyro norms stay below the deg/s threshold, so no stream is converted,
        # and accel and mag squared norms below the float range, which the
        # reader refuses
        gyro = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats(-28.0, 28.0)),
                        min_size=3 * n, max_size=3 * n)
        bounded = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e150, 1e150)),
                           min_size=3 * n, max_size=3 * n)
        rec = ImuRecording(
            site=SensorSite.PELVIS, sample_rate=1.0 / dt, t=t0 + dt * np.arange(n),
            accel=np.array(data.draw(bounded)).reshape(n, 3),
            gyro=np.array(data.draw(gyro)).reshape(n, 3),
            mag=np.array(data.draw(bounded)).reshape(n, 3) if mag else None)
        path = tmp_path / "c1_pelvis.csv"
        io.write_recording_csv(path, rec)
        back = io.read_recording_csv(path, SensorSite.PELVIS)
        for name in ("t", "accel", "gyro"):
            assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()
        # zeros, or values all within 1e-12 of them, are no magnetometer
        if mag and np.any(np.abs(rec.mag) > 1e-12):
            assert back.mag.tobytes() == rec.mag.tobytes()
        else:
            assert back.mag is None

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_T0, dt=_DT, n=st.integers(2, 30))
    def test_timeline(self, tmp_path, data, t0, dt, n):
        codes = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: np.array(v, np.uint8))
        timeline = ActivityTimeline(
            t0=t0, dt=dt, full_body=data.draw(codes),
            limb_substates={site: data.draw(codes) for site in LIMBS})
        path = tmp_path / "timeline.csv"
        io.write_timeline_csv(path, timeline)
        back = io.read_timeline_csv(path)
        self.same_clock(back, t0, dt)
        np.testing.assert_array_equal(back.full_body, timeline.full_body)
        assert back.limb_substates.keys() == timeline.limb_substates.keys()
        for site in LIMBS:
            np.testing.assert_array_equal(back.limb_substates[site],
                                          timeline.limb_substates[site])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), t0=_T0, dt=_MEASURED_DT, n=st.integers(2, 30))
    def test_trajectory(self, tmp_path, data, t0, dt, n):
        traj = TrajectorySeries(t0=t0, dt=dt, x=data.draw(_column(n)), y=data.draw(_column(n)))
        path = tmp_path / "traj.csv"
        io.write_trajectory_csv(path, traj)
        back = io.read_trajectory_csv(path)
        self.same_clock(back, t0, dt)
        np.testing.assert_array_equal(back.x, traj.x)
        np.testing.assert_array_equal(back.y, traj.y)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), sites=st.sets(st.sampled_from(ALL_SITES)))
    def test_annotations(self, tmp_path, data, sites):
        # each track's intervals are consecutive pairs of sorted times, so they
        # may touch, leave gaps or have no length
        def track(site):
            times = sorted(data.draw(st.lists(st.floats(-1e300, 1e300), max_size=20)))
            labels = data.draw(st.lists(st.integers(0, 1), min_size=len(times) // 2,
                                        max_size=len(times) // 2))
            return AnnotationTrack(site, list(zip(times[::2], times[1::2], labels)))
        annotations = {site: track(site) for site in sites}
        path = tmp_path / "c1_annotations.json"
        io.write_annotations_json(path, annotations)
        assert io.read_annotations_json(path) == annotations

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), sites=st.sets(st.sampled_from(ALL_SITES)),
           beta=st.one_of(st.none(), st.floats(0.0, 1e300)))
    def test_model(self, tmp_path, data, sites, beta):
        positive = st.floats(5e-324, 1e300)
        # a JSON number is finite: a model with an infinite threshold is refused
        threshold = st.floats(0.0, exclude_min=True, allow_infinity=False)
        # a model without beta is read only at alpha = 0 at every site
        alpha = st.one_of(st.just(0.0), st.floats(0.0, 1.0))

        def hypotheses():
            return HypothesisModel(*(GammaParams(data.draw(positive), data.draw(positive))
                                     for _ in range(2)))
        models = {site: SensorModel(
            acc=hypotheses(), ang=hypotheses(),
            config=DetectionConfig(lambda0=data.draw(threshold), lambda1=data.draw(threshold),
                                   alpha=data.draw(alpha)))
            for site in sites}
        path = tmp_path / "model.json"
        io.write_model_json(path, models, {} if beta is None else {"beta": beta})
        if beta is None and any(model.config.alpha > 0 for model in models.values()):
            with pytest.raises(MalformedModel, match="provenance records no beta"):
                io.read_model_json(path)
        else:
            assert io.read_model_json(path) == (models, beta)


# The values of the readers' tables: finite numbers over the whole float range
# (a clock that no grid of twice its rows holds is refused by `_uniform_clock`),
# a few small ones drawn often, and each label column's labels. Other fields add
# non-finite numbers, separators, comments and text without digits.
_NUMBER = st.one_of(st.sampled_from(["0", "-0", "0.01", "0.5", "1", "2.5", "-1", "1e3", "-1e3"]),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_LABELS = {"state": ["H0", "H1"], "full_body": [s.name.lower() for s in FullBodyState],
           **dict.fromkeys([site.value for site in LIMBS],
                           [s.name.lower() for s in LimbSubState])}
_FIELD = st.one_of(
    _NUMBER, st.sampled_from(["nan", "inf", "-inf", "1e999", "H0", "traction", "", " ", "#",
                              "# change_point", "1_0", "0x1"]),
    st.text(st.characters(blacklist_categories=["Nd", "Cs"]), max_size=3))


@st.composite
def _table_text(draw, columns: str) -> str:
    """A header, most often ``columns`` in any order, then rows of values for its
    columns, change points or any other fields, their times increasing or not."""
    header = draw(st.one_of(st.permutations(columns.split(",")), st.lists(_FIELD)))
    values = [st.sampled_from(_LABELS[name]) if name in _LABELS else _NUMBER
              for name in header]
    rows = draw(st.lists(st.one_of(
        st.tuples(*values).map(list),
        st.tuples(st.just("# change_point"), st.integers(-1, 9).map(str),
                  st.sampled_from(["H0", "H1"]), st.integers(-1, 9).map(str)).map(list),
        st.lists(_FIELD, max_size=len(header) + 1)), max_size=8))
    if "t" in header and draw(st.booleans()):  # a clock that increases by steps that vary
        steps = st.sampled_from([0.005, 0.01, 0.01, 0.03])
        t = itertools.accumulate(draw(st.lists(steps, min_size=len(rows), max_size=len(rows))))
        for row, ti in zip(rows, t):
            if len(row) == len(header) and row[0] != "# change_point":
                row[header.index("t")] = repr(ti)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([",".join(header)] + [",".join(row) for row in rows]) + newline


@st.composite
def _file_bytes(draw, columns: str) -> bytes:
    """Arbitrary bytes, or the text of a table of ``columns`` with or without
    arbitrary bytes put in at one place."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    text = draw(_table_text(columns)).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.one_of(st.just(b""), st.binary(max_size=4))) + text[at:]


class TestArbitraryBytes:
    """Every reader returns a value or raises a `ClimbDetectError`."""

    @pytest.mark.parametrize("read, columns", [
        (lambda path: io.read_recording_csv(path, SensorSite.PELVIS), io.RECORDING_HEADER),
        (io.read_trajectory_csv, "t,x,y"),
        (io.read_timeline_csv, "t,full_body,rh,lh,rf,lf"),
        (io.read_annotations_json, "site,intervals"),
        (io.read_model_json, "sensors,provenance"),
    ], ids=["recording", "trajectory", "timeline", "annotations", "model"])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_value_or_library_error(self, tmp_path, read, columns, data):
        path = tmp_path / "input"
        path.write_bytes(data.draw(_file_bytes(columns)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a gap warning, the reader's to give
            try:
                read(path)
            except ClimbDetectError:
                pass

    @pytest.mark.parametrize("text, line", [
        (b"t,x,y\n0,0,1\n\xff\xfe\x00garbage\n", 3),
        (b"t,x,y\n0,0,1\n# caf\xe9\n1,0,2\n", 3),
        (b"t,\xffx,y\n0,0,1\n", 1),
        (b"t,x,y\n" + b"".join(b"%d,0,1\n" % i for i in range(4000)) + b"\xff\n", 4002),
    ], ids=["row", "comment", "header", "past-the-first-block"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, text, line):
        path = tmp_path / "traj.csv"
        path.write_bytes(text)
        with pytest.raises(MalformedRecording) as exc:
            io.read_trajectory_csv(path)
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text"


class TestOrderStatistics:
    """The reader's median step and 99th-percentile gyro norm, from
    `np.partition`, are the floats of `np.median` and `np.percentile`."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_match_numpy(self, data, n):
        # a few values drawn often give ties; n = 1 or 2 is a clock of 1-2 steps
        value = st.one_of(
            st.sampled_from([0.0, 5e-324, 0.01, 0.010000000000000002, 0.02, 1e300]),
            st.floats(0.0, 1e300))
        values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        before = values.copy()
        for ours, numpys in ((io._median(values), np.median(values)),
                             (io._percentile(values, 99), np.percentile(values, 99))):
            assert np.float64(ours).tobytes() == np.float64(numpys).tobytes()
        assert values.tobytes() == before.tobytes()
