import filecmp
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import climbdetect
from climbdetect import classifier, cli, cusum, io, learning, orientation, sync
from climbdetect.orientation import GRAVITY, ImuRecording
from climbdetect.series import ALL_SITES, AnnotationTrack, SensorSite
from climbdetect.simulator import MAG_FIELD
from climbdetect.sync import TrajectorySeries


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Two short simulated climbs written via the simulate subcommand."""
    root = tmp_path_factory.mktemp("climbs")
    assert cli.main(["simulate", "--out", str(root), "--seed", "3",
                     "--climbs", "2", "--duration", "20", "--rate", "50"]) == 0
    return root


@pytest.fixture(scope="module")
def model_path(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "model.json"
    assert cli.main(["fit", "--climbs", str(dataset), "--out", str(out),
                     "--grid-points", "4", "--grid-min", "1",
                     "--grid-max", "100", "--alpha-step", "0.5"]) == 0
    return out


class TestSimulate:
    def test_layout(self, dataset):
        for climb_id in ("climb01", "climb02"):
            climb_dir = dataset / climb_id
            assert (climb_dir / f"{climb_id}_annotations.json").exists()
            for site in ALL_SITES:
                assert (climb_dir / f"{climb_id}_{site.value}.csv").exists()
        assert (dataset / "simulate.manifest.json").exists()

    def test_deterministic_across_runs(self, dataset, tmp_path):
        other = tmp_path / "again"
        assert cli.main(["simulate", "--out", str(other), "--seed", "3",
                         "--climbs", "2", "--duration", "20",
                         "--rate", "50"]) == 0
        for rel in sorted(p.relative_to(dataset)
                          for p in dataset.rglob("*") if p.is_file()):
            if rel.name == "simulate.manifest.json":
                continue  # embeds the output path
            assert filecmp.cmp(dataset / rel, other / rel, shallow=False), rel


class TestFit:
    def test_model_file(self, model_path):
        models, beta = io.read_model_json(model_path)
        assert beta == 0.1  # fit's default, recorded in the model's provenance
        assert set(models) == set(ALL_SITES)
        for model in models.values():
            assert 0.0 <= model.config.alpha <= 1.0
            assert model.config.lambda0 > 0 and model.config.lambda1 > 0
        doc = json.loads(model_path.read_text())
        assert doc["provenance"]["climbs"] == ["climb01", "climb02"]
        assert model_path.with_suffix(".json.manifest.json").exists()

    def test_deterministic(self, dataset, model_path, tmp_path):
        again = tmp_path / "model.json"
        assert cli.main(["fit", "--climbs", str(dataset), "--out", str(again),
                         "--grid-points", "4", "--grid-min", "1",
                         "--grid-max", "100", "--alpha-step", "0.5"]) == 0
        assert again.read_bytes() == model_path.read_bytes()

    def test_missing_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["fit", "--climbs", str(empty),
                         "--out", str(tmp_path / "m.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_annotation_label_exits_one(self, dataset, tmp_path, capsys):
        climb = tmp_path / "climbs" / "climb01"
        climb.mkdir(parents=True)
        for src in (dataset / "climb01").iterdir():
            (climb / src.name).write_bytes(src.read_bytes())
        ann = climb / "climb01_annotations.json"
        doc = json.loads(ann.read_text())
        doc[0]["intervals"][0]["label"] = "moving"
        ann.write_text(json.dumps(doc))
        assert cli.main(["fit", "--climbs", str(tmp_path / "climbs"),
                         "--out", str(tmp_path / "m.json")]) == 1
        assert (f"error: {ann}: entry 0: unknown label 'moving'"
                in capsys.readouterr().err)

    def test_env_var_default(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CLIMBDETECT_DATA_DIR", str(dataset))
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--out", str(out), "--grid-points", "2",
                         "--grid-min", "5", "--grid-max", "50",
                         "--alpha-step", "1.0"]) == 0
        assert out.exists()


class TestDetectClassifyReport:
    def test_pipeline(self, dataset, model_path, tmp_path):
        det_dir = tmp_path / "det"
        climb = dataset / "climb01"
        assert cli.main(["detect", "--model", str(model_path),
                         "--climb", str(climb), "--out", str(det_dir)]) == 0
        for site in ALL_SITES:
            path = det_dir / f"climb01_{site.value}_detection.csv"
            series = io.read_detection_csv(path)
            assert len(series.states) == 20 * 50

        timeline_path = tmp_path / "timeline.csv"
        assert cli.main(["classify", "--model", str(model_path),
                         "--climb", str(climb),
                         "--out", str(timeline_path)]) == 0
        timeline = io.read_timeline_csv(timeline_path)
        assert len(timeline.full_body) == 20 * 50

        report_path = tmp_path / "report.json"
        assert cli.main(["report", str(timeline_path),
                         "--out", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())
        assert set(doc["limbs"]) == {"rh", "lh", "rf", "lf"}

    def test_detect_deterministic(self, dataset, model_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["detect", "--model", str(model_path),
                             "--climb", str(dataset / "climb01"),
                             "--out", str(out)]) == 0
            outs.append(out)
        for site in ALL_SITES:
            name = f"climb01_{site.value}_detection.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


    def test_malformed_recording_exits_one(self, dataset, model_path, tmp_path, capsys):
        climb = tmp_path / "climb01"
        climb.mkdir()
        for src in (dataset / "climb01").iterdir():
            (climb / src.name).write_bytes(src.read_bytes())
        rh = climb / "climb01_rh.csv"
        lines = rh.read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        rh.write_text("\n".join(lines) + "\n")
        assert cli.main(["classify", "--model", str(model_path),
                         "--climb", str(climb),
                         "--out", str(tmp_path / "timeline.csv")]) == 1
        assert f"error: {rh}:4: t is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, line", [
        (lambda rows: rows[::-1], 3),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
        (lambda rows: rows[:3] + [rows[2]] + rows[4:], 5),
    ], ids=["reversed", "swapped", "repeated"])
    def test_times_that_do_not_increase_exit_one(self, dataset, model_path, tmp_path,
                                                 capsys, corrupt, line):
        climb = tmp_path / "climb01"
        climb.mkdir()
        for src in (dataset / "climb01").iterdir():
            (climb / src.name).write_bytes(src.read_bytes())
        rh = climb / "climb01_rh.csv"
        header, *rows = rh.read_text().splitlines()
        rh.write_text("\n".join([header] + corrupt(rows)) + "\n")
        assert cli.main(["classify", "--model", str(model_path),
                         "--climb", str(climb),
                         "--out", str(tmp_path / "timeline.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: {rh}:{line}: t " in err
        assert "is not after the previous row's" in err

    def test_malformed_model_exits_one(self, dataset, model_path, tmp_path, capsys):
        model = tmp_path / "model.json"
        doc = json.loads(model_path.read_text())
        doc["sensors"]["rh"]["lambda0"] = -1
        model.write_text(json.dumps(doc))
        assert cli.main(["classify", "--model", str(model),
                         "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / "timeline.csv")]) == 1
        assert (f"error: {model}: sensor 'rh': thresholds must be positive"
                in capsys.readouterr().err)

    def test_beta_comes_from_the_model(self, dataset, tmp_path):
        # the model was fitted on signals filtered with beta = 0.02, so
        # detection filters its climb with 0.02 too; acc mode (alpha = 1)
        # makes every site's detection depend on the filter
        model = tmp_path / "model.json"
        assert cli.main(["fit", "--climbs", str(dataset), "--out", str(model),
                         "--beta", "0.02", "--mode", "acc", "--grid-points", "4",
                         "--grid-min", "1", "--grid-max", "100"]) == 0
        timeline_path = tmp_path / "timeline.csv"
        assert cli.main(["classify", "--model", str(model), "--climb",
                         str(dataset / "climb01"), "--out", str(timeline_path)]) == 0
        manifest = json.loads((tmp_path / "timeline.csv.manifest.json").read_text())
        assert manifest["config"]["beta"] == 0.02

        models, _ = io.read_model_json(model)
        written = {}
        for beta in (0.02, 0.1):
            climb = cli._load_climb(dataset / "climb01", beta, need_annotations=False)
            detections = {
                site: cusum.relabel_segments(cusum.detect(ch.acc, ch.ang, models[site]))
                for site, ch in climb.channels.items()}
            written[beta] = tmp_path / f"beta{beta}.csv"
            io.write_timeline_csv(written[beta], classifier.classify(detections))
        assert timeline_path.read_bytes() == written[0.02].read_bytes()
        # and the gain matters here: the default one gives another timeline
        assert timeline_path.read_bytes() != written[0.1].read_bytes()

    @pytest.mark.parametrize("command", ["detect", "classify"])
    def test_beta_is_not_an_option(self, command, dataset, model_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model", str(model_path), "--climb", str(dataset / "climb01"),
                      "--out", str(tmp_path / "out"), "--beta", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --beta 0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "classify"])
    def test_malformed_model_beta_exits_one(self, command, dataset, model_path, tmp_path,
                                            capsys):
        model = tmp_path / "model.json"
        doc = json.loads(model_path.read_text())
        doc["provenance"]["beta"] = "0.02"
        model.write_text(json.dumps(doc))
        assert cli.main([command, "--model", str(model), "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / "out")]) == 1
        assert (f"error: {model}: provenance beta is not a finite number >= 0: '0.02'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("corrupt, line", [
        (lambda rows: rows[::-1], 3),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
        (lambda rows: rows[:3] + [rows[2]] + rows[4:], 5),
    ], ids=["reversed", "swapped", "repeated"])
    def test_timeline_times_that_do_not_increase_exit_one(self, dataset, model_path,
                                                          tmp_path, capsys, corrupt, line):
        timeline = tmp_path / "timeline.csv"
        assert cli.main(["classify", "--model", str(model_path), "--climb",
                         str(dataset / "climb01"), "--out", str(timeline)]) == 0
        header, *rows = timeline.read_text().splitlines()
        timeline.write_text("\n".join([header] + corrupt(rows)) + "\n")
        assert cli.main(["report", str(timeline)]) == 1
        err = capsys.readouterr().err
        assert f"error: {timeline}:{line}: t " in err
        assert "is not after the previous row's" in err

    @pytest.mark.parametrize("keep, message", [
        (1, ": no samples after the header"),
        (4, ":4: 5 values, the header names 6"),
    ], ids=["header-only", "short-row"])
    def test_malformed_timeline_exits_one(self, tmp_path, capsys, keep, message):
        timeline = tmp_path / "timeline.csv"
        lines = ["t,full_body,rh,lh,rf,lf"] + [
            f"{0.02 * i!r},immobility,immobility,immobility,immobility,immobility" for i in range(4)]
        lines[3] = lines[3].rsplit(",", 1)[0]
        timeline.write_text("\n".join(lines[:keep]) + "\n")
        assert cli.main(["report", str(timeline)]) == 1
        assert f"error: {timeline}{message}" in capsys.readouterr().err

    def test_timeline_columns_found_by_name(self, tmp_path, capsys):
        # lh's column comes before rh's: rh's exploration episode stays rh's
        rh = ["use", "use", "exploration", "exploration", "use", "use"]
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("\n".join(["t,full_body,lh,rh,rf,lf"] + [
            f"{0.02 * i!r},immobility,immobility,{state},immobility,immobility"
            for i, state in enumerate(rh)]) + "\n")
        assert cli.main(["report", str(timeline)]) == 0
        out = capsys.readouterr().out
        assert "rh: exploratory=1 performatory=2 ratio=0.50" in out
        assert "lh: exploratory=0 performatory=0 ratio=undefined" in out

    def test_unnamed_timeline_columns_exit_one(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("a,b,c,d,e,f\n0.0,immobility,use,use,use,use\n")
        assert cli.main(["report", str(timeline)]) == 1
        assert (f"error: {timeline}: missing column(s) t, full_body, rh, lh, rf, lf"
                in capsys.readouterr().err)


class TestEvaluate:
    def test_summary_written(self, dataset, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert cli.main(["evaluate", "--climbs", str(dataset),
                         "--out", str(out), "--grid-points", "3",
                         "--grid-min", "1", "--grid-max", "100",
                         "--alpha-step", "0.5"]) == 0
        doc = json.loads(out.read_text())
        assert doc["climbs"] == ["climb01", "climb02"]
        for entry in doc["results"].values():
            assert -1.0 <= entry["score"] <= 1.0
            assert len(entry["fold_scores"]) == 2
        assert "sensor" in capsys.readouterr().out

    def test_fold_scores_are_what_detect_writes(self, tmp_path):
        # fold 0 learns on climbs 2 and 3 and scores climb 1: `fit` on those two
        # climbs with the same grid and mode, then `detect` on climb 1, writes
        # the detection whose c evaluate reports
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(sim), "--seed", "5", "--climbs", "3",
                         "--duration", "20", "--rate", "50"]) == 0
        grid = ["--grid-points", "4", "--grid-min", "1", "--grid-max", "100",
                "--alpha-step", "0.5"]
        out = tmp_path / "eval.json"
        assert cli.main(["evaluate", "--climbs", str(sim), "--out", str(out), *grid]) == 0
        results = json.loads(out.read_text())["results"]
        train = tmp_path / "train"
        train.mkdir()
        for climb_id in ("climb02", "climb03"):
            (train / climb_id).symlink_to(sim / climb_id)
        annotations = io.read_annotations_json(sim / "climb01" / "climb01_annotations.json")
        for mode in learning.ALPHA_MODES:
            model, det = tmp_path / f"{mode}.json", tmp_path / f"det_{mode}"
            assert cli.main(["fit", "--climbs", str(train), "--out", str(model),
                             "--mode", mode, *grid]) == 0
            assert cli.main(["detect", "--model", str(model),
                             "--climb", str(sim / "climb01"), "--out", str(det)]) == 0
            for site in ALL_SITES:
                pred = io.read_detection_csv(det / f"climb01_{site.value}_detection.csv")
                c = learning.performance_coefficient(pred, annotations[site])
                assert c == results[f"{site.value}/{mode}"]["fold_scores"][0], (site, mode)


def test_loaded_climb_keeps_no_recordings(dataset, monkeypatch):
    # a command needs only a climb's channels, so each recording is let go
    # before the next is read; one CPU, so that every read is in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    read, refs, alive = io.read_recording_csv, [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        rec = read(*args, **kwargs)
        refs.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(io, "read_recording_csv", tracked)
    climb = cli._load_climb(dataset / "climb01", 0.1, need_annotations=True)
    gc.collect()
    assert set(climb.channels) == set(ALL_SITES) and len(refs) == len(ALL_SITES)
    assert [ref() for ref in refs] == [None] * len(ALL_SITES)
    assert alive == [0] * len(ALL_SITES)


def test_each_process_holds_one_recording_at_most(dataset, forking, monkeypatch):
    # the check runs in whichever process reads, and a worker's failure is
    # raised in the caller
    read, refs = io.read_recording_csv, []

    def tracked(*args, **kwargs):
        alive = sum(ref() is not None for ref in refs)
        if alive:
            raise AssertionError(f"{alive} recordings alive in process {os.getpid()}")
        rec = read(*args, **kwargs)
        refs.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(io, "read_recording_csv", tracked)
    climbs = cli._load_climbs(dataset, 0.1)
    assert [set(climb.channels) for climb in climbs] == [set(ALL_SITES)] * 2
    assert len(forking) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.filterwarnings("default::UserWarning")  # the gap warnings expected here
def test_gap_warnings_in_site_order(dataset, model_path, forking, tmp_path, monkeypatch,
                                    capsys):
    # two recordings with a gap: forked or not, each gives its `warning:` line
    # in site order, and the detections are the same bytes
    climb = tmp_path / "climb01"
    climb.mkdir()
    for src in (dataset / "climb01").iterdir():
        (climb / src.name).write_bytes(src.read_bytes())
    for site in (SensorSite.LEFT_HAND, SensorSite.PELVIS):
        path = io.recording_path(climb, "climb01", site)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:100] + lines[200:]))
    runs = []
    for cpus in ({0, 1, 2}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = tmp_path / f"det{len(cpus)}"
        assert cli.main(["detect", "--model", str(model_path), "--climb", str(climb),
                         "--out", str(out)]) == 0
        runs.append((capsys.readouterr().err,
                     [p.read_bytes() for p in sorted(out.glob("*_detection.csv"))]))
    assert len(forking) == 2  # both in the first run
    assert runs[0] == runs[1]
    assert runs[0][1] and runs[0][0] == "".join(
        f"warning: {io.recording_path(climb, 'climb01', site)}: 1 gaps longer than "
        "2 sample periods\n" for site in (SensorSite.LEFT_HAND, SensorSite.PELVIS))


@pytest.mark.parametrize("annotations", ["missing", "not JSON"])
def test_annotations_are_read_before_any_recording_is_filtered(dataset, tmp_path,
                                                               monkeypatch, capsys,
                                                               annotations):
    climbs = tmp_path / "climbs"
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            (climbs / climb_id / src.name).write_bytes(src.read_bytes())
    ann = climbs / "climb02" / "climb02_annotations.json"
    if annotations == "missing":
        ann.unlink()
        expected = f"error: missing annotation file {ann}\n"
    else:
        ann.write_text("{")
        expected = f"error: {ann}: "

    def never(*args):
        raise AssertionError("a recording was filtered")

    monkeypatch.setattr(orientation, "linear_acceleration", never)
    assert cli.main(["fit", "--climbs", str(climbs), "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_climb_missing_a_site_exits_one(command, dataset, tmp_path, capsys):
    # learning runs at the sites of the climbs, so every climb must have each
    climbs = tmp_path / "climbs"
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            if src.name != "climb02_lf.csv":
                (climbs / climb_id / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "out.json"
    assert cli.main([command, "--climbs", str(climbs), "--out", str(out),
                     "--grid-points", "2", "--alpha-step", "1.0"]) == 1
    assert "error: no signals for site lf in climb climb02" in capsys.readouterr().err
    assert not out.exists()


def sync_inputs(tmp_path, delay):
    """Pelvis recording at identity attitude whose earth-frame lateral and
    vertical accelerations match the trajectory's second derivatives."""
    rate, duration = 50.0, 30.0
    t = np.arange(int(duration * rate)) / rate
    x = 0.5 * np.sin(0.8 * t) + 0.2 * np.sin(2.3 * t + 1.0)
    y = 0.4 * np.sin(1.1 * t + 0.4) + 0.15 * np.sin(3.1 * t)
    ax = -0.5 * 0.64 * np.sin(0.8 * t) - 0.2 * 5.29 * np.sin(2.3 * t + 1.0)
    az = -0.4 * 1.21 * np.sin(1.1 * t + 0.4) - 0.15 * 9.61 * np.sin(3.1 * t)
    rec = ImuRecording(
        site=SensorSite.PELVIS, sample_rate=rate, t=t,
        accel=np.column_stack([ax, np.zeros_like(t), az + 9.81]),
        gyro=np.zeros((len(t), 3)),
        mag=np.tile(MAG_FIELD, (len(t), 1)))
    rec_path = tmp_path / "c1_pelvis.csv"
    io.write_recording_csv(rec_path, rec)
    traj_path = tmp_path / "traj.csv"
    lines = ["t,x,y"] + [f"{float(ti) + delay!r},{float(xi)!r},{float(yi)!r}"
                         for ti, xi, yi in zip(t, x, y)]
    traj_path.write_text("\n".join(lines) + "\n")
    return rec_path, traj_path


def _sinusoids(rng: np.random.Generator):
    """Six (acceleration amplitude m/s^2, frequency Hz, phase) terms of
    smooth wall-plane motion, about 1 m/s^2 RMS as a climber's pelvis."""
    return [(float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.1, 1.0)),
             float(rng.uniform(0, 2 * np.pi))) for _ in range(6)]


def lateral_sync_inputs(tmp_path, seed, heading):
    """A 60 s, 100 Hz pelvis recording at identity attitude that feels the
    vertical and lateral accelerations of a 50 s, 25 Hz trajectory, the wall
    ``heading`` degrees from Earth x, and the delay (uniform in +-12 s) by
    which the video clock runs ahead of the sensor clock."""
    rng = np.random.default_rng(seed)
    delay = float(rng.uniform(-12.0, 12.0))
    vertical, lateral = _sinusoids(rng), _sinusoids(rng)
    t = np.arange(6000) / 100.0
    noise = rng.normal(0.0, 0.05, (len(t), 3))

    def acceleration(terms, t):
        return sum(a * np.sin(2 * np.pi * f * t + p) for a, f, p in terms)

    def position(terms, t):
        return sum(-a / (2 * np.pi * f) ** 2 * np.sin(2 * np.pi * f * t + p) for a, f, p in terms)

    across = acceleration(lateral, t)
    rec = ImuRecording(
        site=SensorSite.PELVIS, sample_rate=100.0, t=t,
        accel=noise + np.column_stack([np.cos(np.radians(heading)) * across,
                                       np.sin(np.radians(heading)) * across,
                                       acceleration(vertical, t) + GRAVITY]),
        gyro=np.zeros((len(t), 3)), mag=np.tile(MAG_FIELD, (len(t), 1)))
    rec_path = tmp_path / "pelvis.csv"
    io.write_recording_csv(rec_path, rec)
    tv = np.arange(1250) / 25.0 - delay  # the sensor time each frame shows
    traj_path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(traj_path, TrajectorySeries(
        t0=0.0, dt=0.04, x=position(lateral, tv), y=position(vertical, tv)))
    return rec_path, traj_path, delay


class TestSync:
    def test_delay_recovered_and_annotations_shifted(self, tmp_path, capsys):
        delay = 1.0
        rec_path, traj_path = sync_inputs(tmp_path, delay)
        ann_path = tmp_path / "ann.json"
        io.write_annotations_json(ann_path, {
            SensorSite.PELVIS: AnnotationTrack(
                site=SensorSite.PELVIS,
                intervals=[(0.0 + delay, 10.0 + delay, 0),
                           (10.0 + delay, 25.0 + delay, 1)])})
        out_path = tmp_path / "shifted.json"
        # small beta: the sensor attitude is constant here, and a large gain
        # lets slow lateral accelerations leak into the attitude estimate
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path),
                         "--annotations", str(ann_path),
                         "--out", str(out_path), "--max-lag", "5",
                         "--beta", "0.02"]) == 0
        printed = capsys.readouterr().out
        reported = float(printed.split("delay=")[1].split()[0])
        assert reported == pytest.approx(delay, abs=0.1)
        shifted = io.read_annotations_json(out_path)[SensorSite.PELVIS]
        assert shifted.intervals[1][0] == pytest.approx(10.0, abs=0.1)

    @pytest.mark.parametrize("keep, message", [
        (1, ": no samples after the header"),
        (None, ":3: x is not finite: 'nan'"),
    ], ids=["header-only", "nan"])
    def test_malformed_trajectory_exits_one(self, tmp_path, capsys, keep, message):
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        lines = traj_path.read_text().splitlines()
        lines[2] = "0.04,nan,0"
        traj_path.write_text("\n".join(lines[:keep]) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path), "--max-lag", "5"]) == 1
        assert f"error: {traj_path}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, line", [
        (lambda rows: rows[::-1], 3),
        (lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:], 5),
    ], ids=["reversed", "swapped"])
    def test_times_that_do_not_increase_exit_one(self, tmp_path, capsys, corrupt, line):
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        header, *rows = traj_path.read_text().splitlines()
        traj_path.write_text("\n".join([header] + corrupt(rows)) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path), "--max-lag", "5"]) == 1
        err = capsys.readouterr().err
        assert f"error: {traj_path}:{line}: t " in err
        assert "is not after the previous row's" in err

    @pytest.mark.parametrize("order", ["t,y,x", "y,t,x"])
    def test_trajectory_columns_found_by_name(self, tmp_path, capsys, order):
        # the same numbers under another column order give the same delay
        rec_path, traj_path = sync_inputs(tmp_path, 1.3)
        argv = ["sync", "--trajectory", str(traj_path), "--recording", str(rec_path),
                "--max-lag", "5", "--beta", "0.02"]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert float(printed.split("delay=")[1].split()[0]) == pytest.approx(1.3, abs=0.1)
        header, *rows = traj_path.read_text().splitlines()
        index = [header.split(",").index(name) for name in order.split(",")]
        traj_path.write_text("\n".join([order] + [
            ",".join(row.split(",")[i] for i in index) for row in rows]) + "\n")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.filterwarnings("default::UserWarning")  # the gap warning expected here
    def test_dropped_frames_keep_the_delay(self, tmp_path, capsys):
        # a tenth of the video frames lost, their timestamps kept: the reader
        # resamples the trajectory onto its median step, as it does a recording
        rec_path, traj_path = sync_inputs(tmp_path, 1.3)
        argv = ["sync", "--trajectory", str(traj_path), "--recording", str(rec_path),
                "--max-lag", "5", "--beta", "0.02"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        full = float(captured.out.split("delay=")[1].split()[0])
        header, *rows = traj_path.read_text().splitlines()
        kept = np.random.default_rng(0).random(len(rows)) >= 0.1
        traj_path.write_text("\n".join([header] + [row for row, keep in zip(rows, kept)
                                                   if keep]) + "\n")
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        # the reader's gap warning is one line naming the file, with no source line
        assert re.fullmatch(f"warning: {re.escape(str(traj_path))}: "
                            "[1-9][0-9]* gaps longer than 2 sample periods\n", captured.err)
        dropped = float(captured.out.split("delay=")[1].split()[0])
        assert dropped == pytest.approx(full, abs=0.05)

    def test_unnamed_trajectory_columns_exit_one(self, tmp_path, capsys):
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        lines = traj_path.read_text().splitlines()
        traj_path.write_text("\n".join(["time,a,b"] + lines[1:]) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path), "--max-lag", "5"]) == 1
        assert (f"error: {traj_path}: missing column(s) t, x, y"
                in capsys.readouterr().err)

    @staticmethod
    def refused(tmp_path, capsys, x, y):
        """Run sync on a 30 s, 25 Hz trajectory ``x(t), y(t)``: it must exit
        1 naming the trajectory, print no delay and write no --out."""
        rec_path, _ = sync_inputs(tmp_path, 0.0)
        t = np.arange(750) / 25.0
        traj_path = tmp_path / "refused.csv"
        traj_path.write_text("\n".join(["t,x,y"] + [
            f"{ti!r},{xi!r},{yi!r}"
            for ti, xi, yi in zip(t.tolist(), x(t).tolist(), y(t).tolist())]) + "\n")
        ann_path = tmp_path / "ann.json"
        io.write_annotations_json(ann_path, {SensorSite.PELVIS: AnnotationTrack(
            site=SensorSite.PELVIS, intervals=[(0.0, 10.0, 0), (10.0, 25.0, 1)])})
        out_path = tmp_path / "shifted.json"
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path), "--annotations", str(ann_path),
                         "--out", str(out_path), "--max-lag", "5"]) == 1
        captured = capsys.readouterr()
        assert (f"error: {traj_path}: the trajectory has no vertical acceleration, "
                "so it cannot fix a delay" in captured.err)
        assert "delay=" not in captured.out
        assert not out_path.exists()

    def test_motionless_trajectory_exits_one(self, tmp_path, capsys):
        # every lag would correlate as 0.0, so any delay would be a guess
        self.refused(tmp_path, capsys, lambda t: np.full_like(t, 0.5),
                     lambda t: np.full_like(t, 1.25))

    def test_straight_line_trajectory_exits_one(self, tmp_path, capsys):
        # x = 0.1 t, y = 0.05 t has no acceleration; only padding the
        # smoothing's ends would give it some, and that reads as a delay
        self.refused(tmp_path, capsys, lambda t: 0.1 * t, lambda t: 0.05 * t)

    def test_lateral_only_trajectory_exits_one(self, tmp_path, capsys):
        # the sensor's Earth frame does not know the wall's heading, and its
        # filter tilts to absorb slow lateral acceleration: only vertical
        # motion can fix a delay
        self.refused(tmp_path, capsys,
                     lambda t: 0.5 * np.sin(0.8 * t) + 0.2 * np.sin(2.3 * t + 1.0),
                     lambda t: np.full_like(t, 1.25))

    @pytest.mark.parametrize("heading", [0.0, 90.0])
    @pytest.mark.parametrize("seed", [4, 7, 8, 13, 14, 17, 20])
    def test_delay_found_beside_lateral_motion(self, tmp_path, capsys, seed, heading):
        # the wall at 0 or 90 degrees from Earth x (magnetic north); on these
        # seeds a lateral channel scores a wrong lag above the true one
        rec_path, traj_path, delay = lateral_sync_inputs(tmp_path, seed, heading)
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path)]) == 0
        printed = capsys.readouterr().out
        assert float(printed.split("delay=")[1].split()[0]) == pytest.approx(delay, abs=0.1)


@pytest.mark.parametrize("command", ["fit", "evaluate", "classify", "report", "sync"])
def test_out_in_missing_directory_is_created(command, dataset, model_path, tmp_path):
    climb = str(dataset / "climb01")
    timeline = tmp_path / "timeline.csv"
    if command in ("fit", "evaluate"):
        argv = ["--climbs", str(dataset), "--grid-points", "2", "--alpha-step", "1.0"]
    elif command == "classify":
        argv = ["--model", str(model_path), "--climb", climb]
    elif command == "report":
        assert cli.main(["classify", "--model", str(model_path), "--climb", climb,
                         "--out", str(timeline)]) == 0
        argv = [str(timeline)]
    else:
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        ann_path = tmp_path / "ann.json"
        io.write_annotations_json(ann_path, {SensorSite.PELVIS: AnnotationTrack(
            site=SensorSite.PELVIS, intervals=[(0.0, 10.0, 0), (10.0, 25.0, 1)])})
        argv = ["--trajectory", str(traj_path), "--recording", str(rec_path),
                "--annotations", str(ann_path), "--max-lag", "5"]
    out = tmp_path / "nd" / "out.json"
    assert cli.main([command, *argv, "--out", str(out)]) == 0
    assert out.is_file()


def test_out_directory_that_cannot_be_made_exits_one(dataset, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["fit", "--climbs", str(dataset), "--out", str(blocker / "model.json"),
                     "--grid-points", "2", "--alpha-step", "1.0"]) == 1
    assert f"error: cannot create output directory {blocker}: " in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--max-lag", "-1"), ("--max-lag", "nan"), ("--max-lag", "inf"),
    ("--smooth-window", "nan"), ("--beta", "-1"), ("--beta", "nan"),
])
def test_bad_numeric_option_is_a_usage_error(option, value, capsys):
    # refused while parsing, before any input is read
    with pytest.raises(SystemExit) as exc:
        cli.main(["sync", "--trajectory", "traj.csv", "--recording", "pelvis.csv",
                  option, value])
    assert exc.value.code == 2
    assert (f"argument {option}: must be a finite number >= 0, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, option, value, requirement", [
    ("fit", "--alpha-step", "0", "a number in (0, 1]"),
    ("fit", "--alpha-step", "nan", "a number in (0, 1]"),
    ("evaluate", "--alpha-step", "1.5", "a number in (0, 1]"),
    ("fit", "--grid-min", "-1", "a finite number > 0"),
    ("evaluate", "--grid-min", "0", "a finite number > 0"),
    ("fit", "--grid-max", "inf", "a finite number > 0"),
    ("evaluate", "--grid-max", "nan", "a finite number > 0"),
    ("fit", "--grid-points", "0", "an integer >= 1"),
    ("evaluate", "--grid-points", "-2", "an integer >= 1"),
    ("fit", "--grid-points", "2.5", "an integer >= 1"),
    ("classify", "--min-episode", "nan", "a finite number >= 0"),
    ("classify", "--min-episode", "-0.1", "a finite number >= 0"),
])
def test_bad_grid_option_is_a_usage_error(command, option, value, requirement, capsys):
    # refused while parsing, before any input is read or any grid is built
    with pytest.raises(SystemExit) as exc:
        cli.main([command, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be {requirement}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_every_beta_is_checked(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--beta", "-0.5"])
    assert exc.value.code == 2
    assert "argument --beta: must be a finite number >= 0, got '-0.5'" in capsys.readouterr().err


def test_option_defaults_are_the_library_constants():
    parse = cli.build_parser().parse_args
    for command in ("fit", "evaluate"):
        args = parse([command, "--out", "out.json"])
        assert (args.grid_min, args.grid_max, args.grid_points, args.alpha_step) == (
            learning.DEFAULT_GRID_MIN, learning.DEFAULT_GRID_MAX,
            learning.DEFAULT_GRID_POINTS, learning.DEFAULT_ALPHA_STEP)
        assert np.array_equal(cli._lambda_grid(args), learning.default_lambda_grid())
        assert args.beta == orientation.DEFAULT_BETA
    args = parse(["classify", "--model", "m.json", "--climb", "c", "--out", "t.csv"])
    assert args.min_episode == classifier.DEFAULT_MIN_EPISODE_SECONDS
    args = parse(["sync", "--trajectory", "t.csv", "--recording", "p.csv"])
    assert (args.smooth_window, args.beta) == (sync.DEFAULT_SMOOTH_WINDOW,
                                               orientation.DEFAULT_BETA)


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def _cold_run(probe: str) -> str:
    """A script that runs ``cli.main`` on its arguments and prints ``probe``."""
    return f"""
import sys
from climbdetect import cli
code = cli.main(sys.argv[1:])
print({probe})
sys.exit(code)
"""


def _fresh_interpreter(*args) -> str:
    """Last stdout line of ``python args`` run on this checkout's package."""
    src = Path(climbdetect.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


class TestColdStart:
    """The CLI starts and runs every command on numpy alone; scipy is loaded
    only by ``chi_square_gof``."""

    def test_import_loads_no_scipy(self):
        assert _fresh_interpreter(
            "-c", f"import sys, climbdetect.cli; print({_SCIPY_MODULES})") == "[]"

    def test_import_loads_no_package_metadata(self):
        modules = ("importlib.metadata", "email", "socket", "csv")
        assert _fresh_interpreter(
            "-c", f"import sys, climbdetect.cli; "
                  f"print([m for m in {modules!r} if m in sys.modules])") == "[]"

    def test_fit_loads_no_package_metadata(self, dataset, tmp_path):
        # model.json and its manifest record climbdetect.__version__
        assert _fresh_interpreter(
            "-c", _cold_run("'importlib.metadata' in sys.modules"), "fit",
            "--climbs", str(dataset), "--out", str(tmp_path / "model.json"),
            "--grid-points", "2", "--alpha-step", "1.0") == "False"

    def test_recorded_version_is_the_package_version(self):
        from importlib.metadata import PackageNotFoundError, version
        assert cli._manifest("fit", {})["version"] == climbdetect.__version__
        try:  # pyproject.toml takes the version from the same attribute
            assert version("climbdetect") == climbdetect.__version__
        except PackageNotFoundError:
            pass

    @pytest.mark.parametrize("command", ["simulate", "fit", "detect", "classify",
                                         "report", "evaluate", "sync"])
    def test_command_loads_no_scipy(self, command, dataset, model_path, tmp_path):
        climb = str(dataset / "climb01")
        timeline = tmp_path / "timeline.csv"
        argv = {
            "simulate": ["--out", str(tmp_path / "sim"), "--climbs", "1",
                         "--duration", "5", "--rate", "50"],
            "fit": ["--climbs", str(dataset), "--out", str(tmp_path / "model.json"),
                    "--grid-points", "2", "--alpha-step", "1.0"],
            "detect": ["--model", str(model_path), "--climb", climb,
                       "--out", str(tmp_path / "det")],
            "classify": ["--model", str(model_path), "--climb", climb,
                         "--out", str(timeline)],
            "report": [str(timeline)],
            "evaluate": ["--climbs", str(dataset), "--out", str(tmp_path / "eval.json"),
                         "--grid-points", "2", "--alpha-step", "1.0"],
            "sync": ["--trajectory", str(tmp_path / "traj.csv"),
                     "--recording", str(tmp_path / "c1_pelvis.csv"), "--max-lag", "5"],
        }[command]
        if command == "sync":
            sync_inputs(tmp_path, 0.0)
        if command == "report":
            assert cli.main(["classify", "--model", str(model_path), "--climb", climb,
                             "--out", str(timeline)]) == 0
        assert _fresh_interpreter("-c", _cold_run(_SCIPY_MODULES), command, *argv) == "[]"
