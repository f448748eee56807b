import argparse
import filecmp
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from csv_oracles import parse_detection
from cusum_oracle import backdated_states
from quaternions import disturbed_field

import climbdetect
from climbdetect import classifier, cli, cusum, io, learning, orientation, sync
from climbdetect.orientation import GRAVITY, ImuRecording
from climbdetect.series import ALL_SITES, AnnotationTrack, SensorSite, rasterize_track
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

    @pytest.mark.parametrize("options", [["--duration", "0.004"],
                                         ["--duration", "10", "--rate", "1e-3"]])
    def test_fewer_than_two_samples_exits_one(self, options, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), "--climbs", "1", *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("samples, fewer than 2\n")
        assert "Traceback" not in err
        assert not list(out.rglob("*.csv"))


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

    def test_swapping_the_hands_swaps_their_models(self, dataset, model_path, tmp_path):
        # a relation between whole runs: the lh recordings and annotations
        # under rh's name, and the reverse, give the model with its lh and rh
        # entries swapped, exactly; every other site keeps its entry
        swap = {"lh": "rh", "rh": "lh"}
        for climb in sorted(dataset.glob("climb*")):
            copy = tmp_path / "climbs" / climb.name
            copy.mkdir(parents=True)
            for src in climb.iterdir():
                climb_id, _, site = src.stem.rpartition("_")
                name = f"{climb_id}_{swap[site]}.csv" if site in swap else src.name
                (copy / name).write_bytes(src.read_bytes())
            ann = copy / f"{climb.name}_annotations.json"
            doc = json.loads(ann.read_text())
            for entry in doc:
                entry["site"] = swap.get(entry["site"], entry["site"])
            ann.write_text(json.dumps(doc))
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--climbs", str(tmp_path / "climbs"), "--out", str(out),
                         "--grid-points", "4", "--grid-min", "1",
                         "--grid-max", "100", "--alpha-step", "0.5"]) == 0
        want = json.loads(model_path.read_text())["sensors"]
        got = json.loads(out.read_text())["sensors"]
        assert got == {swap.get(site, site): entry for site, entry in want.items()}
        assert got["lh"] != got["rh"]


class TestDetectClassifyReport:
    def test_pipeline(self, dataset, model_path, tmp_path):
        det_dir = tmp_path / "det"
        climb = dataset / "climb01"
        assert cli.main(["detect", "--model", str(model_path),
                         "--climb", str(climb), "--out", str(det_dir)]) == 0
        for site in ALL_SITES:
            path = det_dir / f"climb01_{site.value}_detection.csv"
            series = parse_detection(path.read_text())
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

    def test_change_points_keep_their_detection_instants(self, dataset, model_path, tmp_path):
        # each change point is written at the sample it was detected at, after
        # its onset, and the per-sample states switch exactly at the onsets
        assert cli.main(["detect", "--model", str(model_path), "--climb",
                         str(dataset / "climb01"), "--out", str(tmp_path)]) == 0
        for site in ALL_SITES:
            series = parse_detection(
                (tmp_path / f"climb01_{site.value}_detection.csv").read_text())
            assert series.change_points
            assert all(index > onset for (index, _), onset
                       in zip(series.change_points, series.onsets))
            np.testing.assert_array_equal(series.states, backdated_states(
                len(series.states), series.change_points, series.onsets))

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

    @pytest.mark.parametrize("command, out", [("detect", "out"),
                                              ("classify", "out/timeline.csv")])
    def test_annotation_file_is_not_read(self, command, out, dataset, model_path, tmp_path,
                                         monkeypatch, capsys):
        # neither command uses annotations: a malformed file writes the bytes
        # and stdout that no file does
        written = {}
        for annotations in ("absent", "not json"):
            (tmp_path / annotations).mkdir()
            monkeypatch.chdir(tmp_path / annotations)
            Path("climb01").mkdir()
            for src in (dataset / "climb01").iterdir():
                if src.name != "climb01_annotations.json":
                    Path("climb01", src.name).write_bytes(src.read_bytes())
            if annotations == "not json":
                Path("climb01", "climb01_annotations.json").write_text("not json")
            assert cli.main([command, "--model", str(model_path), "--climb", "climb01",
                             "--out", out]) == 0
            written[annotations] = capsys.readouterr(), {
                path: path.read_bytes() for path in Path(".").rglob("*")
                if path.is_file() and path.parts[0] != "climb01"}
        assert written["absent"][0].err == ""
        assert written["absent"] == written["not json"]

    @pytest.mark.parametrize("lacking", ["model", "climb"])
    def test_classify_without_pelvis_exits_one(self, lacking, dataset, model_path, tmp_path,
                                               capsys):
        model, climb = model_path, tmp_path / "climb01"
        climb.mkdir()
        for src in (dataset / "climb01").iterdir():
            if lacking == "model" or src.name != "climb01_pelvis.csv":
                (climb / src.name).write_bytes(src.read_bytes())
        if lacking == "model":
            model = tmp_path / "model.json"
            doc = json.loads(model_path.read_text())
            del doc["sensors"]["pelvis"]
            model.write_text(json.dumps(doc))
        assert cli.main(["classify", "--model", str(model), "--climb", str(climb),
                         "--out", str(tmp_path / "timeline.csv")]) == 1
        assert capsys.readouterr().err == f"error: {climb}: missing detections: ['pelvis']\n"

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
            _, detections = cli._detect_climb(dataset / "climb01", models, beta)
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
        assert (f"error: {model}: provenance beta is not a finite number: '0.02'"
                in capsys.readouterr().err)

    def test_model_beta_over_the_bound_exits_one(self, dataset, model_path, tmp_path,
                                                 capsys):
        # a gain this large once overflowed the filter's gradient step
        model = tmp_path / "model.json"
        doc = json.loads(model_path.read_text())
        doc["provenance"]["beta"] = 1e308
        model.write_text(json.dumps(doc))
        assert cli.main(["classify", "--model", str(model), "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: provenance beta 1e+308 is not a number from 0 to 2e+307\n")

    @staticmethod
    def without_beta(model: Path) -> Path:
        doc = json.loads(model.read_text())
        del doc["provenance"]["beta"]
        model.write_text(json.dumps(doc))
        return model

    @pytest.mark.parametrize("command", ["detect", "classify"])
    def test_model_without_beta_where_alpha_weighs_exits_one(self, command, dataset,
                                                             model_path, tmp_path, capsys):
        # the acceleration channel of such a site cannot be filtered as it was
        # for fitting: refused, not run at a default gain
        model = self.without_beta(_model_with_alphas(
            model_path, tmp_path / "model.json", {"rh": 0.5, "pelvis": 0.25}))
        assert cli.main([command, "--model", str(model), "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"error: {model}: provenance records no beta, the "
                                           "filter gain that alpha > 0 needs at pelvis, rh\n")
        assert list(tmp_path.iterdir()) == [model]

    def test_model_without_beta_at_alpha_zero_runs(self, dataset, model_path, tmp_path):
        # no site filters its recording, so the outputs are those of the same
        # model with its beta, and the manifests record its beta as null
        with_beta = _model_with_alphas(model_path, tmp_path / "with.json", {})
        without = self.without_beta(_model_with_alphas(model_path, tmp_path / "without.json",
                                                       {}))
        outputs = {}
        for model in (with_beta, without):
            out = tmp_path / model.stem
            for command, name in (("detect", "det"), ("classify", "timeline.csv")):
                assert cli.main([command, "--model", str(model), "--climb",
                                 str(dataset / "climb01"), "--out", str(out / name)]) == 0
            outputs[model] = {path.relative_to(out): path for path in out.rglob("*.*")}
        assert outputs[with_beta].keys() == outputs[without].keys()
        assert len(outputs[without]) == 8  # five detections, a timeline, two manifests
        for name, path in outputs[with_beta].items():
            other = outputs[without][name]
            if name.name.endswith(".manifest.json"):
                want, got = (json.loads(p.read_text())["config"] for p in (path, other))
                assert (want.pop("beta"), got.pop("beta")) == (orientation.DEFAULT_BETA, None)
                assert (want.pop("model"), got.pop("model")) == (str(with_beta), str(without))
                assert got == want
            else:
                assert other.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", ["k", "theta", "alpha", "lambda0", "lambda1"])
    def test_model_boolean_number_exits_one(self, field, dataset, model_path, tmp_path,
                                            capsys):
        model = tmp_path / "model.json"
        doc = json.loads(model_path.read_text())
        entry = doc["sensors"]["rh"]
        (entry["acc"]["h0"] if field in ("k", "theta") else entry)[field] = True
        model.write_text(json.dumps(doc))
        assert cli.main(["detect", "--model", str(model), "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / "det")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: sensor 'rh': {field} is not a finite number: True\n")

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
                pred = parse_detection((det / f"climb01_{site.value}_detection.csv").read_text())
                truth = rasterize_track(annotations[site], pred.t0, pred.dt, len(pred.states))
                c = learning.performance_coefficient(pred, truth)
                assert c == results[f"{site.value}/{mode}"]["fold_scores"][0], (site, mode)

    def test_climbs_from_the_env_var_are_recorded(self, dataset, tmp_path, monkeypatch,
                                                  capsys):
        # the env var is --climbs' default, so the manifest records the directory
        # read and every byte is that of the run that names it
        grid = ["--grid-points", "2", "--alpha-step", "1.0"]
        runs = []
        for given in (["--climbs", str(dataset)], []):
            monkeypatch.setenv("CLIMBDETECT_DATA_DIR", str(dataset) if not given else "nowhere")
            out = tmp_path / f"given{len(given)}" / "eval.json"
            assert cli.main(["evaluate", *given, "--out", str(out), *grid]) == 0
            manifest = out.with_name("eval.json.manifest.json")
            runs.append((capsys.readouterr(), out.read_bytes(), manifest.read_bytes()))
        assert json.loads(runs[1][2])["config"]["climbs"] == str(dataset)
        assert runs[0] == runs[1]

    def test_too_few_samples_name_the_climbs(self, dataset, tmp_path, capsys):
        # a state with too few samples to fit names the climbs it pooled
        climbs = tmp_path / "climbs"
        _copy_climbs(dataset, climbs)
        path = climbs / "climb02" / "climb02_rh.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:30]))
        out = tmp_path / "out" / "eval.json"
        assert cli.main(["evaluate", "--climbs", str(climbs), "--out", str(out),
                         "--grid-points", "2", "--alpha-step", "1.0"]) == 1
        assert capsys.readouterr() == (
            "", "error: state H0 has 29 samples at rh; need 30, pooled over climb02\n")
        assert not out.exists()

    def test_single_climb_exits_one(self, dataset, tmp_path, capsys):
        (tmp_path / "one").mkdir()
        (tmp_path / "one" / "climb01").symlink_to(dataset / "climb01")
        out = tmp_path / "eval.json"
        assert cli.main(["evaluate", "--climbs", str(tmp_path / "one"), "--out", str(out),
                         "--grid-points", "2", "--alpha-step", "1.0"]) == 1
        assert capsys.readouterr().err == (
            "error: cross-validation needs at least 2 climbs, got 1\n")
        assert not out.exists()


@pytest.mark.parametrize("case", [
    "classify-model", "report-timeline", "sync-trajectory", "fit-climbs",
    "evaluate-climbs", "classify-out-directory", "evaluate-out-directory",
    "detect-out-file",
])
def test_path_that_cannot_be_opened_exits_one(case, dataset, model_path, tmp_path, capsys):
    # one `error:` line naming the path, and nothing written
    missing, directory, blocker = tmp_path / "nothere", tmp_path / "dir", tmp_path / "file"
    directory.mkdir()
    blocker.write_text("")
    climb, out = ["--climb", str(dataset / "climb01")], str(tmp_path / "out.csv")
    grid = ["--grid-points", "2", "--alpha-step", "1.0"]
    argv, path = {
        "classify-model": (["classify", "--model", str(missing), *climb, "--out", out], missing),
        "report-timeline": (["report", str(missing), "--out", out], missing),
        "sync-trajectory": (["sync", "--trajectory", str(missing), "--recording",
                             str(dataset / "climb01" / "climb01_pelvis.csv")], missing),
        "fit-climbs": (["fit", "--climbs", str(missing), "--out", out, *grid], missing),
        "evaluate-climbs": (["evaluate", "--climbs", str(missing), "--out", out, *grid],
                            missing),
        "classify-out-directory": (["classify", "--model", str(model_path), *climb,
                                    "--out", str(directory)], directory),
        "evaluate-out-directory": (["evaluate", "--climbs", str(dataset), *grid,
                                    "--out", str(directory)], directory),
        "detect-out-file": (["detect", "--model", str(model_path), *climb,
                             "--out", str(blocker)], blocker),
    }[case]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "" and not any(directory.iterdir())


def test_every_recording_goes_through_the_stage(dataset, model_path, tmp_path, monkeypatch):
    # fit and evaluate send each recording through the stage with their beta;
    # detect and classify send each modelled site's, with no beta exactly where
    # alpha = 0 weighs no acceleration; one CPU, so that every call is in this
    # process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    stage, calls = cli._norms, []

    def wrapped(path, site, beta):
        calls.append((path, site, beta))
        return stage(path, site, beta)

    monkeypatch.setattr(cli, "_norms", wrapped)

    def recordings(climb_ids, sites=ALL_SITES):
        return [(io.recording_path(dataset / climb_id, climb_id, site), site)
                for climb_id in climb_ids for site in sites]

    for command in ("fit", "evaluate"):
        assert cli.main([command, "--climbs", str(dataset), "--beta", "0.07",
                         "--out", str(tmp_path / f"{command}.json"),
                         "--grid-points", "2", "--alpha-step", "1.0"]) == 0
        assert calls == [(path, site, 0.07)
                         for path, site in recordings(["climb01", "climb02"])]
        calls.clear()
    model = _model_with_alphas(model_path, tmp_path / "model.json", {"rh": 0.5, "lf": 0.5})
    _, beta = io.read_model_json(model)
    doc = json.loads(model.read_text())
    del doc["sensors"]["lh"]
    (tmp_path / "model_lh.json").write_text(json.dumps(doc))
    for command, model_file, sites in [
            ("detect", "model_lh.json", [s for s in ALL_SITES if s != SensorSite.LEFT_HAND]),
            ("classify", "model.json", ALL_SITES)]:
        assert cli.main([command, "--model", str(tmp_path / model_file),
                         "--climb", str(dataset / "climb01"),
                         "--out", str(tmp_path / f"{command}.out")]) == 0
        assert calls == [(path, site, beta if site.value in ("rh", "lf") else None)
                         for path, site in recordings(["climb01"], sites)]
        calls.clear()


@pytest.mark.parametrize("load", ["_load_climbs", "_detect_climb"])
def test_loaded_climb_keeps_no_recordings(load, dataset, model_path, tmp_path, monkeypatch):
    # a command needs only a climb's channels or detections, so each recording
    # is let go before the next is read; one CPU, so that every read is in
    # this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    climbs = tmp_path / "climbs"
    (climbs / "climb01").mkdir(parents=True)
    for src in (dataset / "climb01").iterdir():
        (climbs / "climb01" / src.name).write_bytes(src.read_bytes())
    read, refs, alive = io.read_recording_csv, [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        rec = read(*args, **kwargs)
        refs.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(io, "read_recording_csv", tracked)
    if load == "_load_climbs":
        [climb] = cli._load_climbs(argparse.Namespace(climbs=climbs, out=None, beta=0.1))
        sites = climb.channels
    else:
        _, sites = cli._detect_climb(climbs / "climb01", *io.read_model_json(model_path))
    gc.collect()
    assert set(sites) == set(ALL_SITES) and len(refs) == len(ALL_SITES)
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
    climbs = cli._load_climbs(argparse.Namespace(climbs=dataset, out=None, beta=0.1))
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


@pytest.mark.parametrize("command", ["classify", "fit"])
def test_stray_files_are_ignored(command, dataset, model_path, tmp_path,
                                   monkeypatch, capsys):
    # the climb id comes from the recording names, so another annotation file
    # or CSV, listed before the climb's own files, changes no byte written
    args = {"classify": ["--model", str(model_path), "--climb", "climbs/climb01",
                         "--out", "out/timeline.csv"],
            "fit": ["--climbs", "climbs", "--out", "out/model.json",
                    "--grid-points", "4", "--alpha-step", "0.5"]}[command]
    written = {}
    for stray in ("none", "backup"):
        (tmp_path / stray).mkdir()
        monkeypatch.chdir(tmp_path / stray)
        for climb_id in ("climb01", "climb02"):
            Path("climbs", climb_id).mkdir(parents=True)
            for src in (dataset / climb_id).iterdir():
                Path("climbs", climb_id, src.name).write_bytes(src.read_bytes())
        if stray == "backup":
            Path("climbs/climb01/backup_annotations.json").write_bytes(
                (dataset / "climb01" / "climb01_annotations.json").read_bytes())
            Path("climbs/climb01/backup_notes.csv").write_text("t,note\n0.0,start\n")
        assert cli.main([command, *args]) == 0
        written[stray] = capsys.readouterr(), {
            path: path.read_bytes() for path in Path("out").rglob("*")}
    assert written["none"][0].err == ""
    assert written["none"] == written["backup"]


@pytest.mark.parametrize("other", ["backup", "zeta"])
@pytest.mark.parametrize("command", ["detect", "classify", "fit", "evaluate"])
def test_recordings_of_two_climbs_exit_one(command, other, dataset, model_path, tmp_path,
                                           capsys):
    # a recording of another climb beside the climb's own is refused by both
    # ids, whichever sorts first, and nothing is written
    climbs = tmp_path / "climbs"
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            (climbs / climb_id / src.name).write_bytes(src.read_bytes())
    (climbs / "climb01" / f"{other}_rh.csv").write_bytes(
        (dataset / "climb01" / "climb01_rh.csv").read_bytes())
    out, grid = tmp_path / "out", ["--grid-points", "2", "--alpha-step", "1.0"]
    args = {"detect": ["--model", str(model_path), "--climb", str(climbs / "climb01"),
                       "--out", str(out)],
            "classify": ["--model", str(model_path), "--climb", str(climbs / "climb01"),
                         "--out", str(out / "timeline.csv")],
            "fit": ["--climbs", str(climbs), "--out", str(out / "model.json"), *grid],
            "evaluate": ["--climbs", str(climbs), "--out", str(out / "eval.json"), *grid],
            }[command]
    assert cli.main([command, *args]) == 1
    ids = ", ".join(sorted([other, "climb01"]))
    assert capsys.readouterr().err == (f"error: {climbs / 'climb01'}: recordings of 2 climbs "
                                       f"({ids})\n")
    assert not [path for path in out.rglob("*") if path.is_file()]


def _copy_climbs(dataset: Path, climbs: Path) -> None:
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            (climbs / climb_id / src.name).write_bytes(src.read_bytes())


@pytest.mark.parametrize("folder", ["out", "models", "empty"])
@pytest.mark.parametrize("command, name", [("fit", "model.json"), ("evaluate", "eval.json")])
def test_a_folder_without_csv_files_is_no_climb(command, name, folder, dataset, tmp_path,
                                                monkeypatch, capsys):
    # the command's own --out among the climbs, on a first run and a re-run that
    # finds it there, a folder of models or an empty folder: the stdout, output
    # and manifest are those of a run without it
    monkeypatch.chdir(tmp_path)
    _copy_climbs(dataset, Path("climbs"))

    def run(out: str):
        assert cli.main([command, "--climbs", "climbs", "--out", out,
                         "--grid-points", "2", "--alpha-step", "1.0"]) == 0
        return (capsys.readouterr(), Path(out).read_bytes(),
                Path(f"{out}.manifest.json").read_bytes())

    alone = run(f"alone/{name}")
    if folder == "out":
        runs = [run(f"climbs/out/{name}") for _ in range(2)]
    else:
        Path("climbs", folder).mkdir()
        if folder == "models":
            Path("climbs/models/model.json").write_bytes(Path(f"alone/{name}").read_bytes())
        runs = [run(f"with/{name}")]
    assert runs == [alone] * len(runs)


@pytest.mark.parametrize("folder", ["detections", "misnamed"])
@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_a_folder_of_csv_files_without_a_recording_exits_one(command, folder, dataset,
                                                             model_path, tmp_path, capsys):
    # a detect --out folder, or a climb whose files are misnamed, is refused by
    # its name before the --out directory is made; no climb is skipped
    climbs, out = tmp_path / "climbs", tmp_path / "out"
    _copy_climbs(dataset, climbs)
    if folder == "detections":
        assert cli.main(["detect", "--model", str(model_path), "--climb",
                         str(climbs / "climb01"), "--out", str(climbs / folder)]) == 0
        capsys.readouterr()
    else:
        (climbs / folder).mkdir()
        for src in (dataset / "climb02").glob("*.csv"):
            (climbs / folder / src.name.replace("_", "-")).write_bytes(src.read_bytes())
    assert cli.main([command, "--climbs", str(climbs), "--out", str(out / "result.json"),
                     "--grid-points", "2", "--alpha-step", "1.0"]) == 1
    assert capsys.readouterr().err == f"error: no recordings found in {climbs / folder}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_climbs_directory_without_a_climb_exits_one(command, tmp_path, capsys):
    # only folders without CSV files: refused, and no --out directory is made
    climbs, out = tmp_path / "climbs", tmp_path / "out"
    (climbs / "empty").mkdir(parents=True)
    (climbs / "models").mkdir()
    (climbs / "models" / "model.json").write_text("{}\n")
    assert cli.main([command, "--climbs", str(climbs), "--out", str(out / "result.json")]) == 1
    assert capsys.readouterr().err == f"error: no climb subdirectories in {climbs}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "fit", "classify", "sync"])
def test_bytes_that_are_not_utf8_exit_one(command, dataset, model_path, tmp_path, capsys):
    # one `error:` line naming the file and the line that holds them
    climbs = tmp_path / "climbs"
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            (climbs / climb_id / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "out.csv"
    if command in ("report", "sync"):
        path = tmp_path / "table.csv"
        header = {"report": "t,full_body,rh,lh,rf,lf", "sync": "t,x,y"}[command]
        path.write_bytes(header.encode() + b"\n\xff\xfe\x00garbage\n")
        line = 2
        argv = (["report", str(path), "--out", str(out)] if command == "report" else
                ["sync", "--trajectory", str(path), "--recording",
                 str(climbs / "climb01" / "climb01_pelvis.csv")])
    else:
        climb_id = "climb02" if command == "fit" else "climb01"
        path = climbs / climb_id / f"{climb_id}_rh.csv"
        line = path.read_bytes().count(b"\n") + 1
        path.write_bytes(path.read_bytes() + b"\xff\xfe,1,2")
        argv = (["fit", "--climbs", str(climbs), "--out", str(out), "--grid-points", "2",
                 "--alpha-step", "1.0"] if command == "fit" else
                ["classify", "--model", str(model_path), "--climb", str(climbs / "climb01"),
                 "--out", str(out)])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: not UTF-8 text\n"
    assert not out.exists()


@pytest.mark.parametrize("site, lineno, column, value, name", [
    ("rh", 51, 1, "1e200", "accel"), ("lh", 81, 4, "3e160", "gyro"),
    ("rh", 2, 7, "1e200", "mag")], ids=["accel", "gyro", "mag"])
@pytest.mark.parametrize("command", ["classify", "fit", "sync"])
def test_overflowing_reading_exits_one(command, site, lineno, column, value, name, dataset,
                                       model_path, tmp_path, capsys):
    # a finite reading whose squared norm overflows: one `error:` line naming
    # its line, and no overflow warning or traceback. sync reads the pelvis,
    # and refuses its magnetometer columns though its filter does not use them
    climbs = tmp_path / "climbs"
    for climb_id in ("climb01", "climb02"):
        (climbs / climb_id).mkdir(parents=True)
        for src in (dataset / climb_id).iterdir():
            (climbs / climb_id / src.name).write_bytes(src.read_bytes())
    path = climbs / "climb01" / f"climb01_{'pelvis' if command == 'sync' else site}.csv"
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[column] = value
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    args = {"classify": ["--model", str(model_path), "--climb", str(climbs / "climb01"),
                         "--out", str(tmp_path / "timeline.csv")],
            "fit": ["--climbs", str(climbs), "--out", str(tmp_path / "model.json"),
                    "--grid-points", "2", "--alpha-step", "1.0"],
            "sync": ["--trajectory", str(tmp_path / "trajectory.csv"), "--recording", str(path)]}
    t = np.arange(250) / 25.0
    io.write_trajectory_csv(tmp_path / "trajectory.csv",
                            TrajectorySeries(0.0, 0.04, np.zeros_like(t), 0.1 * np.sin(t)))
    assert cli.main([command, *args[command]]) == 1
    assert capsys.readouterr().err == (f"error: {path}:{lineno}: the squared norm of the "
                                       f"{name} reading overflows\n")


@pytest.mark.parametrize("t, line", [
    ([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 1e4], 8), ([0.0, 0.01, 0.02, 0.03, 1e200], 6),
    ([-1e308, 1e308], 3)], ids=["far", "past-numpy", "overflowing"])
@pytest.mark.parametrize("command", ["classify", "sync"])
def test_far_off_timestamp_exits_one(command, t, line, dataset, model_path, tmp_path, capsys):
    # a clock with a step far past the others, or one that overflows: one
    # `error:` line naming the line of that step, and no warning or traceback
    climb = tmp_path / "climb01"
    climb.mkdir()
    for src in (dataset / "climb01").iterdir():
        (climb / src.name).write_bytes(src.read_bytes())
    if command == "classify":
        path = climb / "climb01_rh.csv"
        header, row = path.read_text().splitlines()[:2]
        argv = ["--model", str(model_path), "--climb", str(climb)]
    else:
        path, header, row = tmp_path / "traj.csv", "t,x,y", "0.0,0.5,1.0"
        argv = ["--trajectory", str(path), "--recording", str(climb / "climb01_pelvis.csv"),
                "--annotations", str(climb / "climb01_annotations.json")]
    others = row.split(",", 1)[1]
    path.write_text("\n".join([header] + [f"{ti!r},{others}" for ti in t]) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    assert re.fullmatch(f"error: {re.escape(str(path))}:{line}: t \\S+ is too far after "
                        r"\S+ for a uniform clock of \d+ rows at the median step, \S+ s\n",
                        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, clock, step, options", [
    ("classify", "recording", 5e-324, []),
    ("sync", "recording", 5e-324, []),
    ("sync", "trajectory", 5e-324, []),
    ("sync", "trajectory", 1e-160, ["--smooth-window", "0"]),
    ("sync", "trajectory", 1e-160, []),
    ("sync", "trajectory", 9e-7, []),
], ids=["classify", "sync-recording", "sync-trajectory", "no-window", "window", "near"])
def test_clock_step_under_the_floor_exits_one(command, clock, step, options, dataset,
                                              model_path, tmp_path, capsys):
    # such steps once read as a rate of inf, or failed in the filter or in
    # sync's differences and window with a traceback or a 160-digit count
    if command == "classify":
        climb = tmp_path / "climb01"
        climb.mkdir()
        for src in (dataset / "climb01").iterdir():
            (climb / src.name).write_bytes(src.read_bytes())
        path = climb / "climb01_rh.csv"
        argv = ["--model", str(model_path), "--climb", str(climb),
                "--out", str(tmp_path / "timeline.csv")]
    else:
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        path = rec_path if clock == "recording" else traj_path
        argv = ["--trajectory", str(traj_path), "--recording", str(rec_path), *options]
    header, *rows = path.read_text().splitlines()
    t = (step * np.arange(len(rows))).tolist()
    path.write_text("\n".join([header] + [f"{ti!r},{row.split(',', 1)[1]}"
                                          for ti, row in zip(t, rows)]) + "\n")
    assert cli.main([command, *argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:3: the median step of t, {float(np.median(np.diff(t)))!r} s, "
        "is under 1e-06 s (a rate over 1e+06 Hz)\n")


@pytest.mark.parametrize("command", ["fit", "sync"])
def test_clock_step_over_the_ceiling_exits_one(command, tmp_path, capsys):
    # 0.1 Hz clocks: at the largest gain the filter once overflowed on such
    # steps, and `fit` ended in a traceback
    if command == "fit":
        assert cli.main(["simulate", "--out", str(tmp_path), "--seed", "3", "--climbs", "2",
                         "--duration", "2000", "--rate", "0.1"]) == 0
        capsys.readouterr()
        path = io.recording_path(tmp_path / "climb01", "climb01", ALL_SITES[0])
        argv = ["--climbs", str(tmp_path), "--beta", "2e307", "--grid-points", "3",
                "--alpha-step", "0.5", "--out", str(tmp_path / "model.json")]
    else:
        rec_path, path = sync_inputs(tmp_path, 0.0)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [f"{10.0 * i!r},{row.split(',', 1)[1]}"
                                              for i, row in enumerate(rows)]) + "\n")
        argv = ["--trajectory", str(path), "--recording", str(rec_path)]
    assert cli.main([command, *argv]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:3: the median step of t, 10.0 s, is over 1 s (a rate under 1 Hz)\n")


@pytest.mark.parametrize("command", ["fit", "classify", "sync", "report"])
def test_one_row_table_exits_one(command, dataset, model_path, tmp_path, capsys):
    # no step can be taken from one row: it is refused by name, not given a
    # made-up step
    def cut(path: Path) -> Path:
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        return path

    climbs = tmp_path / "climbs"
    if command in ("fit", "classify"):
        for climb_id in ("climb01", "climb02"):
            (climbs / climb_id).mkdir(parents=True)
            for src in (dataset / climb_id).iterdir():
                (climbs / climb_id / src.name).write_bytes(src.read_bytes())
        path = cut(io.recording_path(climbs / "climb01", "climb01", SensorSite.LEFT_FOOT))
        argv = (["fit", "--climbs", str(climbs), "--grid-points", "2", "--alpha-step", "1.0"]
                if command == "fit" else
                ["classify", "--model", str(model_path), "--climb", str(climbs / "climb01")])
    elif command == "sync":
        rec_path, path = sync_inputs(tmp_path, 0.0)
        annotations = tmp_path / "ann.json"
        io.write_annotations_json(annotations, {})
        argv = ["sync", "--trajectory", str(cut(path)), "--recording", str(rec_path),
                "--annotations", str(annotations)]
    else:
        path = tmp_path / "timeline.csv"
        path.write_text("t,full_body,rh,lh,rf,lf\n0.0,traction,use,use,use,use\n")
        argv = ["report", str(path)]
    out = tmp_path / "out" / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: one row after the header; a clock's step needs two\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def paper_climb(tmp_path_factory):
    """climb01 of `simulate --climbs 3 --duration 120 --seed 11`: 12,000 rows a site."""
    root = tmp_path_factory.mktemp("paper")
    assert cli.main(["simulate", "--out", str(root), "--seed", "11", "--climbs", "1",
                     "--duration", "120"]) == 0
    return root / "climb01"


@pytest.mark.parametrize("site, rows, span", [
    ("rh", slice(None, 11000), "0.000 to 109.990"),
    ("lh", slice(1000, None), "10.000 to 119.990"),
    ("lf", slice(None, 835), "0.000 to 8.340")], ids=["rh-cut", "lh-late", "lf-short"])
def test_sites_of_another_span_exit_one(site, rows, span, paper_climb, model_path, tmp_path,
                                        capsys):
    # a site that ends early or starts late is refused, by the climb's name, not
    # clipped onto the pelvis's span
    climb = tmp_path / "climb01"
    climb.mkdir()
    for src in paper_climb.iterdir():
        (climb / src.name).write_bytes(src.read_bytes())
    path = climb / f"climb01_{site}.csv"
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header, *lines[rows]]) + "\n")
    assert cli.main(["classify", "--model", str(model_path), "--climb", str(climb),
                     "--out", str(tmp_path / "timeline.csv")]) == 1
    assert capsys.readouterr() == ("", f"error: {climb}: {site} spans {span} s, "
                                       "the pelvis 0.000 to 119.990 s\n")
    assert not (tmp_path / "timeline.csv").exists()


def _model_with_alphas(model_path: Path, out: Path, alphas: dict) -> Path:
    """The model of ``model_path`` with each site's alpha in ``alphas`` (others 0),
    written to ``out``."""
    doc = json.loads(model_path.read_text())
    for site in ALL_SITES:
        doc["sensors"][site.value]["alpha"] = alphas.get(site.value, 0.0)
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("alphas, filtered", [
    ({}, []), ({"lh": 0.5, "pelvis": 0.5}, ["lh", "pelvis"])], ids=["alpha0", "two-sites"])
def test_classify_filters_only_the_weighed_sites(alphas, filtered, dataset, model_path,
                                                 tmp_path, monkeypatch):
    # a site at alpha = 0 gives the acceleration channel no weight, so its
    # recording is not filtered; one CPU, so that every site is read here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    estimate, sites = orientation.estimate_orientation, []

    def counted(recording, beta):
        sites.append(recording.site.value)
        return estimate(recording, beta)

    monkeypatch.setattr(orientation, "estimate_orientation", counted)
    model = _model_with_alphas(model_path, tmp_path / "model.json", alphas)
    assert cli.main(["classify", "--model", str(model), "--climb", str(dataset / "climb01"),
                     "--out", str(tmp_path / "timeline.csv")]) == 0
    assert sorted(sites) == filtered


def test_detect_reads_only_the_modelled_recordings(dataset, model_path, tmp_path,
                                                  monkeypatch, capsys):
    # a site the model lacks is not detected, so its recording is not read,
    # not even when it is malformed; one CPU, so that every read is in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    climb = tmp_path / "climb01"
    climb.mkdir()
    for src in (dataset / "climb01").iterdir():
        (climb / src.name).write_bytes(src.read_bytes())
    io.recording_path(climb, "climb01", SensorSite.LEFT_FOOT).write_text("t,ax\nnot a number\n")
    model = tmp_path / "model.json"
    doc = json.loads(model_path.read_text())
    del doc["sensors"]["lf"]
    model.write_text(json.dumps(doc))
    read, sites = io.read_recording_csv, []

    def counted(path, site):
        sites.append(site)
        return read(path, site)

    monkeypatch.setattr(io, "read_recording_csv", counted)
    assert cli.main(["detect", "--model", str(model), "--climb", str(climb),
                     "--out", str(tmp_path / "det")]) == 0
    modelled = [site for site in ALL_SITES if site != SensorSite.LEFT_FOOT]
    assert sites == modelled
    assert sorted(p.name for p in (tmp_path / "det").glob("*_detection.csv")) == sorted(
        f"climb01_{site.value}_detection.csv" for site in modelled)
    assert capsys.readouterr().err == ""


def test_detect_refuses_its_out_before_reading_a_recording(dataset, model_path, tmp_path,
                                                         monkeypatch, capsys):
    # an --out that names a file is refused as every command refuses its
    # output, before reading the climb; one CPU, so that every read is in
    # this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    read, calls = io.read_recording_csv, []

    def counted(path, site):
        calls.append(site)
        return read(path, site)

    monkeypatch.setattr(io, "read_recording_csv", counted)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert cli.main(["detect", "--model", str(model_path), "--climb", str(dataset / "climb01"),
                     "--out", str(blocker)]) == 1
    assert calls == []
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{blocker}'\n")


def test_detect_without_a_modelled_site_exits_one(dataset, model_path, tmp_path, capsys):
    # the climb's only recording is of a site the model lacks: a wrong model
    # and climb pair, refused before any output is written (the output
    # directory is made before any recording is read)
    climb = tmp_path / "climb01"
    climb.mkdir()
    (climb / "climb01_lh.csv").write_bytes((dataset / "climb01" / "climb01_lh.csv").read_bytes())
    model = tmp_path / "model.json"
    doc = json.loads(model_path.read_text())
    del doc["sensors"]["lh"]
    model.write_text(json.dumps(doc))
    assert cli.main(["detect", "--model", str(model), "--climb", str(climb),
                     "--out", str(tmp_path / "det")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {climb}: no recording of a site the model has (lf, pelvis, rf, rh)\n")
    assert list((tmp_path / "det").iterdir()) == []


@pytest.mark.parametrize("alphas", [{}, dict.fromkeys(["lh", "rh", "lf", "rf", "pelvis"], 0.5),
                                    {"rh": 0.5, "lf": 0.5}], ids=["alpha0", "alpha0.5", "mixed"])
def test_outputs_are_the_detections_of_the_filtered_climb(alphas, dataset, model_path,
                                                          tmp_path):
    # skipping the filter where alpha = 0 changes no byte: the detections and
    # timeline are those of every site filtered
    model = _model_with_alphas(model_path, tmp_path / "model.json", alphas)
    models, beta = io.read_model_json(model)
    climb = dataset / "climb01"
    expected = {}
    for site in ALL_SITES:
        rec = io.read_recording_csv(io.recording_path(climb, "climb01", site), site)
        expected[site] = cusum.detect(orientation.linear_acceleration(rec, beta),
                                      orientation.angular_velocity_norm(rec), models[site])
    assert any(series.change_points for series in expected.values())
    assert cli.main(["detect", "--model", str(model), "--climb", str(climb),
                     "--out", str(tmp_path / "det")]) == 0
    for site in ALL_SITES:
        io.write_detection_csv(tmp_path / "expected.csv", expected[site])
        assert ((tmp_path / "det" / f"climb01_{site.value}_detection.csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
    assert cli.main(["classify", "--model", str(model), "--climb", str(climb),
                     "--out", str(tmp_path / "timeline.csv")]) == 0
    io.write_timeline_csv(tmp_path / "expected.csv", classifier.classify(expected))
    assert (tmp_path / "timeline.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


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

    @pytest.mark.parametrize("given", ["--annotations", "--out"])
    def test_annotations_and_out_go_together(self, tmp_path, capsys, given):
        # either alone is a usage error, before any input is read or any
        # directory made
        with pytest.raises(SystemExit) as exc:
            cli.main(["sync", "--trajectory", str(tmp_path / "missing.csv"),
                      "--recording", str(tmp_path / "missing_pelvis.csv"),
                      given, str(tmp_path / "d" / "file.json")])
        assert exc.value.code == 2
        assert ("sync: --annotations and --out must be given together"
                in capsys.readouterr().err)
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize("window, samples", [("0", 1), ("0.06", 3)])
    def test_an_acceleration_that_overflows_exits_one(self, tmp_path, capsys, window, samples):
        # finite positions alternating +-1e308: their second difference, and
        # their average over an odd window, overflow (pytest makes any
        # RuntimeWarning an error)
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        header, *rows = traj_path.read_text().splitlines()
        traj_path.write_text("\n".join([header] + [
            f"{row.split(',')[0]},0.0,{(-1) ** i * 1e308!r}" for i, row in enumerate(rows)]) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path), "--recording", str(rec_path),
                         "--max-lag", "5", "--smooth-window", window]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj_path}: the vertical acceleration overflows the float range "
            f"at a {samples}-sample smoothing window\n")

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
    def refused(tmp_path, capsys, x, y, rec_path=None):
        """Run sync on a 30 s, 25 Hz trajectory ``x(t), y(t)`` against
        ``rec_path`` (`sync_inputs`' recording by default): it must exit 1 with
        one error line naming both files and the peak's p, print no delay and
        write no --out."""
        if rec_path is None:
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
        assert re.fullmatch(f"error: {re.escape(f'{traj_path} and {rec_path}')}: the best "
                            r"delay, .* has p = .* effective samples; a delay needs "
                            r"p <= 1e-06\n", captured.err)
        assert "delay=" not in captured.out
        assert not out_path.exists()

    def test_motionless_trajectory_exits_one(self, tmp_path, capsys):
        # every lag correlates as 0.0: p is that of no correlation
        self.refused(tmp_path, capsys, lambda t: np.full_like(t, 0.5),
                     lambda t: np.full_like(t, 1.25))

    def test_straight_line_trajectory_exits_one(self, tmp_path, capsys):
        # x = 0.1 t, y = 0.05 t has no acceleration beyond rounding; only
        # padding the smoothing's ends would give it some, and that would
        # read as a delay
        self.refused(tmp_path, capsys, lambda t: 0.1 * t, lambda t: 0.05 * t)

    def test_lateral_only_trajectory_exits_one(self, tmp_path, capsys):
        # the sensor's Earth frame does not know the wall's heading, and its
        # filter tilts to absorb slow lateral acceleration: only vertical
        # motion can fix a delay
        self.refused(tmp_path, capsys,
                     lambda t: 0.5 * np.sin(0.8 * t) + 0.2 * np.sin(2.3 * t + 1.0),
                     lambda t: np.full_like(t, 1.25))

    @pytest.mark.parametrize("seed", [4, 7, 8])
    def test_straight_line_exits_one_against_lateral_motion(self, tmp_path, capsys, seed):
        # a recording that feels vertical and lateral motion: the rounding of a
        # line's smoothed second differences is no evidence against it either
        rec_path, _, _ = lateral_sync_inputs(tmp_path, seed, 0.0)
        rng = np.random.default_rng(seed)
        slope, offset = rng.uniform(-1.0, 1.0, 2), rng.uniform(-5.0, 5.0, 2)
        self.refused(tmp_path, capsys, lambda t: offset[0] + slope[0] * t,
                     lambda t: offset[1] + slope[1] * t, rec_path)

    def test_too_short_trajectory_names_it(self, tmp_path, capsys):
        # 11 frames at 50 Hz hold no acceleration of a 15-frame smoothing
        # window, which needs 19
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        lines = traj_path.read_text().splitlines()
        traj_path.write_text("\n".join(lines[:12]) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj_path}: need at least 19 trajectory samples for a "
            "15-sample smoothing window, got 11\n")

    def test_insufficient_overlap_names_both_files(self, tmp_path, capsys):
        rec_path, traj_path = sync_inputs(tmp_path, 0.0)
        lines = traj_path.read_text().splitlines()
        # 6 s at 50 Hz: 284 accelerations, under 10 s beside a 5 s lag
        traj_path.write_text("\n".join(lines[:301]) + "\n")
        assert cli.main(["sync", "--trajectory", str(traj_path),
                         "--recording", str(rec_path), "--max-lag", "5"]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj_path} and {rec_path}: 284 samples leave under 10.0 s of overlap "
            "at lag 5.0 s\n")

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

    @staticmethod
    def evidence(tmp_path, capsys, traj_path, rec_path, *options):
        """Run sync with --annotations and --out beside the trajectory: (exit
        code, stdout, stderr, the manifest's config or None, whether --out
        was written)."""
        ann_path = tmp_path / "ann.json"
        io.write_annotations_json(ann_path, {SensorSite.PELVIS: AnnotationTrack(
            site=SensorSite.PELVIS, intervals=[(0.0, 10.0, 0), (10.0, 25.0, 1)])})
        out_path = traj_path.parent / "shifted.json"
        code = cli.main(["sync", "--trajectory", str(traj_path), "--recording", str(rec_path),
                         "--annotations", str(ann_path), "--out", str(out_path), *options])
        captured = capsys.readouterr()
        manifest = Path(f"{out_path}.manifest.json")
        config = json.loads(manifest.read_text())["config"] if manifest.exists() else None
        return code, captured.out, captured.err, config, out_path.exists()

    @pytest.mark.parametrize("seed", [4, 8, 14])
    def test_a_delay_needs_evidence(self, tmp_path, capsys, seed):
        # the recording of one seed with its own trajectory is accepted; with
        # the next seed's, its peak is no evidence at the effective sample size
        for name in ("own", "other"):
            (tmp_path / name).mkdir()
        rec_path, traj_path, delay = lateral_sync_inputs(tmp_path / "own", seed, 0.0)
        _, other_path, _ = lateral_sync_inputs(tmp_path / "other", seed + 1, 0.0)
        code, out, err, config, written = self.evidence(tmp_path, capsys, traj_path, rec_path)
        assert (code, err, written) == (0, "", True)
        assert config["delay"] == pytest.approx(delay, abs=0.1)
        assert config["p_value"] <= 1e-6 and config["n_eff"] > 3
        assert f"delay={config['delay']:.3f} s peak_correlation=" in out
        code, out, err, config, written = self.evidence(tmp_path, capsys, other_path, rec_path)
        assert (code, out, config, written) == (1, "", None, False)
        assert re.fullmatch(f"error: {re.escape(f'{other_path} and {rec_path}')}: the best "
                            r"delay, .* has p = .* effective samples; a delay needs "
                            r"p <= 1e-06\n", err)

    @pytest.mark.parametrize("noise", [1e-4, 1e-3])
    def test_noisy_straight_line_exits_one(self, tmp_path, capsys, noise):
        # tracking noise on a line in uniform motion: the best of the lags'
        # correlations is chance, p close to 1
        rec_path, _ = sync_inputs(tmp_path, 0.0)
        t = np.arange(750) / 25.0
        rng = np.random.default_rng(0)
        traj_path = tmp_path / "line.csv"
        io.write_trajectory_csv(traj_path, TrajectorySeries(
            0.0, 0.04, 0.1 * t + rng.normal(0.0, noise, len(t)),
            0.05 * t + rng.normal(0.0, noise, len(t))))
        code, out, err, config, written = self.evidence(tmp_path, capsys, traj_path, rec_path,
                                                        "--max-lag", "5")
        assert (code, out, config, written) == (1, "", None, False)
        assert err.startswith(f"error: {traj_path} and {rec_path}: the best delay, ")
        assert err.count("\n") == 1

    def test_the_field_moves_no_output(self, tmp_path, capsys):
        # sync filters in the IMU form: a recording whose magnetometer columns
        # hold another valid field, the simulator's plus a slow bias of RMS 0.4,
        # gives the same stdout and --out, and a manifest that differs only in
        # the recording's path
        rec_path, traj_path, _ = lateral_sync_inputs(tmp_path, 4, 0.0)
        header, *rows = rec_path.read_text().splitlines()
        field = disturbed_field(np.random.default_rng(5), np.arange(len(rows)) / 100.0, 0.4)
        assert np.linalg.norm(field, axis=1).min() > 0.1
        disturbed = tmp_path / "disturbed_pelvis.csv"
        disturbed.write_text("\n".join([header] + [
            ",".join(row.split(",")[:7] + [repr(v) for v in m])
            for row, m in zip(rows, field.tolist())]) + "\n")
        ann_path = tmp_path / "ann.json"
        io.write_annotations_json(ann_path, {SensorSite.PELVIS: AnnotationTrack(
            site=SensorSite.PELVIS, intervals=[(0.0, 10.0, 0), (10.0, 25.0, 1)])})
        runs = []
        for path in (rec_path, disturbed):
            out_path = tmp_path / f"{path.stem}.json"
            assert cli.main(["sync", "--trajectory", str(traj_path), "--recording", str(path),
                             "--annotations", str(ann_path), "--out", str(out_path)]) == 0
            manifest = json.loads(Path(f"{out_path}.manifest.json").read_text())
            assert manifest["config"].pop("recording") == str(path)
            runs.append((capsys.readouterr(), out_path.read_bytes(), manifest))
        assert runs[0] == runs[1]

    def test_lags_are_scored_without_the_recording(self, tmp_path):
        # the recording and its (n, 3) Earth-frame array are dropped before
        # estimate_delay: the peak is 3.3x the parsed table here, 4.35x when
        # both were held
        rec_path, traj_path, _ = lateral_sync_inputs(tmp_path, 4, 0.0)
        argv = ["sync", "--trajectory", str(traj_path), "--recording", str(rec_path)]
        assert cli.main(argv) == 0  # a first run imports what numpy loads on first use
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.8 * 6000 * len(io.RECORDING_HEADER.split(",")) * 8


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
    ("--smooth-window", "nan"), ("--beta", "-1"), ("--beta", "nan"), ("--beta", "inf"),
])
def test_bad_numeric_option_is_a_usage_error(option, value, capsys):
    # refused while parsing, before any input is read
    with pytest.raises(SystemExit) as exc:
        cli.main(["sync", "--trajectory", "traj.csv", "--recording", "pelvis.csv",
                  option, value])
    assert exc.value.code == 2
    requirement = "a number from 0 to 2e+307" if option == "--beta" else "a finite number >= 0"
    assert (f"argument {option}: must be {requirement}, got {value!r}"
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
    ("simulate", "--seed", "-1", "an integer >= 0"),
    ("simulate", "--rate", "0", "a finite number > 0"),
    ("simulate", "--rate", "-100", "a finite number > 0"),
    ("simulate", "--rate", "nan", "a finite number > 0"),
    ("simulate", "--duration", "nan", "a finite number > 0"),
    ("simulate", "--duration", "0", "a finite number > 0"),
    ("simulate", "--climbs", "0", "an integer >= 1"),
    # a gain this large once overflowed the filter's gradient step
    ("fit", "--beta", "5e307", "a number from 0 to 2e+307"),
    ("evaluate", "--beta", "1e308", "a number from 0 to 2e+307"),
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
    assert ("argument --beta: must be a number from 0 to 2e+307, got '-0.5'"
            in capsys.readouterr().err)


def test_beta_at_the_bound_runs(dataset, tmp_path):
    assert orientation.MAX_BETA == 2e307
    assert cli.main(["fit", "--climbs", str(dataset), "--out", str(tmp_path / "model.json"),
                     "--beta", "2e307", "--mode", "acc", "--grid-points", "2"]) == 0
    assert io.read_model_json(tmp_path / "model.json")[1] == 2e307


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
    """The CLI starts and runs every command on numpy alone, and loads
    ``numpy.ma`` in no command that reads a recording."""

    def test_import_loads_no_scipy(self):
        assert _fresh_interpreter(
            "-c", f"import sys, climbdetect.cli; print({_SCIPY_MODULES})") == "[]"

    def test_package_import_loads_no_module(self):
        # the package is used through its modules, which it does not import
        assert _fresh_interpreter(
            "-c", "import sys, climbdetect; print(sorted(m for m in sys.modules if "
                  "m.startswith('climbdetect.') or m.partition('.')[0] == 'numpy'))") == "[]"

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

    def test_recorded_version_is_the_package_version(self, tmp_path):
        from importlib.metadata import PackageNotFoundError, version
        io.write_manifest(tmp_path / "model.json", "fit", {})
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        assert manifest["version"] == climbdetect.__version__
        try:  # pyproject.toml takes the version from the same attribute
            assert version("climbdetect") == climbdetect.__version__
        except PackageNotFoundError:
            pass

    @pytest.mark.parametrize("command", ["simulate", "fit", "detect", "classify",
                                         "report", "evaluate", "sync"])
    def test_command_loads_no_scipy(self, command, dataset, model_path, tmp_path):
        argv = self.argv(command, dataset, model_path, tmp_path)
        assert _fresh_interpreter("-c", _cold_run(_SCIPY_MODULES), command, *argv) == "[]"

    @pytest.mark.parametrize("command", ["classify", "sync"])
    def test_reading_a_recording_loads_no_numpy_ma(self, command, dataset, model_path,
                                                   tmp_path):
        # the median step and the 99th-percentile gyro norm come from
        # np.partition; np.median and np.percentile import numpy.ma
        argv = self.argv(command, dataset, model_path, tmp_path)
        assert _fresh_interpreter(
            "-c", _cold_run("'numpy.ma' in sys.modules"), command, *argv) == "False"

    @staticmethod
    def argv(command, dataset, model_path, tmp_path) -> list[str]:
        """The arguments of a short run of ``command``, its inputs written."""
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
        return argv
