"""Self-tests of the benchmark. Each output check passes on the program's
real output and fails on a deliberately wrong one, so none is vacuous; the
traced counts follow the calls the program makes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import run_command  # noqa: E402

SMALL = workloads.Sizes(
    classify_seconds=4.0, fit_seconds=4.0, fit_grid_points=4,
    fit_alpha_step=0.5, evaluate_climbs=2, evaluate_seconds=4.0,
    evaluate_grid_points=3, evaluate_alpha_step=0.5)


def prepare(name, tmp_path, seed=3):
    prepared = workloads.SETUPS[name](seed, tmp_path, SMALL)
    code, stdout, stderr, _ = run_command(prepared.argv)
    assert code == 0, stderr
    assert prepared.check(stdout) == []
    return prepared, stdout


def test_reference_cusum_worked_example():
    states, changes = ref.cusum(np.array([0, 1, 1, 1, -1, -1, -1.0]), 1.5, 1.5)
    assert states.tolist() == [0, 0, 1, 1, 1, 0, 0]
    assert changes == [(0, 1), (3, 0)]
    assert ref.relabel(7, changes).tolist() == [1, 1, 1, 0, 0, 0, 0]


def test_reference_cusum_is_strict_at_threshold():
    states, changes = ref.cusum(np.array([0, 1, 1.0]), 2.0, 2.0)
    assert changes == [] and states.tolist() == [0, 0, 0]


def test_classify_check_fails_on_flipped_limb_column(tmp_path):
    prepared, stdout = prepare("classify", tmp_path)
    timeline = prepared.outputs[0]
    lines = timeline.read_text().splitlines()
    flipped = [lines[0]]
    for line in lines[1:]:
        row = line.split(",")
        row[2] = "exploration" if row[2] == "immobility" else "immobility"
        flipped.append(",".join(row))
    timeline.write_text("\n".join(flipped) + "\n")
    assert prepared.check(stdout)


def test_fit_check_fails_when_lambda1_moves_to_another_cell(tmp_path):
    prepared, stdout = prepare("fit", tmp_path)
    model = prepared.outputs[0]
    doc = json.loads(model.read_text())
    grid = workloads.lambda_grid(SMALL.fit_grid_points)
    for entry in doc["sensors"].values():
        here = int(np.argmin(np.abs(grid - entry["lambda1"])))
        entry["lambda1"] = float(grid[0] if here == len(grid) - 1 else grid[-1])
    model.write_text(json.dumps(doc))
    assert prepared.check(stdout)


def test_evaluate_check_fails_when_a_mean_is_not_its_folds(tmp_path):
    prepared, stdout = prepare("evaluate", tmp_path)
    out = prepared.outputs[0]
    doc = json.loads(out.read_text())
    doc["results"]["rh/ang"]["fold_scores"][0] -= 0.1
    out.write_text(json.dumps(doc))
    assert prepared.check(stdout)


@pytest.mark.parametrize("error", [0.5, -0.5])
def test_sync_check_fails_on_a_delay_off_by_half_a_second(tmp_path, error):
    prepared, stdout = prepare("sync", tmp_path)
    manifest = Path(str(prepared.outputs[0]) + ".manifest.json")
    doc = json.loads(manifest.read_text())
    doc["config"]["delay"] += error
    manifest.write_text(json.dumps(doc))
    stdout = stdout.replace(stdout.split()[0], f"delay={doc['config']['delay']:.3f}")
    failures = prepared.check(stdout)
    assert any("injected" in f for f in failures)


def traced(name, tmp_path):
    prepared = workloads.SETUPS[name](3, tmp_path, SMALL)
    tracer = tracing.Tracer()
    with tracer.installed():
        code, _, stderr, _ = run_command(prepared.argv, tracer)
    assert code == 0, stderr
    return tracing.layer_metrics(tracer)


def test_traced_cells_are_the_scored_grid_cells(tmp_path):
    metrics = traced("fit", tmp_path)
    alphas = len(workloads.alpha_grid(SMALL.fit_alpha_step))
    cells = alphas * SMALL.fit_grid_points ** 2 * len(workloads.FIT_SITES)
    assert metrics["learning.cells"] == cells
    assert metrics["learning.distinct_cell_ratio"] == 1.0


def test_traced_lag_evals_are_the_correlated_lags(tmp_path):
    metrics = traced("sync", tmp_path)
    lags = 2 * round(30.0 * workloads.RATE) + 1  # the CLI's default 30 s maximum lag
    assert metrics["sync.lag_evals"] == 2 * lags
