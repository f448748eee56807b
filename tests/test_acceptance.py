"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
all). Oracles are independent transcriptions, not calls back into the
library code under test."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from climbdetect import cli, io
from climbdetect.classifier import FullBodyState, LimbSubState, full_body_state
from climbdetect.cusum import (DetectionConfig, SensorModel, detect,
                               detect_from_increments, log_likelihood_ratio)
from climbdetect.gamma_model import (GammaParams, HypothesisModel, fit_mle,
                                     shape_from_log_gap)
from climbdetect.learning import performance_coefficient
from climbdetect.orientation import ImuRecording, linear_acceleration
from climbdetect.series import (ALL_SITES, H1, AnnotationTrack,
                                SensorSite, SignalSeries)
from climbdetect.simulator import MAG_FIELD, default_models, random_plan, simulate
from climbdetect.sync import estimate_delay
from climbdetect.learning import cross_validate, default_lambda_grid
from cusum_oracle import naive_cusum
from gamma_oracles import chi_square_gof
from quaternions import program_step, quat_distance, quat_from_axis_angle
from test_classifier import limb_substates


def check(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def naive_substates(limb, full_body):
    """Brute-force episode labeler used as the classifier oracle."""
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


def test_criterion_1_gamma_mle_recovery():
    t_start = time.perf_counter()
    rng = np.random.default_rng(1)
    samples = rng.gamma(2.0, 3.0, 100_000)
    fit = fit_mle(samples)
    elapsed = time.perf_counter() - t_start
    ok = (abs(fit.k - 2.0) <= 0.05 * 2.0
          and abs(fit.theta - 3.0) <= 0.05 * 3.0
          and abs(shape_from_log_gap(1.0) - 0.60763) <= 1e-5
          and elapsed < 1.0)
    check(1, "Gamma MLE recovery", ok,
          f"k={fit.k:.4f} theta={fit.theta:.4f} "
          f"k(s=1)={shape_from_log_gap(1.0):.6f} {elapsed:.2f}s")


def test_criterion_2_cusum_oracle_equivalence():
    t_start = time.perf_counter()
    # where fl(C - min C) and a sum restarted at each detection round apart:
    # the drawup fires at samples 3 and 4, the restarted sum only at 3
    problems = [(np.array([0.0, -2.1, 0.5, 0.7, -0.4, 0.3]), 0.4, 0.5)]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        inc = rng.normal(-0.3 if seed % 2 else 0.3, 2.0, 10_000)
        inc += np.where(np.sin(np.arange(10_000) / 500.0) > 0, 0.6, -0.6)
        problems.append((inc, 5.0 + (seed % 7), 5.0 + (seed % 5)))
    mismatches = 0
    for inc, lam0, lam1 in problems:
        got = detect_from_increments(inc, lam0, lam1).change_points
        if got != naive_cusum(inc, lam0, lam1)[1]:
            mismatches += 1
    elapsed = time.perf_counter() - t_start
    check(2, "CUSUM oracle equivalence", mismatches == 0 and elapsed < 30.0,
          f"{mismatches} mismatching series, {elapsed:.1f}s")


def test_criterion_3_worked_cusum_example():
    model = HypothesisModel(h0=GammaParams(1.0, 1.0), h1=GammaParams(1.0, 4.0))
    sensor = SensorModel(acc=model, ang=model,
                         config=DetectionConfig(lambda0=10.0, lambda1=10.0,
                                                alpha=1.0))
    x = SignalSeries(0.0, 1.0, np.full(10, 8.0))
    result = detect(x, x, sensor)
    s3 = 3.0 * log_likelihood_ratio(8.0, model)
    ok = (result.change_points and result.change_points[0] == (3, H1)
          and abs(s3 - 13.841) <= 1e-3)
    check(3, "worked CUSUM example", bool(ok),
          f"first detection {result.change_points[:1]}, S3={s3:.4f}")


def test_criterion_4_end_to_end_detection_quality():
    t_start = time.perf_counter()
    models = default_models()
    climbs = [simulate(random_plan(180.0, np.random.default_rng(100 + i)),
                       models, sample_rate=100, seed=200 + i,
                       climb_id=f"c{i}")
              for i in range(3)]
    report = cross_validate(climbs, alpha_grid=np.array([0.0, 0.5, 1.0]),
                            lambda_grid=default_lambda_grid(6, 1.0, 200.0))
    mean_ok = all(report[(site, "fused")].score >= 0.9
                  for site in ALL_SITES)
    fold_ok = all(opt >= score - 0.02
                  for site in ALL_SITES
                  for score, opt in zip(report[(site, "fused")].fold_scores,
                                        report[(site, "fused")].fold_optimal))
    elapsed = time.perf_counter() - t_start
    worst = min(report[(site, "fused")].score for site in ALL_SITES)
    check(4, "end-to-end detection quality",
          mean_ok and fold_ok and elapsed < 120.0,
          f"worst mean c={worst:.3f}, {elapsed:.1f}s")


def test_criterion_5_threshold_monotonicity():
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        inc = rng.normal(0.0, 1.5, 5_000)
        lam0 = float(rng.uniform(2.0, 20.0))
        lam1 = float(rng.uniform(2.0, 20.0))
        def up_count(l1):
            cps = detect_from_increments(inc, lam0, l1).change_points
            return sum(1 for _, st in cps if st == H1)
        if up_count(2.0 * lam1) > up_count(lam1):
            violations += 1
    check(5, "threshold monotonicity", violations == 0,
          f"{violations} violations over 50 inputs")


def test_criterion_6_performance_coefficient():
    def series(states):
        from climbdetect.cusum import BinaryStateSeries
        return BinaryStateSeries(0.0, 1.0, np.asarray(states, np.uint8), [], [])

    truth = np.array([0, 0, 1, 1, 0, 1], np.uint8)
    perfect = performance_coefficient(series(truth), truth)
    const0 = performance_coefficient(series(np.zeros(6, np.uint8)), truth)
    const1 = performance_coefficient(series(np.ones(6, np.uint8)), truth)

    rng = np.random.default_rng(6)
    identity_ok = True
    for _ in range(100):
        p = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        tp = int(rng.integers(0, p + 1))
        fp = int(rng.integers(0, n + 1))
        lhs = Fraction(tp, p) - Fraction(fp, n)
        rhs = Fraction(n - fp, n) - Fraction(p - tp, p)
        identity_ok = identity_ok and lhs == rhs
    check(6, "performance coefficient",
          perfect == 1.0 and const0 == 0.0 and const1 == 0.0 and identity_ok,
          f"perfect={perfect} const=({const0},{const1}) identity exact={identity_ok}")


def test_criterion_7_synchronization_roundtrip():
    rng = np.random.default_rng(7)
    dt = 0.01
    # smooth broadband signal: heavily averaged noise keeps a sharp
    # correlation peak without sample-scale jitter
    raw = rng.normal(0.0, 1.0, 20_000)
    kernel = np.exp(-0.5 * (np.arange(-50, 51) / 12.0) ** 2)
    smooth = np.convolve(raw, kernel / kernel.sum(), mode="same")
    margin, n = 2_000, 10_000
    failures = []
    for delay in (-3.00, -0.47, 0.0, 1.47, 12.5):
        k = int(round(delay / dt))
        a = SignalSeries(0.0, dt, smooth[margin:margin + n])
        b = SignalSeries(0.0, dt, smooth[margin - k:margin - k + n])
        est = estimate_delay(a, b, max_lag=15.0)[0]
        if abs(est - delay) > 0.01:
            failures.append((delay, est))
    check(7, "synchronization round-trip", not failures,
          f"failures={failures}" if failures else "all 5 delays within 0.01 s")


def test_criterion_8_classifier_truth_table():
    counts = {state: 0 for state in FullBodyState}
    expected = {
        (0, 0, 0, 0, 0): FullBodyState.IMMOBILITY,
        (0, 0, 0, 0, 1): FullBodyState.POSTURAL_REGULATION,
    }
    # all 32 combinations at once, one per sample, through the table classify runs
    combos = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
    states = full_body_state(list(combos[:, :4].T), combos[:, 4])
    table_ok = states.shape == (32,)
    for combo, got in zip(map(tuple, combos.tolist()), states.tolist()):
        counts[got] += 1
        want = expected.get(combo)
        if want is None:
            want = (FullBodyState.TRACTION if combo[4]
                    else FullBodyState.HOLD_INTERACTION)
        table_ok = table_ok and got == want
    partition_ok = (counts[FullBodyState.IMMOBILITY] == 1
                    and counts[FullBodyState.POSTURAL_REGULATION] == 1
                    and counts[FullBodyState.HOLD_INTERACTION] == 15
                    and counts[FullBodyState.TRACTION] == 15)

    oracle_ok = True
    for seed in range(200):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(50, 500))
        limb = (rng.random(n) < 0.4).astype(np.uint8)
        full_body = rng.integers(0, 4, n).astype(np.uint8)
        if not np.array_equal(limb_substates(limb, full_body),
                              naive_substates(limb, full_body)):
            oracle_ok = False
            break
    check(8, "classifier truth table and sub-state oracle",
          table_ok and partition_ok and oracle_ok,
          f"partition={tuple(counts.values())} oracle on 200 sequences")


def test_criterion_9_orientation_gravity_removal():
    # arbitrary constant attitude: gravity and field seen in the sensor frame
    from scipy.spatial.transform import Rotation
    attitude = Rotation.random(random_state=42)
    n, rate = 800, 100.0
    accel = np.tile(attitude.inv().apply([0.0, 0.0, 9.81]), (n, 1))
    mag = np.tile(attitude.inv().apply(MAG_FIELD), (n, 1))
    rec = ImuRecording(site=SensorSite.PELVIS, sample_rate=rate,
                       t=np.arange(n) / rate, accel=accel,
                       gyro=np.zeros((n, 3)), mag=mag)
    lin = linear_acceleration(rec, beta=0.1)
    residual = float(np.max(lin.values[int(3.0 * rate):]))

    omega = np.array([1.1, -0.4, 2.0])
    q = np.array([1.0, 0.0, 0.0, 0.0])
    dt = 1.0 / rate
    for _ in range(100):
        q = program_step(q, np.zeros(3), omega, None, dt, beta=0.1)
    closed = quat_from_axis_angle(omega / np.linalg.norm(omega),
                                  float(np.linalg.norm(omega)) * 1.0)
    gyro_err = quat_distance(q, closed)
    check(9, "orientation and gravity removal",
          residual < 0.05 and gyro_err < 1e-3,
          f"residual={residual:.2e} m/s^2, gyro-only error={gyro_err:.2e}")


def test_criterion_10_chi_square_calibration():
    null_low = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        samples = rng.gamma(2.5, 1.2, 2_000)
        if chi_square_gof(samples, fit_mle(samples)) < 0.05:
            null_low += 1
    rng = np.random.default_rng(10)
    bimodal = np.concatenate([rng.normal(1.0, 0.05, 1_000),
                              rng.normal(8.0, 0.3, 1_000)])
    bimodal = np.clip(bimodal, 1e-3, None)
    p_alt = chi_square_gof(bimodal, fit_mle(bimodal))
    fraction = null_low / 200.0
    check(10, "chi-square GOF calibration",
          abs(fraction - 0.05) <= 0.03 and p_alt < 1e-3,
          f"null p<0.05 fraction={fraction:.3f}, bimodal p={p_alt:.2e}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    def snapshot(paths):
        return {p: p.read_bytes() for p in paths if p.is_file()}

    data = tmp_path / "climbs"
    model = tmp_path / "model.json"
    det = tmp_path / "det"
    timeline = tmp_path / "timeline.csv"
    report = tmp_path / "report.json"
    evaluation = tmp_path / "eval.json"

    rate, duration = 50.0, 30.0
    t = np.arange(int(duration * rate)) / rate
    x = 0.5 * np.sin(0.8 * t)
    y = 0.4 * np.sin(1.1 * t + 0.4)
    rec = ImuRecording(
        site=SensorSite.PELVIS, sample_rate=rate, t=t,
        accel=np.column_stack([-0.32 * np.sin(0.8 * t), np.zeros_like(t),
                               -0.484 * np.sin(1.1 * t + 0.4) + 9.81]),
        gyro=np.zeros((len(t), 3)), mag=np.tile(MAG_FIELD, (len(t), 1)))
    rec_path = tmp_path / "c1_pelvis.csv"
    io.write_recording_csv(rec_path, rec)
    traj_path = tmp_path / "traj.csv"
    traj_path.write_text("t,x,y\n" + "\n".join(
        f"{float(ti)!r},{float(xi)!r},{float(yi)!r}"
        for ti, xi, yi in zip(t, x, y)) + "\n")
    ann_path = tmp_path / "ann.json"
    io.write_annotations_json(ann_path, {
        SensorSite.PELVIS: AnnotationTrack(site=SensorSite.PELVIS,
                                           intervals=[(0.0, 15.0, 0),
                                                      (15.0, 30.0, 1)])})
    shifted = tmp_path / "shifted.json"

    commands = [
        ["simulate", "--out", str(data), "--seed", "5", "--climbs", "2",
         "--duration", "20", "--rate", "50"],
        ["fit", "--climbs", str(data), "--out", str(model),
         "--grid-points", "3", "--grid-min", "1", "--grid-max", "100",
         "--alpha-step", "0.5"],
        ["detect", "--model", str(model), "--climb", str(data / "climb01"),
         "--out", str(det)],
        ["classify", "--model", str(model), "--climb", str(data / "climb01"),
         "--out", str(timeline)],
        ["report", str(timeline), "--out", str(report)],
        ["evaluate", "--climbs", str(data), "--out", str(evaluation),
         "--grid-points", "3", "--grid-min", "1", "--grid-max", "100",
         "--alpha-step", "0.5"],
        ["sync", "--trajectory", str(traj_path), "--recording", str(rec_path),
         "--annotations", str(ann_path), "--out", str(shifted),
         "--max-lag", "5", "--beta", "0.02"],
    ]
    stable = []
    for argv in commands:
        assert cli.main(argv) == 0
        first = snapshot(tmp_path.rglob("*"))
        assert cli.main(argv) == 0
        second = snapshot(tmp_path.rglob("*"))
        stable.append(first == second)
    capsys.readouterr()
    names = [argv[0] for argv in commands]
    bad = [name for name, ok in zip(names, stable) if not ok]
    check(11, "CLI determinism", not bad,
          f"unstable: {bad}" if bad else f"{len(names)} subcommands byte-identical")
