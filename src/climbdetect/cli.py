"""Command-line pipeline: simulate, fit, detect, classify, report, evaluate, sync.

Climb data lives in one directory per climb (`io.climbs`), holding
``<climb>_<site>.csv`` recordings and ``<climb>_annotations.json``. A manifest
(`io.write_manifest`) traces outputs to their inputs and configuration: one per
output directory of ``simulate`` and ``detect``, one beside the ``--out`` of the
others but ``report``, whose output holds it. Re-runs write the same bytes.

Every recording of ``fit``, ``evaluate``, ``detect`` and ``classify`` goes
through one stage, `_norms`; ``sync`` reads its own, as it needs the vertical
Earth acceleration, not a norm. ``--climbs`` defaults to
``$CLIMBDETECT_DATA_DIR``, then ``.``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import (__version__, classifier, cusum, io, learning, orientation, parallel,
               simulator, sync)
from .errors import ClimbDetectError, InsufficientOverlap, SignalOverflow, TooFewSamples
from .series import SensorSite, SignalSeries


def _make_parent(out) -> None:
    """Create the directory of output file ``out`` (if given) before any input file
    is read; an ``out`` that is a directory is refused."""
    if out:
        if Path(out).is_dir():
            raise ClimbDetectError(f"{out} is a directory, not an output file")
        parent = Path(out).parent
        try:
            parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ClimbDetectError(f"cannot create output directory {parent}: {exc}") from None


def _norms(path: Path, site: SensorSite, beta: float | None) -> tuple:
    """The stage every recording goes through: its acceleration and angular
    velocity norms, the first filtered with gain ``beta``, or None where ``beta``
    is None; the recording itself is dropped."""
    rec = io.read_recording_csv(path, site)
    acc = None if beta is None else orientation.linear_acceleration(rec, beta)
    return acc, orientation.angular_velocity_norm(rec)


def _map_recordings(fn, jobs: list[tuple]) -> list:
    """``fn(*job)`` of each job, whose first item is the path of the recording it
    reads, by `parallel.fork_map`; a job weighs its recording's rows."""
    rows = [path.stat().st_size // io.RECORDING_ROW_BYTES for path, *_ in jobs]
    return parallel.fork_map(fn, jobs, rows)


def _load_climbs(args) -> list[learning.LabeledClimb]:
    """The norms (gain ``--beta``) and annotations of the climbs in ``--climbs``,
    listed before the ``--out`` directory is made, so that an ``--out`` among them
    is no climb; every annotation file is read before any recording."""
    climbs = io.climbs(Path(args.climbs))
    _make_parent(args.out)
    files = [(climb_id, paths, io.read_annotations_json(ann_path))
             for climb_id, paths, ann_path in climbs]
    jobs = [(path, site, args.beta) for _, paths, _ in files for site, path in paths.items()]
    channels = (learning.SensorChannels(*norms) for norms in _map_recordings(_norms, jobs))
    return [learning.LabeledClimb(climb_id, {site: next(channels) for site in paths}, annotations)
            for climb_id, paths, annotations in files]


def _detection(path: Path, site: SensorSite, beta: float | None,
               model: cusum.SensorModel) -> cusum.BinaryStateSeries:
    """The detection of one recording; its acceleration is filtered with gain
    ``beta`` only where the model gives it weight (alpha > 0)."""
    acc, ang = _norms(path, site, beta if model.config.alpha > 0 else None)
    # not cusum.detect, whose tracer counts len(acc) (CHANGES.md, FOUND on `_samples("acc")`)
    return cusum.detect_from_increments(cusum.fused_increments(acc, ang, model),
                                        model.config.lambda0, model.config.lambda1,
                                        ang.t0, ang.dt)


def _detect_climb(climb_dir: Path, models: dict[SensorSite, cusum.SensorModel],
                  beta: float | None):
    """(climb id, detection of each modelled site present, made where it was read)."""
    climb_id, paths = io.climb_recordings(climb_dir)
    sites = [site for site in paths if site in models]
    if not sites:
        raise ClimbDetectError(f"{climb_dir}: no recording of a site the model has "
                               f"({', '.join(sorted(site.value for site in models))})")
    detections = _map_recordings(_detection, [(paths[s], s, beta, models[s]) for s in sites])
    return climb_id, dict(zip(sites, detections))


def _lambda_grid(args) -> np.ndarray:
    return learning.default_lambda_grid(args.grid_points, args.grid_min, args.grid_max)


def _grid(args) -> dict:
    """The threshold grid options, as `fit` and `evaluate` record them."""
    return {"min": args.grid_min, "max": args.grid_max, "points": args.grid_points}


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.climbs):
        climb_id = f"climb{i + 1:02d}"
        plan = simulator.random_plan(args.duration, rng)
        climb = simulator.simulate(plan, sample_rate=args.rate,
                                   seed=args.seed + i, climb_id=climb_id,
                                   triaxial=True)
        climb_dir = out_dir / climb_id
        climb_dir.mkdir(exist_ok=True)
        for site, rec in climb.recordings.items():
            io.write_recording_csv(io.recording_path(climb_dir, climb_id, site), rec)
        io.write_annotations_json(io.annotations_path(climb_dir, climb_id),
                                  climb.annotations)
    io.write_manifest(out_dir / "simulate", "simulate", {
        "seed": args.seed, "climbs": args.climbs, "duration": args.duration,
        "rate": args.rate, "out": str(out_dir)})
    print(f"wrote {args.climbs} simulated climbs to {out_dir}")
    return 0


def cmd_fit(args) -> int:
    climbs = _load_climbs(args)
    models, scores = learning.learn_sensor_models(
        climbs, mode=args.mode, lambda_grid=_lambda_grid(args),
        alpha_grid=learning.default_alpha_grid(args.alpha_step))
    provenance = {"climbs": [c.climb_id for c in climbs], "beta": args.beta,
                  "mode": args.mode, "grid": _grid(args),
                  "alpha_step": args.alpha_step, "version": __version__}
    io.write_model_json(args.out, models, provenance)
    io.write_manifest(args.out, "fit", provenance)
    for site in sorted(models, key=lambda s: s.value):
        cfg = models[site].config
        print(f"{site.value}: alpha={cfg.alpha:.2f} lambda0={cfg.lambda0:.3g} "
              f"lambda1={cfg.lambda1:.3g} c={scores[site]:.3f}")
    return 0


def cmd_detect(args) -> int:
    models, beta = io.read_model_json(args.model)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # before any recording is read
    climb_id, detections = _detect_climb(Path(args.climb), models, beta)
    for site in sorted(detections, key=lambda s: s.value):
        path = out_dir / f"{climb_id}_{site.value}_detection.csv"
        io.write_detection_csv(path, detections[site])
        print(f"{site.value}: {len(detections[site].change_points)} change points -> {path}")
    io.write_manifest(out_dir / f"{climb_id}_detect", "detect", {
        "model": str(args.model), "climb": str(args.climb), "beta": beta})
    return 0


def cmd_classify(args) -> int:
    _make_parent(args.out)
    models, beta = io.read_model_json(args.model)
    _, detections = _detect_climb(Path(args.climb), models, beta)
    try:
        timeline = classifier.classify(detections, args.min_episode)
    except ClimbDetectError as exc:  # a refusal of the climb names it
        raise ClimbDetectError(f"{args.climb}: {exc}") from None
    io.write_timeline_csv(args.out, timeline)
    io.write_manifest(args.out, "classify", {
        "model": str(args.model), "climb": str(args.climb), "beta": beta,
        "min_episode": args.min_episode})
    counts = {classifier.FullBodyState(s).name.lower(): int(np.sum(timeline.full_body == s))
              for s in classifier.FullBodyState}
    print(f"wrote timeline ({len(timeline.full_body)} samples) to {args.out}")
    print("full-body sample counts: "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return 0


def cmd_report(args) -> int:
    _make_parent(args.out)
    timeline = io.read_timeline_csv(args.timeline)
    report = classifier.exploration_report(timeline)
    if args.out:
        io.write_report_json(args.out, report,
                             config={"timeline": str(args.timeline)})
    for site in sorted(report, key=lambda s: s.value):
        counts = report[site]
        ratio = counts.ratio
        ratio_txt = f"{ratio:.2f}" if np.isfinite(ratio) else "undefined"
        print(f"{site.value}: exploratory={counts.exploratory} "
              f"performatory={counts.performatory} ratio={ratio_txt}")
    return 0


def cmd_evaluate(args) -> int:
    climbs = _load_climbs(args)
    report = learning.cross_validate(
        climbs, lambda_grid=_lambda_grid(args),
        alpha_grid=learning.default_alpha_grid(args.alpha_step))
    doc = {"folds": "leave-one-out", "climbs": [c.climb_id for c in climbs],
           "results": {}}
    print(f"{'sensor':8s} {'mode':6s} {'score':>6s} {'opt':>6s} "
          f"{'alpha':>6s} {'lambda0':>8s} {'lambda1':>8s}")
    for (site, mode) in sorted(report, key=lambda k: (k[0].value, k[1])):
        r = report[(site, mode)]
        print(f"{site.value:8s} {mode:6s} {r.score:6.3f} {r.optimal_score:6.3f} "
              f"{r.alpha:6.2f} {r.lambda0:8.3g} {r.lambda1:8.3g}")
        doc["results"][f"{site.value}/{mode}"] = dataclasses.asdict(r)
    if args.out:
        io.write_json(args.out, doc)
        io.write_manifest(args.out, "evaluate", {
            "climbs": str(args.climbs), "beta": args.beta, "grid": _grid(args),
            "alpha_step": args.alpha_step})
    return 0


def _vertical_acceleration(path, beta: float) -> tuple[SignalSeries, tuple[float, float]]:
    """The pelvis recording's Earth-frame vertical acceleration, filtered with gain
    ``beta`` and copied out of the (n, 3) Earth-frame array, and the recording's
    first and last time; the recording and the array are dropped.

    The filter runs in its gravity-only (IMU) form: the magnetometer columns
    are read, and refused where malformed, but not used. The vertical
    component does not depend on heading, and the field term only steers
    heading; through the field's dip it would also pull the tilt towards a
    disturbed field, as near a steel wall frame."""
    rec = io.read_recording_csv(path, SensorSite.PELVIS)
    rec.mag = None
    vertical = np.ascontiguousarray(orientation.earth_acceleration(rec, beta)[:, 2])
    span = (float(rec.t[0]), float(rec.t[-1]))
    return SignalSeries(span[0], rec.dt, vertical), span


def cmd_sync(args) -> int:
    _make_parent(args.out)
    traj = io.read_trajectory_csv(args.trajectory)
    judged = args.trajectory  # the files a refusal names: the trajectory, then both
    try:
        vertical = sync.trajectory_to_acceleration(traj, args.smooth_window)
        sensor_vertical, span = _vertical_acceleration(args.recording, args.beta)
        judged = f"{args.trajectory} and {args.recording}"
        delay, corr, p_value, n_eff = sync.estimate_delay(sensor_vertical, vertical, args.max_lag)
        refusal = None if p_value <= sync.MAX_P_VALUE else (
            f"the best delay, {delay:.3f} s with peak correlation {corr:.3f}, has p = "
            f"{p_value:.2g} at {n_eff:.0f} effective samples; a delay needs p <= "
            f"{sync.MAX_P_VALUE:g}")
    except (TooFewSamples, SignalOverflow, InsufficientOverlap) as exc:
        refusal = exc
    if refusal is not None:
        raise ClimbDetectError(f"{judged}: {refusal}")
    print(f"delay={delay:.3f} s peak_correlation={corr:.3f}")
    if args.annotations and args.out:
        annotations = io.read_annotations_json(args.annotations)
        shifted = {site: sync.shift_annotations(ann, -delay, span)
                   for site, ann in annotations.items()}
        io.write_annotations_json(args.out, shifted)
        io.write_manifest(args.out, "sync", {
            "trajectory": str(args.trajectory), "recording": str(args.recording),
            "annotations": str(args.annotations), "delay": delay,
            "peak_correlation": corr, "p_value": p_value, "n_eff": n_eff,
            "max_lag": args.max_lag, "smooth_window": args.smooth_window})
    return 0


def _checked(convert, accept, requirement: str):
    """argparse type: ``convert(text)`` where ``accept`` holds for it; argparse
    reports any other value as a usage error that states ``requirement``."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
    return parse


_nonnegative = _checked(float, lambda v: 0.0 <= v < np.inf, "a finite number >= 0")
_beta = _checked(orientation.check_beta, lambda v: True,
                 f"a number from 0 to {orientation.MAX_BETA:g}")
_positive = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_step = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_learning_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--climbs", default=os.environ.get("CLIMBDETECT_DATA_DIR", "."),
                   help="climbs directory (default $CLIMBDETECT_DATA_DIR, then .)")
    p.add_argument("--beta", type=_beta, default=orientation.DEFAULT_BETA)
    p.add_argument("--grid-min", type=_positive, default=learning.DEFAULT_GRID_MIN,
                   help="smallest threshold candidate (default %(default)s)")
    p.add_argument("--grid-max", type=_positive, default=learning.DEFAULT_GRID_MAX,
                   help="largest threshold candidate (default %(default)s)")
    p.add_argument("--grid-points", type=_count, default=learning.DEFAULT_GRID_POINTS,
                   help="log-spaced candidates per threshold axis (default %(default)s)")
    p.add_argument("--alpha-step", type=_step, default=learning.DEFAULT_ALPHA_STEP,
                   help="fusion-weight grid step (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climbdetect",
        description="Detect and classify climbing activity from wearable IMU recordings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic labeled climbs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--climbs", type=_count, default=3)
    p.add_argument("--duration", type=_positive, default=180.0)
    p.add_argument("--rate", type=_positive, default=100.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit models and calibrate thresholds on annotated climbs")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=learning.ALPHA_MODES, default="fused")
    _add_learning_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="run detection on one climb")
    p.add_argument("--model", required=True)
    p.add_argument("--climb", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("classify", help="produce the activity timeline for one climb")
    p.add_argument("--model", required=True)
    p.add_argument("--climb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-episode", type=_nonnegative,
                   default=classifier.DEFAULT_MIN_EPISODE_SECONDS,
                   help="minimum mobile-episode duration in seconds (default %(default)s)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="exploratory/performatory counts from a timeline")
    p.add_argument("timeline")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("evaluate", help="leave-one-climb-out cross-validation")
    p.add_argument("--out")
    _add_learning_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sync", help="estimate the video/sensor delay from a pelvis trajectory")
    p.add_argument("--trajectory", required=True, help="CSV t,x,y in seconds/metres")
    p.add_argument("--recording", required=True, help="pelvis recording CSV")
    p.add_argument("--annotations", help="annotation JSON on the video clock")
    p.add_argument("--out", help="where to write shifted annotations")
    p.add_argument("--max-lag", type=_nonnegative, default=30.0)
    p.add_argument("--smooth-window", type=_nonnegative, default=sync.DEFAULT_SMOOTH_WINDOW)
    p.add_argument("--beta", type=_beta, default=orientation.DEFAULT_BETA)
    p.set_defaults(func=cmd_sync)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sync" and bool(args.annotations) != bool(args.out):
        # either alone would read or write nothing
        parser.error("sync: --annotations and --out must be given together")
    with warnings.catch_warnings():
        # a warning shown, such as a reader's gap warning, is one `warning:` line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                          file=sys.stderr)
        try:
            return args.func(args)
        except (ClimbDetectError, OSError) as exc:  # an OSError names its path
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
