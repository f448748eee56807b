"""Command-line pipeline: simulate, fit, detect, classify, report, evaluate, sync.

Climb data lives in one directory per climb, holding ``<climb>_<site>.csv``
recordings (site in lh/rh/lf/rf/pelvis) and ``<climb>_annotations.json``.
Every output file is accompanied by a ``*.manifest.json`` tracing it to its
inputs and configuration. Outputs are byte-identical across re-runs with
the same inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import (__version__, classifier, cusum, io, learning, orientation, parallel,
               simulator, sync)
from .errors import ClimbDetectError
from .series import ALL_SITES, SensorSite, SignalSeries


def _data_dir(args_dir) -> Path:
    if args_dir is not None:
        return Path(args_dir)
    return Path(os.environ.get("CLIMBDETECT_DATA_DIR", "."))


def _make_parent(out) -> None:
    """Create the directory of output file ``out`` (if given) before any input is read."""
    if out:
        parent = Path(out).parent
        try:
            parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ClimbDetectError(f"cannot create output directory {parent}: {exc}") from None


def _manifest(command: str, args: dict) -> dict:
    return {"tool": "climbdetect", "version": __version__,
            "command": command, "config": args}


def _climb_id(climb_dir: Path) -> str:
    ann = sorted(climb_dir.glob("*_annotations.json"))
    if ann:
        return ann[0].name[: -len("_annotations.json")]
    recs = sorted(climb_dir.glob("*_*.csv"))
    if not recs:
        raise ClimbDetectError(f"no climb files in {climb_dir}")
    return recs[0].stem.rsplit("_", 1)[0]


# Bytes per row of a recording as `io.write_recording_csv` writes it, about
# 155 with the magnetometer columns: `fork_map` weighs each recording by its
# file size over this, so that no recording is parsed twice.
_RECORDING_ROW_BYTES = 150


def _climb_files(climb_dir: Path, need_annotations: bool):
    """(climb id, recording path of each site present, annotations) of a climb directory."""
    climb_id = _climb_id(climb_dir)
    paths = {site: path for site in ALL_SITES
             if (path := io.recording_path(climb_dir, climb_id, site)).exists()}
    if not paths:
        raise ClimbDetectError(f"no recordings found in {climb_dir}")
    annotations = {}
    ann_path = io.annotations_path(climb_dir, climb_id)
    if ann_path.exists():
        annotations = io.read_annotations_json(ann_path)
    elif need_annotations:
        raise ClimbDetectError(f"missing annotation file {ann_path}")
    return climb_id, paths, annotations


def _channels(path: Path, site: SensorSite, beta: float) -> learning.SensorChannels:
    """A recording's norms, filtered with gain ``beta``; the recording itself is dropped."""
    rec = io.read_recording_csv(path, site)
    return learning.SensorChannels(orientation.linear_acceleration(rec, beta),
                                   orientation.angular_velocity_norm(rec))


def _load_climbs_in(climb_dirs, beta: float, need_annotations: bool):
    """The climbs' norms and annotations. Every annotation file is read before
    any recording, and the recordings are read and filtered by `parallel.fork_map`."""
    files = [_climb_files(climb_dir, need_annotations) for climb_dir in climb_dirs]
    jobs = [(path, site, beta) for _, paths, _ in files for site, path in paths.items()]
    channels = iter(parallel.fork_map(
        _channels, jobs, [path.stat().st_size // _RECORDING_ROW_BYTES for path, _, _ in jobs]))
    return [learning.LabeledClimb(climb_id, {site: next(channels) for site in paths}, annotations)
            for climb_id, paths, annotations in files]


def _load_climb(climb_dir: Path, beta: float, need_annotations: bool) -> learning.LabeledClimb:
    return _load_climbs_in([climb_dir], beta, need_annotations)[0]


def _load_climbs(climbs_dir: Path, beta: float, need_annotations: bool = True):
    subdirs = sorted(p for p in Path(climbs_dir).iterdir() if p.is_dir())
    if not subdirs:
        raise ClimbDetectError(f"no climb subdirectories in {climbs_dir}")
    return _load_climbs_in(subdirs, beta, need_annotations)


def _lambda_grid(args) -> np.ndarray:
    return learning.default_lambda_grid(args.grid_points, args.grid_min, args.grid_max)


def _detect_climb(climb: learning.LabeledClimb,
                  models: dict[SensorSite, cusum.SensorModel]):
    out = {}
    for site, model in models.items():
        if site not in climb.channels:
            continue
        ch = climb.channels[site]
        out[site] = cusum.relabel_segments(cusum.detect(ch.acc, ch.ang, model))
    return out


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
    io.write_manifest(out_dir / "simulate.manifest.json", _manifest("simulate", {
        "seed": args.seed, "climbs": args.climbs, "duration": args.duration,
        "rate": args.rate, "out": str(out_dir)}))
    print(f"wrote {args.climbs} simulated climbs to {out_dir}")
    return 0


def cmd_fit(args) -> int:
    _make_parent(args.out)
    climbs = _load_climbs(_data_dir(args.climbs), args.beta)
    models, scores = learning.learn_sensor_models(
        climbs, mode=args.mode, lambda_grid=_lambda_grid(args),
        alpha_grid=learning.default_alpha_grid(args.alpha_step))
    provenance = {"climbs": [c.climb_id for c in climbs], "beta": args.beta,
                  "mode": args.mode,
                  "grid": {"min": args.grid_min, "max": args.grid_max,
                           "points": args.grid_points},
                  "alpha_step": args.alpha_step, "version": __version__}
    io.write_model_json(args.out, models, provenance)
    io.write_manifest(str(args.out) + ".manifest.json",
                      _manifest("fit", provenance))
    for site in sorted(models, key=lambda s: s.value):
        cfg = models[site].config
        print(f"{site.value}: alpha={cfg.alpha:.2f} lambda0={cfg.lambda0:.3g} "
              f"lambda1={cfg.lambda1:.3g} c={scores[site]:.3f}")
    return 0


def cmd_detect(args) -> int:
    models, beta = io.read_model_json(args.model)
    climb = _load_climb(Path(args.climb), beta, need_annotations=False)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    detections = _detect_climb(climb, models)
    for site in sorted(detections, key=lambda s: s.value):
        path = out_dir / f"{climb.climb_id}_{site.value}_detection.csv"
        io.write_detection_csv(path, detections[site])
        print(f"{site.value}: {len(detections[site].change_points)} change points -> {path}")
    io.write_manifest(out_dir / f"{climb.climb_id}_detect.manifest.json",
                      _manifest("detect", {"model": str(args.model),
                                           "climb": str(args.climb),
                                           "beta": beta}))
    return 0


def cmd_classify(args) -> int:
    _make_parent(args.out)
    models, beta = io.read_model_json(args.model)
    climb = _load_climb(Path(args.climb), beta, need_annotations=False)
    detections = _detect_climb(climb, models)
    timeline = classifier.classify(detections, args.min_episode)
    io.write_timeline_csv(args.out, timeline)
    io.write_manifest(str(args.out) + ".manifest.json",
                      _manifest("classify", {"model": str(args.model),
                                             "climb": str(args.climb),
                                             "beta": beta,
                                             "min_episode": args.min_episode}))
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
    for site in sorted(report.counts, key=lambda s: s.value):
        counts = report.counts[site]
        ratio = counts.ratio
        ratio_txt = f"{ratio:.2f}" if np.isfinite(ratio) else "undefined"
        print(f"{site.value}: exploratory={counts.exploratory} "
              f"performatory={counts.performatory} ratio={ratio_txt}")
    return 0


def cmd_evaluate(args) -> int:
    _make_parent(args.out)
    climbs = _load_climbs(_data_dir(args.climbs), args.beta)
    report = learning.cross_validate(
        climbs, lambda_grid=_lambda_grid(args),
        alpha_grid=learning.default_alpha_grid(args.alpha_step))
    doc = {"folds": "leave-one-out", "climbs": [c.climb_id for c in climbs],
           "results": {}}
    print(f"{'sensor':8s} {'mode':6s} {'score':>6s} {'opt':>6s} "
          f"{'alpha':>6s} {'lambda0':>8s} {'lambda1':>8s}")
    for (site, mode) in sorted(report.entries, key=lambda k: (k[0].value, k[1])):
        r = report.entries[(site, mode)]
        print(f"{site.value:8s} {mode:6s} {r.score:6.3f} {r.optimal_score:6.3f} "
              f"{r.alpha:6.2f} {r.lambda0:8.3g} {r.lambda1:8.3g}")
        doc["results"][f"{site.value}/{mode}"] = {
            "score": r.score, "optimal_score": r.optimal_score,
            "alpha": r.alpha, "lambda0": r.lambda0, "lambda1": r.lambda1,
            "fold_scores": r.fold_scores, "fold_optimal": r.fold_optimal}
    if args.out:
        io.write_manifest(args.out, doc)
        io.write_manifest(str(args.out) + ".manifest.json", _manifest("evaluate", {
            "climbs": str(args.climbs), "beta": args.beta,
            "grid": {"min": args.grid_min, "max": args.grid_max,
                     "points": args.grid_points},
            "alpha_step": args.alpha_step}))
    return 0


# A trajectory whose unsmoothed vertical second differences all lie within
# this share of its largest |y| has no vertical acceleration beyond rounding
# (about 1e-15 of that scale).
_UNIFORM_MOTION_SHARE = 1e-9


def cmd_sync(args) -> int:
    _make_parent(args.out)
    traj = io.read_trajectory_csv(args.trajectory)
    vertical = sync.trajectory_to_acceleration(traj, args.smooth_window)
    if np.abs(np.diff(traj.y, 2)).max() <= _UNIFORM_MOTION_SHARE * np.abs(traj.y).max():
        # every lag would correlate rounding or nothing: a delay without evidence
        raise ClimbDetectError(f"{args.trajectory}: the trajectory has no vertical "
                               "acceleration, so it cannot fix a delay")
    rec = io.read_recording_csv(args.recording, SensorSite.PELVIS)
    a_earth = orientation.earth_acceleration(rec, args.beta)
    sensor_vertical = SignalSeries(float(rec.t[0]), rec.dt, a_earth[:, 2])
    delay, corr = sync.estimate_delay(sensor_vertical, vertical, args.max_lag)
    print(f"delay={delay:.3f} s peak_correlation={corr:.3f}")
    if args.annotations and args.out:
        annotations = io.read_annotations_json(args.annotations)
        span = (float(rec.t[0]), float(rec.t[-1]))
        shifted = {site: sync.shift_annotations(ann, -delay, span)
                   for site, ann in annotations.items()}
        io.write_annotations_json(args.out, shifted)
        io.write_manifest(str(args.out) + ".manifest.json", _manifest("sync", {
            "trajectory": str(args.trajectory), "recording": str(args.recording),
            "annotations": str(args.annotations), "delay": delay,
            "peak_correlation": corr, "max_lag": args.max_lag,
            "smooth_window": args.smooth_window}))
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
_positive = _checked(float, lambda v: 0.0 < v < np.inf, "a finite number > 0")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_step = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_grid_options(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--climbs", type=int, default=3)
    p.add_argument("--duration", type=float, default=180.0)
    p.add_argument("--rate", type=float, default=100.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit models and calibrate thresholds on annotated climbs")
    p.add_argument("--climbs", help="directory of climb subdirectories "
                   "(default $CLIMBDETECT_DATA_DIR)")
    p.add_argument("--out", required=True)
    p.add_argument("--beta", type=_nonnegative, default=orientation.DEFAULT_BETA)
    p.add_argument("--mode", choices=learning.ALPHA_MODES, default="fused")
    _add_grid_options(p)
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
    p.add_argument("--climbs")
    p.add_argument("--beta", type=_nonnegative, default=orientation.DEFAULT_BETA)
    p.add_argument("--out")
    _add_grid_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sync", help="estimate the video/sensor delay from a pelvis trajectory")
    p.add_argument("--trajectory", required=True, help="CSV t,x,y in seconds/metres")
    p.add_argument("--recording", required=True, help="pelvis recording CSV")
    p.add_argument("--annotations", help="annotation JSON on the video clock")
    p.add_argument("--out", help="where to write shifted annotations")
    p.add_argument("--max-lag", type=_nonnegative, default=30.0)
    p.add_argument("--smooth-window", type=_nonnegative, default=sync.DEFAULT_SMOOTH_WINDOW)
    p.add_argument("--beta", type=_nonnegative, default=orientation.DEFAULT_BETA)
    p.set_defaults(func=cmd_sync)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a warning shown, such as a reader's gap warning, is one `warning:` line
        warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                          file=sys.stderr)
        try:
            return args.func(args)
        except ClimbDetectError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
