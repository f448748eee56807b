"""Benchmark of the climbdetect command-line pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 16 --trace 0

Each workload writes seeded inputs with the program's simulator and
writers, runs one ``climbdetect`` subcommand in-process through
``climbdetect.cli.main`` until ``--seconds`` have passed, checks the
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives the
end-to-end metrics, rescaled to a fixed machine speed by a reference loop
run between the commands; ``--trace 1`` alternates untraced and traced
commands and gives the per-layer metrics. ``--workload all`` runs every
workload in turn, each in its own process. The exit code is 1 when a
command or a check fails. See bench/README.md.
"""

from __future__ import annotations

import os

# One thread for every numeric library: the machines this runs on are small
# and the figures must not depend on how many cores are idle.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "fit", "evaluate", "sync")
SETUP_REPEATS = 3
# The reference loop runs between the commands for a quarter of their time.
# Its seconds per loop measure how fast the machine runs at that moment;
# REFERENCE_LOOP_S is its time on the machine of the README's figures.
REFERENCE_SHARE = 0.25
REFERENCE_LOOP_N = 8000
REFERENCE_LOOP_S = 0.05
IMPORT_PROBE = ("import time; t = time.perf_counter(); import climbdetect.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import climbdetect from this checkout's ``src`` and nowhere else."""
    if not (SRC / "climbdetect" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/climbdetect")
    sys.path.insert(0, str(SRC))
    import climbdetect

    if Path(climbdetect.__file__).resolve().parent != (SRC / "climbdetect").resolve():
        raise SystemExit(f"error: climbdetect imported from {climbdetect.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    numba = sys.modules.get("numba")  # climbdetect.cusum imports it when it can
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "numba": numba is not None,
            "numba_version": getattr(numba, "__version__", None)}


def import_seconds() -> float:
    """Time to import climbdetect.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def reference_loop() -> float:
    """Seconds of a fixed mix of the kinds of work the program's loops do:
    scalar arithmetic, operations on small numpy arrays, as in the
    orientation filter, and a running-extremum scan over the elements of a
    numpy array, as in CUSUM."""
    import numpy as np

    n = REFERENCE_LOOP_N
    start = perf_counter()
    s = 0.0
    for i in range(40 * n):
        s += i * 0.5
    q = np.array([1.0, 0.0, 0.0, 0.0])
    x = np.linspace(0.0, 1.0, n)
    for i in range(n):
        v = q * x[i] + q
        s += math.sqrt(float(np.dot(v, v)))
    x = np.sin(np.arange(10 * n) * 0.01)
    total = low = 0.0
    for i in range(10 * n):
        total += x[i]
        if total < low:
            low = total
        elif total - low > 5.0:
            total = low = 0.0
    return perf_counter() - start


def run_command(argv, tracer=None):
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    from climbdetect import cli

    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed command, not the end of the run
            code = None
            traceback.print_exc(file=err)
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Run:
    """Commands of one workload: counts, times, failures and output checks."""

    def __init__(self, prepared):
        self.prepared = prepared
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.first = None  # (stdout, output bytes) of the first command that succeeded
        self.errors: list[str] = []

    def command(self, tracer=None) -> float | None:
        """Seconds the command took, or None when it failed."""
        code, stdout, stderr, elapsed = run_command(self.prepared.argv, tracer)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(stderr.strip().splitlines()[-1] if stderr.strip()
                                   else f"exit code {code}")
            return None
        outputs = (stdout, [p.read_bytes() for p in self.prepared.outputs])
        if self.first is None:
            self.first = outputs
        elif outputs != self.first and len(self.failures) < 10:
            self.failures.append("outputs differ from the first command's on the same inputs")
        return elapsed

    def check(self) -> None:
        """Check the first outputs in full; later ones were compared byte for byte."""
        if self.first is not None:
            stdout, contents = self.first
            for path, content in zip(self.prepared.outputs, contents):
                path.write_bytes(content)
            self.failures += self.prepared.check(stdout)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    import tracing
    import workloads

    sizes = workloads.Sizes()
    setups = []

    def set_up():
        directory = work / f"setup{len(setups)}"
        directory.mkdir(parents=True)
        t_import = import_seconds()
        start = perf_counter()
        prepared = workloads.SETUPS[workload](seed, directory, sizes)
        setups.append(t_import + perf_counter() - start)
        return prepared

    # One set-up before the commands and one after each share of them, so
    # that setup_s meets the same machine states as the commands do.
    prepared = set_up()
    run = Run(prepared)
    plain, traced, layers, spans, loops = [], [], [], None, []
    shares = 1 if trace else SETUP_REPEATS - 1
    for _ in range(shares):
        deadline = perf_counter() + seconds / shares
        while perf_counter() < deadline:
            while not trace and sum(loops) <= REFERENCE_SHARE * sum(plain):
                loops.append(reference_loop())
            elapsed = run.command()
            if elapsed is not None:
                plain.append(elapsed)
            if trace:
                tracer = tracing.Tracer()
                with tracer.installed():
                    elapsed = run.command(tracer)
                if elapsed is not None:
                    traced.append(elapsed)
                    layers.append(tracing.layer_metrics(tracer))
                    spans = spans or tracer.spans
        if not trace:
            set_up()
    run.check()

    if not plain or (trace and not traced):
        metrics = {}  # every command failed: nothing to time
    elif trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in LAYER_UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    else:
        # Both times are rescaled by the reference loop to the machine speed
        # of REFERENCE_LOOP_S: on a shared machine every command, set-up and
        # loop slows down by up to 2x for seconds to minutes, and the loops
        # interleaved with them see the same. The throughput is the run's
        # total, not a median per command.
        speed = statistics.mean(loops) / REFERENCE_LOOP_S
        metrics = {
            "samples_per_s": (prepared.samples * len(plain) / sum(plain) * speed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups) / speed, "s"),
        }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "argv": prepared.argv, "samples": prepared.samples, "setup_s": setups,
              "command_s": plain, "reference_loop_s": loops, "traced_command_s": traced,
              "errors": run.errors, "failures": run.failures}
    return run, metrics, record, spans


LAYER_UNITS = {
    "io.read_s": "s", "io.write_s": "s", "orientation.filter_s": "s",
    "orientation.us_per_sample": "us", "orientation.passes": "count",
    "gamma_model.fit_calls": "count", "gamma_model.fit_s": "s",
    "cusum.passes": "count", "cusum.samples": "count", "cusum.ns_per_sample": "ns",
    "cusum.relabel_s": "s", "cusum.llr_s": "s", "learning.sweep_self_s": "s",
    "learning.cells": "count", "learning.distinct_cell_ratio": "ratio",
    "learning.fit_models_calls": "count", "classifier.classify_s": "s",
    "sync.delay_s": "s", "sync.lag_evals": "count", "sync.trajectory_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


def run_one(args) -> int:
    import_program()
    env = environment()
    sys.path.insert(0, str(BENCH))
    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BENCH / "results"
    try:
        run, metrics, record, spans = measure(args.workload, args.seed, args.seconds,
                                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Nothing was checked when every command failed.
    correct = run.first is not None and not run.failures
    print(f"{args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}): "
          f"{run.attempted} commands attempted, {run.failed} failed, "
          f"outputs {'correct' if correct else 'WRONG'}")
    for failure in run.failures:
        print(f"  check failed: {failure}")
    for error in run.errors:
        print(f"  command failed: {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps(dict(record, env=env, result=result), indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}.spans.jsonl").write_text(
            "".join(json.dumps(s) + "\n" for s in spans))
    print(json.dumps(result))
    return 0 if correct and not run.failed else 1


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    summary, status = {}, 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
