"""Per-layer spans recorded around the program's public functions.

Each wrapped function is replaced, for the duration of one traced command,
under the name its caller looks it up by: ``cli`` reaches ``io``,
``cusum``, ``learning``, ``classifier``, ``orientation`` and ``sync``
through their modules, ``learning`` calls the names it imported, and
``orientation.linear_acceleration`` and ``cusum.fused_increments`` look up
``earth_acceleration`` and ``log_likelihood_ratio`` in their own modules.
Nothing inside the package is edited. Spans stay in memory; the runner
writes them out once at the end.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter

from climbdetect import classifier, cusum, io, learning, orientation, sync


def _samples(name: str):
    """Work counter: the length of argument ``name``."""
    return lambda arguments: len(arguments[name])


def _targets():
    """(module, attribute, span name, work counter or None) for every wrapped call.

    A span with no work counter may still gain work from the calls counted
    inside it (see ``_COUNTED``); ``"cells"`` also keys the sweep's cells.
    """
    out = [(io, name, f"io.{name}", None) for name in sorted(vars(io))
           if name.startswith(("read_", "write_")) and callable(getattr(io, name))]
    out += [
        (orientation, "earth_acceleration", "orientation.earth_acceleration",
         _samples("recording")),
        (learning, "linear_acceleration", "orientation.linear_acceleration", None),
        (learning, "fit_mle", "gamma_model.fit_mle", None),
        (cusum, "detect", "cusum.detect", _samples("acc")),
        (learning, "detect_from_increments", "cusum.detect_from_increments",
         _samples("inc")),
        (cusum, "relabel_segments", "cusum.relabel_segments", None),
        (learning, "relabel_segments", "cusum.relabel_segments", None),
        (cusum, "log_likelihood_ratio", "cusum.log_likelihood_ratio", None),
        (learning, "log_likelihood_ratio", "cusum.log_likelihood_ratio", None),
        (learning, "learn_sensor_models", "learning.learn_sensor_models", None),
        (learning, "cross_validate", "learning.cross_validate", None),
        (learning, "fit_models", "learning.fit_models", None),
        (learning, "optimize_alpha", "learning.optimize_alpha", None),
        (learning, "optimize_thresholds", "learning.optimize_thresholds", "cells"),
        (classifier, "classify", "classifier.classify", None),
        (sync, "trajectory_to_acceleration", "sync.trajectory_to_acceleration", None),
        (sync, "estimate_delay", "sync.estimate_delay", None),
        (sync, "shift_annotations", "sync.shift_annotations", None),
    ]
    return out


# Calls that are counted, not timed: (module, attribute, the span they count
# in). Each call made directly inside an open span of that name adds one to
# its work, so the counts follow the work the program actually does.
_COUNTED = [
    (learning, "_pooled_score", "learning.optimize_thresholds"),
    (sync, "_lag_correlation", "sync.estimate_delay"),
]


class Tracer:
    """Spans of one traced command: ``[name, start, end, parent, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._sweep_keys: dict[int, tuple] = {}  # optimize_thresholds span -> key
        self._cells: set[tuple] = set()          # (key, lambda0, lambda1) scored

    def _enter_sweep(self, a) -> int:
        """Remember the sweep's (site, training climbs, models, alpha); its
        cells are counted as they are scored."""
        self._sweep_keys[len(self.spans)] = (
            a["site"], tuple(c.climb_id for c in a["climbs"]), tuple(a["models"]),
            float(a["alpha"]))
        return 0

    def _count_cell(self, sweep: int, a) -> None:
        self._cells.add((self._sweep_keys[sweep], float(a["lambda0"]), float(a["lambda1"])))

    @property
    def distinct_cells(self) -> int:
        return len(self._cells)

    def span(self, name: str, fn, work=None):
        """``fn`` wrapped so that each call records one span."""
        if work == "cells":
            work = self._enter_sweep
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            count = work(signature.bind(*args, **kwargs).arguments) if work else 0
            record = [name, 0.0, 0.0, parent, count]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()

        return wrapper

    def counted(self, parent: str, fn):
        """``fn`` wrapped so that each call directly inside an open span named
        ``parent`` adds one to that span's work."""
        signature = inspect.signature(fn)
        sweep = parent == "learning.optimize_thresholds"

        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == parent:
                self.spans[self._stack[-1]][4] += 1
                if sweep:
                    self._count_cell(self._stack[-1],
                                     signature.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every target by its traced wrapper; restore on exit.

        A target the program no longer has is skipped, and its metrics read 0.
        """
        saved = []
        try:
            for module, attr, name, work in _targets():
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, work))
            for module, attr, parent in _COUNTED:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.counted(parent, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced command whose root span is ``cli.main``."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def duration(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def self_time(idx):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def work(idx):
        return sum(spans[i][4] for i in idx)

    def ratio(num, den):
        return num / den if den else 0.0

    layer = [s[0].split(".", 1)[0] for s in spans]
    reads = [i for i, s in enumerate(spans) if s[0].startswith("io.read_")]
    writes = [i for i, s in enumerate(spans) if s[0].startswith("io.write_")]
    filters = [i for i, s in enumerate(spans)
               if layer[i] == "orientation" and (s[3] < 0 or layer[s[3]] != "orientation")]
    passes = named("orientation.earth_acceleration")
    filter_s = duration(filters)
    cusum_passes = named("cusum.detect", "cusum.detect_from_increments")
    cusum_samples = work(cusum_passes)
    sweeps = named("learning.optimize_thresholds")
    cells = work(sweeps)
    return {
        "io.read_s": duration(reads),
        "io.write_s": duration(writes),
        "orientation.filter_s": filter_s,
        "orientation.us_per_sample": ratio(filter_s, work(passes)) * 1e6,
        "orientation.passes": len(passes),
        "gamma_model.fit_calls": len(named("gamma_model.fit_mle")),
        "gamma_model.fit_s": duration(named("gamma_model.fit_mle")),
        "cusum.passes": len(cusum_passes),
        "cusum.samples": cusum_samples,
        "cusum.ns_per_sample": ratio(self_time(cusum_passes), cusum_samples) * 1e9,
        "cusum.relabel_s": duration(named("cusum.relabel_segments")),
        "cusum.llr_s": duration(named("cusum.log_likelihood_ratio")),
        "learning.sweep_self_s": self_time(
            named("learning.optimize_alpha", "learning.optimize_thresholds")),
        "learning.cells": cells,
        "learning.distinct_cell_ratio": ratio(tracer.distinct_cells, cells),
        "learning.fit_models_calls": len(named("learning.fit_models")),
        "classifier.classify_s": duration(named("classifier.classify")),
        "sync.delay_s": duration(named("sync.estimate_delay")),
        "sync.lag_evals": work(named("sync.estimate_delay")),
        "sync.trajectory_s": duration(named("sync.trajectory_to_acceleration")),
        "cli.self_s": self_time(named("cli.main")),
    }
