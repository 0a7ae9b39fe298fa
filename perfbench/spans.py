"""In-memory span tracer and the per-layer metrics derived from its spans.

In its odd rounds, a traced run wraps the public entry points of each
rtikit layer (see LAYER_POINTS), so that every call records a span: a name,
a start, an end, the span that was open when it began, and optional
attributes taken from the call's result. Functions are replaced in every loaded rtikit module that
holds them, so calls the CLI and the harness make internally are traced as
well as the benchmark's own calls. Spans stay in memory until the run ends
and are written out as one JSON file. Untraced rounds install nothing.
"""

import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from rtikit import (
    calibration,
    harness,
    ingest,
    reconstruction,
    simulator,
    spatial_model,
    tracking,
)


class NullTracer:
    """Tracer used with tracing off: spans cost one context manager."""

    @contextlib.contextmanager
    def round(self, i):
        yield

    @contextlib.contextmanager
    def span(self, name):
        yield {}

    @contextlib.contextmanager
    def paused(self):
        yield


class Tracer:
    """Records nested spans in memory; round() wraps the layer entry points."""

    def __init__(self):
        self.spans = []
        self.traced_rounds = []
        self._stack = []
        self._restore = []
        self._enabled = True

    @contextlib.contextmanager
    def round(self, i):
        """Trace odd rounds only; the even ones run untraced, so one run
        measures its own tracing overhead."""
        if i % 2 == 0:
            with self.paused():
                yield
            return
        self.traced_rounds.append(i)
        self._install()
        try:
            with self.span("bench.round"):
                yield
        finally:
            self._uninstall()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; yields a dict for attributes of the call."""
        if not self._enabled:
            yield {}
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        enabled, self._enabled = self._enabled, False
        try:
            yield
        finally:
            self._enabled = enabled

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None and self._enabled:
                    attrs.update(attrs_of(args, kwargs, result))
                return result
        return traced

    def _install(self):
        """Wrap every entry point in LAYER_POINTS wherever rtikit holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "rtikit" or n.startswith("rtikit.")]
        for owner, attr, name, attrs_of in LAYER_POINTS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, attrs_of)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [m for m in modules if m.__dict__.get(attr) is original]
            for target in targets:
                setattr(target, attr, wrapped)
                self._restore.append((target, attr, original))

    def _uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

    def self_times(self):
        """Span id -> duration minus the time its direct children cover."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                for s in self.spans}


def _weights_attrs(args, kwargs, weights):
    return {"rows": weights.n_rows, "nnz": int(weights.matrix.nnz)}


def _operator_attrs(args, kwargs, operator):
    return {"mb": operator.pi.nbytes / 1e6}


def _load_attrs(args, kwargs, frames):
    return {"records": int(sum(f.rss.size for f in frames))}


def _save_attrs(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


# (owner, attribute, span name, attributes from (args, kwargs, result))
LAYER_POINTS = (
    (simulator, "generate_trace", "simulator.generate_trace", None),
    (ingest, "save_trace", "ingest.save_trace", _save_attrs),
    (ingest, "load_trace", "ingest.load_trace", _load_attrs),
    (calibration, "calibrate", "calibration.calibrate", None),
    (spatial_model, "build_multiscale_weights", "spatial_model.weights",
     _weights_attrs),
    (spatial_model, "build_classic_weights", "spatial_model.weights", None),
    (reconstruction, "prior_precision_term", "reconstruction.prior", None),
    (reconstruction, "build_operator", "reconstruction.operator",
     _operator_attrs),
    (reconstruction, "reconstruct", "reconstruction.reconstruct", None),
    (tracking, "localize", "tracking.localize", None),
    (tracking, "kalman_step", "tracking.kalman", None),
    (harness, "run_pipeline", "harness.run_pipeline", None),
    (harness.VariantPipeline, "__init__", "harness.pipeline_build", None),
    (harness.VariantPipeline, "measurement", "measurement_model.measure", None),
)

# per-layer metric -> span name whose self time is summed per round
ROUND_SECONDS = {
    "ingest.save_trace_s": "ingest.save_trace",
    "ingest.load_trace_s": "ingest.load_trace",
    "cli.calibrate_s": "cli.calibrate",
    "cli.track_s": "cli.track",
    "harness.run_pipeline_s": "harness.run_pipeline",
    "calibration.calibrate_s": "calibration.calibrate",
    "harness.pipeline_build_s": "harness.pipeline_build",
    "spatial_model.weights_s": "spatial_model.weights",
    "reconstruction.prior_s": "reconstruction.prior",
    "reconstruction.operator_s": "reconstruction.operator",
    "simulator.generate_trace_s": "simulator.generate_trace",
}

# per-layer metric -> per-frame span name whose self time is taken at p50
FRAME_MS_P50 = {
    "reconstruction.reconstruct_ms_p50": "reconstruction.reconstruct",
    "measurement_model.measure_ms_p50": "measurement_model.measure",
    "tracking.localize_ms_p50": "tracking.localize",
    "tracking.kalman_ms_p50": "tracking.kalman",
}

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    **{name: "s" for name in ROUND_SECONDS},
    "ingest.records": "count",
    "ingest.trace_mb": "MB",
    "spatial_model.rows": "count",
    "spatial_model.nnz": "count",
    "reconstruction.operator_mb": "MB",
    **{name: "ms" for name in FRAME_MS_P50},
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, round_seconds) -> dict:
    """Per-layer figures of a traced run, given each round's timed seconds.

    Seconds are self time per traced round; per-frame figures are the
    median self time of one call; counts are per traced round (ingest,
    spans) or per multi-scale build (spatial_model; operator_mb is the
    largest operator). A layer the workload never calls reads 0. The
    overhead compares the mean timed seconds of traced and untraced rounds.
    """
    rounds = len(tracer.traced_rounds)
    traced = [round_seconds[i] for i in tracer.traced_rounds]
    untraced = [t for i, t in enumerate(round_seconds)
                if i not in tracer.traced_rounds]
    self_time = tracer.self_times()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)

    def attr_values(name, key):
        return [s["attrs"][key] for s in by_name.get(name, ()) if key in s["attrs"]]

    out = {}
    for metric, name in ROUND_SECONDS.items():
        out[metric] = sum(self_time[s["id"]] for s in by_name.get(name, ())) / rounds
    out["ingest.records"] = sum(attr_values("ingest.load_trace", "records")) / rounds
    out["ingest.trace_mb"] = sum(attr_values("ingest.save_trace", "mb")) / rounds
    rows = attr_values("spatial_model.weights", "rows")
    nnz = attr_values("spatial_model.weights", "nnz")
    out["spatial_model.rows"] = float(np.median(rows)) if rows else 0.0
    out["spatial_model.nnz"] = float(np.median(nnz)) if nnz else 0.0
    out["reconstruction.operator_mb"] = max(
        attr_values("reconstruction.operator", "mb"), default=0.0)
    for metric, name in FRAME_MS_P50.items():
        times = [self_time[s["id"]] for s in by_name.get(name, ())]
        out[metric] = float(np.median(times)) * 1e3 if times else 0.0
    out["trace.spans"] = len(tracer.spans) / rounds
    out["trace.overhead_pct"] = 100.0 * (np.mean(traced) / np.mean(untraced) - 1.0)
    return out
