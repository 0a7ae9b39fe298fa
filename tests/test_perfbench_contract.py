"""The benchmark's tracer contract with rtikit.

perfbench/spans.py wraps rtikit entry points by module and attribute name,
so a rename or a call path that bypasses them must fail here, not only in
a benchmark run.
"""

import importlib.util
from pathlib import Path

from rtikit import harness
from rtikit.harness import PipelineConfig
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_points_hold_callables():
    spans = _spans_module()
    for owner, attr, name, _ in spans.LAYER_POINTS:
        assert callable(owner.__dict__.get(attr)), (
            f"{owner.__name__}.{attr} (span {name}) is gone")


def test_traced_round_records_layer_spans():
    spans = _spans_module()
    layout = perimeter_layout(8, 4.0, 4.0)
    traj = stationary_trajectory((2.0, 2.0), 30, 4)
    trace = generate_trace(ScenarioSpec(layout=layout, trajectory=traj,
                                        seed=1, calibration_frames=30))
    config = PipelineConfig(calibration_frames=30, voxel_width=0.3)
    original = harness.run_pipeline
    tracer = spans.Tracer()
    with tracer.round(1):
        harness.run_pipeline("msrti", trace.frames, layout, config)
    assert harness.run_pipeline is original
    names = {s["name"] for s in tracer.spans}
    assert {
        "harness.run_pipeline",
        "spatial_model.weights",
        "reconstruction.operator",
        "measurement_model.measure",
        "reconstruction.reconstruct",
    } <= names
    weights = [s["attrs"] for s in tracer.spans
               if s["name"] == "spatial_model.weights"]
    assert weights and weights[0]["rows"] > 0
