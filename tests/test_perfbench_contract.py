"""The benchmark's contract with rtikit.

perfbench/spans.py wraps rtikit entry points by module and attribute name,
and perfbench/checks.py tests the operator through its `pi`, so a rename,
a call path that bypasses them or a wrong Π must fail here, not only in a
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from rtikit import harness
from rtikit.calibration import calibrate
from rtikit.geometry import VoxelGrid, enumerate_links
from rtikit.harness import PipelineConfig
from rtikit.reconstruction import ReconstructionParams, build_operator
from rtikit.simulator import (
    ScenarioSpec,
    generate_trace,
    perimeter_layout,
    stationary_trajectory,
)
from rtikit.spatial_model import build_classic_weights, build_multiscale_weights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans_module():
    return _perfbench_module("spans")


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


def test_operator_identity_holds_for_both_stored_forms():
    # The benchmark's correctness gate reads operator.pi, which a tall
    # operator (more weight rows than voxels) computes from its stored M.
    checks = _perfbench_module("checks")
    layout = perimeter_layout(8, 3.0, 3.0)
    table = enumerate_links(layout)
    grid = VoxelGrid(origin=(0.0, 0.0), p=0.3, nx=10, ny=10)
    trace = generate_trace(ScenarioSpec(
        layout=layout, trajectory=stationary_trajectory((1.5, 1.5), 30, 1),
        seed=2, calibration_frames=30))
    fades = calibrate(trace.frames[:30], table)
    params = ReconstructionParams()
    tall = build_operator(build_multiscale_weights(table, layout, grid, fades),
                          grid, params)
    short = build_operator(build_classic_weights(table, layout, grid, 0.02),
                           grid, params)
    assert tall.tall and not short.tall
    for operator in (tall, short):
        assert checks.operator_identity(operator, params,
                                        np.random.default_rng(1)) == []
