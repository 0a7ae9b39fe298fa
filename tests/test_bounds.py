"""Every bound-checked numeric field: a value outside the field's bound
raises exactly `<field> must be <bound>, got <value!r>`, and a value
inside it constructs."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtikit import geometry
from rtikit.calibration import PathLossFit, RssFrame
from rtikit.geometry import VoxelGrid
from rtikit.harness import PipelineConfig
from rtikit.measurement_model import HoldBuffer, MeasurementModelParams
from rtikit.reconstruction import ReconstructionParams
from rtikit.simulator import ScenarioSpec, perimeter_layout
from rtikit.spatial_model import EllipseModelParams

POSITIVE, NON_NEGATIVE = "finite and > 0", "finite and >= 0"
NEGATIVE, FINITE, FINITE_OR_NONE = "finite and < 0", "finite", "finite or None"
INTEGER = "an integer"
COUNT, SIZE, NODES = "an integer >= 0", "an integer >= 1", "an integer >= 3"


def perimeter_layout_args(n_nodes=4, width=2.0, height=2.0):
    """perimeter_layout's arguments, once it has built a layout of them."""
    perimeter_layout(n_nodes, width, height)
    return SimpleNamespace(n_nodes=n_nodes, width=width, height=height)


# constructor taking the field as a keyword -> {field: its bound}
FIELDS = {
    EllipseModelParams: {
        "k_lambda_minus": NEGATIVE, "b_lambda_minus": POSITIVE,
        "k_lambda_plus": POSITIVE, "b_lambda_plus": POSITIVE,
        "lambda_max": POSITIVE},
    MeasurementModelParams: {
        "beta_minus": POSITIVE, "k_beta_plus": POSITIVE, "b_beta_plus": POSITIVE,
        "hold_frames": COUNT},
    ReconstructionParams: {"sigma_n": POSITIVE, "delta_c": POSITIVE},
    PipelineConfig: {
        "voxel_width": POSITIVE, "grid_margin": FINITE_OR_NONE,
        "calibration_frames": SIZE, "flrti_m": SIZE, "classic_lambda": NON_NEGATIVE,
        "kalman_q": NON_NEGATIVE, "kalman_r_scale": NON_NEGATIVE, "dt": POSITIVE},
    functools.partial(HoldBuffer, 3, 2): {"hold_frames": COUNT},
    functools.partial(VoxelGrid, origin=(0.0, 0.0), p=0.5, nx=2, ny=2): {
        "p": POSITIVE, "nx": SIZE, "ny": SIZE},
    functools.partial(PathLossFit, p0=40.0, eta=2.0, n_pairs=2, rmse=0.5): {
        "p0": FINITE, "eta": FINITE, "n_pairs": COUNT, "rmse": NON_NEGATIVE},
    functools.partial(ScenarioSpec, perimeter_layout(4, 2.0, 2.0)): {
        "calibration_frames": SIZE, "eta": FINITE, "p0": FINITE,
        "noise_sigma": NON_NEGATIVE, "fade_sigma": NON_NEGATIVE, "seed": COUNT},
    perimeter_layout_args: {"n_nodes": NODES, "width": POSITIVE, "height": POSITIVE},
    functools.partial(RssFrame, rss=np.zeros((1, 1)), channels=[11]): {
        "k": INTEGER},
}
CASES = [(build, name, bound) for build, fields in FIELDS.items()
         for name, bound in fields.items()]
IDS = [f"{getattr(build, 'func', build).__name__}.{name}" for build, name, _ in CASES]


def floats(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


def integers(**kw):
    """Python ints and numpy int64s, which an integer bound takes alike."""
    ints = st.integers(min_value=kw.get("min_value", -2**63),
                       max_value=kw.get("max_value", 2**63 - 1))
    return st.one_of(ints, ints.map(np.int64))


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# bound -> (values that break it, values inside it)
VALUES = {
    POSITIVE: (NON_FINITE | floats(max_value=0.0), floats(min_value=0.0, exclude_min=True)),
    NON_NEGATIVE: (NON_FINITE | floats(max_value=0.0, exclude_max=True),
                   floats(min_value=0.0)),
    NEGATIVE: (NON_FINITE | floats(min_value=0.0), floats(max_value=0.0, exclude_max=True)),
    FINITE: (NON_FINITE, floats()),
    FINITE_OR_NONE: (NON_FINITE, st.none() | floats()),
    # a float breaks an integer bound, whole or not
    INTEGER: (NON_FINITE | floats(), integers()),
    COUNT: (NON_FINITE | floats() | integers(max_value=-1), integers(min_value=0)),
    SIZE: (NON_FINITE | floats() | integers(max_value=0), integers(min_value=1)),
    # a layout holds a row per node, so the sizes drawn inside are a
    # deployment's
    NODES: (NON_FINITE | floats() | integers(max_value=2),
            integers(min_value=3, max_value=1000)),
}


def test_every_bound_of_the_table_is_drawn_and_used():
    assert {bound for _, _, bound in CASES} == set(VALUES) == set(geometry._BOUNDS)


@pytest.mark.parametrize("build, name, bound", CASES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_outside_the_bound_names_field_bound_and_value(build, name, bound, data):
    value = data.draw(VALUES[bound][0], label=name)
    with pytest.raises(ValueError) as info:
        build(**{name: value})
    assert str(info.value) == f"{name} must be {bound}, got {value!r}"


@pytest.mark.parametrize("build, name, bound", CASES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_inside_the_bound_constructs(build, name, bound, data):
    value = data.draw(VALUES[bound][1], label=name)
    assert getattr(build(**{name: value}), name) == value


INTEGER_CASES = [(case, id_) for case, id_ in zip(CASES, IDS)
                 if case[2].startswith("an integer")]


@pytest.mark.parametrize("build, name, bound", [c for c, _ in INTEGER_CASES],
                         ids=[i for _, i in INTEGER_CASES])
def test_true_breaks_an_integer_bound(build, name, bound):
    """bool is an Integral to Python, but True is no count, size or seed."""
    with pytest.raises(ValueError) as info:
        build(**{name: True})
    assert str(info.value) == f"{name} must be {bound}, got True"
