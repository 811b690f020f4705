"""The dataclass <-> JSON codec: lossless conversions only, and every
rejection names the class and the key."""
import json

import numpy as np
import pytest

from hiermpc.analysis import RadiusAllocation
from hiermpc.errors import ConfigInvalid, DimensionMismatch
from hiermpc.harness import RunConfig
from hiermpc.lti import CouplingMap, InterconnectedModel
from hiermpc.model_io import from_json, to_json
from hiermpc.sets import BallSet, EllipsoidSet
from hiermpc.thermal import build_thermal_model, default_building


def _round_trip(obj):
    return from_json(type(obj), json.loads(json.dumps(to_json(obj))))


def test_json_int_becomes_float_and_lists_become_tuples():
    cfg = from_json(RunConfig, {"q_slow": 2, "x0": [1, 2.5], "retained_orders": [1, 2]})
    assert type(cfg.q_slow) is float and cfg.q_slow == 2.0
    assert cfg.x0 == (1.0, 2.5) and all(type(v) is float for v in cfg.x0)
    assert cfg.retained_orders == (1, 2)
    alloc = from_json(RadiusAllocation, {
        "rho_delta_u_hat": [1, 2], "rho_u_bar": [0.5, 0.25], "objective": 3,
        "slack": 0.0})
    assert alloc.rho_delta_u_hat.dtype == float
    np.testing.assert_array_equal(alloc.rho_delta_u_hat, [1.0, 2.0])


@pytest.mark.parametrize("data, where", [
    ({"period": 20.5}, "RunConfig.period"),       # never truncated
    ({"period": True}, "RunConfig.period"),       # a bool is not an int
    ({"q_slow": "1.0"}, "RunConfig.q_slow"),
    ({"q_slow": None}, "RunConfig.q_slow"),       # not annotated | None
    ({"x0": 1.0}, "RunConfig.x0"),
    ({"retained_orders": [1, 1.5]}, "RunConfig.retained_orders"),
    ({"decoupled": 1}, "RunConfig.decoupled"),
    ({"typo_key": 1}, "'typo_key'"),
    ({"x0": [1.0, float("nan")]}, "RunConfig.x0"),
    ({"x0": [float("inf")]}, "RunConfig.x0"),
])
def test_wrong_types_and_unknown_keys_name_class_and_key(data, where):
    with pytest.raises(ConfigInvalid, match="RunConfig") as exc_info:
        from_json(RunConfig, data)
    assert where in str(exc_info.value)


def test_missing_key_without_default_is_named():
    with pytest.raises(ConfigInvalid, match="BallSet: missing key 'radius'"):
        from_json(BallSet, {"indices": [0, 1]})
    # A key with a default may be left out.
    assert from_json(RunConfig, {"period": 5}) == RunConfig(period=5)


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], [["a"]], [[None]],
                                   [[True]], 1.0, {"0": 1.0}])
def test_arrays_accept_only_rectangular_numbers(value):
    with pytest.raises(ConfigInvalid, match="EllipsoidSet.shape"):
        from_json(EllipsoidSet, {"indices": [0, 1], "shape": value,
                                  "level": 1.0})


def test_none_only_where_annotated_optional():
    grid = from_json(CouplingMap, {"blocks": [[None, [[1]]], [None, None]]})
    assert grid.block(0, 0) is None
    np.testing.assert_array_equal(grid.block(0, 1), [[1.0]])
    with pytest.raises(ConfigInvalid, match="BallSet.radius"):
        from_json(BallSet, {"indices": [0, 1], "radius": None})


def test_constructor_checks_run_on_decoded_input():
    with pytest.raises(DimensionMismatch, match="BallSet.radius"):
        from_json(BallSet, {"indices": [0, 1], "radius": -1.0})
    for level in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DimensionMismatch, match="EllipsoidSet.level"):
            from_json(EllipsoidSet, {"indices": [0], "shape": [[1.0]],
                                     "level": level})
    with pytest.raises(DimensionMismatch, match="EllipsoidSet.shape"):
        from_json(EllipsoidSet, {"indices": [0, 1],
                                 "shape": [[1.0, 2.0], [0.0, 1.0]], "level": 1.0})


def test_a_shape_indefinite_in_its_symmetric_part_is_refused():
    # Symmetric to 1e-5 relative and with a positive definite lower
    # triangle, but x'Px reads the symmetric part, whose eigenvalue -5e-3
    # gives x'Px = -9998 at x = (1000, -1000): the set is unbounded.
    shape = [[1000.000001, 1000.01], [1000.0, 1000.000001]]
    with pytest.raises(DimensionMismatch, match="EllipsoidSet.shape"):
        from_json(EllipsoidSet, {"indices": [0, 1], "shape": shape, "level": 1.0})


@pytest.mark.parametrize("indices", [[0.5, 1.0], [-1.0, 0.0], [-1, 0]])
def test_set_indices_are_read_as_whole_numbers_at_least_zero(indices):
    with pytest.raises(DimensionMismatch, match="BallSet.indices"):
        from_json(BallSet, {"indices": indices, "radius": 1.0})
    with pytest.raises(DimensionMismatch, match="EllipsoidSet.indices"):
        from_json(EllipsoidSet, {"indices": indices, "shape": np.eye(2).tolist(),
                                 "level": 1.0})


def test_a_set_is_written_by_its_indices():
    ball = BallSet(2, 0.5)
    data = to_json(ball)
    assert data == {"indices": [0, 1], "radius": 0.5, "center": None}
    again = from_json(BallSet, json.loads(json.dumps(data)))
    assert again.indices.dtype.kind == "i"
    np.testing.assert_array_equal(again.indices, ball.indices)


@pytest.mark.parametrize("decoupled", [False, True])
def test_model_is_written_as_assemble_arguments(decoupled):
    model = build_thermal_model(default_building(decoupled))
    data = to_json(model)
    assert list(data) == ["subsystems", "coupling"]
    again = _round_trip(model)
    np.testing.assert_array_equal(again.A, model.A)
    np.testing.assert_array_equal(again.B, model.B)
    assert again.state_offsets == model.state_offsets
    assert again.input_offsets == model.input_offsets
    assert isinstance(again, InterconnectedModel)


@pytest.mark.parametrize("value", [[[float("nan")]], [[float("-inf")]],
                                   [[1.0, float("inf")]]])
def test_arrays_must_be_finite(value):
    with pytest.raises(ConfigInvalid, match="EllipsoidSet.shape: expected "
                                            "finite numbers"):
        from_json(EllipsoidSet, {"indices": [0, 1], "shape": value,
                                  "level": 1.0})
