"""Thermal benchmark plant: closed-form discretization checks, calibration
regressions, and the structural properties the control layers rely on."""
import json

import numpy as np
import pytest

from hiermpc.errors import ConfigInvalid, UnstableDiscretization
from hiermpc.lti import reachability_matrix
from hiermpc.model_io import from_json, to_json
from hiermpc.reduction import reduce_model, verify_reduction
from hiermpc.thermal import (
    CALIBRATION_HEAT,
    CALIBRATION_TEMPERATURES,
    EIGENVALUE_TARGETS,
    HEATER_LIMIT,
    HEATER_ROOMS,
    ApartmentSpec,
    BuildingConfig,
    RoomSpec,
    build_thermal_model,
    building_from_dict,
    default_building,
    discretize,
    equilibrium_temperatures,
    heat_balance,
)


def single_room(volume=30.0, area=12.0, **extras):
    apt = ApartmentSpec((RoomSpec("solo", volume, area, heater=True),), ())
    return BuildingConfig((apt,), (), **extras)


def test_single_room_matches_scalar_closed_form():
    cfg = single_room()
    A_c, B_c, caps, L = heat_balance(cfg)
    cap = cfg.air_density * cfg.heat_capacity * 30.0
    loss = cfg.conductance_exterior * 12.0
    assert caps[0] == pytest.approx(cap)
    assert L[0, 0] == pytest.approx(loss)
    A_d, B_d = discretize(A_c, B_c, cfg.sample_time)
    a_exact = np.exp(-loss * cfg.sample_time / cap)
    b_exact = (1.0 - a_exact) / loss
    assert A_d[0, 0] == pytest.approx(a_exact, abs=1e-14)
    assert B_d[0, 0] == pytest.approx(b_exact, rel=1e-12)


def test_zero_conductance_building_is_rejected():
    cfg = single_room(conductance_exterior=0.0, conductance_interior=0.0,
                      conductance_shared=0.0)
    with pytest.raises(UnstableDiscretization):
        build_thermal_model(cfg)


def test_heat_balance_conservation():
    # Interior and shared conductances cancel in row sums; only exterior
    # losses remain, and the Laplacian-like part is symmetric.
    cfg = default_building()
    _, _, _, L = heat_balance(cfg)
    ext = np.concatenate([[r.exterior_wall_area for r in apt.rooms]
                          for apt in cfg.apartments])
    np.testing.assert_allclose(L @ np.ones(10), cfg.conductance_exterior * ext,
                               atol=1e-12)
    np.testing.assert_allclose(L, L.T, atol=0)


def test_default_model_structure():
    model = build_thermal_model(default_building())
    assert model.n_states == 10 and model.n_inputs == 2
    assert model.n_subsystems == 2
    for i, sub in enumerate(model.subsystems):
        assert sub.A.shape == (5, 5) and sub.B.shape == (5, 1)
        np.testing.assert_array_equal(sub.E, np.eye(5))
        np.testing.assert_array_equal(sub.C_z, np.eye(5))
        assert sub.input_set.radius == HEATER_LIMIT
        # heater feeds its own room most strongly within one sample
        assert np.argmax(sub.B[:, 0]) == HEATER_ROOMS[i]
    off_diag = model.A[:5, 5:]
    assert np.linalg.norm(off_diag, 2) < np.linalg.norm(model.A[:5, :5], 2)
    assert np.any(off_diag)


def test_equilibrium_matches_calibration():
    temps = equilibrium_temperatures(default_building(),
                                     np.array(CALIBRATION_HEAT))
    target = np.concatenate(CALIBRATION_TEMPERATURES)
    np.testing.assert_allclose(temps, target, atol=1e-10)


def test_apartment_spectra_match_calibration():
    model = build_thermal_model(default_building())
    for i, sub in enumerate(model.subsystems):
        eig = np.sort(np.linalg.eigvals(sub.A).real)
        np.testing.assert_allclose(eig, np.sort(EIGENVALUE_TARGETS[i]),
                                   atol=1e-12)


def dropped_input_coupling(cfg: BuildingConfig) -> float:
    """Relative norm of the cross-apartment input blocks the partition drops."""
    A_cont, B_cont, _, _ = heat_balance(cfg)
    _, B_d = discretize(A_cont, B_cont, cfg.sample_time)
    kept = np.zeros_like(B_d)
    col = 0
    for ai, apt in enumerate(cfg.apartments):
        off = cfg.room_offset(ai)
        m_i = sum(room.heater for room in apt.rooms)
        kept[off:off + len(apt.rooms), col:col + m_i] = \
            B_d[off:off + len(apt.rooms), col:col + m_i]
        col += m_i
    return float(np.linalg.norm(B_d - kept, 2) / np.linalg.norm(B_d, 2))


def test_dropped_input_coupling_is_negligible():
    rel = dropped_input_coupling(default_building())
    assert 0.0 < rel < 1e-3


def test_decoupled_variant_is_block_diagonal():
    model = build_thermal_model(default_building(decoupled=True))
    np.testing.assert_array_equal(model.A - model.block_diagonal_A(),
                                  np.zeros((10, 10)))
    coupled = build_thermal_model(default_building())
    assert np.any(coupled.A - coupled.block_diagonal_A())


def test_subsystems_are_reachable():
    model = build_thermal_model(default_building())
    for sub in model.subsystems:
        R = reachability_matrix(sub.A, sub.B, 5)
        assert np.linalg.matrix_rank(R) == 5


def test_reduction_keeps_dominant_modes():
    model = build_thermal_model(default_building())
    reduced = reduce_model(model, (1, 1))
    eig = np.sort(np.linalg.eigvals(reduced.A).real)
    np.testing.assert_allclose(eig, [0.97, 0.97], atol=1e-10)
    report = verify_reduction(reduced, model)
    assert report.passed


def test_building_dict_round_trip():
    cfg = default_building()
    data = json.loads(json.dumps(to_json(cfg)))
    assert from_json(BuildingConfig, data) == cfg


@pytest.mark.parametrize("where, typo", [
    ("top", "conductance_interiour"),
    ("room", "volumne"),
])
def test_building_rejects_unknown_keys(where, typo):
    data = to_json(default_building())
    target = data if where == "top" else data["apartments"][1]["rooms"][2]
    target[typo] = 1.0
    with pytest.raises(ConfigInvalid, match=f"unknown key '{typo}'"):
        building_from_dict(data)


def test_building_shared_walls_stay_optional():
    data = to_json(default_building(decoupled=True))
    del data["shared_walls"]
    assert building_from_dict(data) == default_building(decoupled=True)


def test_malformed_building_configs():
    with pytest.raises(ConfigInvalid):
        building_from_dict({"apartments": [{"rooms": [{"name": "x"}],
                                            "walls": []}]})
    with pytest.raises(ConfigInvalid):
        RoomSpec("bad", volume=-1.0, exterior_wall_area=2.0)
    with pytest.raises(ConfigInvalid):
        ApartmentSpec((RoomSpec("a", 1.0, 1.0),), ((0, 0, 2.0),))
    with pytest.raises(ConfigInvalid):
        BuildingConfig((ApartmentSpec((RoomSpec("a", 1.0, 1.0),), ()),),
                       ((0, 0, 0, 0, 1.0),))
    with pytest.raises(ConfigInvalid):
        single_room(sample_time=0.0)
