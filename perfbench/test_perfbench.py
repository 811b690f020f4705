"""Tests of the benchmark's own inputs and tools.

    python3 -m pytest perfbench

The chain4_n40 plant must certify at the period it runs with and pass
`verify` from every start the benchmark's seeds produce; the benchmark's
output must name exactly the metrics BENCHMARK.json declares.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import drift
import workloads

workloads.use_checkout_source()

from hiermpc.errors import DesignIncomplete  # noqa: E402
from hiermpc.harness import design_pipeline, run_closed_loop  # noqa: E402
from hiermpc.thermal import (ApartmentSpec, BuildingConfig,  # noqa: E402
                             build_thermal_model, building_from_dict,
                             default_building)
from hiermpc.trace import verify_archive, write_archive  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
# The seeds the benchmark is validated on.
SEEDS = range(10)


def chained_default_apartments(count: int) -> BuildingConfig:
    """`count` copies of the calibrated apartments, alternating, each joined
    to the next by a copy of the calibrated shared wall."""
    base = default_building()
    _, room_a, _, room_b, area = base.shared_walls[0]
    apartments = []
    for k in range(count):
        src = base.apartments[k % 2]
        rooms = tuple(dataclasses.replace(r, name=f"{r.name[0]}{k + 1}")
                      for r in src.rooms)
        apartments.append(ApartmentSpec(rooms, src.walls))
    walls = tuple((k, room_a, k + 1, room_b, area) for k in range(count - 1))
    return BuildingConfig(tuple(apartments), walls)


def test_chain4_is_built_from_the_calibrated_apartments():
    data = json.loads(workloads.CONFIGS["chain4_n40"].read_text())
    assert building_from_dict(data["building"]) == chained_default_apartments(4)


def test_chain4_certifies_at_n40_and_not_at_n20():
    wl = workloads.load("chain4_n40", 0)
    model = build_thermal_model(wl.building)
    assert wl.cfg.period == 40
    report = design_pipeline(model, wl.cfg).report
    assert report.assumptions_ok and report.x0_bound_ok
    with pytest.raises(DesignIncomplete, match="leakage_contraction"):
        design_pipeline(model, dataclasses.replace(wl.cfg, period=20))


@pytest.mark.parametrize("seed", SEEDS)
def test_chain4_verifies_for_every_seed(seed, tmp_path):
    wl = workloads.load("chain4_n40", seed)
    model = build_thermal_model(wl.building)
    bundle = design_pipeline(model, wl.cfg)
    write_archive(run_closed_loop(model, wl.cfg, bundle), bundle, tmp_path)
    report = verify_archive(tmp_path)
    assert report.passed, report.table()


def test_start_state_keeps_the_default_norm():
    for n in (10, 20):
        x0 = workloads.start_state(3, n)
        assert abs(sum(v * v for v in x0) - 4.0 * n) < 1e-9
        assert all(v < 0 for v in x0)
        assert x0 == workloads.start_state(3, n)
        assert x0 != workloads.start_state(4, n)


def test_drift_reports_the_largest_difference(tmp_path):
    model = build_thermal_model(default_building())
    wl = workloads.load("coupled_n20", 0)
    cfg = dataclasses.replace(wl.cfg, n_slow_steps=2)
    bundle = design_pipeline(model, cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    write_archive(run_closed_loop(model, cfg, bundle), bundle, a)
    shutil.copytree(a, b)
    assert all(value == 0.0 for value, _ in drift.drift(a, b).values())

    lines = (b / "slow.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = lines[3].split(",")
    col = header.index("objective")
    row[col] = repr(float(row[col]) + 0.5)
    lines[3] = ",".join(row)
    (b / "slow.csv").write_text("\n".join(lines) + "\n")
    result = drift.drift(a, b)
    value, column = result["slow.csv"]
    assert column == "objective" and value == pytest.approx(0.5)
    assert result["fast.csv"][0] == 0.0


def _run_benchmark(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(workloads.HERE / "run.py"), "--workload",
         "decoupled_n20", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=workloads.ROOT, check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_the_declared_metrics(trace, section):
    result = _run_benchmark(trace)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_predictions_cite_declared_names():
    data = json.loads((workloads.HERE / "predictions.json").read_text())
    metrics = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(workloads.CONFIGS)
    for entry in data["predictions"]:
        assert set(entry["layer"]) | set(entry["end_to_end"]) <= metrics
        assert set(entry["workloads"]) == names
