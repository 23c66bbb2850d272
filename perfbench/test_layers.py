"""Tests of the benchmark's layer map and metric catalogue.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import layers  # noqa: E402


def test_every_package_module_maps_to_exactly_one_layer():
    mapping = layers.check_module_map(PACKAGE_DIR)
    assert "sim/_engine.py" in mapping
    assert set(mapping.values()) <= set(layers.LAYERS)


@pytest.mark.parametrize("module", [
    "newpkg/thing.py",       # a new subpackage
    "sim/calendar.py",       # a new engine module: sim.core or sim.resources?
    "helpers.py",            # a new top-level module
])
def test_a_new_module_without_a_rule_fails(module, tmp_path):
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of_module(module)
    path = tmp_path / module
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("")
    with pytest.raises(layers.UnmappedModule):
        layers.check_module_map(str(tmp_path))


def test_reported_layers_exist_in_the_map():
    assert set(catalog.LAYERS) <= set(layers.LAYERS)
    assert set(catalog.TIMED_LAYERS) <= set(catalog.LAYERS)


def test_group_profile_attributes_frames_to_layers():
    import cProfile

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.memory.pointer import pack_ptr
    from repro.obs.flight import FlightRecorder
    from repro.sim.core import Environment

    recorder = FlightRecorder(Environment())
    prof = cProfile.Profile()
    prof.enable()
    for i in range(200):
        pack_ptr(1, i * 8)
    for _ in range(3):
        recorder.note("t0@n0", "lock.acquired", "lock0")
    sorted(range(50))
    prof.disable()
    per_layer, counted = layers.group_profile(prof, PACKAGE_DIR)
    assert set(per_layer) == set(layers.LAYERS)
    assert per_layer["memory"]["calls"] == 200
    assert per_layer["obs"]["calls"] == 3
    assert per_layer["host"]["calls"] >= 1
    assert counted == {"flight_notes": 3}


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.per_layer()
    assert [w["name"] for w in spec["workloads"]] == [
        "local_hot", "mixed_panel", "fleet_explore"]
