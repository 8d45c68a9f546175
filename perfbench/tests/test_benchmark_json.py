"""BENCHMARK.json names exactly the metrics the benchmark prints, with their units."""

import json
from pathlib import Path

from ofifnet import DEFAULT_CONFIG, Model, init_weights

import layers
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(workloads.E2E_UNITS)


def test_per_layer_metrics_match():
    blocks = layers.block_names(Model(DEFAULT_CONFIG, init_weights(DEFAULT_CONFIG, 7)))
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(workloads.layer_units(blocks))


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
