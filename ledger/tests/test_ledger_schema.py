"""The metric dictionary, BENCHMARK.json and the README agree."""

import json
import os
import re

from ledger.metrics import END_TO_END, PER_LAYER, WORKLOADS

from conftest import LEDGER_DIR, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(benchmark()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    doc = benchmark()
    assert doc["paths"] == ["ledger"]
    assert 1 <= doc["run_seconds"] <= 60
    assert all(len(part) <= 200 for part in doc["command"])


def test_every_metric_is_well_formed_and_unique():
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    for metric in END_TO_END:
        assert 0.0 < metric.bound <= 0.25
    for metric in PER_LAYER:
        assert set(metric.workloads) <= set(WORKLOADS)


def test_setup_time_is_an_end_to_end_metric_with_the_largest_bound():
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_benchmark_json_mirrors_the_dictionary():
    doc = benchmark()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(WORKLOADS.items())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_readme_defines_every_metric_and_workload():
    with open(os.path.join(LEDGER_DIR, "README.md")) as handle:
        readme = handle.read()
    for name in [m.name for m in END_TO_END] + [m.name for m in PER_LAYER] + list(WORKLOADS):
        assert f"`{name}`" in readme, name
