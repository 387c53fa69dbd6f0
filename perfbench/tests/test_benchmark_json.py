import json
from pathlib import Path

from layers import PER_LAYER, RUNGS
from measure import Pass
from run import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_end_to_end_names_and_units_match_what_a_run_prints():
    printed = Pass(
        setup_s=[1.0], publish_s=[1.0], write_s=[1.0], read_s=[1.0],
        stream_s=1.0, recover_s=[1.0], attempted=1,
    ).end_to_end()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()
    }


def test_per_layer_names_and_units_match_what_a_traced_run_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_every_listed_workload_runs_and_has_rungs():
    for workload in SPEC["workloads"]:
        assert workload["name"] in WORKLOADS
        assert workload["name"] in RUNGS
