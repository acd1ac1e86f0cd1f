"""BENCHMARK.json names exactly the workloads and metrics the command reports.

Run with ``python3 -m pytest bench/``.
"""

import json
import os

from run import END_TO_END, PER_LAYER, ROOT
from workloads import WORKLOADS


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_metrics_match():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
