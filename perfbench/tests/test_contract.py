"""``BENCHMARK.json`` and the command's output agree with the benchmark's
metric definitions, and every metric is printed with its unit."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_definitions(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _run(workload, trace, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(spec, workload, trace):
    done = _run(workload, trace, bench.ROOT)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in doc["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    if not trace:
        assert all(entry["value"] > 0 for entry in doc["metrics"].values())


def test_fails_without_the_program(spec, tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits non-zero
    without printing a result."""
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(bench.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("soc_m1_high", 0, tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
