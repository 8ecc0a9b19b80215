"""The workloads are the units the committed bench artifacts measured."""

import json
import os

from perfbench import bench
from perfbench.tracing import Timer
from perfbench.workloads import GpuTeapot, SocM1High

#: Seed-7 fingerprints of ``BENCH_fig14.json`` and ``BENCH_pipeline.json``.
FIG14 = {"events_fired": 274_152, "end_tick": 1_357_432,
         "fb_crc": 967_344_438}
PIPELINE = {"events_fired": 125_678, "cycles": 35_612,
            "fb_crc": 2_197_508_556}


def test_fingerprints_match_the_committed_artifacts():
    with open(os.path.join(bench.ROOT, "BENCH_fig14.json")) as handle:
        fig14 = json.load(handle)["identity"]
    with open(os.path.join(bench.ROOT, "BENCH_pipeline.json")) as handle:
        pipeline = json.load(handle)["identity"]
    assert {key: fig14[key] for key in FIG14} == FIG14
    assert {key: pipeline[key] for key in PIPELINE} == PIPELINE


def test_soc_m1_high_at_seed_7_is_the_fig14_unit(tmp_path):
    workload = SocM1High(7, "full", str(tmp_path))
    workload.setup()
    result = workload.op(Timer())
    assert not result.failures
    assert result.counts["events_fired"] == FIG14["events_fired"]
    assert result.extra["end_tick"] == FIG14["end_tick"]
    assert result.extra["fb_crc"] == FIG14["fb_crc"]


def test_gpu_teapot_frame_0_is_the_pipeline_unit(tmp_path):
    workload = GpuTeapot(7, "full", str(tmp_path))
    workload.indices = [0]
    workload.setup()
    result = workload.op(Timer())
    assert not result.failures
    assert result.counts["events_fired"] == PIPELINE["events_fired"]
    assert result.extra["cycles"] == PIPELINE["cycles"]
    assert result.extra["fb_crc"] == PIPELINE["fb_crc"]
