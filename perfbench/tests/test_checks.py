"""Every workload checks its outputs: a corrupted framebuffer or payload
is counted as a failed operation, and a clean one is not."""

import dataclasses

import pytest

from perfbench import bench
from perfbench.tracing import Timer
from perfbench.workloads import WORKLOADS


class CorruptingTimer(Timer):
    """Times like :class:`Timer`, then damages the call's output."""

    def __init__(self, corrupt) -> None:
        super().__init__()
        self.corrupt = corrupt
        self.calls = 0

    def __call__(self, fn, /, *args, **kwargs):
        result = super().__call__(fn, *args, **kwargs)
        self.calls += 1
        return self.corrupt(self.calls, fn, result)


def _flip_soc_pixel(calls, fn, result):
    fn.__self__.gpu.fb.color[0, 0, 0] += 0.5
    return result


def _flip_gpu_pixel(calls, fn, result):
    fn.__self__.fb.color[0, 0, 0] += 0.5
    return result


def _flip_sampled_crc(calls, fn, result):
    return dataclasses.replace(
        result, final_detailed_fb_crc=result.final_detailed_fb_crc ^ 1)


def _flip_cache_hit_payload(calls, fn, report):
    if calls == 2:
        hit = next(record for record in report.records if record.cache_hit)
        hit.payload = dict(hit.payload, fb_crc="0x0")
    return report


CORRUPTIONS = {
    "soc_m1_high": _flip_soc_pixel,
    "gpu_teapot": _flip_gpu_pixel,
    "sampled_m1": _flip_sampled_crc,
    "fleet_sweep": _flip_cache_hit_payload,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_raises_failed_share(name, tmp_path):
    workload = WORKLOADS[name](3, "small", str(tmp_path))
    workload.setup()
    clean = workload.op(Timer())
    assert clean.failures == []
    corrupted = workload.op(CorruptingTimer(CORRUPTIONS[name]))
    assert corrupted.failures, name
    attempted, failed = bench.tally([clean, corrupted])
    assert attempted == clean.attempted + corrupted.attempted
    assert 0 < failed <= corrupted.attempted
