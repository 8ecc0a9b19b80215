"""Port-fabric acceptance tests (the ISSUE's two hard gates).

1. The default (unbounded) fabric reproduces the seed's paper-table
   statistics — and its *event schedule* — bit-identically.  The golden
   numbers below were captured on the pre-port-fabric tree; any drift
   means the refactor changed timing, which is a regression by
   definition.
2. Bounded-bandwidth mode exhibits genuine queueing delay: under the
   Fig. 12 high-load configuration, mean link traversal latency rises
   strictly as the link's service rate falls.
"""

import zlib
from dataclasses import replace

import pytest

from repro.common.config import NoCLinkBudget
from repro.harness.scenes import SceneSession
from repro.soc.soc import EmeraldSoC
from tests.health.full_system import (HEIGHT, WIDTH, bounded_topology,
                                      build_soc, tiny_config)

# Captured on the seed tree (commit 28c03a6) with build_soc(num_frames=2).
GOLDEN = {
    "end_tick": 240_000,
    "mean_gpu_time": 2599.0,
    "mean_total_time": 5289.0,
    "dram_bytes": {"cpu": 393_984, "gpu": 35_072, "display": 27_648},
    "row_hit_rate": 0.15115606936416184,
    "bytes_per_activation": 155.50017024174326,
    "display_requests": 108,
    "display_completed": 4,
    "display_aborted": 0,
    "mean_latency": {"cpu": 179.08452535760728,
                     "gpu": 1143.653284671533,
                     "display": 505.8703703703704},
    "fb_crc": 1444291790,
    "events_fired": 28_060,
}


@pytest.mark.slow
@pytest.mark.full_system
class TestSeedIdentity:
    def test_unbounded_fabric_reproduces_seed_bit_identically(self):
        soc = build_soc(num_frames=2)
        results = soc.run()
        assert results.end_tick == GOLDEN["end_tick"]
        assert results.mean_gpu_time == GOLDEN["mean_gpu_time"]
        assert results.mean_total_time == GOLDEN["mean_total_time"]
        assert results.dram_bytes == GOLDEN["dram_bytes"]
        assert results.row_hit_rate == GOLDEN["row_hit_rate"]
        assert results.bytes_per_activation == GOLDEN["bytes_per_activation"]
        assert results.display_requests == GOLDEN["display_requests"]
        assert results.display_completed == GOLDEN["display_completed"]
        assert results.display_aborted == GOLDEN["display_aborted"]
        assert results.mean_latency == GOLDEN["mean_latency"]
        # The strongest schedule-identity checks: the functional output
        # and the exact number of events the run fired.
        assert (zlib.crc32(soc.gpu.fb.color.tobytes())
                == GOLDEN["fb_crc"])
        assert soc.events.events_fired == GOLDEN["events_fired"]

    def test_unbounded_link_reports_no_queueing(self):
        soc = build_soc(num_frames=1)
        results = soc.run()
        link = results.link_stats["noc.link"]
        assert link["packets"] > 0
        assert "rejected" not in link        # bounded-only counters absent
        assert "stall_ticks" not in link


def _bounded_run(bytes_per_cycle):
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = replace(tiny_config(num_frames=2), topology=bounded_topology(
        NoCLinkBudget(capacity=32, bytes_per_cycle=bytes_per_cycle)))
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    return soc.run()


@pytest.mark.slow
@pytest.mark.full_system
class TestBoundedBandwidth:
    def test_queueing_delay_rises_as_service_rate_falls(self):
        """Fig. 12 high-load regime: narrower links mean longer queues.

        Mean traversal (queueing + serialization + wire latency) must be
        strictly monotone in the service rate; the issuer-side latency
        histograms can't show this because ``issue_time`` is stamped at
        memory entry — the link stats are the point of the exercise.
        """
        means = []
        for bytes_per_cycle in (8.0, 4.0, 2.0):
            results = _bounded_run(bytes_per_cycle)
            link = results.link_stats["noc.link"]
            means.append(link["traversal.mean"])
            assert link["stall_ticks"] > 0          # senders were held
            assert link["queue_occupancy.mean"] > 0
        assert means[0] < means[1] < means[2]

    def test_bounded_run_still_completes_frames(self):
        results = _bounded_run(4.0)
        assert results.end_tick == GOLDEN["end_tick"]
        assert results.display_completed > 0
