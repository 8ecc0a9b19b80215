"""Declarative assembly: pinned topology identities, link budgets,
hetero boots.

``SoCRunConfig.topology`` is the one description of the hardware a run
builds.  Every caller's topology hash is pinned below, so existing
checkpoints still resume and fleet cache keys do not move; the built
NoC carries exactly the link budgets its topology names.  A genuinely
non-default topology (two GPU clusters, two NoC-separated memory stacks,
an asymmetric big/little CPU cluster) boots, renders, and identifies
itself with a distinct topology hash / fleet cache key.
"""

import zlib
from dataclasses import replace

import pytest

from repro.common.config import (CPUClusterTopology, DRAMConfig, GPUConfig,
                                 MemoryTopology, NoCLinkBudget, NoCTopology,
                                 SoCTopology, scaled_gpu)
from repro.harness.case_study1 import CS1Config, make_cs1_setup
from repro.harness.scenes import SceneSession
from repro.soc.soc import (EmeraldSoC, SoCRunConfig, preset_topology,
                           smoke_run_config, smoke_topology)
from tests.health.full_system import bounded_topology, tiny_config

WIDTH, HEIGHT = 48, 36


def _run(config):
    session = SceneSession("cube", WIDTH, HEIGHT)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    results = soc.run()
    return soc, results


def _smoke_config(num_frames=1):
    return smoke_run_config(width=WIDTH, height=HEIGHT,
                            num_frames=num_frames)


def _fingerprint(soc, results):
    return (results.end_tick,
            results.dram_bytes,
            results.row_hit_rate,
            results.mean_latency,
            zlib.crc32(soc.gpu.fb.color.tobytes()),
            soc.events.events_fired)


#: Topology hashes measured before the shape knobs left SoCRunConfig;
#: checkpoints and cache keys written since then carry these.
CS1_HIGH_HASHES = {
    "BAS": "b1d2d67236b10349",
    "DCB": "1705b19b33495240",
    "DTB": "8b955e2ae7eaf83e",
    "HMC": "d22601acf435ab74",
}
SMOKE_HASHES = {"BAS": "13a1161315acd3b5", "HMC": "3170a45c805217a0"}


class TestPinnedTopologyHashes:
    def test_default_run_config(self):
        assert (SoCRunConfig().topology.topology_hash()
                == "0b4c871f1d28c6b8")

    @pytest.mark.parametrize("name", sorted(CS1_HIGH_HASHES))
    def test_case_study1_high_load(self, name):
        run_config, _ = make_cs1_setup("M1", name, "high")
        assert run_config.topology.name == name
        assert (run_config.topology.topology_hash()
                == CS1_HIGH_HASHES[name])

    def test_case_study1_bounded_noc(self):
        run_config, _ = make_cs1_setup(
            "M1", "BAS", "high",
            config=CS1Config(noc_capacity=32, noc_bytes_per_cycle=4.0))
        assert run_config.topology.noc.links == (
            NoCLinkBudget(capacity=32, bytes_per_cycle=4.0),)
        assert run_config.topology.topology_hash() == "40a9a4c2f43103ef"

    @pytest.mark.parametrize("name", sorted(SMOKE_HASHES))
    def test_fleet_worker(self, name, tmp_path):
        from repro.fleet import JobSpec
        from repro.fleet.worker import _run_config
        run_config = _run_config(JobSpec(name="j", memory_config=name),
                                 str(tmp_path), None, None)
        assert run_config.topology.topology_hash() == SMOKE_HASHES[name]

    def test_smoke_callers(self):
        from repro.sanitize.chaos import SCENARIOS, _run_config
        chaos = _run_config(SCENARIOS[0], seed=1, frames=1, sanitize=None)
        for config in (chaos, tiny_config(), smoke_run_config()):
            assert (config.topology.topology_hash()
                    == SMOKE_HASHES["BAS"])


class TestLinkBudgets:
    def test_built_link_carries_the_topology_budget(self):
        budget = NoCLinkBudget(capacity=4, bytes_per_cycle=1.0)
        config = replace(_smoke_config(), topology=bounded_topology(budget))
        session = SceneSession("cube", WIDTH, HEIGHT)
        soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
        assert soc.noc.link.capacity == budget.capacity
        assert soc.noc.link.bytes_per_cycle == budget.bytes_per_cycle

    def test_unbounded_by_default(self):
        session = SceneSession("cube", WIDTH, HEIGHT)
        soc = EmeraldSoC(_smoke_config(), session.frame,
                         session.framebuffer_address)
        assert soc.noc.link.capacity is None
        assert soc.noc.link.bytes_per_cycle is None

    def test_budgets_hash_differently(self):
        hashes = {preset_topology(link=link).topology_hash()
                  for link in (None, NoCLinkBudget(capacity=4),
                               NoCLinkBudget(capacity=4, bytes_per_cycle=1.0),
                               NoCLinkBudget(capacity=8, bytes_per_cycle=1.0))}
        assert len(hashes) == 4


class TestResultsName:
    def test_results_name_follows_descriptor(self):
        config = replace(_smoke_config(), topology=replace(
            smoke_topology(), name="my-soc"))
        _, results = _run(config)
        assert results.config_name == "my-soc"


def _hetero_topology():
    return SoCTopology(
        name="hetero",
        gpu=scaled_gpu(GPUConfig(num_clusters=2)),
        cpu=CPUClusterTopology(
            num_cores=4, core_types=("app", "big", "little", "little")),
        memory=(
            MemoryTopology(name="dram0", dram=DRAMConfig(channels=1)),
            MemoryTopology(name="dram1", dram=DRAMConfig(channels=1)),
        ),
        noc=NoCTopology())


def _hetero_config(num_frames=1):
    return replace(_smoke_config(num_frames), topology=_hetero_topology())


class TestHeterogeneousTopology:
    def test_boots_and_renders_a_frame(self):
        soc, results = _run(_hetero_config())
        assert len(results.frames) == 1
        assert soc.gpu.fb.coverage() > 0
        # Two NoC links, one per memory stack, behind the router.
        assert len(soc.noc.links) == 2
        assert soc.noc.router is not None
        # Both stacks actually served traffic (interleaved addresses).
        assert all(system.total_bytes() > 0
                   for system in soc.memory_endpoints)

    def test_run_is_deterministic(self):
        first = _fingerprint(*_run(_hetero_config()))
        second = _fingerprint(*_run(_hetero_config()))
        assert first == second

    def test_big_little_cores_assembled(self):
        soc, _ = _run(_hetero_config())
        assert soc.cpus.core_types == ("app", "big", "little", "little")
        # The big core is frame-coupled; the littles run continuously.
        assert [c.core_id for c in soc.cpus.frame_coupled_cores] == [1]

    def test_stats_dump_carries_topology_block(self, tmp_path):
        from repro.harness.report import write_stats_json
        soc, _ = _run(_hetero_config())
        path = tmp_path / "stats.json"
        payload = write_stats_json(soc.stat_groups(), str(path),
                                   topology=soc.topology)
        assert payload["topology"]["hash"] == soc.topology.topology_hash()
        parameters = payload["topology"]["parameters"]
        assert len(parameters["memory"]) == 2
        # Per-endpoint channel groups are disambiguated in the dump.
        assert "dram0.ch0" in payload and "dram1.ch0" in payload

    def test_cache_key_differs_from_preset(self):
        from repro.fleet import JobSpec, cache_key
        preset = JobSpec(name="preset", frames=1)
        hetero = JobSpec(name="hetero", frames=1,
                         topology=_hetero_topology().to_dict())
        assert cache_key(preset) != cache_key(hetero)
        # ...and from a *different* non-default topology.
        other = _hetero_topology().to_dict()
        other["gpu"]["num_clusters"] = 4
        assert cache_key(hetero) != cache_key(
            JobSpec(name="hetero4", frames=1, topology=other))
