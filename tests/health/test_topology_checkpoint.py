"""Checkpoint topology stamping: snapshots refuse mismatched hardware."""

import pytest

from repro.common.config import (CPUClusterTopology, DRAMConfig, GPUConfig,
                                 MemoryTopology, NoCTopology, SoCTopology,
                                 scaled_gpu)
from repro.harness.scenes import SceneSession
from repro.health import (CheckpointTopologyError, HealthConfig, resume_run)
from repro.soc.checkpoint import GraphicsCheckpoint
from repro.soc.soc import EmeraldSoC, smoke_run_config

WIDTH, HEIGHT = 48, 36


def _config(num_frames=2, **overrides):
    return smoke_run_config(
        width=WIDTH, height=HEIGHT, num_frames=num_frames,
        health=HealthConfig(checkpoint_every=1),
        **overrides)


def _checkpointed_run(config):
    session = SceneSession("cube", WIDTH, HEIGHT)
    soc = EmeraldSoC(config, session.frame, session.framebuffer_address)
    soc.run()
    return session, soc


class TestTopologyStamp:
    def test_snapshot_carries_topology_hash(self):
        _, soc = _checkpointed_run(_config())
        checkpoint = soc.checkpoints.last
        assert checkpoint.topology == soc.topology.topology_hash()

    def test_stamp_survives_json_round_trip(self):
        _, soc = _checkpointed_run(_config())
        restored = GraphicsCheckpoint.from_json(
            soc.checkpoints.last.to_json())
        assert restored.topology == soc.topology.topology_hash()

    def test_resume_on_same_topology_proceeds(self):
        session, soc = _checkpointed_run(_config())
        resumed_soc, results = resume_run(
            soc.checkpoints.last, _config(), session.frame,
            session.framebuffer_address)
        assert resumed_soc.topology.topology_hash() == \
            soc.checkpoints.last.topology

    def test_resume_on_mismatched_topology_dies_typed(self):
        session, soc = _checkpointed_run(_config())
        other = _config()
        other.topology = SoCTopology(
            name="other",
            gpu=scaled_gpu(GPUConfig(num_clusters=2)),
            cpu=CPUClusterTopology(num_cores=4),
            memory=(
                MemoryTopology(name="dram0", dram=DRAMConfig(channels=1)),
                MemoryTopology(name="dram1", dram=DRAMConfig(channels=1)),
            ),
            noc=NoCTopology())
        with pytest.raises(CheckpointTopologyError) as excinfo:
            resume_run(soc.checkpoints.last, other, session.frame,
                       session.framebuffer_address)
        error = excinfo.value
        assert error.snapshot_hash == soc.checkpoints.last.topology
        assert error.config_hash == other.topology.topology_hash()
        assert error.field == "topology"
        # Both hashes appear in the message for post-mortems.
        assert error.snapshot_hash in str(error)
        assert error.config_hash in str(error)

    def test_unstamped_snapshot_resumes_unchecked(self):
        # Pre-topology snapshots (topology=None) keep working.
        session, soc = _checkpointed_run(_config())
        legacy = GraphicsCheckpoint(
            trace_json=soc.checkpoints.last.trace_json,
            tick=soc.checkpoints.last.tick,
            frame_index=soc.checkpoints.last.frame_index)
        _, results = resume_run(legacy, _config(), session.frame,
                                session.framebuffer_address)
        assert results.end_tick >= legacy.tick
