"""Golden fingerprints of the cs1 and cs2 presets on the one engine.

The compiled shader dispatch, the calendar-bucket event kernel and the
hot-path micro-optimizations are optimizations, never model changes.
These pins were recorded at commit 38ff8ab, where the simulator could
still run a second, reference engine (heap-only kernel, decode-every-op
warp interpreter) and both engines produced exactly these values: end
tick / cycles, fired events, framebuffer and depth CRCs, DRAM bytes and
a CRC of each SIMT core's ``stats.dump()``.  A checkpoint taken mid-run
must resume to the same pinned framebuffer, also when it crosses the
functional/detailed engine boundary.
"""

import json
import zlib

import pytest

from repro.harness.scenes import SceneSession
from repro.health import HealthConfig
from repro.health.recovery import resume_run
from repro.sampling.functional import FunctionalSim

from tests.health.full_system import HEIGHT, WIDTH, build_soc, tiny_config

CS1_PIN = {
    "end_tick": 240_000,
    "events_fired": 28_060,
    "fb_crc": 1444291790,
    "depth_crc": 168309440,
    "dram_bytes": {"cpu": 393_984, "gpu": 35_072, "display": 27_648},
    "core_stats_crc": [418358091, 3039232214],
}

CS2_PIN = {
    "cycles": 3400,
    "fragment_cycles": 2810,
    "fragments": 634,
    "events_fired": 8986,
    "fb_crc": 1362813562,
    "depth_crc": 3512129061,
    "dram_bytes": 34_944,
    "core_stats_crc": [695265345, 3183277374, 1302334637],
}


def _crc(array):
    return zlib.crc32(array.tobytes())


def _stats_crc(core):
    return zlib.crc32(
        json.dumps(core.stats.dump(), sort_keys=True).encode())


@pytest.mark.slow
@pytest.mark.full_system
class TestCS1Matrix:
    def test_run_matches_the_pinned_fingerprint(self):
        soc = build_soc(num_frames=2)
        results = soc.run()
        assert {
            "end_tick": results.end_tick,
            "events_fired": soc.events.events_fired,
            "fb_crc": _crc(soc.gpu.fb.color),
            "depth_crc": _crc(soc.gpu.fb.depth),
            "dram_bytes": results.dram_bytes,
            "core_stats_crc": [_stats_crc(core) for core in soc.gpu.cores],
        } == CS1_PIN


@pytest.mark.slow
@pytest.mark.full_system
class TestCS2Matrix:
    def test_run_matches_the_pinned_fingerprint(self):
        from repro.harness.case_study2 import CS2Config, make_gpu

        config = CS2Config(width=64, height=48, texture_size=64)
        session = SceneSession("cube", config.width, config.height,
                               texture_size=config.texture_size)
        gpu = make_gpu(config, wt_size=4)
        stats = gpu.run_frame(session.frame(0))
        assert {
            "cycles": stats.cycles,
            "fragment_cycles": stats.fragment_cycles,
            "fragments": stats.fragments,
            "events_fired": gpu.events.events_fired,
            "fb_crc": _crc(gpu.fb.color),
            "depth_crc": _crc(gpu.fb.depth),
            "dram_bytes": stats.dram_bytes,
            "core_stats_crc": [_stats_crc(core) for core in gpu.cores],
        } == CS2_PIN


@pytest.mark.slow
@pytest.mark.full_system
class TestCheckpointResume:
    def test_resume_reaches_the_pinned_framebuffer(self):
        """A snapshot after frame 1 resumes to the framebuffer of the
        uninterrupted two-frame run pinned in CS1_PIN — checkpoints carry
        simulation state, not kernel internals."""
        soc_half = build_soc(num_frames=1,
                             health=HealthConfig(checkpoint_every=1))
        soc_half.run()
        checkpoint = soc_half.checkpoints.last
        assert checkpoint is not None and checkpoint.frame_index == 1

        session = SceneSession("cube", WIDTH, HEIGHT)
        soc_resumed, results = resume_run(
            checkpoint, tiny_config(num_frames=2),
            session.frame, session.framebuffer_address)
        assert len(results.frames) >= 1
        assert _crc(soc_resumed.gpu.fb.color) == CS1_PIN["fb_crc"]


@pytest.mark.slow
@pytest.mark.full_system
class TestCheckpointAcrossModes:
    @pytest.mark.parametrize("first,second", [(True, False), (False, True)])
    def test_resume_crossing_the_mode_boundary(self, first, second):
        """A snapshot written by one engine (``True``: detailed, ``False``:
        functional) after frame 1 resumes under the other and still renders
        the pinned framebuffer of the uninterrupted two-frame run."""
        session = SceneSession("cube", WIDTH, HEIGHT)
        if first:
            soc_half = build_soc(num_frames=1,
                                 health=HealthConfig(checkpoint_every=1))
            soc_half.run()
            checkpoint = soc_half.checkpoints.last
        else:
            checkpoint = FunctionalSim(tiny_config(num_frames=2),
                                       session.frame, render="none") \
                .run(1).checkpoint()
        assert checkpoint is not None and checkpoint.frame_index == 1
        assert checkpoint.mode == ("detailed" if first else "functional")

        if second:
            soc_resumed, results = resume_run(
                checkpoint, tiny_config(num_frames=2),
                session.frame, session.framebuffer_address)
            assert len(results.frames) >= 1
            fb_crc = _crc(soc_resumed.gpu.fb.color)
        else:
            fb_crc = FunctionalSim.from_checkpoint(
                checkpoint, tiny_config(num_frames=2), session.frame,
                render="boundary").run(2).fb_crc()
        assert fb_crc == CS1_PIN["fb_crc"]
