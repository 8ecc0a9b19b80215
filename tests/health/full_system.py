"""Shared tiny full-system setup for the health acceptance tests.

Small enough (48x36, 2 clusters) that a full-frame run takes a couple of
seconds, big enough to exercise CPU prepare, GPU render, display scanout,
DRAM and the NoC — the same smoke SoC as ``python -m repro selftest``.
"""

from repro.harness.scenes import SceneSession
from repro.soc.soc import (EmeraldSoC, SoCRunConfig, preset_topology,
                           smoke_run_config, smoke_topology)

WIDTH, HEIGHT = 48, 36


def tiny_config(num_frames=1, health=None, sanitize=None) -> SoCRunConfig:
    return smoke_run_config(width=WIDTH, height=HEIGHT,
                            num_frames=num_frames, health=health,
                            sanitize=sanitize)


def bounded_topology(link):
    """The smoke SoC's machine with its one NoC link bounded by ``link``."""
    return preset_topology("BAS", gpu=smoke_topology().gpu, link=link)


def build_soc(num_frames=1, health=None, sanitize=None):
    session = SceneSession("cube", WIDTH, HEIGHT)
    config = tiny_config(num_frames=num_frames, health=health,
                         sanitize=sanitize)
    return EmeraldSoC(config, session.frame, session.framebuffer_address)
