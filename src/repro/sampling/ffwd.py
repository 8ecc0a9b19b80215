"""Fast-forward driver: N frames functional, then detailed timing.

:func:`fast_forward` is the gem5 ``--fast-forward`` idiom composed from
this repo's parts: a :class:`~repro.sampling.functional.FunctionalSim`
executes the warm-up frames with zero timing events, snapshots at the
region-of-interest boundary, and :func:`~repro.health.recovery.resume_run`
enters detailed timing from that snapshot — the exact machinery crash
recovery already uses, which is what makes the switch trustworthy.

:func:`verify_equivalence` is the executable form of the mode-switch
contract (DESIGN.md §13).  It checks, for one workload:

1. **trace identity** — the functional engine's recorded command stream
   is byte-identical to the detailed engine's at the same boundary;
2. **boundary framebuffer** — the functional render of the switch frame
   matches the detailed GPU's framebuffer after the same frame, CRC-exact;
3. **final framebuffer** — fast-forward-then-detailed ends with the same
   framebuffer CRC as an uninterrupted full-detail run;
4. **post-switch fingerprint** — the detailed phase after a functional
   snapshot is bit-identical (events fired, duration, per-frame times,
   DRAM traffic, framebuffer) to a detailed phase resumed from a
   *detailed* snapshot at the same boundary, i.e. the engines are
   interchangeable on either side of the switch.

The CI ffwd smoke job gates on this report.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.health import HealthConfig
from repro.health.recovery import resume_run
from repro.sampling.functional import FunctionalSim, FunctionalSimError
from repro.soc.checkpoint import GraphicsCheckpoint


def fb_crc(soc) -> int:
    """CRC32 of a SoC's GPU framebuffer color plane (the golden idiom)."""
    return zlib.crc32(soc.gpu.fb.color.tobytes())


def switch_fingerprint(soc, results) -> dict:
    """Tick-origin-independent fingerprint of a post-switch detailed phase.

    Resume is tick-shift invariant, so two detailed phases entered from
    snapshots at the same frame boundary must agree on everything here
    *bit-exactly* — only absolute tick origins may differ, hence
    ``duration`` (end minus start) rather than ``end_tick``.
    """
    return {
        "frames": len(results.frames),
        "duration": results.end_tick - soc._start_tick,
        "events_fired": soc.events.events_fired,
        "mean_gpu_time": results.mean_gpu_time,
        "mean_total_time": results.mean_total_time,
        "gpu_times": [r.gpu_time for r in results.frames],
        "total_times": [r.total_time for r in results.frames],
        "dram_bytes": dict(results.dram_bytes),
        "row_hit_rate": results.row_hit_rate,
        "fb_crc": fb_crc(soc),
    }


@dataclass
class FastForwardResult:
    """One fast-forwarded run: functional warm-up + detailed remainder."""

    checkpoint: GraphicsCheckpoint     # the switch-boundary snapshot
    soc: object                        # the detailed-phase EmeraldSoC
    results: object                    # SoCResults for the detailed frames
    frames_functional: int
    frames_detailed: int
    functional_fb_crc: Optional[int]   # switch-frame render (policy-dependent)
    final_fb_crc: int                  # after the last detailed frame
    wall_functional: float
    wall_detailed: float

    @property
    def wall_total(self) -> float:
        return self.wall_functional + self.wall_detailed

    def fingerprint(self) -> dict:
        return switch_fingerprint(self.soc, self.results)


def fast_forward(run_config, session_factory: Callable[[], object],
                 ffwd_frames: int, job: Optional[str] = None,
                 render: str = "boundary",
                 max_events: Optional[int] = None) -> FastForwardResult:
    """Run ``ffwd_frames`` functionally, then the rest in detailed timing.

    ``session_factory`` builds a fresh scene session (``.frame`` +
    ``.framebuffer_address``) per phase — the same fresh-session
    semantics crash-recovery resume has, so frame content stays a pure
    function of the frame index on both sides of the switch.
    """
    if not 0 < ffwd_frames < run_config.num_frames:
        raise FunctionalSimError(
            f"ffwd_frames must leave at least one detailed frame: need "
            f"0 < ffwd < {run_config.num_frames}, got {ffwd_frames}")
    start = time.perf_counter()
    session = session_factory()
    sim = FunctionalSim(run_config, session.frame, render=render)
    sim.run(ffwd_frames)
    checkpoint = sim.checkpoint(job=job)
    wall_functional = time.perf_counter() - start

    start = time.perf_counter()
    session = session_factory()
    soc, results = resume_run(checkpoint, run_config, session.frame,
                              session.framebuffer_address,
                              max_events=max_events)
    wall_detailed = time.perf_counter() - start
    return FastForwardResult(
        checkpoint=checkpoint, soc=soc, results=results,
        frames_functional=ffwd_frames,
        frames_detailed=len(results.frames),
        functional_fb_crc=sim.fb_crc() if sim.fb is not None else None,
        final_fb_crc=fb_crc(soc),
        wall_functional=wall_functional, wall_detailed=wall_detailed)


def verify_equivalence(run_config, session_factory: Callable[[], object],
                       ffwd_frames: int) -> dict:
    """Prove the functional/detailed switch is exact for one workload.

    Runs the fast-forwarded configuration plus three detailed controls
    (full run, boundary-truncated run, detailed-snapshot resume) and
    reports the four contract checks.  ``ok`` is True only when every
    check passes; the CI smoke job fails on anything else.
    """
    base = replace(run_config, health=None, frame_hook=None)

    ffwd = fast_forward(base, session_factory, ffwd_frames,
                        render="boundary")

    # Control 1: uninterrupted full-detail run (final-framebuffer golden).
    start = time.perf_counter()
    session = session_factory()
    from repro.soc.soc import EmeraldSoC   # late import: cycle via health
    soc_full = EmeraldSoC(base, session.frame, session.framebuffer_address)
    soc_full.run()
    wall_full = time.perf_counter() - start

    # Control 2: detailed run truncated at the switch boundary, writing a
    # detailed-mode snapshot exactly there (checkpoint_every=ffwd).  Its
    # final framebuffer is the boundary frame the functional render must
    # match, and its snapshot is the detailed twin of ffwd.checkpoint.
    boundary_config = replace(
        base, num_frames=ffwd_frames,
        health=HealthConfig(checkpoint_every=ffwd_frames))
    session = session_factory()
    soc_boundary = EmeraldSoC(boundary_config, session.frame,
                              session.framebuffer_address)
    soc_boundary.run()
    detailed_ckpt = soc_boundary.checkpoints.last

    # Control 3: detailed phase resumed from the *detailed* snapshot.
    session = session_factory()
    soc_resumed, results_resumed = resume_run(
        detailed_ckpt, base, session.frame, session.framebuffer_address)

    functional_fp = ffwd.fingerprint()
    detailed_fp = switch_fingerprint(soc_resumed, results_resumed)
    checks = {
        "trace_identity":
            ffwd.checkpoint.trace_json == detailed_ckpt.trace_json,
        "boundary_fb_crc":
            ffwd.functional_fb_crc == fb_crc(soc_boundary),
        "final_fb_crc": ffwd.final_fb_crc == fb_crc(soc_full),
        "post_switch_fingerprint": functional_fp == detailed_fp,
    }
    return {
        "workload": run_config.topology.name,
        "ffwd_frames": ffwd_frames,
        "total_frames": run_config.num_frames,
        "checks": checks,
        "ok": all(checks.values()),
        "final_fb_crc": ffwd.final_fb_crc,
        "boundary_fb_crc": ffwd.functional_fb_crc,
        "checkpoint_modes": [ffwd.checkpoint.mode, detailed_ckpt.mode],
        "post_switch_fingerprint": functional_fp,
        "wall": {
            "ffwd": ffwd.wall_total,
            "ffwd_functional": ffwd.wall_functional,
            "full_detail": wall_full,
        },
    }
