"""Periodic-sampling driver: one functional pass, independent detailed windows.

:func:`run_sampled` executes one workload under a
:class:`~repro.sampling.windows.WindowSchedule` in three steps:

1. **One functional pass.**  A single
   :class:`~repro.sampling.functional.FunctionalSim` with one growing
   trace recorder replays the frames up to the last detailed window and
   snapshots the start of every detailed window.  A snapshot depends
   only on the frames before it (nominal tick, GL trace, mode
   ``functional``, no fault RNG), so it is field for field the snapshot
   a detailed→functional chain would hand over at the same boundary
   (DESIGN.md §13, contract check 4 plus tick-shift invariance).
2. **Detailed windows as independent tasks.**  Each window resumes the
   full timing model from its snapshot and starts microarchitecturally
   cold (the switch contract), so no window reads another's state.  The
   windows run on a fork-started process pool — children inherit the
   snapshots, nothing is pickled on the way in — with
   ``min(windows, usable CPUs)`` workers.  They run in-process when
   there is one window or one CPU, inside a daemonic process (a fleet
   worker cannot have children, and the fleet already runs jobs in
   parallel), and when the caller runs other threads (fork is unsafe
   there).
3. **The same reduction, in window order.**  Each detailed window
   contributes one :class:`WindowSample` (per-frame means of GPU time,
   total time, DRAM bytes, energy, measured after the window's warmup
   frames), and :func:`~repro.sampling.stats.extrapolate` turns the
   samples into whole-run estimates with standard-error bars.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.gpu.energy import frame_energy, gpu_activity_snapshot
from repro.health import HealthConfig
from repro.health.recovery import resume_soc
from repro.sampling.ffwd import fb_crc
from repro.sampling.functional import FunctionalSim
from repro.sampling.stats import (ExtrapolatedRun, WindowSample, extrapolate)
from repro.sampling.windows import Window, WindowSchedule
from repro.sanitize.roundtrip import verify_roundtrip
from repro.soc.checkpoint import GraphicsCheckpoint


@dataclass
class SampledRunResult:
    """One sampled run: window samples, estimates, and cost accounting."""

    schedule: WindowSchedule
    samples: list[WindowSample]
    extrapolated: ExtrapolatedRun
    final_detailed_fb_crc: Optional[int]       # last detailed window's fb
    final_detailed_frame: Optional[int]        # index that fb belongs to
    frames_functional: int = 0                 # frames in functional windows
    frames_detailed: int = 0
    wall_functional: float = 0.0               # the functional pass
    wall_detailed: float = 0.0                 # elapsed, all windows

    @property
    def wall_total(self) -> float:
        return self.wall_functional + self.wall_detailed

    @property
    def estimates(self):
        return self.extrapolated.estimates

    def as_dict(self) -> dict:
        doc = self.extrapolated.as_dict()
        doc.update({
            "schedule": {
                "total_frames": self.schedule.total_frames,
                "period": self.schedule.period,
                "detail": self.schedule.detail,
                "warmup": self.schedule.warmup,
                "offset": self.schedule.offset,
                "coverage": self.schedule.coverage,
            },
            "frames_functional": self.frames_functional,
            "frames_detailed": self.frames_detailed,
            "wall_functional": self.wall_functional,
            "wall_detailed": self.wall_detailed,
            "wall_total": self.wall_total,
            "final_detailed_fb_crc": self.final_detailed_fb_crc,
            "final_detailed_frame": self.final_detailed_frame,
        })
        return doc


def _window_sample(window: Window, results, per_frame: list[dict]
                   ) -> Optional[WindowSample]:
    """Reduce one detailed window's per-frame telemetry to a sample."""
    gpu_times: list[float] = []
    total_times: list[float] = []
    dram_bytes: list[float] = []
    energy: list[float] = []
    previous = {"total_bytes": 0, "issued": 0, "l1_accesses": 0}
    by_index = {entry["frame"]: entry for entry in per_frame}
    for record in results.frames:
        entry = by_index.get(record.index)
        if entry is None:
            continue
        delta_bytes = entry["total_bytes"] - previous["total_bytes"]
        delta_issued = entry["issued"] - previous["issued"]
        delta_l1 = entry["l1_accesses"] - previous["l1_accesses"]
        previous = entry
        if record.index < window.measure_from:
            continue        # per-window warmup: executed, not measured
        gpu_times.append(record.gpu_time)
        total_times.append(record.total_time)
        dram_bytes.append(delta_bytes)
        energy.append(frame_energy(record.gpu_stats, delta_issued,
                                   delta_l1).total_uj)
    if not gpu_times:
        return None
    count = len(gpu_times)
    return WindowSample(
        start=window.start, end=window.end, measured_frames=count,
        gpu_time=sum(gpu_times) / count,
        total_time=sum(total_times) / count,
        dram_bytes=sum(dram_bytes) / count,
        energy_uj=sum(energy) / count)


def _resume_points(run_config, session_factory: Callable[[], object],
                   detailed: list[Window], job: Optional[str]
                   ) -> list[Optional[GraphicsCheckpoint]]:
    """The functional pass: the snapshot each detailed window resumes from.

    A window starting at frame 0 resumes from nothing (None).  With the
    sanitizer's ``verify_checkpoints`` on, every snapshot is round-tripped
    before any window resumes from it; the pass has no event loop to
    record into, so a mismatch raises whatever the sanitizer mode.
    """
    sanitize = run_config.sanitize
    verify = sanitize is not None and sanitize.verify_checkpoints
    sim = FunctionalSim(run_config, session_factory().frame, render="none")
    points: list[Optional[GraphicsCheckpoint]] = []
    for window in detailed:
        if window.start == 0:
            points.append(None)
            continue
        sim.run(window.start)
        checkpoint = sim.checkpoint(job=job)
        if verify:
            verify_roundtrip(checkpoint, tick=checkpoint.tick)
        points.append(checkpoint)
    return points


def _run_detailed(run_config, session_factory: Callable[[], object],
                  window: Window, checkpoint: Optional[GraphicsCheckpoint]
                  ) -> tuple[Optional[WindowSample], int]:
    """One detailed window from its snapshot: (sample, final fb CRC).

    The full timing model runs with a per-frame activity hook for
    DRAM/energy attribution.  The caller's ``run_config.health`` is
    replaced (sampling owns the snapshots; a window takes none), but its
    ``frame_hook`` (fleet heartbeats) still runs on every frame, in the
    process that runs the window.
    """
    caller_hook = run_config.frame_hook
    session = session_factory()
    per_frame: list[dict] = []
    cell: dict = {}

    def hook(frame_index: int, tick: int) -> None:
        if caller_hook is not None:
            caller_hook(frame_index, tick)
        soc = cell["soc"]
        activity = gpu_activity_snapshot(soc.gpu)
        per_frame.append({
            "frame": frame_index, "tick": tick,
            "total_bytes": soc.memory.total_bytes(),
            "issued": activity["issued"],
            "l1_accesses": activity["l1_accesses"],
        })

    window_config = replace(run_config, num_frames=window.end,
                            health=HealthConfig(), frame_hook=hook)
    soc = cell["soc"] = resume_soc(checkpoint, window_config, session.frame,
                                   session.framebuffer_address)
    results = soc.run()
    return _window_sample(window, results, per_frame), fb_crc(soc)


# The pool's task function, installed in each child at fork.
_inherited_task: Optional[Callable[[int], object]] = None


class _Raised:
    """An exception on its way from a pool child to the parent.

    Pickles as the exception itself, rebuilt without re-running its
    ``__init__``: several simulator errors format their message there,
    and the default pickling would call them with the wrong arguments.
    """

    def __init__(self, error: Exception) -> None:
        self.error = error

    def __reduce__(self):
        error = self.error
        return _rebuild_error, (type(error), error.args, vars(error))


def _rebuild_error(cls, args: tuple, state: dict) -> Exception:
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


def _install_task(task: Callable[[int], object]) -> None:
    global _inherited_task
    _inherited_task = task


def _run_inherited(index: int):
    try:
        return _inherited_task(index)
    except Exception as error:
        error.add_note(f"in sampled window {index}, pool child "
                       f"{os.getpid()}:\n"
                       + "".join(traceback.format_tb(error.__traceback__)))
        return _Raised(error)


def _map_windows(task: Callable[[int], object], count: int) -> list:
    """``[task(0), ..., task(count - 1)]``, in parallel where allowed."""
    import multiprocessing       # only a sampled run needs these
    import threading
    from concurrent.futures import ProcessPoolExecutor

    workers = min(count, len(os.sched_getaffinity(0)))
    # A daemonic process may not have children, and forking a process
    # that runs other threads can deadlock the child on a held lock.
    if (workers <= 1 or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return [task(index) for index in range(count)]
    # Fork start: each child gets ``task`` (and the snapshots it closes
    # over) by inheritance, so only window indices and results cross.
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_task,
                             initargs=(task,)) as pool:
        futures = [pool.submit(_run_inherited, index)
                   for index in range(count)]
        outcomes = []
        for future in futures:
            outcome = future.result()
            if isinstance(outcome, Exception):
                for pending in futures:
                    pending.cancel()
                raise outcome
            outcomes.append(outcome)
    return outcomes


def run_sampled(run_config, session_factory: Callable[[], object],
                schedule: WindowSchedule,
                job: Optional[str] = None) -> SampledRunResult:
    """Execute one workload under a sampling schedule and extrapolate.

    ``job`` is the ownership token stamped into the functional pass's
    snapshots.  ``wall_functional`` is the functional pass and
    ``wall_detailed`` the elapsed wall time of the window phase (child
    CPU time under the pool is not part of either).
    """
    if schedule.total_frames != run_config.num_frames:
        raise ValueError(
            f"schedule covers {schedule.total_frames} frames but the run "
            f"config has {run_config.num_frames}")
    detailed = [window for window in schedule.windows()
                if window.kind == "detailed"]
    start = time.perf_counter()
    points = _resume_points(run_config, session_factory, detailed, job)
    wall_functional = time.perf_counter() - start

    start = time.perf_counter()
    outcomes = _map_windows(
        lambda index: _run_detailed(run_config, session_factory,
                                    detailed[index], points[index]),
        len(detailed))
    wall_detailed = time.perf_counter() - start

    samples = [sample for sample, _ in outcomes if sample is not None]
    extrapolated = ExtrapolatedRun(
        estimates=extrapolate(samples), total_frames=schedule.total_frames,
        frame_period_ticks=run_config.gpu_frame_period_ticks,
        samples=samples)
    return SampledRunResult(
        schedule=schedule, samples=samples, extrapolated=extrapolated,
        final_detailed_fb_crc=outcomes[-1][1],
        final_detailed_frame=detailed[-1].end - 1,
        frames_functional=schedule.functional_frames(),
        frames_detailed=schedule.detailed_frames(),
        wall_functional=wall_functional, wall_detailed=wall_detailed)
