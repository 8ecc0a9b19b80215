"""Periodic checkpointing and crash recovery for full-system runs.

A :class:`CheckpointManager` rides an :class:`~repro.soc.soc.EmeraldSoC`
render loop and snapshots the graphics + loop state every N completed
frames (draw-call trace, simulated tick, app frame counter — the same
checkpoint format as :mod:`repro.soc.checkpoint`).  Capture is incremental:
the manager keeps one growing trace recorder, so a snapshot encodes only
the frames rendered since the previous one.  A run killed mid-frame
resumes from its last snapshot with :func:`resume_run`: the recorded draw
calls are replayed through the functional model to rebuild GL state, the
event clock is advanced to the snapshot tick, and the render loop restarts
at the snapshot's frame index.  Because frame content is a deterministic
function of the frame index, the resumed run renders the same remaining
frames — and the same final framebuffer — as an uninterrupted run.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.common.events import SimulationError
from repro.gl.context import Frame
from repro.gl.trace import TraceRecorder
from repro.soc.checkpoint import (CheckpointTopologyError,
                                  GraphicsCheckpoint, capture)


class PreemptionRequested(SimulationError):
    """A run stopped cooperatively at a checkpoint boundary.

    Raised by :class:`CheckpointManager` immediately *after* a snapshot is
    taken (and persisted, when a path is configured), so the interrupted
    run can always be resumed from the snapshot it just wrote.  This is a
    control-flow signal, not a failure: supervisors (the fleet) requeue
    the job for a checkpoint resume instead of writing a triage bundle.

    Subclasses :class:`SimulationError` so the event loop's ``wrap``
    policy re-raises it unchanged instead of burying it in a wrapper.
    """

    def __init__(self, frame_index: int, tick: int) -> None:
        super().__init__(
            f"preempted at checkpoint boundary (frame {frame_index}, "
            f"tick {tick})", tick=tick, owner="checkpoints")
        self.frame_index = frame_index


class CheckpointManager:
    """Collects rendered frames and emits periodic checkpoints.

    Wire it up with :meth:`wrap_source` (observes every frame the loop
    renders) and :meth:`on_frame_done` (the render loop's per-frame hook).
    ``path`` (when given) receives the latest snapshot as JSON after every
    checkpoint — the on-disk state a crashed process recovers from.
    """

    def __init__(self, every: int, path: Optional[str] = None,
                 injector=None,
                 preempt_check: Optional[Callable[[int], bool]] = None,
                 job: Optional[str] = None,
                 topology: Optional[str] = None,
                 claim: Optional[str] = None) -> None:
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive, "
                             f"got {every}")
        self.every = every
        self.path = path
        # Ownership token stamped into every snapshot (the fleet passes
        # the job's cache key) so a resume in a reused directory can tell
        # this job's snapshots from a previous occupant's.
        self.job = job
        # Claim provenance (fleet-server incarnation + attempt sequence):
        # recorded in every snapshot for triage, never consulted for
        # ownership — any later claim of the same job may resume it.
        self.claim = claim
        # Topology hash of the producing system, stamped at snapshot time
        # so a resume onto differently-assembled hardware can be refused.
        self.topology = topology
        # ``preempt_check(frames_done)`` is consulted right after each
        # snapshot lands; returning True raises PreemptionRequested, so a
        # preempted run always holds a fresh resume point.
        self.preempt_check = preempt_check
        # When a FaultInjector rides the run, its RNG stream states are
        # captured into every snapshot so a resume reproduces the same
        # downstream fault pattern as an uninterrupted run.
        self.injector = injector
        self.last: Optional[GraphicsCheckpoint] = None
        self.checkpoints_taken = 0
        # Everything snapshotted so far, encoded once; plus the frames
        # rendered since the last snapshot, encoded at the next one.
        self._recorder = TraceRecorder()
        self._pending: list[Frame] = []

    def seed(self, frames: list[Frame]) -> None:
        """Pre-load frames replayed from a restored checkpoint so snapshots
        taken after a resume still cover the whole run."""
        self._recorder = TraceRecorder()
        self._pending = list(frames)

    def wrap_source(self, frame_source: Callable[[int], Frame]
                    ) -> Callable[[int], Frame]:
        def observing_source(index: int) -> Frame:
            frame = frame_source(index)
            self._pending.append(frame)
            return frame
        return observing_source

    def on_frame_done(self, frame_index: int, tick: int) -> None:
        """Called after frame ``frame_index`` completes at ``tick``."""
        if (frame_index + 1) % self.every != 0:
            return
        rng = (self.injector.rng_state()
               if self.injector is not None else None)
        self.last = capture(self._pending, tick=tick,
                            frame_index=frame_index + 1, rng=rng,
                            job=self.job, topology=self.topology,
                            mode="detailed", claim=self.claim,
                            recorder=self._recorder)
        self._pending = []
        self.checkpoints_taken += 1
        if self.path is not None:
            # Write-then-rename: a process SIGKILL'd mid-serialize leaves
            # a stale ``.tmp`` behind, never a truncated snapshot — the
            # previous complete snapshot at ``path`` survives and resume
            # picks it up.
            tmp = self.path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(self.last.to_json())
            os.replace(tmp, self.path)
        if (self.preempt_check is not None
                and self.preempt_check(frame_index + 1)):
            raise PreemptionRequested(frame_index + 1, tick)


def load_checkpoint(path: str) -> GraphicsCheckpoint:
    """Read and validate an on-disk checkpoint."""
    with open(path) as handle:
        return GraphicsCheckpoint.from_json(handle.read())


def check_topology(checkpoint: GraphicsCheckpoint, run_config) -> None:
    """Refuse to restore ``checkpoint`` onto different hardware.

    A snapshot stamped with a topology hash must match the topology
    ``run_config`` assembles; a mismatch raises
    :class:`CheckpointTopologyError` before any state is rebuilt.
    Unstamped snapshots pass.
    """
    if checkpoint.topology is None:
        return
    config_hash = run_config.topology.topology_hash()
    if checkpoint.topology != config_hash:
        raise CheckpointTopologyError(
            snapshot_hash=checkpoint.topology, config_hash=config_hash)


def resume_soc(checkpoint: Optional[GraphicsCheckpoint], run_config,
               frame_source: Callable[[int], Frame],
               framebuffer_address: int):
    """Build (but do not run) the SoC that continues from ``checkpoint``.

    Rebuilds GL-side state by draw-call replay (which also validates the
    trace), then constructs a fresh SoC that re-enters simulated time at
    the snapshot tick and the render loop at the snapshot frame index,
    with the fault RNG streams where the snapshot left them.  A
    ``checkpoint`` of None builds a SoC that starts from frame 0.
    """
    from repro.soc.soc import EmeraldSoC   # late import: soc imports health

    if checkpoint is None:
        return EmeraldSoC(run_config, frame_source, framebuffer_address)
    check_topology(checkpoint, run_config)
    restored = checkpoint.restore_frames()
    soc = EmeraldSoC(run_config, frame_source, framebuffer_address,
                     start_frame=checkpoint.frame_index,
                     start_tick=checkpoint.tick)
    if soc.checkpoints is not None:
        soc.checkpoints.seed(restored)
    if checkpoint.rng is not None and soc.injector is not None:
        # Re-align the fault RNG streams with the crashed run's position;
        # without this a resume re-draws the whole fault sequence from the
        # seed and diverges from the uninterrupted run.
        soc.injector.restore_rng(checkpoint.rng)
    return soc


def resume_run(checkpoint: Optional[GraphicsCheckpoint], run_config,
               frame_source: Callable[[int], Frame],
               framebuffer_address: int,
               max_events: Optional[int] = None):
    """Resume a crashed run from ``checkpoint`` (see :func:`resume_soc`).

    Returns ``(soc, results)`` — the results cover the resumed frames
    only, but the final framebuffer matches an uninterrupted run.
    """
    soc = resume_soc(checkpoint, run_config, frame_source,
                     framebuffer_address)
    results = soc.run(max_events=max_events) if max_events is not None \
        else soc.run()
    return soc, results
