"""Checkpoint round-trip verification.

A checkpoint is only worth taking if it can actually resurrect the run,
so the sanitizer exercises every snapshot the moment it is taken:
serialize to JSON, parse it back through the strict validator, replay the
restored draw-call trace into a shadow GL context, and diff the shadow
against a replay of the original — every scalar field (tick, frame index,
RNG streams, job, topology, mode, claim), frame/draw counts, and a CRC
over the canonical trace encoding.  Any divergence raises
:class:`~repro.sanitize.violations.CheckpointMismatchViolation` naming the
first field that differs, at the moment the corrupt snapshot is produced
rather than hours later when a crashed run tries to resume from it.

Replay is a pure function of the trace text, so each distinct text is
replayed once: when the restored trace equals the original byte for byte
(the healthy case) the shadow replay stands in for both.
"""

from __future__ import annotations

import zlib
from dataclasses import fields

from repro.gl.context import Frame
from repro.gl.trace import TraceRecorder, replay
from repro.soc.checkpoint import CheckpointError, GraphicsCheckpoint
from repro.sanitize.violations import CheckpointMismatchViolation

#: Every snapshot field the round trip must preserve as-is (the trace is
#: compared through its replay instead).
_SCALAR_FIELDS = tuple(f.name for f in fields(GraphicsCheckpoint)
                       if f.name != "trace_json")


def _frames_crc(frames: list[Frame]) -> int:
    """CRC32 over the canonical re-recording of replayed frames."""
    recorder = TraceRecorder()
    for frame in frames:
        recorder.record_frame(frame)
    return zlib.crc32(recorder.to_json().encode())


def trace_crc(trace_json: str) -> int:
    """CRC32 over a trace's canonical re-encoding.

    Re-recording through :class:`TraceRecorder` canonicalizes field order
    and defaults, so two traces describing the same draw calls CRC equal
    even if their JSON strings differ cosmetically.
    """
    return _frames_crc(replay(trace_json))


def verify_roundtrip(checkpoint: GraphicsCheckpoint,
                     tick: int = 0) -> dict:
    """Round-trip ``checkpoint`` through serialize/restore/shadow-replay.

    Returns a summary dict (``frames``, ``draws``, ``crc``) on success;
    raises :class:`CheckpointMismatchViolation` on any divergence.
    ``tick`` stamps the violation with the simulation time of the check.
    """

    def fail(message: str, **details) -> None:
        raise CheckpointMismatchViolation(
            message, tick=tick, owner="checkpoint",
            details={"frame_index": checkpoint.frame_index, **details})

    try:
        encoded = checkpoint.to_json()
        restored = GraphicsCheckpoint.from_json(encoded)
    except CheckpointError as exc:
        fail(f"snapshot does not survive its own validator: {exc}",
             field=exc.field)

    for field in _SCALAR_FIELDS:
        ours, theirs = getattr(checkpoint, field), getattr(restored, field)
        if ours != theirs:
            fail(f"{field} changed across the round trip "
                 f"({ours!r} -> {theirs!r})", field=field)

    try:
        shadow = restored.restore_frames()
    except Exception as exc:
        fail(f"restored trace fails replay: {exc}", field="trace")
    same_text = restored.trace_json == checkpoint.trace_json
    original = shadow if same_text else checkpoint.restore_frames()
    if len(shadow) != len(original):
        fail(f"frame count changed across the round trip "
             f"({len(original)} -> {len(shadow)})", field="trace.frames",
             original=len(original), restored=len(shadow))

    crc_shadow = _frames_crc(shadow)
    crc_original = crc_shadow if same_text else _frames_crc(original)
    if crc_original != crc_shadow:
        fail(f"trace CRC mismatch after round trip "
             f"(0x{crc_original:08x} -> 0x{crc_shadow:08x})",
             field="trace", original_crc=crc_original,
             restored_crc=crc_shadow)

    draws = sum(len(frame.draw_calls) for frame in shadow)
    return {"frames": len(shadow), "draws": draws, "crc": crc_original}
