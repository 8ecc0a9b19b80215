"""Graphics checkpointing (paper §4.2).

Booting a full system is expensive; Emerald checkpoints the graphics state
by recording all draw calls and replaying them through the functional model
at restore.  Here a checkpoint bundles the recorded draw-call trace (the
same JSON format as :mod:`repro.gl.trace`), the simulated time, and the
app-side frame counter; restore rebuilds the GL-side state by replay.

A snapshot has one canonical encoding (sorted keys, no whitespace — the
form its CRC hashes), made once per snapshot and shared by everything that
writes or checks it: :meth:`GraphicsCheckpoint.to_json` splices the
recorder's already-canonical trace text between the encoded scalar fields
instead of re-serializing it, chains the CRC over the pieces, and
remembers the result until a field changes.

Checkpoints are the crash-recovery substrate of the health subsystem
(:mod:`repro.health.recovery`), so :meth:`GraphicsCheckpoint.from_json`
validates its input strictly: a truncated or corrupted snapshot raises
:class:`CheckpointError` naming the offending field instead of resuming a
run from garbage.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from typing import Optional

from repro.gl.context import Frame
from repro.gl.trace import TraceRecorder, canonical_json, replay


class CheckpointError(ValueError):
    """A checkpoint document failed validation.

    ``field`` names the offending key (dotted path) so a crashed-run
    post-mortem can say *which* part of the snapshot is damaged.
    """

    def __init__(self, message: str, field: str) -> None:
        super().__init__(f"checkpoint field {field!r}: {message}")
        self.field = field


class CheckpointTopologyError(CheckpointError):
    """The snapshot was taken on a different SoC topology.

    A checkpoint records the topology hash of the system that produced it
    (:meth:`repro.common.config.SoCTopology.topology_hash`); restoring it
    onto a system assembled from a *different* descriptor would replay
    graphics state into mismatched hardware — addresses would interleave
    across a different channel count, timing would diverge silently.
    ``snapshot_hash`` / ``config_hash`` carry both sides of the mismatch.
    """

    def __init__(self, snapshot_hash: str, config_hash: str) -> None:
        super().__init__(
            f"snapshot taken on topology {snapshot_hash}, but the resume "
            f"config assembles topology {config_hash}; refusing to restore "
            f"graphics state onto mismatched hardware", field="topology")
        self.snapshot_hash = snapshot_hash
        self.config_hash = config_hash


class CheckpointCorruptError(CheckpointError):
    """The snapshot bytes themselves are damaged (truncation, bit rot).

    Distinct from a schema problem: the file is not a well-formed snapshot
    at all — it was cut short mid-write or its embedded CRC no longer
    matches the payload.  Callers holding an alternative (an older
    snapshot, or a from-scratch rerun) should treat this as "discard and
    fall back", which is exactly what the fleet's resume path does.
    ``expected_crc`` / ``actual_crc`` carry the mismatch detail (None for
    truncation, where no CRC could be read at all).
    """

    def __init__(self, message: str, field: str,
                 expected_crc: Optional[int] = None,
                 actual_crc: Optional[int] = None) -> None:
        if expected_crc is not None and actual_crc is not None:
            message = (f"{message} (crc 0x{expected_crc:08x} recorded, "
                       f"0x{actual_crc:08x} computed)")
        super().__init__(message, field=field)
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


CHECKPOINT_VERSION = 1

# Execution engines that can stamp a snapshot (provenance, not payload —
# snapshots restore across modes; see GraphicsCheckpoint docstring).
CHECKPOINT_MODES = frozenset({"functional", "detailed"})


def _payload_crc(doc: dict) -> int:
    """CRC32 over the canonical serialization of everything but ``crc``.

    Canonical (sorted keys, no whitespace) so the digest is independent of
    the formatting the snapshot happened to be written with.  This is the
    definition; the encoder and decoder compute the same value piecewise
    (:func:`_spliced_crc`).
    """
    body = {key: value for key, value in doc.items() if key != "crc"}
    return zlib.crc32(canonical_json(body).encode())


def _around_trace(doc: dict) -> tuple[str, str]:
    """(head, tail) with ``head + canonical_json(trace) + tail`` equal to
    ``canonical_json({**doc, "trace": trace})`` for any trace value.

    Sorted keys put every key below ``"trace"`` before it and the rest
    (``"version"``) after it.
    """
    before = canonical_json({k: v for k, v in doc.items() if k < "trace"})
    after = canonical_json({k: v for k, v in doc.items() if k > "trace"})
    head = before[:-1] + ("," if len(before) > 2 else "") + '"trace":'
    tail = ("," if len(after) > 2 else "") + after[1:]
    return head, tail


def _spliced_crc(head: str, trace_text: str, tail: str) -> int:
    """:func:`_payload_crc` of ``head + trace_text + tail``, chained."""
    crc = zlib.crc32(head.encode())
    crc = zlib.crc32(trace_text.encode(), crc)
    return zlib.crc32(tail.encode(), crc)


@dataclass
class GraphicsCheckpoint:
    """A serializable snapshot of graphics + loop state.

    ``rng`` (optional) carries the fault injector's serialized RNG stream
    states (:meth:`repro.health.faults.FaultInjector.rng_state`) so a
    resumed run reproduces the *same* downstream fault pattern as an
    uninterrupted one.  Absent (None) on runs without injection and in
    pre-existing snapshots — the field is backward compatible both ways.

    ``job`` (optional) names the owning run — the fleet stores the job's
    cache key here — so a resume path can refuse a snapshot left behind
    by a *different* job in a reused directory instead of silently
    replaying foreign state.  Absent (None) outside the fleet and in
    pre-existing snapshots.

    ``topology`` (optional) is the producing system's topology hash
    (:meth:`repro.common.config.SoCTopology.topology_hash`); a resume onto
    a differently-assembled SoC raises :class:`CheckpointTopologyError`
    instead of replaying state into mismatched hardware.  Absent (None)
    in pre-topology snapshots, which resume unchecked.

    ``mode`` (optional) records which execution engine produced the
    snapshot: ``"detailed"`` (the full timing model) or ``"functional"``
    (the zero-event replay mode, :mod:`repro.sampling.functional`).  It is
    provenance only — the snapshot payload is the *architectural* state
    both engines agree on, so either mode restores a snapshot the other
    wrote (the fast-forward contract, DESIGN.md §13).  Absent (None) in
    pre-sampling snapshots.

    ``claim`` (optional) names the *supervisor incarnation* that owned
    the attempt which wrote the snapshot — the fleet server stamps its
    journaled claim token (server id + attempt sequence) here.  Unlike
    ``job`` it is pure provenance: ownership decisions key on ``job``
    alone (any incarnation of the same job may resume the snapshot —
    that is exactly what server crash-recovery does), but a triage
    bundle can attribute the snapshot to the exact server process and
    claim that produced it.  Absent (None) outside server-claimed jobs
    and in pre-existing snapshots.

    ``trace_json`` is canonical text (:func:`repro.gl.trace.canonical_json`),
    as :class:`~repro.gl.trace.TraceRecorder`, :meth:`from_json` and
    :meth:`rewind` produce it: :meth:`to_json` splices it verbatim.
    """

    trace_json: str
    tick: int
    frame_index: int
    rng: Optional[dict] = None
    job: Optional[str] = None
    topology: Optional[str] = None
    mode: Optional[str] = None
    claim: Optional[str] = None

    # The last encoding, keyed on the encoded fields and the trace text
    # (callers mutate fields after capture); one per snapshot object.
    _encoding = None

    def to_json(self) -> str:
        """The canonical encoding, with the payload CRC embedded."""
        scalars = {"version": CHECKPOINT_VERSION, "tick": self.tick,
                   "frame_index": self.frame_index}
        for name in ("rng", "job", "topology", "mode", "claim"):
            value = getattr(self, name)
            if value is not None:
                scalars[name] = value
        head, tail = _around_trace(scalars)
        cached = self._encoding
        if cached is not None and cached[:3] == (head, tail, self.trace_json):
            return cached[3]
        crc = _spliced_crc(head, self.trace_json, tail)
        head_with_crc, _ = _around_trace({**scalars, "crc": crc})
        text = head_with_crc + self.trace_json + tail
        self._encoding = (head, tail, self.trace_json, text)
        return text

    @classmethod
    def from_json(cls, text: str) -> "GraphicsCheckpoint":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            # A process killed mid-write leaves a JSON prefix, not a
            # document; that is corruption, not a schema mismatch.
            raise CheckpointCorruptError(
                f"truncated or not JSON ({exc})", field="$") from exc
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"expected an object, got {type(doc).__name__}", field="$")
        # The trace is re-encoded once; the text serves both the CRC and
        # the restored snapshot's trace_json.
        trace_text = canonical_json(doc["trace"]) if "trace" in doc else None
        crc = doc.get("crc")
        if crc is not None:
            # Snapshots written by this version embed a payload CRC;
            # pre-CRC snapshots (no field) skip the check and rely on the
            # schema validation below.
            if isinstance(crc, bool) or not isinstance(crc, int):
                raise CheckpointCorruptError(
                    f"expected an integer, got {type(crc).__name__}",
                    field="crc")
            if trace_text is None:
                actual = _payload_crc(doc)
            else:
                head, tail = _around_trace(
                    {k: v for k, v in doc.items() if k not in ("crc", "trace")})
                actual = _spliced_crc(head, trace_text, tail)
            if actual != crc:
                raise CheckpointCorruptError(
                    "payload does not match its recorded CRC", field="crc",
                    expected_crc=crc, actual_crc=actual)
        version = doc.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported version {version!r} "
                f"(expected {CHECKPOINT_VERSION})", field="version")
        tick = _require_int(doc, "tick")
        frame_index = _require_int(doc, "frame_index")
        if "trace" not in doc:
            raise CheckpointError("missing", field="trace")
        trace = doc["trace"]
        if not isinstance(trace, dict):
            raise CheckpointError(
                f"expected an object, got {type(trace).__name__}",
                field="trace")
        frames = trace.get("frames")
        if not isinstance(frames, list):
            raise CheckpointError(
                "missing or not a list", field="trace.frames")
        rng = doc.get("rng")
        if rng is not None and not isinstance(rng, dict):
            raise CheckpointError(
                f"expected an object, got {type(rng).__name__}", field="rng")
        job = doc.get("job")
        if job is not None and not isinstance(job, str):
            raise CheckpointError(
                f"expected a string, got {type(job).__name__}", field="job")
        topology = doc.get("topology")
        if topology is not None and not isinstance(topology, str):
            raise CheckpointError(
                f"expected a string, got {type(topology).__name__}",
                field="topology")
        mode = doc.get("mode")
        if mode is not None and mode not in CHECKPOINT_MODES:
            raise CheckpointError(
                f"expected one of {sorted(CHECKPOINT_MODES)}, got {mode!r}",
                field="mode")
        claim = doc.get("claim")
        if claim is not None and not isinstance(claim, str):
            raise CheckpointError(
                f"expected a string, got {type(claim).__name__}",
                field="claim")
        return cls(trace_json=trace_text, tick=tick,
                   frame_index=frame_index, rng=rng, job=job,
                   topology=topology, mode=mode, claim=claim)

    def restore_frames(self) -> list[Frame]:
        """Replay the recorded draw calls through a fresh GL context."""
        return replay(self.trace_json)

    def rewind(self, count: int) -> "GraphicsCheckpoint":
        """A copy with the last ``count`` frames dropped from the trace.

        A snapshot whose ``frame_index`` already covers a run's *final*
        frame cannot be resumed as-is: the render loop would have zero
        frames left, and the framebuffer pixels — which live only in the
        process that wrote the snapshot — would never be redrawn.
        Rewinding re-enters the run one (or more) frames earlier so the
        resume re-renders them; frame content is a pure function of the
        frame index, so the re-rendered framebuffer is bit-identical to
        the one the dead process held.

        The snapshot ``tick`` is kept: pixels do not depend on when a
        frame starts in simulated time, and keeping it preserves tick
        monotonicity for the resumed event clock.  Timing results of the
        re-rendered frames are therefore not comparable to the original
        run's — only the architectural state (and the payload derived
        from it) is.
        """
        if count <= 0:
            raise ValueError(f"rewind count must be positive, got {count}")
        trace = json.loads(self.trace_json)
        frames = trace.get("frames", [])
        if count > self.frame_index or count > len(frames):
            raise ValueError(
                f"cannot rewind {count} frame(s): snapshot holds "
                f"{len(frames)} recorded frame(s) at frame_index "
                f"{self.frame_index}")
        trace["frames"] = frames[:-count]
        return replace(self, trace_json=canonical_json(trace),
                       frame_index=self.frame_index - count)


def _require_int(doc: dict, key: str) -> int:
    """A present, non-negative integer (bool is not an int here)."""
    if key not in doc:
        raise CheckpointError("missing", field=key)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CheckpointError(
            f"expected an integer, got {type(value).__name__}", field=key)
    if value < 0:
        raise CheckpointError(f"must be non-negative, got {value}", field=key)
    return value


def capture(frames: list[Frame], tick: int, frame_index: int,
            rng: Optional[dict] = None,
            job: Optional[str] = None,
            topology: Optional[str] = None,
            mode: Optional[str] = None,
            claim: Optional[str] = None,
            recorder: Optional[TraceRecorder] = None) -> GraphicsCheckpoint:
    """Record rendered frames into a checkpoint.

    ``recorder`` continues an earlier recording: ``frames`` are appended
    to it (only they are encoded) and the snapshot covers everything it
    holds.  Without one, the snapshot covers exactly ``frames``.
    """
    if mode is not None and mode not in CHECKPOINT_MODES:
        raise CheckpointError(
            f"expected one of {sorted(CHECKPOINT_MODES)}, got {mode!r}",
            field="mode")
    if recorder is None:
        recorder = TraceRecorder()
    for frame in frames:
        recorder.record_frame(frame)
    return GraphicsCheckpoint(trace_json=recorder.to_json(), tick=tick,
                              frame_index=frame_index, rng=rng, job=job,
                              topology=topology, mode=mode, claim=claim)
