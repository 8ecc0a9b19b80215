"""The fleet worker: one process, one job attempt, a typed result.

``worker_entry`` is the :mod:`multiprocessing` target; ``run_job`` holds
the actual logic (and is callable in-process for tests).  The worker's
contract is the chaos harness's loud-death contract extended to a
process boundary: **whatever happens, the job directory ends up with
either an atomic ``result.json`` naming a typed outcome, or nothing at
all** (the process was killed) — never a bare traceback, never a torn
result a supervisor could misread.

Per-attempt flow:

1. If ``checkpoint.json`` exists (a previous attempt crashed or was
   preempted), validate and load it; a
   :class:`~repro.soc.checkpoint.CheckpointCorruptError` quarantines the
   snapshot and falls back to a from-scratch run.
2. Run the tiny full-system workload with the watchdog armed, per-frame
   checkpoints written atomically, the sanitizer armed (triage bundles
   under ``triage/``), and a frame hook that heartbeats and honors the
   fault-injection controls CI / tests use (self-SIGKILL, deliberate
   hang).
3. Map the ending to the attempt taxonomy (:mod:`repro.fleet.job`) and
   publish ``result.json`` write-then-rename.

Determinism: the result payload is derived from the final framebuffer
(bit-identical across crash/resume, pinned by the recovery tests), so a
retried or preempted job publishes the same payload bytes as an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import replace
from typing import Optional

from repro.fleet.job import JobSpec
from repro.fleet.manifest import cache_key, result_payload
from repro.health import (FaultConfig, HealthConfig, PreemptionRequested,
                          RetryConfig, load_checkpoint)
from repro.soc.checkpoint import CheckpointError

#: Job-directory file names (the worker/supervisor wire protocol).
RESULT_FILE = "result.json"
CHECKPOINT_FILE = "checkpoint.json"
HEARTBEAT_FILE = "heartbeat.json"
CONTROL_FILE = "control.json"
PREEMPT_FLAG = "PREEMPT"
CLAIM_FILE = "CLAIM"
TRIAGE_DIR = "triage"

DEFAULT_BUDGET_EVENTS = 5_000_000


def _read_control(jobdir: str) -> dict:
    """Test/CI fault-injection controls (absent in production runs).

    ``kill_at_frame`` — SIGKILL ourselves after that frame completes (a
    real, uncatchable worker crash); ``hang_at_frame`` — stop beating and
    sleep (a hung worker for the heartbeat monitor to catch);
    ``hang_after_result`` — publish the result, then stop beating (the
    publish-vs-staleness race: the supervisor must accept the result).
    """
    try:
        with open(os.path.join(jobdir, CONTROL_FILE)) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def _read_claim(jobdir: str) -> Optional[str]:
    """The server's claim token for this attempt, if one was issued.

    The fleet server writes ``CLAIM`` (one line: server incarnation +
    attempt sequence) before spawning the worker; the token is stamped
    into every snapshot as provenance (:class:`GraphicsCheckpoint.claim`).
    A worker run outside the server has no claim and the field stays None.
    """
    try:
        with open(os.path.join(jobdir, CLAIM_FILE)) as handle:
            token = handle.readline().strip()
    except OSError:
        return None
    return token or None


def _load_resume_checkpoint(jobdir: str, expected_job: Optional[str]):
    """(checkpoint, fallback_reason) — corrupt snapshots are quarantined.

    A snapshot owned by a different job (``checkpoint.job`` disagrees
    with ``expected_job``) is set aside as ``.foreign`` and ignored:
    resuming it would silently replay another job's state and publish a
    wrong payload under this job's cache key.
    """
    path = os.path.join(jobdir, CHECKPOINT_FILE)
    if not os.path.exists(path):
        return None, None
    try:
        checkpoint = load_checkpoint(path)
    except (CheckpointError, OSError) as exc:
        # Typed corruption (CRC mismatch, truncation) or unreadable file:
        # keep the evidence, rerun from scratch.
        quarantine = path + ".corrupt"
        try:
            os.replace(path, quarantine)
        except OSError:
            pass
        return None, f"{type(exc).__name__}: {exc}"
    if expected_job is not None and checkpoint.job != expected_job:
        try:
            os.replace(path, path + ".foreign")
        except OSError:
            pass
        return None, (f"checkpoint owner {checkpoint.job!r} does not "
                      f"match this job ({expected_job!r}); "
                      f"rerunning from scratch")
    return checkpoint, None


def _fb_crc(soc) -> int:
    import zlib
    return zlib.crc32(soc.gpu.fb.color.tobytes())


def _sanitize_config(jobdir: str, spec: JobSpec):
    from repro.sanitize.chaos import CHAOS_SANITIZE
    return replace(
        CHAOS_SANITIZE,
        bundle_dir=os.path.join(jobdir, TRIAGE_DIR),
        command=f"python -m repro fleet --jobs - <<'EOF'\n"
                f"[{json.dumps(spec.to_dict())}]\nEOF")


def _run_config(spec: JobSpec, jobdir: str, frame_hook, preempt_check,
                job_key: Optional[str] = None,
                claim: Optional[str] = None):
    from repro.common.config import SoCTopology
    from repro.soc.soc import smoke_run_config, smoke_topology

    faults = None
    if spec.faults:
        faults = FaultConfig(seed=spec.seed, **spec.faults)
    # A declarative spec carries the full system shape; name-string specs
    # put their memory configuration on the smoke SoC.
    topology = (SoCTopology.from_dict(spec.topology)
                if spec.topology is not None
                else smoke_topology(spec.memory_config))
    return smoke_run_config(
        width=spec.width, height=spec.height, num_frames=spec.frames,
        topology=topology,
        seed=spec.seed,
        health=HealthConfig(
            watchdog=True,
            faults=faults,
            retry=RetryConfig() if spec.retries else None,
            checkpoint_every=1,
            checkpoint_path=os.path.join(jobdir, CHECKPOINT_FILE),
            checkpoint_job=job_key,
            checkpoint_claim=claim,
            preempt_check=preempt_check,
            error_policy="wrap"),
        sanitize=_sanitize_config(jobdir, spec),
        frame_hook=frame_hook,
    )


def _metrics(soc, results) -> dict:
    """DSE metrics from a finished run (``spec.collect_metrics``).

    Deterministic for the fault-free, uninterrupted runs the DSE driver
    dispatches; runs with kill/preempt controls should not request
    metrics (the frame-time means cover resumed frames only).
    """
    from repro.gpu.energy import soc_energy
    from repro.memory.request import SourceType

    end_tick = max(1, results.end_tick)
    mean_total = results.mean_total_time
    total_bytes = soc.memory.total_bytes()
    return {
        "end_tick": results.end_tick,
        "mean_gpu_time": results.mean_gpu_time,
        "mean_total_time": mean_total,
        "fps_fraction": results.fps_fraction,
        "fps": (1e6 / mean_total) if mean_total else 0.0,
        "dram_bytes": {src.value: soc.memory.total_bytes(src)
                       for src in SourceType},
        "dram_bandwidth": total_bytes / end_tick,
        "energy_uj": soc_energy(soc).total_uj,
        "topology_hash": soc.topology.topology_hash(),
    }


def _run_sampled_job(spec: JobSpec, jobdir: str, config, factory,
                     base: dict, job_key: str) -> dict:
    """The sampled-job attempt: alternate windows, extrapolate, publish.

    Sampled runs own their window checkpointing in memory (no
    ``checkpoint.json``, no crash-resume — a retried attempt restarts
    from scratch; the run is a fraction of a full-detail one, so the
    resume machinery would cost more than it saves).  Heartbeats and the
    kill/hang controls still ride the frame hook inside detailed
    windows.  The cached payload carries only deterministic facts — the
    estimates, the schedule, the last detailed framebuffer CRC — never
    wall-clock times (those go in the result doc outside the payload).
    """
    from repro.common.events import SimulationError
    from repro.sampling.sampler import run_sampled
    from repro.sampling.stats import ExtrapolationError
    from repro.sampling.windows import parse_sample_spec
    from repro.sanitize.violations import SanitizerViolation

    schedule = parse_sample_spec(spec.sample, spec.frames)
    try:
        sampled = run_sampled(config, factory, schedule, job=job_key)
    except SanitizerViolation as violation:
        return _write_result(jobdir, {
            **base, "outcome": "violation", "detail": str(violation),
            "bundle": violation.bundle_path})
    except (SimulationError, ExtrapolationError) as error:
        return _write_result(jobdir, {
            **base, "outcome": "detected",
            "detail": f"{type(error).__name__}: {error}"})
    except Exception as exc:                    # loud-death contract
        return _write_result(jobdir, {
            **base, "outcome": "error",
            "detail": f"{type(exc).__name__}: {exc}"})
    doc = sampled.as_dict()
    for volatile in ("wall_functional", "wall_detailed", "wall_total"):
        doc.pop(volatile, None)
    payload = result_payload(spec, sampled.final_detailed_fb_crc,
                             metrics={"sampled": doc})
    return _write_result(jobdir, {
        **base, "outcome": "ok", "detail": "",
        "payload": payload,
        "wall_functional": sampled.wall_functional,
        "wall_detailed": sampled.wall_detailed,
        "frames_functional": sampled.frames_functional,
        "frames_detailed": sampled.frames_detailed})


def _write_result(jobdir: str, doc: dict) -> dict:
    """Publish the attempt's verdict atomically."""
    path = os.path.join(jobdir, RESULT_FILE)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return doc


def run_job(spec: JobSpec, jobdir: str,
            budget_events: int = DEFAULT_BUDGET_EVENTS) -> dict:
    """Run one attempt; always returns (and persists) a typed outcome."""
    from repro.harness.scenes import SceneSession
    from repro.health.recovery import resume_run
    from repro.sampling.ffwd import fast_forward
    from repro.sanitize.violations import SanitizerViolation
    from repro.common.events import SimulationError

    os.makedirs(jobdir, exist_ok=True)
    control = _read_control(jobdir)
    heartbeat_path = os.path.join(jobdir, HEARTBEAT_FILE)
    preempt_flag = os.path.join(jobdir, PREEMPT_FLAG)
    beats = 0

    def frame_hook(frame_index: int, tick: int) -> None:
        nonlocal beats
        beats += 1
        from repro.fleet.heartbeat import write_heartbeat
        write_heartbeat(heartbeat_path, frame=frame_index, tick=tick,
                        beats=beats)
        if control.get("kill_at_frame") == frame_index:
            os.kill(os.getpid(), signal.SIGKILL)
        if control.get("hang_at_frame") == frame_index:
            time.sleep(3600)                    # a hang, for the monitor

    def preempt_check(frames_done: int) -> bool:
        # Never "preempt" a run whose final frame just finished — the
        # loop is about to end normally and the result is in hand.
        return (frames_done < spec.frames
                and os.path.exists(preempt_flag))

    job_key = cache_key(spec)
    checkpoint, fallback = _load_resume_checkpoint(jobdir, job_key)
    if checkpoint is not None and checkpoint.frame_index >= spec.frames:
        # The previous attempt snapshotted *after* its final frame and
        # died before its result was consumed (e.g. a worker orphaned by
        # a server SIGKILL).  Nothing is left to simulate, but the final
        # framebuffer lived only in the dead process — rewind so the
        # resume re-renders the last frame and republishes the identical
        # payload instead of hashing a never-drawn framebuffer.
        try:
            checkpoint = checkpoint.rewind(
                checkpoint.frame_index - spec.frames + 1)
        except ValueError as exc:
            checkpoint, fallback = None, f"unrewindable snapshot: {exc}"
    resumed_from = checkpoint.frame_index if checkpoint is not None else 0
    base = {"name": spec.name, "resumed_from": resumed_from,
            "fallback": fallback}

    from repro.fleet.heartbeat import write_heartbeat
    write_heartbeat(heartbeat_path, frame=-1, tick=0, beats=0)

    def factory():
        return SceneSession(spec.model, spec.width, spec.height)

    config = _run_config(spec, jobdir, frame_hook, preempt_check,
                         job_key=job_key, claim=_read_claim(jobdir))
    if spec.sample is not None:
        return _run_sampled_job(spec, jobdir, config, factory, base,
                                job_key)
    try:
        if spec.ffwd and resumed_from < spec.ffwd:
            # Fast-forward jobs skip the warm-up frames functionally
            # (zero timing events) and enter detailed timing from the
            # snapshot — unless an on-disk checkpoint already sits past
            # the switch point, in which case the normal resume wins.
            ffwd = fast_forward(config, factory, spec.ffwd, job=job_key,
                                render="none", max_events=budget_events)
            soc, results = ffwd.soc, ffwd.results
        else:
            session = factory()
            soc, results = resume_run(checkpoint, config, session.frame,
                                      session.framebuffer_address,
                                      max_events=budget_events)
    except PreemptionRequested as preempted:
        return _write_result(jobdir, {
            **base, "outcome": "preempted",
            "detail": str(preempted),
            "checkpoint_frame": preempted.frame_index})
    except SanitizerViolation as violation:
        return _write_result(jobdir, {
            **base, "outcome": "violation", "detail": str(violation),
            "bundle": violation.bundle_path})
    except SimulationError as error:
        return _write_result(jobdir, {
            **base, "outcome": "detected",
            "detail": f"{type(error).__name__}: {error}"})
    except Exception as exc:                    # loud-death contract:
        return _write_result(jobdir, {          # typed, never a traceback
            **base, "outcome": "error",
            "detail": f"{type(exc).__name__}: {exc}"})

    metrics = _metrics(soc, results) if spec.collect_metrics else None
    payload = result_payload(spec, _fb_crc(soc), metrics=metrics)
    if spec.collect_metrics:
        # A full stats dump (with the topology block) rides along for
        # DSE post-mortems; not part of the cached payload.
        from repro.harness.report import write_stats_json
        write_stats_json(soc.stat_groups(),
                         os.path.join(jobdir, "stats.json"),
                         topology=soc.topology)
    doc = _write_result(jobdir, {
        **base, "outcome": "ok", "detail": "",
        "payload": payload,
        "end_tick": results.end_tick,
        "checkpoints": results.checkpoints_taken,
        "noc_retries": results.noc_retries})
    if control.get("hang_after_result"):
        time.sleep(3600)                        # result published, then hang
    return doc


def worker_entry(spec_dict: dict, jobdir: str,
                 budget_events: int = DEFAULT_BUDGET_EVENTS) -> None:
    """Process target: nothing escapes — a result file or death only."""
    try:
        spec = JobSpec.from_dict(spec_dict)
        run_job(spec, jobdir, budget_events=budget_events)
    except BaseException as exc:    # pragma: no cover - last-ditch guard
        try:
            _write_result(jobdir, {
                "name": spec_dict.get("name", "?"),
                "outcome": "error",
                "detail": f"{type(exc).__name__}: {exc}",
                "resumed_from": 0, "fallback": None})
        except BaseException:
            pass
