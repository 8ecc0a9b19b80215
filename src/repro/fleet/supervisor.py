"""Fleet policy and the supervisor side of the worker protocol.

The one job lifecycle lives in :class:`~repro.fleet.server.FleetServer`;
a one-shot sweep (:func:`~repro.fleet.server.run_sweep`) is a server run
with a fresh journal.  This module holds what that lifecycle is
configured and reported with, and the file helpers it supervises worker
processes through:

* :class:`FleetConfig` / :class:`BackoffPolicy` — pool size, bounded
  queue, crash/hang retry budget with capped exponential backoff,
  heartbeat deadline, preemption deadline, fault injection;
* :class:`FleetSaturated` — the typed load-shedding rejection;
* :class:`FleetWorkerFailure` — what the supervisor observed of a worker
  that died (or hung) without publishing a result, written into the
  attempt's triage bundle;
* :class:`FleetReport` — one sweep's records in submission order;
* the job-directory helpers: injected-fault controls, the resume
  checkpoint's frame, the published ``result.json``, crash bundles.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.job import JobRecord
from repro.fleet.worker import (CHECKPOINT_FILE, CONTROL_FILE,
                                DEFAULT_BUDGET_EVENTS, RESULT_FILE,
                                TRIAGE_DIR)

#: Hard ceiling on cooperative preemptions per job.  Every preemption
#: advances the checkpoint by at least one frame, so this is unreachable
#: for sane frame counts — it exists so a supervisor bug can never turn
#: into an infinite preempt/resume loop.
MAX_PREEMPTIONS = 1000


class FleetSaturated(RuntimeError):
    """The bounded submission queue is full; the job was shed, not queued.

    A typed outcome, per the loud-death contract: callers see exactly why
    the fleet refused work (current depth, limit) instead of blocking
    forever or growing the queue without bound.
    """

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"fleet saturated: {pending} jobs pending (limit {limit})")
        self.pending = pending
        self.limit = limit


class FleetWorkerFailure(RuntimeError):
    """Supervisor-side record of a crashed or hung worker attempt.

    Written into the attempt's triage bundle (the worker itself died
    without the chance to report), carrying what the supervisor observed:
    the exit signal / staleness, the last heartbeat, the resume point.
    """

    def __init__(self, kind: str, message: str, *,
                 last_heartbeat: Optional[dict] = None) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.last_heartbeat = last_heartbeat
        self.details = {"kind": kind, "last_heartbeat": last_heartbeat}


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential delay before retrying a crashed/hung attempt.

    Retry ``i`` (0-based) waits ``min(cap, base * factor**i)`` seconds —
    the same ladder shape as the NoC's :class:`RetryConfig`, in wall
    time.  Deterministic by construction (no jitter): tests can assert
    the exact delay sequence.
    """

    base: float = 0.25
    factor: float = 2.0
    cap: float = 4.0

    def delay_for(self, retry_index: int) -> float:
        return min(self.cap, self.base * (self.factor ** retry_index))

    def ladder(self, retries: int) -> list[float]:
        return [self.delay_for(i) for i in range(retries)]


@dataclass
class FleetConfig:
    """Worker-pool knobs shared by sweeps and the server."""

    workers: int = 2
    queue_limit: int = 1024          # bounded submissions (load shedding)
    max_attempts: int = 3            # crash/hang retries per job
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    heartbeat_timeout: float = 60.0  # wall seconds without a beat = hung
    poll_interval: float = 0.05      # monitor / idle-wait cadence (seconds)
    preempt_after: Optional[float] = None   # wall deadline per attempt
    budget_events: int = DEFAULT_BUDGET_EVENTS
    cache_dir: Optional[str] = None
    # Test/CI fault injection: job name -> per-attempt control docs, e.g.
    # {"cube-s1": [{"kill_at_frame": 0}]} SIGKILLs attempt 1 after frame
    # 0 and lets attempt 2 (which consumes no control) run clean.
    inject: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.queue_limit <= 0:
            raise ValueError(
                f"queue_limit must be positive, got {self.queue_limit}")
        if self.max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}")


@dataclass
class FleetReport:
    """Everything one sweep produced, in submission order."""

    records: list[JobRecord] = field(default_factory=list)
    executed: int = 0                # worker processes spawned
    cache_stats: dict = field(default_factory=dict)
    exit_code: int = 0               # the server's 0 / 4 / 5 drain ladder

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def cached(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    def counts(self) -> dict:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "schema": "repro-fleet-report/1",
            "ok": self.ok,
            "counts": self.counts(),
            "executed": self.executed,
            "cached": self.cached,
            "cache_stats": self.cache_stats,
            "jobs": [record.to_dict() for record in self.records],
        }


def job_dirname(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def spawn_context():
    """Prefer fork (fast, Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def arm_controls(inject: dict, record: JobRecord, jobdir: str) -> None:
    """Install (or retire) this attempt's injected-fault control."""
    controls = inject.get(record.spec.name, [])
    index = len(record.attempts) + record.preemptions
    path = os.path.join(jobdir, CONTROL_FILE)
    if index < len(controls) and controls[index]:
        with open(path, "w") as handle:
            json.dump(controls[index], handle)
    else:
        clear_file(path)


def clear_file(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def checkpoint_frame(jobdir: str) -> int:
    """The frame a resumed attempt starts from (0 = scratch)."""
    from repro.health import load_checkpoint
    from repro.soc.checkpoint import CheckpointError
    try:
        return load_checkpoint(
            os.path.join(jobdir, CHECKPOINT_FILE)).frame_index
    except (CheckpointError, OSError):
        return 0


def write_attempt_bundle(record: JobRecord, jobdir: str,
                         failure: FleetWorkerFailure) -> Optional[str]:
    """Triage bundle for an attempt that died without reporting."""
    from repro.health import load_checkpoint
    from repro.sanitize.triage import write_bundle
    from repro.soc.checkpoint import CheckpointError
    checkpoint = None
    try:
        checkpoint = load_checkpoint(
            os.path.join(jobdir, CHECKPOINT_FILE))
    except (CheckpointError, OSError):
        pass
    try:
        return write_bundle(
            os.path.join(jobdir, TRIAGE_DIR),
            seed=record.spec.seed, error=failure,
            command=f"python -m repro fleet --seeds {record.spec.seed} "
                    f"--models {record.spec.model} "
                    f"--frames {record.spec.frames}",
            config={"job": record.spec.to_dict(),
                    "attempt": len(record.attempts) + 1,
                    "supervisor": failure.details},
            checkpoint=checkpoint)
    except OSError:
        return None


def read_result(jobdir: str) -> Optional[dict]:
    """The worker's published verdict, or None if it never published."""
    try:
        with open(os.path.join(jobdir, RESULT_FILE)) as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def process_exitcode_desc(code) -> str:
    if code is None:
        return "with unknown status"
    if code < 0:
        import signal as _signal
        try:
            return f"on signal {_signal.Signals(-code).name}"
        except ValueError:
            return f"on signal {-code}"
    return f"with code {code}"
