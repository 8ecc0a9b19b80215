"""The fleet server: the one job lifecycle, durable across ``kill -9``.

:class:`FleetServer` shards jobs across a multiprocess worker pool and
drives each to exactly one typed terminal outcome.  It is the only job
lifecycle in :mod:`repro.fleet`: ``fleet serve`` runs it as a long-lived
service, and a one-shot sweep (:func:`run_sweep`, ``fleet sweep``) runs
it in process with a fresh journal, no intake, and ``expect`` set to the
sweep's size.  Either way:

* every scheduling transition — submit, claim, attempt end, terminal
  outcome, cancel — is appended to the write-ahead
  :mod:`~repro.fleet.journal` *before* the server acts on it;
* a restarted server replays the journal, reconciles against the result
  cache and any ``result.json`` a worker published before the crash, and
  resumes the pending jobs from their on-disk checkpoints — completed
  work is never executed twice (the journal's replay validator raises a
  :class:`~repro.sanitize.violations.JournalConsistencyViolation` on a
  ``claim`` after ``done``, so the no-rework guarantee is checkable from
  the journal alone);
* worker attempts are supervised by heartbeat deadline; crashed and hung
  attempts retry with capped exponential backoff from their last
  checkpoint, deterministic failures are terminal on the first attempt,
  and the cache is consulted on every claim;
* intake is a **file-drop spool** (drop a JSON spec into
  ``<workdir>/spool/``) and a **Unix socket** (line-delimited JSON ops:
  submit / status / drain / cancel / ping).  Submission is idempotent —
  jobs deduplicate on their content-addressed cache key — and rejection
  is typed: a saturated queue sheds with
  :class:`~repro.fleet.supervisor.FleetSaturated`, a malformed spec is
  quarantined to ``spool/quarantine/`` with a reason file, never a
  server crash;
* scheduling honors per-job **priority**, **fair share** across sweep
  owners (the owner with the fewest claims goes first within a priority
  band), and per-job **deadlines** that cancel overdue jobs through the
  cooperative-preemption path, leaving a triage bundle explaining the
  cancellation;
* degradation is graceful: SIGTERM drains (in-flight attempts stop at a
  checkpoint boundary, the journal gets a ``clean-shutdown`` record),
  a second signal aborts, and a pool that keeps crashing flips the
  server to **cache-only serving** (degraded mode) instead of burning
  retries.

Exit codes (pinned; the drill, ``fleet sweep`` and CI assert them):

====  ====================================================================
 0    drained cleanly, no pending jobs left
 4    drained cleanly, pending jobs remain (the journal resumes them; a
      sweep reports them ``cancelled``)
 5    aborted (second signal); no clean-shutdown record, next start
      crash-recovers (a sweep reports unfinished jobs ``cancelled``)
====  ====================================================================
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.cache import ResultCache
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.job import (RETRYABLE, JobAttempt, JobRecord, JobSpec,
                             JobSpecError)
from repro.fleet.journal import (JobJournal, JournalReplay, ReplayedJob,
                                 replay_journal)
from repro.fleet.manifest import (build_manifest, cache_key, payload_bytes)
from repro.fleet.supervisor import (MAX_PREEMPTIONS, FleetConfig,
                                    FleetReport, FleetSaturated,
                                    FleetWorkerFailure, arm_controls,
                                    checkpoint_frame, clear_file,
                                    job_dirname, process_exitcode_desc,
                                    read_result, spawn_context,
                                    write_attempt_bundle)
from repro.fleet.worker import (CHECKPOINT_FILE, CLAIM_FILE, HEARTBEAT_FILE,
                                PREEMPT_FLAG, RESULT_FILE, worker_entry)
from repro.sanitize.violations import JournalConsistencyViolation

SERVER_STATUS_SCHEMA = "repro-fleet-server-status/1"

SOCKET_NAME = "server.sock"
SPOOL_DIR = "spool"
QUARANTINE_DIR = "quarantine"
ACK_DIR = "ack"
JOURNAL_DIR = "journal"

EXIT_DRAINED = 0
EXIT_DRAINED_PENDING = 4
EXIT_ABORTED = 5


class SubmissionError(ValueError):
    """A submission document failed validation (quarantined, not run)."""


class SweepWorkdirError(RuntimeError):
    """A sweep refused a workdir whose journal it did not write.

    A sweep starts from an empty journal, so it discards the journal a
    previous sweep left in a reused workdir — but a journal that a
    ``fleet serve`` incarnation wrote (or one too damaged to tell) is a
    service's durable state and is never truncated.
    """


@dataclass(frozen=True)
class JobSubmission:
    """One intake request: a spec plus scheduling policy.

    Policy fields are deliberately *not* part of the job's identity —
    the same simulation submitted at a different priority must still hit
    the same cache entry.
    """

    spec: JobSpec
    priority: int = 0                    # higher runs first
    owner: str = "anonymous"             # fair-share bucket
    deadline: Optional[float] = None     # wall seconds from admission

    @classmethod
    def from_dict(cls, doc) -> "JobSubmission":
        """Parse either a bare spec or a ``{"spec": ..., ...}`` envelope."""
        if not isinstance(doc, dict):
            raise SubmissionError(
                f"submission must be an object, got {type(doc).__name__}")
        if "spec" not in doc:
            return cls(spec=_spec_of(doc))
        known = {"spec", "priority", "owner", "deadline"}
        unknown = set(doc) - known
        if unknown:
            raise SubmissionError(
                f"unknown submission fields: {', '.join(sorted(unknown))}")
        priority = doc.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SubmissionError(
                f"priority must be an integer, got {priority!r}")
        owner = doc.get("owner", "anonymous")
        if not isinstance(owner, str) or not owner:
            raise SubmissionError(
                f"owner must be a non-empty string, got {owner!r}")
        deadline = doc.get("deadline")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) \
                    or isinstance(deadline, bool) or deadline <= 0:
                raise SubmissionError(
                    f"deadline must be a positive number of seconds, "
                    f"got {deadline!r}")
            deadline = float(deadline)
        return cls(spec=_spec_of(doc["spec"]), priority=priority,
                   owner=owner, deadline=deadline)


def _spec_of(doc) -> JobSpec:
    try:
        return JobSpec.from_dict(doc)
    except JobSpecError as exc:
        raise SubmissionError(str(exc)) from exc


@dataclass
class ServerConfig:
    """Server knobs on top of the pool's :class:`FleetConfig`."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    spool_poll: float = 0.1          # seconds between spool scans
    segment_records: int = 256       # journal rotation threshold
    unhealthy_after: int = 5         # consecutive infra failures -> degraded
    expect: Optional[int] = None     # drain once N jobs are terminal
    enable_socket: bool = True

    def __post_init__(self) -> None:
        if self.unhealthy_after <= 0:
            raise ValueError(
                f"unhealthy_after must be positive, "
                f"got {self.unhealthy_after}")
        if self.expect is not None and self.expect <= 0:
            raise ValueError(
                f"expect must be positive, got {self.expect}")


@dataclass
class _ServerJob:
    """Server-side job state wrapping the pool's :class:`JobRecord`."""

    record: JobRecord
    seq: int                             # admission order (tie-break)
    priority: int = 0
    owner: str = "anonymous"
    deadline: Optional[float] = None     # seconds from admission
    deadline_at: Optional[float] = None  # loop.time() cutoff
    recovered: bool = False
    prior_claims: int = 0                # claims journaled pre-crash
    failures: int = 0                    # retryable failures, all time
    running: bool = False
    cancel_requested: bool = False
    source: str = "api"

    @property
    def name(self) -> str:
        return self.record.spec.name

    @property
    def terminal(self) -> bool:
        return self.record.outcome != "pending"


def _payload_sha(payload: Optional[dict]) -> Optional[str]:
    if payload is None:
        return None
    return hashlib.sha256(payload_bytes(payload)).hexdigest()[:16]


def _reset_sweep_journal(root: str) -> None:
    """Give a sweep an empty journal; refuse any journal not a sweep's."""
    if not os.path.isdir(root):
        return
    try:
        replay = replay_journal(root)
    except JournalConsistencyViolation as exc:
        raise SweepWorkdirError(
            f"{root} holds a damaged journal ({exc}); refusing to "
            f"discard it") from exc
    # A sweep's journal is one incarnation whose first record (its
    # server-start) is marked ``mode: sweep``.
    first = replay.records[0]["data"] if replay.records else {}
    if replay.records and (replay.incarnations != 1
                           or first.get("mode") != "sweep"):
        raise SweepWorkdirError(
            f"{root} holds a `fleet serve` journal; a sweep never "
            f"truncates a server's state (use another --workdir)")
    shutil.rmtree(root)


class FleetServer:
    """The fleet's job lifecycle; all state lives in the journal.

    ``sweep=True`` makes it a one-shot run: the journal starts empty
    (see :func:`_reset_sweep_journal`), there is no spool or socket
    intake, and jobs still pending when the run stops are journaled as
    ``cancelled`` so the journal folds to the sweep's report.
    """

    def __init__(self, config: ServerConfig, workdir: str, *,
                 sweep: bool = False) -> None:
        self.config = config
        self.workdir = workdir
        self.sweep = sweep
        os.makedirs(workdir, exist_ok=True)
        if not sweep:
            for sub in (SPOOL_DIR,
                        os.path.join(SPOOL_DIR, QUARANTINE_DIR),
                        os.path.join(SPOOL_DIR, ACK_DIR)):
                os.makedirs(os.path.join(workdir, sub), exist_ok=True)
        self.cache = (ResultCache(config.fleet.cache_dir)
                      if config.fleet.cache_dir else None)
        self.executed = 0                # worker processes spawned
        self._ctx = spawn_context()
        self._draining = False           # first signal: drain
        self._aborting = False           # second signal: abort
        journal_root = os.path.join(workdir, JOURNAL_DIR)
        if sweep:
            _reset_sweep_journal(journal_root)
        self.journal, self.replay = JobJournal.open(
            journal_root, segment_records=config.segment_records)
        self.server_id = (f"srv-{os.getpid():x}"
                         f"-i{self.replay.incarnations + 1}")
        self._jobs: dict = {}            # name -> _ServerJob
        self._by_key: dict = {}          # cache key -> _ServerJob
        self._ready: list = []
        self._seq = 0
        self._claim_seq = 0
        self._owner_share: dict = {}     # owner -> claims consumed
        self._running = 0
        self._terminal = 0
        self._infra_failures = 0         # consecutive, across the pool
        self.degraded = False
        self._wake = asyncio.Event()     # work became ready
        self._changed = asyncio.Event()  # a job or the drain state moved
        self._timers: set = set()        # backoff / deadline tasks
        self._signals = 0
        self._started = time.monotonic()
        self.journal.append(
            "server-start", server=self.server_id, pid=os.getpid(),
            workdir=os.path.abspath(workdir),
            mode="sweep" if sweep else "serve")
        self._recover(self.replay)

    # -- recovery -----------------------------------------------------------

    def _recover(self, replay: JournalReplay) -> None:
        """Rebuild the job table a killed incarnation left behind."""
        for replayed in replay.jobs.values():
            if replayed.terminal:
                # Register terminal jobs so idempotent resubmission of
                # an already-finished spec dedups instead of re-running.
                job = self._register(replayed, outcome=replayed.outcome)
                self._terminal += 1
                continue
            job = self._register(replayed, outcome=None)
            if self._reconcile(job):
                continue
            self._ready.append(job)

    def _register(self, replayed: ReplayedJob,
                  outcome: Optional[str]) -> _ServerJob:
        spec = JobSpec.from_dict(replayed.spec)
        record = JobRecord(spec=spec, key=replayed.key or cache_key(spec))
        if outcome is not None:
            record.outcome = outcome
            record.cache_hit = replayed.cache_hit
        self._seq += 1
        job = _ServerJob(
            record=record, seq=self._seq, priority=replayed.priority,
            owner=replayed.owner, deadline=replayed.deadline,
            recovered=True, prior_claims=replayed.claims,
            failures=replayed.failures, source="recovery")
        self._jobs[job.name] = job
        if record.outcome != "shed":
            # Shed is a load verdict, not a result: the same spec may be
            # resubmitted once the queue has room, so it must not dedup.
            self._by_key[record.key] = job
        return job

    def _reconcile(self, job: _ServerJob) -> bool:
        """Salvage work finished before the crash; True if now terminal.

        Two sources of truth beyond the journal: the result cache (the
        job — or an identical sibling — already published), and the job
        directory's ``result.json`` (the worker finished but the old
        server died before publishing).  Either way the job completes
        here without a worker process, and the journal records how.
        """
        record = job.record
        if self.cache is not None:
            cached = self.cache.lookup(record.key)
            if cached is not None:
                self._finish(job, "ok", cache_hit=True,
                             payload=cached.payload,
                             detail="recovered from result cache")
                return True
        if job.prior_claims > 0:
            jobdir = self._jobdir(job)
            result = read_result(jobdir)
            if result and result.get("outcome") == "ok":
                payload = result.get("payload")
                identity = record.spec.identity()
                if isinstance(payload, dict) and all(
                        payload.get(field) == value
                        for field, value in identity.items()):
                    self._publish(job, payload)
                    self._finish(job, "ok", payload=payload,
                                 detail="recovered from worker result")
                    return True
        return False

    # -- submission ---------------------------------------------------------

    def submit(self, submission: JobSubmission,
               source: str = "api") -> dict:
        """Admit a job (idempotently) or raise a typed rejection.

        Raises :class:`SubmissionError` for a name colliding with a
        different spec, :class:`FleetSaturated` when the pending table
        is full.  Returns an ack document either way work was accepted.
        """
        spec = submission.spec
        key = cache_key(spec)
        existing = self._by_key.get(key)
        if existing is not None:
            return {"ok": True, "name": existing.name, "key": key,
                    "dedup": True, "outcome": existing.record.outcome}
        named = self._jobs.get(spec.name)
        if named is not None and named.record.outcome != "shed":
            raise SubmissionError(
                f"job name {spec.name!r} already taken by a different "
                f"spec (key {named.record.key})")
        if named is not None:
            self._terminal -= 1          # replacing a shed placeholder
        pending = sum(1 for job in self._jobs.values() if not job.terminal)
        if pending >= self.config.fleet.queue_limit:
            self.journal.append(
                "shed", name=spec.name, key=key, spec=spec.to_dict(),
                detail=f"{pending} pending (limit "
                       f"{self.config.fleet.queue_limit})")
            shed = _ServerJob(record=JobRecord(spec=spec, key=key),
                              seq=self._next_seq(), source=source)
            shed.record.outcome = "shed"
            self._jobs[spec.name] = shed
            self._terminal += 1
            raise FleetSaturated(pending, self.config.fleet.queue_limit)
        self.journal.append(
            "submit", name=spec.name, key=key, spec=spec.to_dict(),
            priority=submission.priority, owner=submission.owner,
            deadline=submission.deadline, source=source)
        record = JobRecord(spec=spec, key=key)
        job = _ServerJob(record=record, seq=self._next_seq(),
                         priority=submission.priority,
                         owner=submission.owner,
                         deadline=submission.deadline, source=source)
        if submission.deadline is not None and self._loop_running():
            job.deadline_at = (asyncio.get_running_loop().time()
                               + submission.deadline)
        self._jobs[spec.name] = job
        self._by_key[key] = job
        self._ready.append(job)
        self._wake.set()
        return {"ok": True, "name": spec.name, "key": key,
                "dedup": False, "outcome": "pending"}

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @staticmethod
    def _loop_running() -> bool:
        try:
            asyncio.get_running_loop()
            return True
        except RuntimeError:
            return False

    # -- scheduling ---------------------------------------------------------

    def _pick(self) -> Optional[_ServerJob]:
        """Highest priority first; fair share by owner; FIFO tie-break."""
        if not self._ready:
            return None
        job = min(self._ready, key=lambda j: (
            -j.priority, self._owner_share.get(j.owner, 0), j.seq))
        self._ready.remove(job)
        return job

    def _jobdir(self, job: _ServerJob) -> str:
        return os.path.join(self.workdir, "jobs", job_dirname(job.name))

    async def _slot(self) -> None:
        while not self._draining:
            job = self._pick()
            if job is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(
                        self._wake.wait(),
                        timeout=self.config.fleet.poll_interval)
                except asyncio.TimeoutError:
                    pass
                continue
            await self._drive(job)

    async def _drive(self, job: _ServerJob) -> None:
        record = job.record
        loop = asyncio.get_running_loop()
        if job.deadline is not None and job.deadline_at is None:
            # Deadline admitted before the loop started (recovery, or a
            # pre-serve submit): the clock starts now.
            job.deadline_at = loop.time() + job.deadline
        if job.cancel_requested:
            self._cancel(job, "cancelled by operator request")
            return
        if job.deadline_at is not None and loop.time() >= job.deadline_at:
            self._cancel(
                job, f"deadline ({job.deadline:.1f}s) passed while queued",
                bundle=True)
            return
        if self.cache is not None:
            # The cache is consulted on *every* claim, not just the
            # first: a restarted incarnation serves work completed before
            # the kill, and a retry whose identical sibling finished in
            # the meantime is not re-run.
            cached = self.cache.lookup(record.key)
            if cached is not None:
                self._finish(job, "ok", cache_hit=True,
                             payload=cached.payload)
                return
        if self.degraded:
            self._finish(
                job, "shed",
                detail=f"pool unhealthy ({self._infra_failures} "
                       f"consecutive worker failures): cache-only serving")
            return

        self._claim_seq += 1
        claim = f"{self.server_id}#{self._claim_seq}"
        self.journal.append("claim", name=job.name, key=record.key,
                            claim=claim,
                            attempt=job.prior_claims
                            + len(record.attempts) + record.preemptions + 1)
        jobdir = self._jobdir(job)
        os.makedirs(jobdir, exist_ok=True)
        tmp = os.path.join(jobdir, CLAIM_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(claim + "\n")
        os.replace(tmp, os.path.join(jobdir, CLAIM_FILE))
        self._owner_share[job.owner] = \
            self._owner_share.get(job.owner, 0) + 1
        watchdog = None
        if job.deadline_at is not None:
            watchdog = loop.create_task(
                self._deadline_watchdog(job, jobdir))
            self._timers.add(watchdog)
            watchdog.add_done_callback(self._timers.discard)

        job.running = True
        self._running += 1
        try:
            # A job's first attempt starts from scratch — unless a previous
            # incarnation claimed it, whose checkpoint is exactly what a
            # restart must resume from.
            fresh = (job.prior_claims == 0 and not record.attempts
                     and record.preemptions == 0)
            attempt = await self._run_attempt(record, jobdir, fresh)
        finally:
            job.running = False
            self._running -= 1
            self._changed.set()
            if watchdog is not None:
                watchdog.cancel()
            try:
                os.remove(os.path.join(jobdir, CLAIM_FILE))
            except OSError:
                pass
        record.attempts.append(attempt)
        self.journal.append("attempt-end", name=job.name,
                            outcome=attempt.outcome, detail=attempt.detail,
                            claim=claim)

        if attempt.outcome == "ok":
            self._infra_failures = 0
            self._publish(job, attempt.payload_doc)
            self._finish(job, "ok", payload=attempt.payload_doc)
            return
        if attempt.outcome == "preempted":
            record.attempts.pop()        # cooperative, not a failure
            record.preemptions += 1
            deadline_hit = (job.deadline_at is not None
                            and loop.time() >= job.deadline_at)
            if job.cancel_requested:
                self._cancel(job, "cancelled by operator request "
                                  f"({attempt.detail})")
                return
            if deadline_hit:
                self._cancel(
                    job,
                    f"deadline ({job.deadline:.1f}s) exceeded; stopped "
                    f"at a checkpoint boundary ({attempt.detail})",
                    bundle=True)
                return
            if self._draining:
                return                   # stays pending; journal resumes it
            if record.preemptions >= MAX_PREEMPTIONS:
                self._finish(job, "failed",
                             detail=f"preempted {record.preemptions} times "
                                    f"without finishing")
                return
            self._ready.append(job)
            self._wake.set()
            return
        if attempt.outcome in RETRYABLE:
            if self._draining:
                return                   # stays pending for the restart
            job.failures += 1
            self._infra_failures += 1
            if self._infra_failures >= self.config.unhealthy_after:
                self.degraded = True
            if job.failures < self.config.fleet.max_attempts:
                delay = self.config.fleet.backoff.delay_for(
                    job.failures - 1)
                record.next_backoff = delay
                timer = loop.create_task(self._requeue_later(job, delay))
                self._timers.add(timer)
                timer.add_done_callback(self._timers.discard)
                return
            self._finish(job, "failed", detail=attempt.detail)
            return
        # violation | detected | error: deterministic, terminal.
        self._finish(job, attempt.outcome, detail=attempt.detail)

    async def _requeue_later(self, job: _ServerJob, delay: float) -> None:
        await asyncio.sleep(delay)
        self._ready.append(job)
        self._wake.set()

    async def _deadline_watchdog(self, job: _ServerJob,
                                 jobdir: str) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(max(0.0, job.deadline_at - loop.time()))
        try:
            with open(os.path.join(jobdir, PREEMPT_FLAG), "w") as flag:
                flag.write(f"deadline cancel: {job.deadline:.1f}s "
                           f"budget exhausted\n")
        except OSError:
            pass

    # -- one worker process -------------------------------------------------

    async def _run_attempt(self, record: JobRecord, jobdir: str,
                           fresh: bool) -> JobAttempt:
        """Spawn one worker attempt and supervise it to a verdict."""
        fleet = self.config.fleet
        arm_controls(fleet.inject, record, jobdir)
        if fresh:
            # A checkpoint or heartbeat left behind by a previous run in
            # a reused workdir belongs to a different job — resuming it
            # would publish a wrong payload under this job's cache key.
            clear_file(os.path.join(jobdir, CHECKPOINT_FILE))
            clear_file(os.path.join(jobdir, HEARTBEAT_FILE))
        clear_file(os.path.join(jobdir, RESULT_FILE))
        clear_file(os.path.join(jobdir, PREEMPT_FLAG))

        backoff_delay = record.next_backoff
        record.next_backoff = 0.0
        resumed_from = checkpoint_frame(jobdir)

        process = self._ctx.Process(
            target=worker_entry,
            args=(record.spec.to_dict(), jobdir, fleet.budget_events),
            daemon=True)
        process.start()
        self.executed += 1
        monitor = HeartbeatMonitor(os.path.join(jobdir, HEARTBEAT_FILE),
                                   timeout=fleet.heartbeat_timeout)
        preempt_flagged = False
        hung = False
        stale_age = 0.0
        loop = asyncio.get_running_loop()
        started = loop.time()
        while process.is_alive():
            await asyncio.sleep(fleet.poll_interval)
            monitor.poll()
            if self._aborting:
                process.kill()               # second signal: stop now
                break
            over_deadline = (fleet.preempt_after is not None
                             and loop.time() - started > fleet.preempt_after)
            if (self._draining or over_deadline) and not preempt_flagged:
                with open(os.path.join(jobdir, PREEMPT_FLAG), "w") as flag:
                    flag.write("preempt requested by supervisor\n")
                preempt_flagged = True
            if monitor.stale():
                process.kill()               # SIGKILL; heartbeats ceased
                hung = True
                stale_age = monitor.age()
                break
        process.join()                       # dead or just killed: quick
        exitcode_desc = process_exitcode_desc(process.exitcode)
        process.close()

        # A published result supersedes the staleness verdict: a worker
        # that finished just as the monitor killed it still did the work,
        # and the result file is this attempt's (cleared before spawn).
        result = read_result(jobdir)
        if result is not None:
            return JobAttempt(
                outcome=result.get("outcome", "error"),
                detail=result.get("detail", ""),
                resumed_from=result.get("resumed_from", 0),
                backoff_delay=backoff_delay,
                bundle=result.get("bundle"),
                payload_doc=result.get("payload"))

        # No result: the process died (or we killed it for hanging).
        kind = "hung" if hung else "crashed"
        failure = FleetWorkerFailure(
            kind,
            f"no heartbeat for {stale_age:.1f}s "
            f"(timeout {fleet.heartbeat_timeout}s); killed"
            if hung else
            f"worker exited {exitcode_desc} without a result "
            f"(resume point: frame {resumed_from})",
            last_heartbeat=monitor.last)
        bundle = write_attempt_bundle(record, jobdir, failure)
        return JobAttempt(outcome=kind, detail=str(failure),
                          resumed_from=resumed_from,
                          backoff_delay=backoff_delay, bundle=bundle)

    # -- terminal transitions -----------------------------------------------

    def _publish(self, job: _ServerJob, payload: Optional[dict]) -> None:
        record = job.record
        if self.cache is None or payload is None:
            return
        try:
            manifest = build_manifest(
                record.spec, record.key, outcome="ok",
                provenance={
                    "attempts": len(record.attempts),
                    "preemptions": record.preemptions,
                    "resumed_from": (record.attempts[-1].resumed_from
                                     if record.attempts else 0),
                    "server": self.server_id,
                })
            self.cache.store(record.key, manifest, payload)
        except OSError as exc:
            record.cache_error = f"{type(exc).__name__}: {exc}"

    def _finish(self, job: _ServerJob, outcome: str, *,
                cache_hit: bool = False, payload: Optional[dict] = None,
                detail: str = "") -> None:
        record = job.record
        self.journal.append(
            "done", name=job.name, key=record.key, outcome=outcome,
            cache_hit=cache_hit, payload_sha=_payload_sha(payload),
            detail=detail)
        record.outcome = outcome
        record.cache_hit = cache_hit
        if payload is not None:
            record.payload = payload
        self._terminal += 1
        self._changed.set()

    def _cancel(self, job: _ServerJob, reason: str, *,
                bundle: bool = False) -> None:
        record = job.record
        bundle_path = None
        if bundle:
            failure = FleetWorkerFailure("deadline-cancel", reason)
            bundle_path = write_attempt_bundle(
                record, self._jobdir(job), failure)
        self.journal.append("cancel", name=job.name, reason=reason,
                            bundle=bundle_path)
        record.outcome = "cancelled"
        record.cancel_reason = reason
        self._terminal += 1
        self._changed.set()

    # -- intake: file-drop spool --------------------------------------------

    def _spool_path(self, *parts: str) -> str:
        return os.path.join(self.workdir, SPOOL_DIR, *parts)

    def poll_spool(self) -> int:
        """One spool scan; returns how many drop files were consumed."""
        spool = self._spool_path()
        try:
            names = sorted(os.listdir(spool))
        except OSError:
            return 0
        consumed = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(spool, name)
            if not os.path.isfile(path):
                continue
            self._consume_drop(path, name)
            consumed += 1
        return consumed

    def _consume_drop(self, path: str, name: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            submission = JobSubmission.from_dict(doc)
        except (OSError, ValueError) as exc:
            self._quarantine_drop(path, name, exc)
            return
        try:
            ack = self.submit(submission, source=f"spool:{name}")
        except FleetSaturated as exc:
            ack = {"ok": False, "error": "FleetSaturated",
                   "detail": str(exc), "pending": exc.pending,
                   "limit": exc.limit}
        except SubmissionError as exc:
            self._quarantine_drop(path, name, exc)
            return
        self._ack_drop(name, ack)
        try:
            os.remove(path)
        except OSError:
            pass

    def _quarantine_drop(self, path: str, name: str, exc: Exception) -> None:
        """A malformed drop is set aside with a reason — never a crash."""
        reason = f"{type(exc).__name__}: {exc}"
        self.journal.append("quarantine", source=name, reason=reason)
        quarantined = self._spool_path(QUARANTINE_DIR, name)
        try:
            os.replace(path, quarantined)
        except OSError:
            try:
                os.remove(path)
            except OSError:
                pass
        self._write_json(self._spool_path(QUARANTINE_DIR,
                                          name + ".reason.json"),
                         {"source": name, "reason": reason})
        self._ack_drop(name, {"ok": False, "error": "quarantined",
                              "detail": reason})

    def _ack_drop(self, name: str, ack: dict) -> None:
        self._write_json(self._spool_path(ACK_DIR, name), ack)

    @staticmethod
    def _write_json(path: str, doc: dict) -> None:
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError:
            pass

    async def _spool_loop(self) -> None:
        while not self._draining:
            self.poll_spool()
            await asyncio.sleep(self.config.spool_poll)

    # -- intake: unix socket ------------------------------------------------

    @property
    def socket_path(self) -> str:
        return os.path.join(self.workdir, SOCKET_NAME)

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._dispatch(line)
                writer.write((json.dumps(response, sort_keys=True)
                              + "\n").encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _dispatch(self, raw: bytes) -> dict:
        try:
            request = json.loads(raw)
        except ValueError as exc:
            return {"ok": False, "error": "malformed",
                    "detail": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "malformed",
                    "detail": "request must be a JSON object"}
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "server": self.server_id}
        if op == "status":
            return self.status()
        if op == "drain":
            self.request_drain()
            return {"ok": True, "draining": True}
        if op == "submit":
            try:
                submission = JobSubmission.from_dict(
                    request.get("job", request.get("spec")))
                return self.submit(submission, source="socket")
            except SubmissionError as exc:
                return {"ok": False, "error": "SubmissionError",
                        "detail": str(exc)}
            except FleetSaturated as exc:
                return {"ok": False, "error": "FleetSaturated",
                        "detail": str(exc), "pending": exc.pending,
                        "limit": exc.limit}
        if op == "cancel":
            return self._cancel_request(request.get("name"))
        return {"ok": False, "error": "unknown-op",
                "detail": f"unknown op {op!r}"}

    def _cancel_request(self, name) -> dict:
        job = self._jobs.get(name) if isinstance(name, str) else None
        if job is None:
            return {"ok": False, "error": "unknown-job",
                    "detail": f"no job named {name!r}"}
        if job.terminal:
            return {"ok": False, "error": "already-terminal",
                    "detail": f"job {name!r} is {job.record.outcome}"}
        job.cancel_requested = True
        if job.running:
            # Cooperative: the worker stops at the next checkpoint
            # boundary and the slot finalizes the cancellation.
            try:
                with open(os.path.join(self._jobdir(job), PREEMPT_FLAG),
                          "w") as flag:
                    flag.write("cancel requested by operator\n")
            except OSError:
                pass
            return {"ok": True, "name": name, "state": "preempting"}
        if job in self._ready:
            self._ready.remove(job)
            self._cancel(job, "cancelled by operator request")
            return {"ok": True, "name": name, "state": "cancelled"}
        return {"ok": True, "name": name, "state": "pending-cancel"}

    # -- introspection ------------------------------------------------------

    def status(self) -> dict:
        counts: dict = {}
        for job in self._jobs.values():
            counts[job.record.outcome] = \
                counts.get(job.record.outcome, 0) + 1
        pending = sum(1 for job in self._jobs.values() if not job.terminal)
        return {
            "schema": SERVER_STATUS_SCHEMA,
            "ok": True,
            "server": self.server_id,
            "ready": not self._draining and not self.degraded,
            "draining": self._draining,
            "degraded": self.degraded,
            "uptime": round(time.monotonic() - self._started, 3),
            "jobs": counts,
            "pending": pending,
            "running": self._running,
            "terminal": self._terminal,
            "executed": self.executed,
            "expect": self.config.expect,
            "cache": self.cache.stats() if self.cache else {},
            "journal": {"root": self.journal.root,
                        "incarnation": self.replay.incarnations + 1},
        }

    # -- lifecycle ----------------------------------------------------------

    def request_drain(self) -> None:
        """First signal: stop intake, preempt in-flight, shut down clean.

        Queued jobs stay unclaimed; running attempts get a preempt flag
        so they stop at the next checkpoint boundary (or simply finish).
        Safe to call from a signal handler — it only sets flags and
        events the async loops wait on.
        """
        if not self._draining:
            self.journal.append("drain", server=self.server_id)
        self._draining = True
        self._wake.set()
        self._changed.set()

    def request_abort(self) -> None:
        """Second signal: SIGKILL workers, exit without a clean record."""
        self._draining = True
        self._aborting = True
        self._wake.set()
        self._changed.set()

    def _on_signal(self) -> None:
        self._signals += 1
        if self._signals == 1:
            self.request_drain()
        else:
            self.request_abort()

    async def serve_async(self, *,
                          install_signals: bool = True) -> int:
        """Run until drained (or aborted); returns the exit code."""
        loop = asyncio.get_running_loop()
        # Deadlines admitted before the loop existed start ticking now.
        for job in self._jobs.values():
            if job.deadline is not None and job.deadline_at is None \
                    and not job.terminal:
                job.deadline_at = loop.time() + job.deadline
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._on_signal)
                except (NotImplementedError, RuntimeError):
                    pass
        socket_server = None
        if self.config.enable_socket:
            try:
                os.remove(self.socket_path)
            except OSError:
                pass
            socket_server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path)
        spool_task = (None if self.sweep
                      else loop.create_task(self._spool_loop()))
        slots = [loop.create_task(self._slot())
                 for _ in range(self.config.fleet.workers)]
        try:
            while True:
                if self.config.expect is not None \
                        and self._terminal >= self.config.expect \
                        and not self._draining:
                    self.request_drain()
                if self._draining and self._running == 0:
                    break
                # Terminal transitions, attempt ends and drains set the
                # event; the timeout only bounds how stale a check gets.
                self._changed.clear()
                try:
                    await asyncio.wait_for(
                        self._changed.wait(),
                        timeout=self.config.fleet.poll_interval)
                except asyncio.TimeoutError:
                    pass
        finally:
            if spool_task is not None:
                spool_task.cancel()
            for timer in list(self._timers):
                timer.cancel()
            if socket_server is not None:
                socket_server.close()
                await socket_server.wait_closed()
                try:
                    os.remove(self.socket_path)
                except OSError:
                    pass
            await asyncio.gather(*slots, return_exceptions=True)
        pending = [job for job in self._jobs.values() if not job.terminal]
        code = (EXIT_ABORTED if self._aborting
                else EXIT_DRAINED_PENDING if pending else EXIT_DRAINED)
        if self.sweep:
            # A sweep's journal is never resumed: what it leaves
            # unfinished is cancelled, so the journal folds to its report.
            reason = ("aborted (second signal) before finishing"
                      if self._aborting else "drained before finishing")
            for job in pending:
                self._cancel(job, reason)
            pending = []
        if not self._aborting:
            # An abort writes no clean-shutdown record on purpose: the
            # next incarnation must treat it exactly like a crash.
            self.journal.append("clean-shutdown", server=self.server_id,
                                terminal=self._terminal,
                                pending=len(pending))
        self.journal.close()
        return code

    def serve(self, *, install_signals: bool = True) -> int:
        return asyncio.run(
            self.serve_async(install_signals=install_signals))


def journal_status(workdir: str) -> dict:
    """Offline status from the journal alone (server not running)."""
    replay = replay_journal(os.path.join(workdir, JOURNAL_DIR))
    doc = replay.summary()
    doc["schema"] = SERVER_STATUS_SCHEMA
    doc["ok"] = True
    doc["offline"] = True
    return doc


def run_sweep(specs, config: Optional[FleetConfig] = None,
              workdir: str = "fleet-work", *,
              install_signals: bool = False) -> FleetReport:
    """Drive ``specs`` to terminal outcomes as one in-process server run.

    The run journals to a fresh ``<workdir>/journal`` (refusing, with
    :class:`SweepWorkdirError`, to replace one ``fleet serve`` wrote) and
    drains itself once every job is terminal.  The report holds one
    record per spec, in order: a spec the queue limit refused is
    ``shed``, a spec whose cache key an earlier spec holds shares that
    job's outcome, and jobs a drain or abort stopped are ``cancelled``.
    ``install_signals`` arms the drain (first SIGTERM/SIGINT) and abort
    (second) ladder; the report's ``exit_code`` says which happened.
    """
    specs = list(specs)
    names: set = set()
    for spec in specs:
        if spec.name in names:
            raise ValueError(f"duplicate job name {spec.name!r}")
        names.add(spec.name)
    if not specs:
        return FleetReport()
    server = FleetServer(
        ServerConfig(fleet=config or FleetConfig(), enable_socket=False),
        workdir, sweep=True)
    jobs = []
    for spec in specs:
        try:
            name = server.submit(JobSubmission(spec=spec),
                                 source="sweep")["name"]
        except FleetSaturated:
            name = spec.name             # journaled and recorded as shed
        jobs.append(server._jobs[name])
    server.config.expect = len(server._jobs)
    code = server.serve(install_signals=install_signals)
    records = [job.record if job.name == spec.name
               else dataclasses.replace(job.record, spec=spec)
               for spec, job in zip(specs, jobs)]
    return FleetReport(
        records=records, executed=server.executed,
        cache_stats=server.cache.stats() if server.cache else {},
        exit_code=code)
