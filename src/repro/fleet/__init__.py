"""Fault-tolerant simulation fleet (DESIGN.md §10, server mode §14).

``repro.fleet`` turns the single-run simulator into a supervised,
crash-tolerant service with one job lifecycle,
:class:`~repro.fleet.server.FleetServer`.  It shards benchmark sweeps,
chaos seeds and user-submitted configs across a multiprocess worker
pool, detects crashed and hung workers by heartbeat staleness (a
monotonic attempt-progress counter, immune to clock jumps), requeues
them with capped exponential backoff, resumes retried jobs from their
last :class:`~repro.soc.checkpoint.GraphicsCheckpoint`, and caches
deterministic results content-addressed on (config hash, seed, code
version) with gem5-style manifests.  Every scheduling transition is
appended to a write-ahead job journal (:mod:`repro.fleet.journal`), so
the job table survives ``kill -9`` and the journal alone proves no
completed job ran twice.  Failures surface as typed outcomes with triage
bundles attached — the chaos loud-death contract extended to the
process-pool layer.

The lifecycle runs two ways.  ``fleet serve`` is the long-lived service:
file-drop + Unix-socket intake, priority / fair-share / deadline
scheduling, graceful SIGTERM drains, restart from the journal.
:func:`run_sweep` (``fleet sweep``) is a one-shot in-process server run
with a fresh journal that drains itself once every job is terminal.
:mod:`repro.fleet.drill` is the server-level chaos drill that SIGKILLs
the server mid-sweep and asserts byte-identical results.

Quickstart (one-shot sweep)::

    from repro.fleet import FleetConfig, JobSpec, run_sweep

    specs = [JobSpec(name=f"cube-s{seed}", frames=2, seed=seed)
             for seed in (1, 2, 3)]
    report = run_sweep(specs,
                       FleetConfig(workers=2, cache_dir="fleet-cache"),
                       workdir="fleet-work")
    assert report.ok        # rerun: served entirely from cache

CLI: ``python -m repro fleet sweep --seeds 1,2,3 --workers 2``; the
server is ``python -m repro fleet serve|submit|status|drain|gc``.
"""

from __future__ import annotations

from repro.fleet.cache import (CacheGCReport, CachedResult, ResultCache,
                               sweep_triage_bundles)
from repro.fleet.heartbeat import HeartbeatMonitor
from repro.fleet.job import (ATTEMPT_OUTCOMES, JOB_OUTCOMES, JobAttempt,
                             JobRecord, JobSpec, JobSpecError)
from repro.fleet.journal import (JobJournal, JournalReplay, ReplayedJob,
                                 replay_journal)
from repro.fleet.manifest import (ManifestError, build_manifest, cache_key,
                                  code_version, config_hash,
                                  validate_manifest)
from repro.fleet.server import (FleetServer, JobSubmission, ServerConfig,
                                SubmissionError, SweepWorkdirError,
                                journal_status, run_sweep)
from repro.fleet.supervisor import (BackoffPolicy, FleetConfig, FleetReport,
                                    FleetSaturated, FleetWorkerFailure)
from repro.fleet.worker import run_job, worker_entry

__all__ = [
    "ATTEMPT_OUTCOMES",
    "BackoffPolicy",
    "CacheGCReport",
    "CachedResult",
    "FleetConfig",
    "FleetReport",
    "FleetSaturated",
    "FleetServer",
    "FleetWorkerFailure",
    "HeartbeatMonitor",
    "JOB_OUTCOMES",
    "JobAttempt",
    "JobJournal",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "JobSubmission",
    "JournalReplay",
    "ManifestError",
    "ReplayedJob",
    "ResultCache",
    "ServerConfig",
    "SubmissionError",
    "SweepWorkdirError",
    "build_manifest",
    "cache_key",
    "code_version",
    "config_hash",
    "journal_status",
    "replay_journal",
    "run_job",
    "run_sweep",
    "sweep_triage_bundles",
    "validate_manifest",
    "worker_entry",
]
