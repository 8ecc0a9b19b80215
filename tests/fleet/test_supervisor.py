"""One-shot sweeps: backoff, shedding, heartbeats, crash recovery."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.__main__ import main
from repro.fleet import (BackoffPolicy, FleetConfig, FleetSaturated,
                         FleetServer, JobSpec, JobSubmission, ResultCache,
                         ServerConfig, SweepWorkdirError, build_manifest,
                         cache_key, replay_journal, run_sweep)
from repro.fleet.heartbeat import (HeartbeatMonitor, read_heartbeat,
                                   write_heartbeat)
from repro.fleet.manifest import result_payload

#: Fast backoff for tests: same ladder shape, milliseconds not seconds.
FAST_BACKOFF = BackoffPolicy(base=0.01, factor=2.0, cap=0.04)


def tiny_spec(name, seed=1, frames=2, **kwargs):
    return JobSpec(name=name, frames=frames, seed=seed, **kwargs)


class TestBackoffPolicy:
    def test_capped_exponential_ladder(self):
        policy = BackoffPolicy(base=0.25, factor=2.0, cap=4.0)
        assert policy.ladder(6) == [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]

    def test_deterministic(self):
        policy = BackoffPolicy()
        assert [policy.delay_for(i) for i in range(8)] == policy.ladder(8)


class TestHeartbeat:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "hb.json")
        write_heartbeat(path, frame=3, tick=9000, beats=4)
        doc = read_heartbeat(path)
        assert doc["frame"] == 3 and doc["beats"] == 4
        assert doc["pid"] == os.getpid()

    def test_torn_write_reads_as_absent(self, tmp_path):
        path = tmp_path / "hb.json"
        path.write_text('{"frame": 3, "tick"')
        assert read_heartbeat(str(path)) is None

    def test_monitor_tracks_changes(self, tmp_path):
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=0.05)
        assert monitor.poll() is None
        write_heartbeat(path, frame=0, tick=1, beats=1)
        assert monitor.poll()["frame"] == 0
        assert not monitor.stale()
        time.sleep(0.08)                       # no new beat
        monitor.poll()
        assert monitor.stale()
        write_heartbeat(path, frame=1, tick=2, beats=2)
        monitor.poll()                         # fresh beat resets the clock
        assert not monitor.stale()

    def test_never_beating_worker_goes_stale(self, tmp_path):
        monitor = HeartbeatMonitor(str(tmp_path / "none.json"),
                                   timeout=0.01)
        time.sleep(0.03)
        monitor.poll()
        assert monitor.stale()

    def test_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatMonitor(str(tmp_path / "hb.json"), timeout=0)


def warm_cache(cache_dir, spec, fb_crc=0xC0FFEE):
    """Publish a result for ``spec`` without running a worker."""
    key = cache_key(spec)
    ResultCache(cache_dir).store(key, build_manifest(spec, key, outcome="ok"),
                                 result_payload(spec, fb_crc))


def journal_matches_report(workdir, report):
    """The sweep's journal folds clean to exactly the report's outcomes."""
    replay = replay_journal(os.path.join(workdir, "journal"))
    assert replay.summary()["outcomes"] == report.counts()
    return replay


class TestSubmission:
    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep([tiny_spec("a"), tiny_spec("a")], FleetConfig(),
                      workdir=str(tmp_path))
        assert not os.path.exists(tmp_path / "journal")  # refused up front

    def test_saturation_sheds_with_a_typed_error(self, tmp_path):
        server = FleetServer(
            ServerConfig(fleet=FleetConfig(queue_limit=2),
                         enable_socket=False),
            str(tmp_path), sweep=True)
        server.submit(JobSubmission(spec=tiny_spec("a")))
        server.submit(JobSubmission(spec=tiny_spec("b", seed=2)))
        with pytest.raises(FleetSaturated) as info:
            server.submit(JobSubmission(spec=tiny_spec("c", seed=3)))
        assert info.value.pending == 2
        assert info.value.limit == 2
        shed = server._jobs["c"].record
        assert shed.spec.name == "c"
        assert shed.outcome == "shed"
        server.journal.close()

    def test_submit_sweep_records_shed_jobs(self, tmp_path):
        # "a" is served from a warm cache, so the sweep spawns nothing.
        cache = str(tmp_path / "cache")
        spec = tiny_spec("a")
        warm_cache(cache, spec)
        workdir = str(tmp_path / "work")
        report = run_sweep([spec, tiny_spec("b", seed=2)],
                           FleetConfig(queue_limit=1, cache_dir=cache),
                           workdir=workdir)
        outcomes = {r.spec.name: r.outcome for r in report.records}
        assert outcomes == {"a": "ok", "b": "shed"}
        assert report.executed == 0
        journal_matches_report(workdir, report)

    def test_one_record_per_spec_in_order_even_for_shared_keys(
            self, tmp_path):
        # Same physics under two names is one job (the server dedups on
        # the cache key); the report still answers for each spec.
        cache = str(tmp_path / "cache")
        warm_cache(cache, tiny_spec("x"))
        specs = [tiny_spec("y", seed=2), tiny_spec("x"),
                 tiny_spec("x-alias")]
        warm_cache(cache, specs[0])
        report = run_sweep(specs, FleetConfig(cache_dir=cache),
                           workdir=str(tmp_path / "work"))
        assert [r.spec.name for r in report.records] == ["y", "x", "x-alias"]
        assert report.counts() == {"ok": 3} and report.executed == 0
        assert report.records[1].payload == report.records[2].payload

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)
        with pytest.raises(ValueError, match="queue_limit"):
            FleetConfig(queue_limit=0)
        with pytest.raises(ValueError, match="max_attempts"):
            FleetConfig(max_attempts=-1)

    def test_empty_sweep_completes(self, tmp_path):
        report = run_sweep([], FleetConfig(), workdir=str(tmp_path))
        assert report.ok
        assert report.records == []
        assert report.executed == 0


@pytest.mark.slow
@pytest.mark.full_system
class TestFleetEndToEnd:
    """The acceptance contract: injected crashes and hangs, nothing lost,
    cache-served reruns bit-identical to a fault-free pass."""

    def test_sweep_with_injected_kill_completes_and_caches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = FleetConfig(
            workers=2, backoff=FAST_BACKOFF, cache_dir=cache_dir,
            # SIGKILL cube-s1's first attempt after frame 1: attempt 2
            # consumes no control and resumes from the checkpoint.
            inject={"cube-s1": [{"kill_at_frame": 1}]})
        specs = [tiny_spec("cube-s1", seed=1), tiny_spec("cube-s2", seed=2)]
        report = run_sweep(specs, config, workdir=str(tmp_path / "work"))

        assert report.ok
        assert report.counts() == {"ok": 2}
        killed = next(r for r in report.records if r.spec.name == "cube-s1")
        assert [a.outcome for a in killed.attempts] == ["crashed", "ok"]
        assert killed.attempts[0].bundle            # triage for the crash
        assert os.path.isdir(killed.attempts[0].bundle)
        assert killed.attempts[1].resumed_from == 1  # checkpoint, not tick 0
        assert killed.attempts[1].backoff_delay == FAST_BACKOFF.delay_for(0)

        # Rerun: everything served from cache, zero workers spawned.
        rerun = run_sweep(specs,
                          FleetConfig(workers=2, cache_dir=cache_dir),
                          workdir=str(tmp_path / "work2"))
        assert rerun.ok
        assert rerun.executed == 0
        assert rerun.cached == 2
        assert [r.payload for r in rerun.records] \
            == [r.payload for r in report.records]

        # Both sweeps' journals fold clean (no claim after done) to
        # exactly the reported outcomes; only the kill's retry re-claims.
        replay = journal_matches_report(str(tmp_path / "work"), report)
        assert replay.clean_shutdown and replay.executed_claims() == 3
        rereplay = journal_matches_report(str(tmp_path / "work2"), rerun)
        assert rereplay.cache_hits() == 2
        assert rereplay.executed_claims() == 0

    def test_retry_backoff_result_bit_identical_to_fault_free(self,
                                                              tmp_path):
        """Fail twice (SIGKILL), succeed on attempt 3; recorded delays
        follow the capped exponential ladder and the cached bytes equal a
        fault-free run's exactly."""
        spec = tiny_spec("cube-s5", seed=5)
        clean_cache = str(tmp_path / "clean-cache")
        clean = run_sweep([spec],
                          FleetConfig(workers=1, cache_dir=clean_cache),
                          workdir=str(tmp_path / "clean"))
        assert clean.ok and not clean.records[0].attempts[0].resumed_from

        bumpy_cache = str(tmp_path / "bumpy-cache")
        config = FleetConfig(
            workers=1, max_attempts=3, backoff=FAST_BACKOFF,
            cache_dir=bumpy_cache,
            inject={"cube-s5": [{"kill_at_frame": 0},
                                {"kill_at_frame": 1}]})
        bumpy = run_sweep([spec], config, workdir=str(tmp_path / "bumpy"))
        record = bumpy.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] \
            == ["crashed", "crashed", "ok"]
        assert [a.backoff_delay for a in record.attempts] \
            == [0.0] + FAST_BACKOFF.ladder(2)

        key = record.key
        clean_entry = os.path.join(clean_cache, key[:2], key, "result.json")
        bumpy_entry = os.path.join(bumpy_cache, key[:2], key, "result.json")
        with open(clean_entry, "rb") as handle:
            clean_bytes = handle.read()
        with open(bumpy_entry, "rb") as handle:
            bumpy_bytes = handle.read()
        assert clean_bytes == bumpy_bytes      # bit-identical, post-crash

    def test_retries_exhausted_is_failed_not_lost(self, tmp_path):
        config = FleetConfig(
            workers=1, max_attempts=2, backoff=FAST_BACKOFF,
            inject={"doomed": [{"kill_at_frame": 0},
                               {"kill_at_frame": 0}]})
        report = run_sweep([tiny_spec("doomed", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.outcome == "failed"
        assert len(record.attempts) == 2
        assert all(a.outcome == "crashed" for a in record.attempts)
        assert all(a.bundle for a in record.attempts)

    def test_hung_worker_is_detected_killed_and_retried(self, tmp_path):
        config = FleetConfig(
            workers=1, heartbeat_timeout=1.0, backoff=FAST_BACKOFF,
            inject={"sleepy": [{"hang_at_frame": 0}]})
        report = run_sweep([tiny_spec("sleepy", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] == ["hung", "ok"]
        assert "no heartbeat" in record.attempts[0].detail

    def test_preemption_resumes_and_costs_no_attempt(self, tmp_path):
        config = FleetConfig(workers=1, preempt_after=0.0,
                             cache_dir=str(tmp_path / "cache"))
        report = run_sweep([tiny_spec("long", frames=2)], config,
                           workdir=str(tmp_path / "work"))
        record = report.records[0]
        assert record.ok
        assert record.preemptions >= 1
        assert len(record.attempts) == 1       # preemptions aren't attempts
        assert record.attempts[-1].resumed_from >= 1

    def test_reused_workdir_does_not_resume_a_stale_checkpoint(
            self, tmp_path):
        """A fresh sweep in a reused workdir (the CLI's default
        ``fleet-work``) must start each job from scratch, not resume a
        previous sweep's checkpoint — and must not poison the cache with
        the previous config's payload."""
        workdir = str(tmp_path / "work")
        first = run_sweep([tiny_spec("wd-job", frames=2)],
                          FleetConfig(workers=1), workdir=workdir)
        assert first.ok

        # Same job name, same workdir, different physics, fresh cache.
        cached = str(tmp_path / "cache")
        second = run_sweep([tiny_spec("wd-job", frames=1)],
                           FleetConfig(workers=1, cache_dir=cached),
                           workdir=workdir)
        record = second.records[0]
        assert record.ok
        assert record.attempts[0].resumed_from == 0

        # The cached payload equals a clean-workdir run's, bit-for-bit.
        clean = run_sweep([tiny_spec("wd-job", frames=1)],
                          FleetConfig(workers=1,
                                      cache_dir=str(tmp_path / "cache2")),
                          workdir=str(tmp_path / "fresh"))
        assert record.payload == clean.records[0].payload

    def test_published_result_supersedes_staleness_verdict(self, tmp_path):
        """A worker that publishes its result and only then goes silent
        was *done*: the result is accepted, not discarded for a wasted
        retry."""
        config = FleetConfig(
            workers=1, heartbeat_timeout=1.0, backoff=FAST_BACKOFF,
            inject={"racer": [{"hang_after_result": True}]})
        report = run_sweep([tiny_spec("racer", frames=1)], config,
                           workdir=str(tmp_path))
        record = report.records[0]
        assert record.ok
        assert [a.outcome for a in record.attempts] == ["ok"]
        assert report.executed == 1            # no retry burned

    def test_cache_publish_failure_keeps_job_ok_and_sweep_alive(
            self, tmp_path, monkeypatch):
        """An OSError from the cache publish (disk full) is recorded on
        the record; the job stays ok and later jobs still run — the
        server loop never dies mid-sweep."""
        def out_of_space(self, key, manifest, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultCache, "store", out_of_space)
        report = run_sweep(
            [tiny_spec("nospace", frames=1),
             tiny_spec("after", frames=1, seed=2)],
            FleetConfig(workers=1, cache_dir=str(tmp_path / "cache")),
            workdir=str(tmp_path / "work"))
        assert report.ok
        assert report.counts() == {"ok": 2}
        assert all("No space left" in r.cache_error
                   for r in report.records)

    def test_report_to_dict_is_json_shaped(self, tmp_path):
        report = run_sweep([tiny_spec("one", frames=1)],
                           FleetConfig(workers=1),
                           workdir=str(tmp_path))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro-fleet-report/1"
        assert doc["ok"] is True
        assert doc["jobs"][0]["spec"]["name"] == "one"


class TestSweepIsAServerRun:
    """A sweep is an in-process server run with a fresh journal: it ends
    on the last terminal transition, follows the server's degradation
    rule, and never touches a journal ``fleet serve`` wrote."""

    def test_cache_only_sweep_does_not_wait_out_the_poll_interval(
            self, tmp_path):
        cache = str(tmp_path / "cache")
        specs = [tiny_spec("a"), tiny_spec("b", seed=2)]
        for spec in specs:
            warm_cache(cache, spec)
        started = time.monotonic()
        report = run_sweep(specs,
                           FleetConfig(cache_dir=cache, poll_interval=5.0),
                           workdir=str(tmp_path / "work"))
        elapsed = time.monotonic() - started
        assert report.cached == 2 and report.executed == 0
        assert elapsed < 2.0, f"cache-only sweep took {elapsed:.2f}s"

    def test_reused_workdir_starts_a_fresh_journal(self, tmp_path):
        cache = str(tmp_path / "cache")
        workdir = str(tmp_path / "work")
        warm_cache(cache, tiny_spec("a"))
        warm_cache(cache, tiny_spec("b", seed=2))
        run_sweep([tiny_spec("a")], FleetConfig(cache_dir=cache),
                  workdir=workdir)
        report = run_sweep([tiny_spec("b", seed=2)],
                           FleetConfig(cache_dir=cache), workdir=workdir)
        replay = journal_matches_report(workdir, report)
        assert replay.incarnations == 1
        assert set(replay.jobs) == {"b"}

    def test_serve_journal_is_never_truncated(self, tmp_path, capsys):
        workdir = tmp_path / "srv"
        server = FleetServer(ServerConfig(enable_socket=False),
                             str(workdir))
        server.submit(JobSubmission(spec=tiny_spec("queued")))
        server.journal.close()
        journal = workdir / "journal"
        before = {path.name: path.read_bytes()
                  for path in journal.iterdir()}

        with pytest.raises(SweepWorkdirError, match="fleet serve"):
            run_sweep([tiny_spec("a")], FleetConfig(), workdir=str(workdir))
        assert main(["fleet", "sweep", "--seeds", "1", "--frames", "1",
                     "--workdir", str(workdir)]) == 2
        assert "fleet serve" in capsys.readouterr().out
        assert {path.name: path.read_bytes()
                for path in journal.iterdir()} == before

    @pytest.mark.slow
    def test_sweep_degrades_after_consecutive_worker_failures(
            self, tmp_path):
        unhealthy = ServerConfig().unhealthy_after
        cache = str(tmp_path / "cache")
        hit = tiny_spec("hit", seed=99, frames=1)
        warm_cache(cache, hit)
        crashers = [tiny_spec(f"crash{i}", seed=10 + i, frames=1)
                    for i in range(unhealthy)]
        config = FleetConfig(
            workers=1, max_attempts=1, cache_dir=cache,
            inject={spec.name: [{"kill_at_frame": 0}] for spec in crashers})
        workdir = str(tmp_path / "work")
        report = run_sweep(crashers + [tiny_spec("miss", seed=50, frames=1),
                                       hit],
                           config, workdir=workdir)
        outcomes = {r.spec.name: r.outcome for r in report.records}
        assert [outcomes[spec.name] for spec in crashers] \
            == ["failed"] * unhealthy
        assert outcomes["miss"] == "shed"        # cache-only serving
        assert outcomes["hit"] == "ok" and report.records[-1].cache_hit
        assert report.executed == unhealthy
        journal_matches_report(workdir, report)

    @pytest.mark.slow
    def test_preemption_cap_fails_the_job(self, tmp_path, monkeypatch):
        import repro.fleet.server as server_module
        monkeypatch.setattr(server_module, "MAX_PREEMPTIONS", 1)
        workdir = str(tmp_path / "work")
        report = run_sweep([tiny_spec("restless", frames=2)],
                           FleetConfig(workers=1, preempt_after=0.0),
                           workdir=workdir)
        record = report.records[0]
        assert record.outcome == "failed"
        assert record.preemptions == 1 and record.attempts == []
        journal_matches_report(workdir, report)

    @pytest.mark.slow
    def test_drained_sweep_journal_matches_its_report(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workdir = tmp_path / "work"
        summary = tmp_path / "summary.json"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "sweep",
             "--seeds", "1,2", "--frames", "300", "--workers", "1",
             "--workdir", str(workdir),
             "--cache-dir", str(tmp_path / "cache"),
             "--summary", str(summary)],
            env=env, cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        # The claim file exists once the loop (and its signal handlers)
        # is running and a worker is being spawned.
        claim = workdir / "jobs" / "cube-s1" / "CLAIM"
        deadline = time.monotonic() + 60.0
        while not claim.exists() and time.monotonic() < deadline:
            assert process.poll() is None, process.stdout.read()
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=120)
        assert process.returncode == 4, out
        assert "runs them from scratch" in out
        doc = json.loads(summary.read_text())
        assert doc["counts"] == {"cancelled": 2}
        replay = replay_journal(str(workdir / "journal"))
        assert replay.summary()["outcomes"] == doc["counts"]


class TestMonotonicProgressClock:
    """Staleness keys on the monotonic progress counter under a mocked
    clock: wall-clock rewrites without progress still time out, and
    wall-clock jumps never expire a worker that is making progress."""

    def _clock(self, monkeypatch):
        import repro.fleet.heartbeat as hb

        class Clock:
            mono = 1_000.0
            wall = 5_000_000.0

            @classmethod
            def monotonic(cls):
                return cls.mono

            @classmethod
            def time(cls):
                return cls.wall

        monkeypatch.setattr(hb, "time", Clock)
        return Clock

    def test_frozen_progress_with_fresh_timestamps_times_out(
            self, tmp_path, monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        write_heartbeat(path, frame=3, tick=30, beats=7)
        monitor.poll()
        assert monitor.age() == 0.0
        for _ in range(5):
            clock.mono += 4.0
            clock.wall += 4.0
            write_heartbeat(path, frame=3, tick=30, beats=7)
            monitor.poll()
        # The file is fresh by wall clock, but the counter never moved.
        assert monitor.last["time"] == clock.wall
        assert monitor.age() == 20.0
        assert monitor.stale()

    def test_progress_advance_resets_the_deadline(self, tmp_path,
                                                  monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        for beat in range(4):
            clock.mono += 8.0
            write_heartbeat(path, frame=beat, tick=beat * 10,
                            beats=beat + 1)
            monitor.poll()
            assert monitor.age() == 0.0
        clock.mono += 9.9
        assert not monitor.stale()
        clock.mono += 0.2
        assert monitor.stale()

    def test_wall_clock_jumps_cannot_expire_a_live_worker(
            self, tmp_path, monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        for beat in range(3):
            clock.mono += 5.0
            clock.wall -= 40_000.0           # NTP step / suspend-resume
            write_heartbeat(path, frame=0, tick=0, beats=beat + 1)
            monitor.poll()
        assert not monitor.stale()

    def test_explicit_progress_counter_overrides_beats(self, tmp_path,
                                                       monkeypatch):
        clock = self._clock(monkeypatch)
        path = str(tmp_path / "hb.json")
        monitor = HeartbeatMonitor(path, timeout=10.0)
        write_heartbeat(path, frame=0, tick=0, beats=1, progress=5)
        monitor.poll()
        clock.mono += 6.0
        # beats moved but the declared progress counter did not: hung.
        write_heartbeat(path, frame=0, tick=0, beats=2, progress=5)
        monitor.poll()
        assert monitor.age() == 6.0
