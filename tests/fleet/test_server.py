"""The durable fleet server: admission, scheduling, recovery, sockets."""

import asyncio
import json
import os

import pytest

from repro.fleet import (FleetConfig, FleetSaturated, JobSpec, JobSubmission,
                         ServerConfig, SubmissionError)
from repro.fleet.journal import JobJournal, replay_journal
from repro.fleet.server import (ACK_DIR, EXIT_DRAINED, EXIT_DRAINED_PENDING,
                                JOURNAL_DIR, QUARANTINE_DIR, SPOOL_DIR,
                                FleetServer)
from repro.fleet.supervisor import BackoffPolicy

FAST_BACKOFF = BackoffPolicy(base=0.01, factor=2.0, cap=0.04)


def tiny_spec(name, seed=1, frames=2, **kwargs):
    return JobSpec(name=name, frames=frames, seed=seed, **kwargs)


def make_server(tmp_path, *, cache="cache", expect=None, **fleet_kwargs):
    fleet_kwargs.setdefault("workers", 1)
    fleet_kwargs.setdefault("backoff", FAST_BACKOFF)
    if cache is not None:
        fleet_kwargs.setdefault("cache_dir", str(tmp_path / cache))
    config = ServerConfig(fleet=FleetConfig(**fleet_kwargs),
                          expect=expect, enable_socket=False,
                          spool_poll=0.02)
    return FleetServer(config, str(tmp_path / "work"))


class TestSubmissionParsing:
    def test_bare_spec_document(self):
        submission = JobSubmission.from_dict(tiny_spec("a").to_dict())
        assert submission.spec.name == "a"
        assert submission.priority == 0 and submission.owner == "anonymous"

    def test_envelope_with_policy(self):
        doc = {"spec": tiny_spec("a").to_dict(), "priority": 3,
               "owner": "bench", "deadline": 30}
        submission = JobSubmission.from_dict(doc)
        assert submission.priority == 3
        assert submission.owner == "bench"
        assert submission.deadline == 30.0

    @pytest.mark.parametrize("doc", [
        "not-a-dict",
        {"spec": {"name": "a"}, "priority": "high"},
        {"spec": {"name": "a"}, "owner": ""},
        {"spec": {"name": "a"}, "deadline": -1},
        {"spec": {"name": "a"}, "deadline": True},
        {"spec": {"name": "a"}, "turbo": True},
        {"spec": {"name": "a", "frames": "two"}},
    ])
    def test_malformed_submissions_are_typed_rejections(self, doc):
        with pytest.raises(SubmissionError):
            JobSubmission.from_dict(doc)


class TestAdmission:
    def test_idempotent_resubmission_dedups_on_cache_key(self, tmp_path):
        server = make_server(tmp_path)
        first = server.submit(JobSubmission(spec=tiny_spec("a")))
        assert first == {"ok": True, "name": "a", "key": first["key"],
                         "dedup": False, "outcome": "pending"}
        # Same physics under a different scheduling label: one job.
        again = server.submit(JobSubmission(spec=tiny_spec("a-renamed")))
        assert again["dedup"] and again["name"] == "a"
        assert len(server._ready) == 1
        server.journal.close()

    def test_name_collision_with_different_spec_rejected(self, tmp_path):
        server = make_server(tmp_path)
        server.submit(JobSubmission(spec=tiny_spec("a", seed=1)))
        with pytest.raises(SubmissionError, match="already taken"):
            server.submit(JobSubmission(spec=tiny_spec("a", seed=2)))
        server.journal.close()

    def test_saturated_queue_sheds_with_journal_record(self, tmp_path):
        server = make_server(tmp_path, queue_limit=1)
        server.submit(JobSubmission(spec=tiny_spec("a")))
        with pytest.raises(FleetSaturated):
            server.submit(JobSubmission(spec=tiny_spec("b", seed=2)))
        server.journal.close()
        replay = replay_journal(
            os.path.join(server.workdir, JOURNAL_DIR))
        assert replay.jobs["b"].outcome == "shed"
        # The shed slot is not poisoned: once load drops the same name
        # may be resubmitted (exercises the journal's shed->submit rule).
        server2 = make_server(tmp_path, queue_limit=10)
        ack = server2.submit(JobSubmission(spec=tiny_spec("b", seed=2)))
        assert ack["outcome"] == "pending"
        server2.journal.close()


class TestScheduling:
    def test_priority_then_fair_share_then_fifo(self, tmp_path):
        server = make_server(tmp_path)
        server.submit(JobSubmission(spec=tiny_spec("a1", seed=1),
                                    owner="alice"))
        server.submit(JobSubmission(spec=tiny_spec("a2", seed=2),
                                    owner="alice"))
        server.submit(JobSubmission(spec=tiny_spec("b1", seed=3),
                                    owner="bob"))
        server.submit(JobSubmission(spec=tiny_spec("hot", seed=4),
                                    priority=5, owner="alice"))
        # alice has already consumed a claim; bob has not.
        server._owner_share["alice"] = 1
        order = [server._pick().name for _ in range(4)]
        assert order == ["hot", "b1", "a1", "a2"]
        server.journal.close()

    def test_deadline_passed_while_queued_cancels_with_bundle(self, tmp_path):
        server = make_server(tmp_path)

        async def scenario():
            server.submit(JobSubmission(spec=tiny_spec("late"),
                                        deadline=0.01))
            job = server._pick()
            await asyncio.sleep(0.05)
            await server._drive(job)
            return job

        job = asyncio.run(scenario())
        assert job.record.outcome == "cancelled"
        assert "deadline" in job.record.cancel_reason
        triage = os.path.join(server._jobdir(job), "triage")
        assert os.path.isdir(triage) and os.listdir(triage)
        server.journal.close()
        replay = replay_journal(os.path.join(server.workdir, JOURNAL_DIR))
        assert replay.jobs["late"].outcome == "cancelled"


class TestSpoolIntake:
    def _drop(self, server, name, doc):
        path = os.path.join(server.workdir, SPOOL_DIR, name)
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(doc, str):
                handle.write(doc)
            else:
                json.dump(doc, handle)
        return path

    def test_drop_file_is_consumed_and_acked(self, tmp_path):
        server = make_server(tmp_path)
        path = self._drop(server, "a.json", tiny_spec("a").to_dict())
        assert server.poll_spool() == 1
        assert not os.path.exists(path)
        ack_path = os.path.join(server.workdir, SPOOL_DIR, ACK_DIR,
                                "a.json")
        with open(ack_path) as handle:
            ack = json.load(handle)
        assert ack["ok"] and ack["name"] == "a"
        assert len(server._ready) == 1
        server.journal.close()

    def test_malformed_drop_is_quarantined_not_a_crash(self, tmp_path):
        server = make_server(tmp_path)
        self._drop(server, "broken.json", '{"name": "x", "frames":')
        self._drop(server, "badfield.json", {"name": "y", "frames": -5})
        assert server.poll_spool() == 2
        quarantine = os.path.join(server.workdir, SPOOL_DIR,
                                  QUARANTINE_DIR)
        names = sorted(os.listdir(quarantine))
        assert "broken.json" in names and "badfield.json" in names
        with open(os.path.join(quarantine,
                               "broken.json.reason.json")) as handle:
            reason = json.load(handle)
        assert "JSON" in reason["reason"] or "Error" in reason["reason"]
        assert server._jobs == {}          # nothing admitted
        server.journal.close()
        replay = replay_journal(os.path.join(server.workdir, JOURNAL_DIR))
        kinds = [record["type"] for record in replay.records]
        assert kinds.count("quarantine") == 2


class TestServeEndToEnd:
    def test_sweep_completes_and_second_incarnation_serves_from_cache(
            self, tmp_path):
        specs = [tiny_spec("a", seed=1), tiny_spec("b", seed=2)]
        server = make_server(tmp_path, workers=2, expect=2)
        for spec in specs:
            server.submit(JobSubmission(spec=spec))
        assert server.serve(install_signals=False) == EXIT_DRAINED
        assert all(server._jobs[s.name].record.outcome == "ok"
                   for s in specs)
        assert server.executed == 2
        replay = replay_journal(os.path.join(server.workdir, JOURNAL_DIR))
        assert replay.clean_shutdown and replay.cache_hits() == 0

        # A fresh workdir sharing the cache: pure cache-hit serving.
        config = ServerConfig(
            fleet=FleetConfig(workers=2,
                              cache_dir=str(tmp_path / "cache")),
            expect=2, enable_socket=False)
        server2 = FleetServer(config, str(tmp_path / "work2"))
        for spec in specs:
            server2.submit(JobSubmission(spec=spec))
        assert server2.serve(install_signals=False) == EXIT_DRAINED
        assert server2.executed == 0
        replay2 = replay_journal(
            os.path.join(server2.workdir, JOURNAL_DIR))
        assert replay2.cache_hits() == 2

    def test_crash_recovery_resumes_journaled_jobs(self, tmp_path):
        """A journal with submits but no clean shutdown (a kill -9): the
        next incarnation rebuilds the job table and runs the sweep."""
        workdir = tmp_path / "work"
        journal, _ = JobJournal.open(str(workdir / JOURNAL_DIR))
        journal.append("server-start", server="srv-dead-i1", pid=1,
                       workdir=str(workdir))
        for spec in (tiny_spec("a", seed=1), tiny_spec("b", seed=2)):
            from repro.fleet.manifest import cache_key
            journal.append("submit", name=spec.name, key=cache_key(spec),
                           spec=spec.to_dict(), priority=0, owner="drill",
                           deadline=None, source="test")
        journal.close()      # no clean-shutdown record: this is a crash

        server = make_server(tmp_path, workers=2, expect=2)
        assert {job.name for job in server._ready} == {"a", "b"}
        assert all(job.recovered for job in server._jobs.values())
        assert server.serve(install_signals=False) == EXIT_DRAINED
        replay = replay_journal(str(workdir / JOURNAL_DIR))
        assert replay.incarnations == 2
        assert {name: job.outcome for name, job in replay.jobs.items()} \
            == {"a": "ok", "b": "ok"}

    def test_recovery_reconciles_from_cache_without_executing(
            self, tmp_path):
        """Work completed before the kill is served from the cache on
        restart — zero worker processes spawned."""
        spec = tiny_spec("done-before-crash")
        warm = make_server(tmp_path, expect=1)
        warm.submit(JobSubmission(spec=spec))
        assert warm.serve(install_signals=False) == EXIT_DRAINED

        from repro.fleet.manifest import cache_key
        workdir2 = tmp_path / "work2"
        journal, _ = JobJournal.open(str(workdir2 / JOURNAL_DIR))
        journal.append("submit", name=spec.name, key=cache_key(spec),
                       spec=spec.to_dict(), priority=0, owner="drill",
                       deadline=None, source="test")
        journal.close()

        config = ServerConfig(
            fleet=FleetConfig(workers=1,
                              cache_dir=str(tmp_path / "cache")),
            expect=1, enable_socket=False)
        server = FleetServer(config, str(workdir2))
        # Reconciliation happened in __init__, before any worker slot.
        job = server._jobs[spec.name]
        assert job.record.outcome == "ok" and job.record.cache_hit
        assert server.serve(install_signals=False) == EXIT_DRAINED
        assert server.executed == 0

    def test_unhealthy_pool_degrades_to_cache_only_serving(self, tmp_path):
        server = make_server(
            tmp_path, workers=1, max_attempts=1,
            inject={"crashy": [{"kill_at_frame": 0}]})
        server.config.unhealthy_after = 1
        server.config.expect = 2
        server.submit(JobSubmission(spec=tiny_spec("crashy", seed=1),
                                    priority=1))
        server.submit(JobSubmission(spec=tiny_spec("victim", seed=2)))
        assert server.serve(install_signals=False) == EXIT_DRAINED
        assert server.degraded
        assert server._jobs["crashy"].record.outcome == "failed"
        victim = server._jobs["victim"].record
        assert victim.outcome == "shed"
        replay = replay_journal(os.path.join(server.workdir, JOURNAL_DIR))
        done = {record["data"]["name"]: record["data"]
                for record in replay.records if record["type"] == "done"}
        assert "cache-only" in done["victim"]["detail"]


class TestUnixSocket:
    def _request(self, writer, reader, doc):
        async def roundtrip():
            writer.write((json.dumps(doc) + "\n").encode())
            await writer.drain()
            return json.loads(await reader.readline())
        return roundtrip()

    def test_socket_ops_and_drain_with_pending_exits_4(self, tmp_path):
        config = ServerConfig(
            fleet=FleetConfig(workers=1,
                              cache_dir=str(tmp_path / "cache")),
            enable_socket=True)
        server = FleetServer(config, str(tmp_path / "work"))
        server._pick = lambda: None      # freeze scheduling: intake only

        async def scenario():
            serve = asyncio.get_running_loop().create_task(
                server.serve_async(install_signals=False))
            for _ in range(100):
                if os.path.exists(server.socket_path):
                    break
                await asyncio.sleep(0.02)
            reader, writer = await asyncio.open_unix_connection(
                server.socket_path)
            replies = {}
            replies["ping"] = await self._request(
                writer, reader, {"op": "ping"})
            replies["bad"] = await self._request(
                writer, reader, {"op": "warp"})
            replies["submit"] = await self._request(
                writer, reader,
                {"op": "submit",
                 "job": {"spec": tiny_spec("sock-job").to_dict(),
                         "priority": 2, "owner": "cli"}})
            replies["dedup"] = await self._request(
                writer, reader,
                {"op": "submit", "job": tiny_spec("sock-job").to_dict()})
            replies["cancel-missing"] = await self._request(
                writer, reader, {"op": "cancel", "name": "ghost"})
            replies["status"] = await self._request(
                writer, reader, {"op": "status"})
            replies["drain"] = await self._request(
                writer, reader, {"op": "drain"})
            writer.close()
            return await serve, replies

        code, replies = asyncio.run(scenario())
        assert replies["ping"]["ok"]
        assert replies["ping"]["server"] == server.server_id
        assert replies["bad"]["error"] == "unknown-op"
        assert replies["submit"] == {"ok": True, "name": "sock-job",
                                     "key": replies["submit"]["key"],
                                     "dedup": False, "outcome": "pending"}
        assert replies["dedup"]["dedup"] is True
        assert replies["cancel-missing"]["error"] == "unknown-job"
        assert replies["status"]["pending"] == 1
        assert replies["status"]["ready"] is True
        assert replies["drain"] == {"ok": True, "draining": True}
        # One journaled job never ran: drained-with-pending exit code.
        assert code == EXIT_DRAINED_PENDING
        assert not os.path.exists(server.socket_path)
        replay = replay_journal(
            os.path.join(server.workdir, JOURNAL_DIR))
        assert replay.clean_shutdown
        assert [job.name for job in replay.pending] == ["sock-job"]

    def test_socket_cancel_of_queued_job(self, tmp_path):
        config = ServerConfig(
            fleet=FleetConfig(workers=1,
                              cache_dir=str(tmp_path / "cache")),
            expect=1, enable_socket=True)
        server = FleetServer(config, str(tmp_path / "work"))
        server._pick = lambda: None

        async def scenario():
            serve = asyncio.get_running_loop().create_task(
                server.serve_async(install_signals=False))
            for _ in range(100):
                if os.path.exists(server.socket_path):
                    break
                await asyncio.sleep(0.02)
            reader, writer = await asyncio.open_unix_connection(
                server.socket_path)
            await self._request(
                writer, reader,
                {"op": "submit", "job": tiny_spec("doomed").to_dict()})
            cancel = await self._request(
                writer, reader, {"op": "cancel", "name": "doomed"})
            writer.close()
            return await serve, cancel

        code, cancel = asyncio.run(scenario())
        assert cancel == {"ok": True, "name": "doomed",
                          "state": "cancelled"}
        # The cancellation is terminal work: expect=1 drains clean.
        assert code == EXIT_DRAINED
        replay = replay_journal(
            os.path.join(server.workdir, JOURNAL_DIR))
        assert replay.jobs["doomed"].outcome == "cancelled"
