"""Checkpoint round-trip verification (serialize -> restore -> diff)."""

import json

import pytest

from repro.harness.scenes import SceneSession
from repro.health import CheckpointManager
from repro.health.faults import FaultConfig, FaultInjector
from repro.sanitize import CheckpointMismatchViolation
from repro.sanitize.roundtrip import trace_crc, verify_roundtrip
from repro.soc.checkpoint import GraphicsCheckpoint
from tests.health.full_system import HEIGHT, WIDTH


def take_checkpoint(frames=1, rng=None):
    manager = CheckpointManager(every=1)
    source = manager.wrap_source(SceneSession("cube", WIDTH, HEIGHT).frame)
    for index in range(frames):
        source(index)
        manager.on_frame_done(index, tick=1_000 * (index + 1))
    checkpoint = manager.last
    checkpoint.rng = rng
    return checkpoint


class TestVerifyRoundtrip:
    def test_healthy_checkpoint_passes_with_summary(self):
        summary = verify_roundtrip(take_checkpoint(frames=2), tick=42)
        assert summary["frames"] == 2
        assert summary["draws"] > 0
        assert isinstance(summary["crc"], int)

    def test_rng_streams_survive_the_round_trip(self):
        rng = FaultInjector(FaultConfig(seed=9)).rng_state()
        summary = verify_roundtrip(take_checkpoint(rng=rng))
        assert summary["frames"] == 1

    def test_corrupting_serializer_is_caught(self):
        from repro.soc.checkpoint import _payload_crc

        class Tampered(GraphicsCheckpoint):
            """A serializer bug: the snapshot written to disk disagrees
            with the in-memory state it claims to capture — and keeps its
            integrity CRC consistent, so only the round-trip comparison
            can notice."""

            def to_json(self):
                doc = json.loads(super().to_json())
                doc["frame_index"] += 1
                doc["crc"] = _payload_crc(doc)
                return json.dumps(doc)

        good = take_checkpoint()
        bad = Tampered(trace_json=good.trace_json, tick=good.tick,
                       frame_index=good.frame_index)
        with pytest.raises(CheckpointMismatchViolation) as excinfo:
            verify_roundtrip(bad, tick=7)
        assert excinfo.value.details["field"] == "frame_index"
        assert excinfo.value.tick == 7

    def test_serializer_dropping_the_job_is_caught(self):
        from repro.soc.checkpoint import _payload_crc

        class DropsJob(GraphicsCheckpoint):
            """Loses the fleet's ownership token on the way to disk, with
            a consistent CRC: a resume could no longer tell this job's
            snapshot from a previous occupant's."""

            def to_json(self):
                doc = json.loads(super().to_json())
                del doc["job"]
                doc["crc"] = _payload_crc(doc)
                return json.dumps(doc)

        good = take_checkpoint()
        bad = DropsJob(trace_json=good.trace_json, tick=good.tick,
                       frame_index=good.frame_index, job="fleet-key")
        with pytest.raises(CheckpointMismatchViolation) as excinfo:
            verify_roundtrip(bad, tick=7)
        assert excinfo.value.details["field"] == "job"

    def test_stale_crc_serializer_is_caught(self):
        class StaleCRC(GraphicsCheckpoint):
            """A serializer that mutates the payload after computing the
            integrity CRC: the validator itself rejects the snapshot."""

            def to_json(self):
                doc = json.loads(super().to_json())
                doc["frame_index"] += 1       # crc now disagrees
                return json.dumps(doc)

        good = take_checkpoint()
        bad = StaleCRC(trace_json=good.trace_json, tick=good.tick,
                       frame_index=good.frame_index)
        with pytest.raises(CheckpointMismatchViolation) as excinfo:
            verify_roundtrip(bad, tick=7)
        assert excinfo.value.details["field"] == "crc"

    def test_snapshot_failing_its_own_validator_is_caught(self):
        class Truncated(GraphicsCheckpoint):
            def to_json(self):
                doc = json.loads(super().to_json())
                del doc["trace"]
                return json.dumps(doc)

        good = take_checkpoint()
        bad = Truncated(trace_json=good.trace_json, tick=good.tick,
                        frame_index=good.frame_index)
        with pytest.raises(CheckpointMismatchViolation,
                           match="validator"):
            verify_roundtrip(bad)

    def test_violation_kind_names_the_invariant(self):
        violation = CheckpointMismatchViolation("boom")
        assert violation.kind == "checkpoint-roundtrip"
        assert violation.to_dict()["kind"] == "checkpoint-roundtrip"


class TestTraceCRC:
    def test_crc_is_stable_across_reencoding(self):
        checkpoint = take_checkpoint(frames=2)
        first = trace_crc(checkpoint.trace_json)
        # Cosmetic JSON differences (indentation) must not change the CRC:
        # the CRC is over the canonical re-recording, not the raw bytes.
        pretty = json.dumps(json.loads(checkpoint.trace_json), indent=2)
        assert trace_crc(pretty) == first

    def test_different_traces_differ(self):
        one = take_checkpoint(frames=1)
        two = take_checkpoint(frames=2)
        assert trace_crc(one.trace_json) != trace_crc(two.trace_json)
