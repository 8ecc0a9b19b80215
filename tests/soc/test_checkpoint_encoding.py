"""The canonical checkpoint encoding: equivalence, compatibility, cost.

A snapshot is encoded once, by splicing the recorder's canonical trace
text between its encoded scalar fields; these tests pin that the spliced
text is exactly the canonical document the CRC is defined over, that
snapshots written in the older layout (default separators, insertion
order) still load, and that capture and verification cost what the
design says — counted in calls, not seconds.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gl import trace as trace_module
from repro.gl.trace import canonical_json
from repro.harness.scenes import SceneSession
from repro.health import CheckpointManager
from repro.sanitize import roundtrip
from repro.sanitize.roundtrip import verify_roundtrip
from repro.soc import checkpoint as checkpoint_module
from repro.soc.checkpoint import (CHECKPOINT_MODES, GraphicsCheckpoint,
                                  _payload_crc, capture)

#: Written by the encoder before it became canonical (``json.dumps``
#: defaults, fields in insertion order): two frames of one textured
#: triangle, every optional field set, a non-ASCII quote-bearing job.
PRE_CANONICAL = os.path.join(os.path.dirname(__file__), "data",
                             "checkpoint_pre_canonical.json")


def _manager_snapshots(frames, session=None):
    session = session or SceneSession("cube", 16, 12, texture_size=8)
    manager = CheckpointManager(every=1)
    source = manager.wrap_source(session.frame)
    for index in range(frames):
        source(index)
        manager.on_frame_done(index, tick=1_000 * (index + 1))
    return manager


@pytest.fixture(scope="module")
def small_trace() -> str:
    return _manager_snapshots(2).last.trace_json


def assert_canonical_roundtrip(checkpoint: GraphicsCheckpoint) -> None:
    text = checkpoint.to_json()
    doc = json.loads(text)
    assert text == canonical_json(doc)
    assert doc["crc"] == _payload_crc(doc)
    assert GraphicsCheckpoint.from_json(text) == checkpoint


json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False) | st.text())
json_values = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(), children, max_size=3)),
    max_leaves=8)
awkward_text = st.one_of(
    st.text(),
    st.sampled_from(['"trace":null', '","trace":{}', "back\\slash",
                     'quote"', "ünïcødé ✓", "", "}"]))


class TestCanonicalEncoding:
    @settings(max_examples=150, deadline=None)
    @given(tick=st.integers(min_value=0, max_value=1 << 62),
           frame_index=st.integers(min_value=0, max_value=1 << 20),
           rng=st.none() | st.dictionaries(st.text(), json_values,
                                           max_size=4),
           job=st.none() | awkward_text,
           topology=st.none() | awkward_text,
           mode=st.none() | st.sampled_from(sorted(CHECKPOINT_MODES)),
           claim=st.none() | awkward_text)
    def test_encoding_is_the_canonical_document(
            self, small_trace, tick, frame_index, rng, job, topology,
            mode, claim):
        assert_canonical_roundtrip(GraphicsCheckpoint(
            trace_json=small_trace, tick=tick, frame_index=frame_index,
            rng=rng, job=job, topology=topology, mode=mode, claim=claim))

    def test_recorder_writes_canonical_text(self, small_trace):
        assert small_trace == canonical_json(json.loads(small_trace))

    def test_encoding_follows_field_mutation(self, small_trace):
        checkpoint = GraphicsCheckpoint(trace_json=small_trace, tick=5,
                                        frame_index=2)
        before = checkpoint.to_json()
        assert checkpoint.to_json() is before       # remembered
        checkpoint.rng = {"dram": [1, 2]}
        assert json.loads(checkpoint.to_json())["rng"] == {"dram": [1, 2]}
        checkpoint.rng["dram"].append(3)            # in-place mutation
        assert json.loads(checkpoint.to_json())["rng"] == {"dram": [1, 2, 3]}
        checkpoint.job = "other"
        assert_canonical_roundtrip(checkpoint)

    def test_rewound_snapshot_passes_the_same_checks(self):
        checkpoint = _manager_snapshots(3).last
        rewound = checkpoint.rewind(1)
        assert rewound.frame_index == 2
        assert rewound.trace_json == canonical_json(
            json.loads(rewound.trace_json))
        assert_canonical_roundtrip(rewound)
        assert verify_roundtrip(rewound)["frames"] == 2
        # Rewinding drops exactly the last frame of the recording.
        assert rewound.trace_json == _manager_snapshots(2).last.trace_json


class TestPreCanonicalLayout:
    def test_old_layout_loads_and_passes_its_crc(self):
        with open(PRE_CANONICAL) as handle:
            text = handle.read()
        assert '"version": 1, "tick": 2000' in text     # the old layout
        doc = json.loads(text)
        restored = GraphicsCheckpoint.from_json(text)
        assert (restored.tick, restored.frame_index) == (2000, 2)
        assert restored.job == doc["job"]
        assert restored.claim == "server-1#3"
        assert restored.rng == {"dram": [3, [1, 2]], "noc": None}
        # Re-encoding yields the canonical text with the *same* CRC: the
        # CRC was always defined over the canonical form.
        assert json.loads(restored.to_json())["crc"] == doc["crc"]
        assert_canonical_roundtrip(restored)
        assert verify_roundtrip(restored)["frames"] == 2

    def test_old_layout_with_damaged_payload_is_rejected(self):
        from repro.soc.checkpoint import CheckpointCorruptError

        with open(PRE_CANONICAL) as handle:
            text = handle.read()
        with pytest.raises(CheckpointCorruptError):
            GraphicsCheckpoint.from_json(text.replace('"tick": 2000',
                                                      '"tick": 2001'))


class TestCaptureCost:
    def test_each_distinct_texture_is_converted_once(self):
        class CountingArray(np.ndarray):
            conversions = 0

            def tolist(self):
                CountingArray.conversions += 1
                return super().tolist()

        session = SceneSession("cube", 16, 12, texture_size=8)
        session.texture.data = session.texture.data.view(CountingArray)
        manager = _manager_snapshots(5, session=session)
        assert manager.checkpoints_taken == 5
        assert CountingArray.conversions == 1

    def test_recorder_tables_do_not_grow_with_repeated_content(self):
        session = SceneSession("cube", 16, 12, texture_size=8)
        manager = CheckpointManager(every=1)
        source = manager.wrap_source(session.frame)
        sizes = []
        for index in range(4):
            source(index)
            manager.on_frame_done(index, tick=index + 1)
            recorder = manager._recorder
            sizes.append((len(recorder._buffers.entries),
                          len(recorder._textures.entries)))
        assert sizes == [sizes[0]] * 4
        # Re-snapshotting with no new frame re-encodes nothing new.
        text = manager.last.trace_json
        manager.on_frame_done(3, tick=9)
        assert manager.last.trace_json == text

    def test_incremental_capture_matches_a_fresh_recording(self):
        session = SceneSession("cube", 16, 12, texture_size=8)
        frames = [session.frame(index) for index in range(3)]
        recorder = trace_module.TraceRecorder()
        for frame in frames:
            capture([frame], tick=1, frame_index=1, recorder=recorder)
        assert capture([], tick=1, frame_index=3, recorder=recorder) \
            .trace_json == capture(frames, tick=1, frame_index=3).trace_json


class TestVerifyCost:
    def test_healthy_snapshot_is_replayed_once(self, monkeypatch):
        calls = []

        def counting_replay(text, roi=None):
            calls.append(len(text))
            return trace_module.replay(text, roi)

        monkeypatch.setattr(checkpoint_module, "replay", counting_replay)
        monkeypatch.setattr(roundtrip, "replay", counting_replay)
        verify_roundtrip(_manager_snapshots(2).last)
        assert len(calls) == 1
