"""run_sampled end to end: pinned outputs on both execution paths.

The detailed windows of a sampled run are independent tasks: they run on
a fork-started process pool, or in-process inside a daemonic process
(where a pool cannot start).  Both paths must reproduce, bit for bit,
the estimates, per-window samples and final framebuffer CRC of the
serial detailed→functional→detailed chain they replaced; the pins below
were recorded from that chain.
"""

import multiprocessing
import os
from dataclasses import astuple, fields, replace

import pytest

from repro.harness.case_study1 import CS1Config, make_cs1_setup
from repro.health import HealthConfig
from repro.sampling import FunctionalSim, parse_sample_spec, run_sampled
from repro.sampling.sampler import _resume_points
from repro.sanitize import CheckpointMismatchViolation, SanitizeConfig
from repro.soc.soc import EmeraldSoC

pytestmark = [pytest.mark.slow, pytest.mark.full_system]


def _reduced_cs1(num_frames: int) -> CS1Config:
    return CS1Config(width=48, height=36, num_frames=num_frames,
                     texture_size=64, gpu_frame_period_ticks=120_000,
                     display_period_ticks=60_000, cpu_work_per_frame=40,
                     cpu_fixed_ticks=5_000)


def _setup(num_frames: int, **kwargs):
    return make_cs1_setup("M1", "BAS", "high",
                          config=_reduced_cs1(num_frames), **kwargs)


#: (frames, spec) -> per-window samples (start, end, measured frames,
#: gpu_time, total_time, dram_bytes, energy_uj), per-metric (mean,
#: stderr), (final fb CRC, its frame).  "2:2:1" has detail == period:
#: its back-to-back detailed windows used to hand over a detailed
#: snapshot; now the second resumes from the functional pass.
PINNED = {
    (4, "2:2:1"): {
        "samples": [
            (0, 2, 1, 7703.0, 19140.0, 100352.0, 1.273108),
            (2, 4, 1, 7889.0, 19439.0, 101888.0, 1.303779)],
        "estimates": {
            "gpu_time": (7796.0, 93.0),
            "total_time": (19289.5, 149.5),
            "dram_bytes": (101120.0, 767.9999999999999),
            "energy_uj": (1.2884435, 0.015335500000000056)},
        "fb": (1328115781, 3),
        "frames": (0, 4),
    },
    (6, "1:3:0"): {
        "samples": [
            (0, 1, 1, 26923.0, 43635.0, 68608.0, 4.78311),
            (3, 4, 1, 25232.0, 41944.0, 67328.0, 4.527985999999999)],
        "estimates": {
            "gpu_time": (26077.5, 845.4999999999999),
            "total_time": (42789.5, 845.4999999999999),
            "dram_bytes": (67968.0, 640.0),
            "energy_uj": (4.655548, 0.12756200000000015)},
        "fb": (1328115781, 3),
        "frames": (4, 2),
    },
}


def _pid_hook(path):
    """A caller frame hook recording which process ran each frame."""
    def hook(frame_index, tick):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
    return hook


def _pids(path):
    with open(path) as handle:
        return {int(line) for line in handle}


def _sampled_summary(num_frames, spec, pid_path):
    run_config, factory = _setup(num_frames)
    run_config = replace(run_config, frame_hook=_pid_hook(pid_path))
    result = run_sampled(run_config, factory,
                         parse_sample_spec(spec, num_frames))
    return {
        "samples": [astuple(sample) for sample in result.samples],
        "estimates": {name: (est.mean, est.stderr)
                      for name, est in result.estimates.items()},
        "fb": (result.final_detailed_fb_crc, result.final_detailed_frame),
        "frames": (result.frames_functional, result.frames_detailed),
    }


def _in_daemon(fn, *args):
    """``fn(*args)`` inside a daemonic child: (its result, its pid)."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target():
        try:
            sender.send(("ok", fn(*args), os.getpid()))
        except BaseException as error:       # report, don't hang the test
            sender.send(("error", repr(error), os.getpid()))

    process = context.Process(target=target, daemon=True)
    process.start()
    status, value, pid = receiver.recv()
    process.join()
    assert status == "ok", value
    return value, pid


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.mark.parametrize("point", sorted(PINNED))
def test_pooled_windows_match_the_serial_chain(point, tmp_path,
                                               monkeypatch):
    _usable_cpus(monkeypatch, 2)
    pid_path = tmp_path / "pids"
    assert _sampled_summary(*point, pid_path) == PINNED[point]
    # The windows ran in pool children, not in this process.
    ran_in = _pids(pid_path)
    assert ran_in and os.getpid() not in ran_in
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("point", sorted(PINNED))
def test_windows_run_in_process_inside_a_daemon(point, tmp_path):
    pid_path = tmp_path / "pids"
    summary, daemon_pid = _in_daemon(_sampled_summary, *point, pid_path)
    assert summary == PINNED[point]
    assert _pids(pid_path) == {daemon_pid}


def test_windows_run_in_process_beside_another_thread(tmp_path,
                                                     monkeypatch):
    import threading

    _usable_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        point = (4, "2:2:1")
        assert _sampled_summary(*point, tmp_path / "pids") == PINNED[point]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert _pids(tmp_path / "pids") == {os.getpid()}


def test_functional_pass_snapshot_equals_the_chain_handover():
    # Schedule 2:4:1 over 6 frames: detailed [0,2), functional [2,4),
    # detailed [4,6).  The serial chain handed the second detailed window
    # the snapshot a functional window took after resuming from the
    # first detailed window's end snapshot.
    run_config, factory = _setup(6)
    session = factory()
    prefix = EmeraldSoC(
        replace(run_config, num_frames=2,
                health=HealthConfig(checkpoint_every=2,
                                    checkpoint_job="job-key")),
        session.frame, session.framebuffer_address)
    prefix.run()
    detailed_end = prefix.checkpoints.last
    assert (detailed_end.mode, detailed_end.frame_index) == ("detailed", 2)
    chained = FunctionalSim.from_checkpoint(
        detailed_end, run_config, factory().frame, render="none"
    ).run(4).checkpoint(job="job-key")

    detailed = [window for window in
                parse_sample_spec("2:4:1", 6).windows()
                if window.kind == "detailed"]
    points = _resume_points(run_config, factory, detailed, "job-key")
    assert points[0] is None
    for field in fields(chained):
        assert getattr(points[1], field.name) \
            == getattr(chained, field.name), field.name


def _failing_run(pid_path):
    """2:2:1 over 4 frames; the last window fails on its last frame."""
    run_config, factory = _setup(4)

    def hook(frame_index, tick):
        _pid_hook(pid_path)(frame_index, tick)
        if frame_index == 3:
            raise CheckpointMismatchViolation(
                "injected", tick=tick, owner="test",
                details={"frame_index": frame_index})

    run_sampled(replace(run_config, frame_hook=hook), factory,
                parse_sample_spec("2:2:1", 4))


def test_pooled_window_error_reaches_the_caller(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 1)
    with pytest.raises(CheckpointMismatchViolation) as in_process:
        _failing_run(tmp_path / "serial")

    _usable_cpus(monkeypatch, 2)
    pid_path = tmp_path / "pooled"
    with pytest.raises(CheckpointMismatchViolation) as pooled:
        _failing_run(pid_path)
    assert str(pooled.value) == str(in_process.value) \
        == "sanitizer[checkpoint-roundtrip]: injected"
    for attr in ("tick", "owner", "details"):
        assert getattr(pooled.value, attr) == getattr(in_process.value, attr)
    # The child's traceback travels as a note naming the window.
    assert any(note.startswith("in sampled window 1, pool child")
               for note in pooled.value.__notes__)

    # No pool child outlives run_sampled.
    assert multiprocessing.active_children() == []
    children = _pids(pid_path)
    assert children and os.getpid() not in children
    for pid in children:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_sanitizer_round_trips_every_resume_snapshot(monkeypatch):
    import json

    import repro.sampling.functional as functional
    from repro.soc.checkpoint import GraphicsCheckpoint, _payload_crc

    class DropsJob(GraphicsCheckpoint):
        """Loses the ownership token on the way to disk, with a
        consistent CRC: only the round trip can notice."""

        def to_json(self):
            doc = json.loads(super().to_json())
            del doc["job"]
            doc["crc"] = _payload_crc(doc)
            return json.dumps(doc)

    capture = functional.capture

    def tampering_capture(*args, **kwargs):
        snapshot = capture(*args, **kwargs)
        return DropsJob(**{field.name: getattr(snapshot, field.name)
                           for field in fields(snapshot)})

    monkeypatch.setattr(functional, "capture", tampering_capture)
    run_config, factory = _setup(6, sanitize=SanitizeConfig())
    with pytest.raises(CheckpointMismatchViolation) as excinfo:
        run_sampled(run_config, factory, parse_sample_spec("1:3:0", 6),
                    job="fleet-key")
    assert excinfo.value.details["field"] == "job"
    assert excinfo.value.details["frame_index"] == 3
