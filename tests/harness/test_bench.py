"""Tier-1 coverage for the benchmark discipline (repro.bench).

The micro scale keeps these fast enough for every test run; the smoke
scale runs in CI's bench job, and the default scale is checked here only
through fake reports and the committed artifacts.
"""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.__main__ import main

#: Keys a ``fig14``/``pipeline`` report carries; no timing field among them.
REPORT_KEYS = {"benchmark", "scale", "workload", "identity", "generated_by"}


@pytest.fixture(scope="module")
def micro_pipeline():
    return bench.run_pipeline("micro")


@pytest.fixture(scope="module")
def micro_fig14():
    return bench.run_fig14("micro")


class TestMicroRuns:
    def test_pipeline_identity(self, micro_pipeline):
        report = micro_pipeline
        assert report["identity"] == bench.PINNED_IDENTITY["micro"]["pipeline"]
        assert report["identity"]["fragments"] > 0

    def test_fig14_identity(self, micro_fig14):
        report = micro_fig14
        assert report["identity"] == bench.PINNED_IDENTITY["micro"]["fig14"]
        assert report["identity"]["events_fired"] > 0

    def test_report_shape(self, micro_pipeline, micro_fig14):
        # Fingerprint only: wall time is perfbench's to measure.
        for report in (micro_pipeline, micro_fig14):
            assert set(report) == REPORT_KEYS
            # The artifact must round-trip through JSON (CI uploads it).
            assert json.loads(json.dumps(report)) == report

    def test_write_report(self, micro_pipeline, tmp_path):
        path = bench.write_report(micro_pipeline, tmp_path / "artifacts")
        assert path.name == "BENCH_pipeline.json"
        assert json.loads(path.read_text())["benchmark"] == "pipeline"

    def test_format_summary(self, micro_pipeline):
        text = bench.format_summary(micro_pipeline)
        assert "pipeline (micro)" in text
        for key, value in micro_pipeline["identity"].items():
            assert key in text and str(value) in text
        assert "identity: matches pin" in text
        drifted = dict(micro_pipeline,
                       identity=dict(micro_pipeline["identity"], cycles=1))
        assert "identity: DRIFTED" in bench.format_summary(drifted)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            bench.run_pipeline("huge")
        with pytest.raises(ValueError):
            bench.run_fig14("huge")


class TestPinnedGate:
    """The reduced-scale runs gate on the fingerprints pinned in
    ``bench.PINNED_IDENTITY``; editing a pin must turn the gate red."""

    def test_micro_runs_match_their_pins(self, micro_pipeline, micro_fig14):
        assert bench.gate(micro_pipeline) == []
        assert bench.gate(micro_fig14) == []

    def test_every_scale_pins_the_same_keys(self, micro_pipeline,
                                            micro_fig14):
        # The pins' keys are the fingerprint: every scale, default
        # included, pins all of what a run reports.
        assert set(bench.PINNED_IDENTITY) == set(bench.SCALES)
        for report in (micro_pipeline, micro_fig14):
            keys = set(report["identity"])
            for scale in bench.SCALES:
                assert set(bench.PINNED_IDENTITY[scale][
                    report["benchmark"]]) == keys

    @pytest.mark.parametrize("key", ["events_fired", "fb_crc"])
    def test_edited_pin_fails_the_gate(self, micro_fig14, monkeypatch, key):
        pins = bench.PINNED_IDENTITY["micro"]["fig14"]
        monkeypatch.setitem(pins, key, pins[key] + 1)
        failures = bench.gate(micro_fig14)
        assert len(failures) == 1
        assert key in failures[0] and "pinned" in failures[0]

    def test_cli_gate_exit_code_follows_the_pin(self, monkeypatch, capsys):
        argv = ["bench", "--scale", "micro", "--only", "pipeline", "--gate"]
        assert main(argv) == 0
        pins = bench.PINNED_IDENTITY["micro"]["pipeline"]
        monkeypatch.setitem(pins, "cycles", pins["cycles"] + 1)
        assert main(argv) == 1
        assert "BENCH GATE: pipeline: cycles" in capsys.readouterr().out


def _fake_report(name="pipeline"):
    """A default-scale report that reproduces its pin, built without
    running the default scale."""
    return {
        "benchmark": name,
        "scale": "default",
        "workload": {"name": name, "width": 1, "height": 1},
        "identity": dict(bench.PINNED_IDENTITY["default"][name]),
        "generated_by": "python -m repro bench",
    }


def _fake_ffwd_report(**overrides):
    report = {
        "benchmark": "ffwd",
        "scale": "smoke",
        "identical": True,
        "errors": {"gpu_time": 0.01},
        "error_bound": 0.05,
        "speedup_sampled_vs_full": 2.0,
        "sampled": {"wall_s": 1.0},
        "full_detail": {"wall_s": 2.0, "fb_crc": 7},
        "ffwd": {"final_fb_crc": 7},
    }
    report.update(overrides)
    return report


class TestGate:
    def test_passes_clean_report(self):
        assert bench.gate(_fake_report()) == []
        assert bench.gate(_fake_ffwd_report()) == []

    def test_fails_on_identity_mismatch(self):
        report = _fake_report()
        report["identity"] = dict(report["identity"], fb_crc=999)
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "fb_crc" in failures[0]

    def test_noise_allowance(self):
        # A sampled run mildly slower than full detail stays within the
        # noise band; the band is adjustable.
        report = _fake_ffwd_report(speedup_sampled_vs_full=0.95)
        assert bench.gate(report) == []
        failures = bench.gate(report, min_sampled_speedup=0.99)
        assert len(failures) == 1
        assert "slower" in failures[0]

    def test_detects_seed_schedule_drift(self):
        report = _fake_report()
        report["identity"]["events_fired"] += 1
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "drifted" in failures[0]
        assert "events_fired" in failures[0]

    def test_seed_match_passes(self):
        for name in ("fig14", "pipeline"):
            assert bench.gate(_fake_report(name)) == []

    @pytest.mark.parametrize("name,key", [
        (name, key) for name in ("fig14", "pipeline")
        for key in bench.PINNED_IDENTITY["default"][name]])
    def test_edited_default_pin_fails_the_gate(self, monkeypatch, name, key):
        # Every default-scale key is gated, not only the seed's schedule
        # counters: row_hit_rate, mean_gpu_time, fragments, dram_bytes too.
        report = _fake_report(name)
        pins = bench.PINNED_IDENTITY["default"][name]
        monkeypatch.setitem(pins, key, pins[key] + 1)
        failures = bench.gate(report)
        assert len(failures) == 1
        assert key in failures[0] and "pinned" in failures[0]

    def test_unpinned_key_fails_the_gate(self):
        report = _fake_report()
        report["identity"]["wall_s"] = 1.0
        failures = bench.gate(report)
        assert len(failures) == 1 and "wall_s" in failures[0]


class TestSeedBaseline:
    def test_records_identity_pins(self):
        # The default-scale pins are the seed commit's fingerprints and
        # must match the committed goldens; if either workload's schedule
        # legitimately changes, re-record the pin, don't just edit these
        # numbers.
        default = bench.PINNED_IDENTITY["default"]
        assert default["fig14"]["end_tick"] == 1_357_432
        assert default["fig14"]["events_fired"] == 274_152
        assert default["pipeline"]["cycles"] == 35_612
        assert default["pipeline"]["events_fired"] == 125_678

    @pytest.mark.parametrize("name", ["fig14", "pipeline"])
    def test_committed_artifact_matches_the_default_pin(self, name):
        root = Path(__file__).resolve().parents[2]
        report = json.loads((root / f"BENCH_{name}.json").read_text())
        assert set(report) == REPORT_KEYS
        assert report["scale"] == "default"
        assert bench.gate(report) == []
