"""Tier-1 coverage for the benchmark discipline (repro.bench).

The micro scale keeps these fast enough for every test run; the heavier
operating points live in ``benchmarks/`` and CI's bench smoke job.
"""

import json

import pytest

from repro import bench
from repro.__main__ import main


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
        for key in ("cycles", "fragments", "events_fired", "fb_crc",
                    "dram_bytes"):
            assert report["run"][key] == report["identity"][key]
        assert report["run"]["fragments"] > 0
        assert report["speedup_vs_seed"] is None  # only at default scale

    def test_fig14_identity(self, micro_fig14):
        report = micro_fig14
        assert report["identity"] == bench.PINNED_IDENTITY["micro"]["fig14"]
        for key in ("end_tick", "events_fired", "fb_crc", "row_hit_rate",
                    "mean_gpu_time"):
            assert report["run"][key] == report["identity"][key]
        assert report["run"]["events_fired"] > 0

    def test_report_shape(self, micro_pipeline):
        report = micro_pipeline
        for key in ("benchmark", "scale", "workload", "run", "identity",
                    "seed_baseline", "speedup_vs_seed", "host"):
            assert key in report
        # The artifact must round-trip through JSON (CI uploads it).
        assert json.loads(json.dumps(report)) == report

    def test_write_report(self, micro_pipeline, tmp_path):
        path = bench.write_report(micro_pipeline, tmp_path / "artifacts")
        assert path.name == "BENCH_pipeline.json"
        assert json.loads(path.read_text())["benchmark"] == "pipeline"

    def test_format_summary(self, micro_pipeline):
        text = bench.format_summary(micro_pipeline)
        assert "pipeline (micro)" in text
        assert "events/s" in text and "frags/s" in text

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

    def test_every_reduced_scale_pins_both_workloads(self):
        for scale in ("smoke", "micro"):
            for name in ("fig14", "pipeline"):
                assert set(bench.PINNED_IDENTITY[scale][name]) \
                    == set(bench._IDENTITY[name])

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


def _fake_report(**overrides):
    report = {
        "benchmark": "pipeline",
        "scale": "default",
        "run": {"wall_s": 1.0, "cycles": 100, "fragments": 10,
                "events_fired": 50, "fb_crc": 123, "dram_bytes": 640},
        "identity": {"cycles": 100, "fragments": 10, "events_fired": 50,
                     "fb_crc": 123, "dram_bytes": 640},
        "seed_baseline": {"wall_s": 2.0, "cycles": 100, "events_fired": 50,
                          "fb_crc": 123, "commit": "abc1234"},
    }
    report.update(overrides)
    return report


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
        report = _fake_report(
            seed_baseline={"wall_s": 2.0, "cycles": 100, "events_fired": 51,
                           "fb_crc": 123, "commit": "abc1234"})
        failures = bench.gate(report)
        assert len(failures) == 1
        assert "drifted" in failures[0]
        assert "events_fired" in failures[0]

    def test_seed_match_passes(self):
        report = _fake_report()
        assert bench.pinned_identity(report) == {
            "cycles": 100, "events_fired": 50, "fb_crc": 123}
        assert bench.gate(report) == []


class TestSeedBaseline:
    def test_records_identity_pins(self):
        # The recorded seed fingerprints must match the committed goldens;
        # if either workload's schedule legitimately changes, re-measure
        # the seed baseline, don't just edit these numbers.
        assert bench.SEED_BASELINE["fig14"]["end_tick"] == 1_357_432
        assert bench.SEED_BASELINE["fig14"]["events_fired"] == 274_152
        assert bench.SEED_BASELINE["pipeline"]["cycles"] == 35_612
        assert bench.SEED_BASELINE["pipeline"]["events_fired"] == 125_678
