"""Benchmark discipline: identity-pinned, machine-independent gates.

This module times nothing it reports for the ``fig14`` and ``pipeline``
units: ``perfbench/`` is the one harness that measures wall time
(medians, spread, a layer split).  What lives here is what no other
harness checks — every run's identity fingerprint (end tick / cycles,
events fired, framebuffer CRC, ...) against its pin, and the sampled
mode's error and CRC gates.  Three workloads are tracked:

* ``fig14`` — the case-study-I unit behind Fig. 14 (M1 under the BAS
  memory system, high-load scenario): DRAM-scheduler-bound, the worst
  case for the event kernel and the FR-FCFS scan.
* ``pipeline`` — one :class:`~repro.gpu.gpu.EmeraldGPU` teapot frame:
  shader/raster-bound, the worst case for per-op dispatch.
* ``ffwd`` — sampled simulation (DESIGN.md §13) against full detail on
  the Fig. 14 scene: per-metric extrapolation error vs a symmetric
  per-frame ground truth, the fast-forward framebuffer-CRC identity
  check, and the sampled run's within-process speedup over full detail.
  It compares an *approximation* to the exact run, so the gate bounds
  the error (≤5 %) rather than demanding identity of the estimates —
  the CRC identity of the fast-forwarded run stays exact.

``fig14`` and ``pipeline`` run their workload once; their fingerprint
must equal :data:`PINNED_IDENTITY` for the run's scale, key for key.

Entry points: ``python -m repro bench`` (``--out`` writes
``BENCH_<name>.json``), and the CI smoke job (``--scale smoke --gate``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

#: Identity fingerprints of the ``fig14`` and ``pipeline`` runs, one
#: table for every scale; a pin's keys are the fingerprint.  ``default``
#: is the seed commit f9eb076's fingerprint (the tree immediately before
#: the compiled hot paths landed): a run must end at the same tick, fire
#: exactly as many events and draw the same framebuffer as the seed did.
#: The reduced scales were recorded at commit 38ff8ab — the last tree
#: that still carried a second, reference engine (heap-only event
#: kernel, decode-every-op warp interpreter) — where both engines
#: produced exactly these values.
PINNED_IDENTITY = {
    "default": {
        "fig14": {"end_tick": 1_357_432, "events_fired": 274_152,
                  "fb_crc": 967344438, "row_hit_rate": 0.7729785508955553,
                  "mean_gpu_time": 206497.33333333334},
        "pipeline": {"cycles": 35_612, "fragments": 6650,
                     "events_fired": 125_678, "fb_crc": 2197508556,
                     "dram_bytes": 146_944},
    },
    "smoke": {
        "fig14": {"end_tick": 240_000, "events_fired": 46_972,
                  "fb_crc": 723212397, "row_hit_rate": 0.2994871794871795,
                  "mean_gpu_time": 7703.0},
        "pipeline": {"cycles": 14_433, "fragments": 1690,
                     "events_fired": 58_735, "fb_crc": 4187011321,
                     "dram_bytes": 55_424},
    },
    "micro": {
        "fig14": {"end_tick": 120_000, "events_fired": 25_446,
                  "fb_crc": 511478711, "row_hit_rate": 0.3783783783783784,
                  "mean_gpu_time": 0.0},
        "pipeline": {"cycles": 9863, "fragments": 417,
                     "events_fired": 42_027, "fb_crc": 554418416,
                     "dram_bytes": 35_456},
    },
}

BENCHMARKS = ("fig14", "pipeline", "ffwd")
SCALES = ("default", "smoke", "micro")

#: Largest relative extrapolation error the ffwd gate tolerates, per
#: metric, at the default (Fig. 14) operating point.  The estimates are
#: deterministic simulation quantities, so this check is
#: machine-independent.  The reduced scales carry their own looser bound
#: (see :func:`_ffwd_operating_point`): their detailed windows measure
#: only one frame each, and per-frame variance at the tiny 48x36
#: workload is ~25% of the mean, so a 5% bound would gate on sampling
#: noise rather than bias.
FFWD_ERROR_BOUND = 0.05


def _timed(fn: Callable):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _fig14_config(scale: str):
    from repro.harness.case_study1 import CS1Config

    if scale == "default":
        # The benchmarks/conftest.py quick-mode operating point.
        return CS1Config(num_frames=4)
    if scale == "smoke":
        # The CI trace-smoke operating point: seconds, not minutes.
        return CS1Config(width=48, height=36, num_frames=2,
                         texture_size=64,
                         gpu_frame_period_ticks=120_000,
                         display_period_ticks=60_000,
                         cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    if scale == "micro":
        return CS1Config(width=48, height=36, num_frames=1,
                         texture_size=64,
                         gpu_frame_period_ticks=120_000,
                         display_period_ticks=60_000,
                         cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def _report(name: str, scale: str, workload: dict, identity: dict) -> dict:
    return {"benchmark": name, "scale": scale, "workload": workload,
            "identity": identity, "generated_by": "python -m repro bench"}


def run_fig14(scale: str = "default") -> dict:
    """Run the Fig. 14 unit (M1 / BAS / high load) and fingerprint it."""
    from repro.harness.case_study1 import make_cs1_soc

    config = _fig14_config(scale)
    soc = make_cs1_soc("M1", "BAS", "high", config=config)
    results = soc.run()
    identity = {
        "end_tick": results.end_tick,
        "events_fired": soc.events.events_fired,
        "fb_crc": soc.gpu.fb.crc(),
        "row_hit_rate": results.row_hit_rate,
        "mean_gpu_time": results.mean_gpu_time,
    }
    workload = {
        "name": "cs1 M1/BAS/high",
        "width": config.width, "height": config.height,
        "num_frames": config.num_frames,
    }
    return _report("fig14", scale, workload, identity)


def run_pipeline(scale: str = "default") -> dict:
    """Run one EmeraldGPU teapot frame and fingerprint it."""
    from repro.common.config import DRAMConfig, GPUConfig
    from repro.common.events import EventQueue
    from repro.gpu.gpu import EmeraldGPU
    from repro.harness.scenes import SceneSession
    from repro.memory.builders import build_baseline_memory

    sizes = {"default": (256, 192), "smoke": (128, 96), "micro": (64, 48)}
    if scale not in sizes:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    width, height = sizes[scale]

    frame = SceneSession("teapot", width, height).frame(0)
    events = EventQueue()
    memory = build_baseline_memory(events, DRAMConfig(channels=2))
    gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), width, height,
                     memory=memory)
    stats = gpu.run_frame(frame)
    identity = {
        "cycles": stats.cycles,
        "fragments": stats.fragments,
        "events_fired": events.events_fired,
        "fb_crc": gpu.fb.crc(),
        "dram_bytes": stats.dram_bytes,
    }
    workload = {"name": "gpu teapot frame", "width": width,
                "height": height, "clusters": 4, "channels": 2}
    return _report("pipeline", scale, workload, identity)


def _ffwd_operating_point(scale: str):
    """(CS1Config, sample spec, ffwd frames, error bound) per scale.

    The reduced scales use warmup 2: the post-switch cold transient at
    the 48x36 workload lasts ~2 frames (the first detailed frame after a
    mode switch runs ~5x steady state, the second ~2x), so a warmup-1
    schedule would measure frames still inside the transient.
    """
    from repro.harness.case_study1 import CS1Config

    if scale == "default":
        # Fig. 14 scene at its real resolution; 1/6 detailed coverage.
        return CS1Config(num_frames=36), "2:12:1", 18, FFWD_ERROR_BOUND
    small = dict(width=48, height=36, texture_size=64,
                 gpu_frame_period_ticks=120_000,
                 display_period_ticks=60_000,
                 cpu_work_per_frame=40, cpu_fixed_ticks=5_000)
    if scale == "smoke":
        return CS1Config(num_frames=24, **small), "3:8:2", 12, 0.10
    if scale == "micro":
        return CS1Config(num_frames=8, **small), "3:4:2", 4, 0.10
    raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def run_ffwd(scale: str = "default") -> dict:
    """Benchmark sampled simulation against full detail (Fig. 14 scene).

    Three runs of M1 / BAS / high load:

    1. **full detail** — the exact run, as one detailed window over every
       frame that measures all but the app warmup frame 0, so the ground
       truth is the sampler's own per-frame sample definition —
       asymmetric definitions would report definition error as
       extrapolation error;
    2. **sampled** — functional/detailed alternation under the scale's
       schedule, extrapolated with error bars;
    3. **fast-forward** — half the frames functional, rest detailed; its
       final framebuffer must be CRC-identical to the full-detail run's
       (the mode-switch exactness check, same contract CI's
       ``repro ffwd --verify`` gates on).
    """
    from repro.harness.case_study1 import make_cs1_setup
    from repro.sampling import (Window, fast_forward, parse_sample_spec,
                                run_sampled)
    from repro.sampling.sampler import _run_detailed
    from repro.sampling.stats import SAMPLE_METRICS

    config, spec, ffwd_frames, error_bound = _ffwd_operating_point(scale)
    run_config, factory = make_cs1_setup("M1", "BAS", "high", config=config)
    schedule = parse_sample_spec(spec, config.num_frames)

    # 1. Full detail with symmetric per-frame ground truth.
    whole_run = Window(0, config.num_frames, "detailed", measure_from=1)
    wall_full, (truth, full_fb_crc) = _timed(
        lambda: _run_detailed(run_config, factory, whole_run, None))
    ground_truth = {metric: truth.metric(metric) for metric in SAMPLE_METRICS}

    # 2. Sampled run + extrapolation.
    wall_sampled, sampled = _timed(
        lambda: run_sampled(run_config, factory, schedule))
    errors = {
        metric: abs(sampled.estimates[metric].mean - ground_truth[metric])
        / abs(ground_truth[metric])
        for metric in SAMPLE_METRICS
    }

    # 3. Fast-forward CRC identity.
    wall_ffwd, ffwd = _timed(
        lambda: fast_forward(run_config, factory, ffwd_frames))
    crc_identical = ffwd.final_fb_crc == full_fb_crc

    workload = {
        "name": "cs1 M1/BAS/high sampled",
        "width": config.width, "height": config.height,
        "num_frames": config.num_frames, "sample": schedule.spec(),
        "ffwd_frames": ffwd_frames,
    }
    return {
        "benchmark": "ffwd",
        "scale": scale,
        "workload": workload,
        "full_detail": {
            "wall_s": round(wall_full, 4),
            "fb_crc": full_fb_crc,
            "per_frame": {k: round(v, 4) for k, v in ground_truth.items()},
        },
        "sampled": {
            "wall_s": round(wall_sampled, 4),
            "wall_functional": round(sampled.wall_functional, 4),
            "wall_detailed": round(sampled.wall_detailed, 4),
            "coverage": schedule.coverage,
            "windows": len(sampled.samples),
            "estimates": {name: est.as_dict()
                          for name, est in sampled.estimates.items()},
            "fps": sampled.extrapolated.fps,
        },
        "ffwd": {
            "wall_s": round(wall_ffwd, 4),
            "final_fb_crc": ffwd.final_fb_crc,
            "speedup_vs_full": round(wall_full / wall_ffwd, 3),
        },
        "errors": {k: round(v, 5) for k, v in errors.items()},
        "error_bound": error_bound,
        "identical": crc_identical,
        "identity": {"fb_crc": full_fb_crc},
        "speedup_sampled_vs_full": round(wall_full / wall_sampled, 3),
        "generated_by": "python -m repro bench",
    }


def gate(report: dict, min_sampled_speedup: float = 0.9) -> list:
    """Machine-independent pass/fail checks for one report.

    Returns a list of failure strings (empty = pass).  ``fig14`` and
    ``pipeline`` fail on any drift from their :data:`PINNED_IDENTITY`
    entry, key for key; ``ffwd`` fails on a fast-forward CRC mismatch,
    an extrapolation error over its bound, or a sampled run slower than
    full detail beyond the noise allowance (``min_sampled_speedup``).
    """
    failures = []
    name = report["benchmark"]
    if name == "ffwd":
        if not report["identical"]:
            failures.append(
                f"ffwd: fast-forwarded final framebuffer CRC "
                f"{report['ffwd']['final_fb_crc']} != full-detail "
                f"{report['full_detail']['fb_crc']} — the mode switch "
                f"changed the simulation")
        bound = report["error_bound"]
        for metric, error in report["errors"].items():
            if error > bound:
                failures.append(
                    f"ffwd: {metric} extrapolation error {error * 100:.2f}% "
                    f"exceeds the {bound * 100:.0f}% bound")
        if report["speedup_sampled_vs_full"] < min_sampled_speedup:
            failures.append(
                f"ffwd: sampled run is slower than full detail "
                f"({report['sampled']['wall_s']:.3f}s vs "
                f"{report['full_detail']['wall_s']:.3f}s, ratio "
                f"{report['speedup_sampled_vs_full']:.3f} < "
                f"{min_sampled_speedup})")
        return failures
    identity = report["identity"]
    pins = PINNED_IDENTITY[report["scale"]][name]
    for key in sorted(pins.keys() | identity.keys()):
        if identity.get(key) != pins.get(key):
            failures.append(
                f"{name}: {key} {identity.get(key)} != pinned "
                f"{pins.get(key)} at scale {report['scale']} — the "
                f"simulation drifted from the pinned fingerprint")
    return failures


def artifact_name(report: dict) -> str:
    return f"BENCH_{report['benchmark']}.json"


def write_report(report: dict, out_dir: str = ".") -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / artifact_name(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def format_summary(report: dict) -> str:
    """Human-readable one-benchmark summary for ``bench --summary``."""
    workload = report["workload"]
    if report["benchmark"] == "ffwd":
        full, sampled = report["full_detail"], report["sampled"]
        lines = [f"ffwd ({report['scale']}): {workload['name']} "
                 f"{workload['width']}x{workload['height']} "
                 f"x{workload['num_frames']} frames, "
                 f"sample {workload['sample']}"]
        lines.append(f"  full detail   {full['wall_s']:>7.3f}s")
        lines.append(f"  sampled       {sampled['wall_s']:>7.3f}s  "
                     f"({sampled['coverage'] * 100:.0f}% coverage, "
                     f"{sampled['windows']} windows)  "
                     f"{report['speedup_sampled_vs_full']:.2f}x")
        lines.append(f"  fast-forward  {report['ffwd']['wall_s']:>7.3f}s  "
                     f"{report['ffwd']['speedup_vs_full']:.2f}x  "
                     f"(fb CRC identical: {report['identical']})")
        errors = "  ".join(f"{k} {v * 100:.2f}%"
                           for k, v in report["errors"].items())
        lines.append(f"  extrapolation error (bound "
                     f"{report['error_bound'] * 100:.0f}%): {errors}")
        return "\n".join(lines)
    lines = [f"{report['benchmark']} ({report['scale']}): "
             f"{workload['name']} {workload['width']}x{workload['height']}"]
    lines += [f"  {key:<14}{value}"
              for key, value in report["identity"].items()]
    failures = gate(report)
    lines.append(f"  identity: {'DRIFTED' if failures else 'matches pin'}")
    return "\n".join(lines)


def run(names=BENCHMARKS, scale: str = "default") -> list:
    runners = {"fig14": run_fig14, "pipeline": run_pipeline,
               "ffwd": run_ffwd}
    return [runners[name](scale) for name in names]
