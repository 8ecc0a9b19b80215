"""One benchmark run: set up a workload, run operations for a fixed time,
check them, and reduce them to metrics.

``trace=False`` reports the end-to-end metrics (:data:`END_TO_END`);
``trace=True`` reports the per-layer metrics (:data:`PER_LAYER`).  The
traced run spends the first half of its time on operations with only the
span wrappers installed — their counters and walls are the untraced
baseline — and the second half on operations whose simulation calls run
under :mod:`cProfile`, from which each layer's self time comes.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import math
import os
import pstats
import resource
import shutil
import subprocess
import sys
import time
from statistics import fmean, median

from perfbench import layers, probe, tracing
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything the benchmark writes lives under this checkout directory.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters that each time ``import repro`` plus assembly.
SETUP_PROBES = 3

#: End-to-end metric -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "kinsts_per_s": "kinst/s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit.  ``*.self_s`` are profiler self times per
#: traced operation; other times are span totals per operation, except
#: the ``shader.compile*`` pair, which covers set-up and the first
#: operation, where a process compiles its shaders.
PER_LAYER = {
    "events.fired": "count",
    "events.self_s": "s",
    "events.us_per_event": "us",
    "simt_core.ticks": "count",
    "simt_core.issue_ratio": "ratio",
    "simt_core.warp_insts": "count",
    "simt_core.self_s": "s",
    "shader.compiles": "count",
    "shader.compile_s": "s",
    "shader.exec_self_s": "s",
    "pipeline.fragments": "count",
    "pipeline.prims_rasterized": "count",
    "pipeline.hiz_culled_fragments": "count",
    "pipeline.self_s": "s",
    "gpu.self_s": "s",
    "caches.l1_accesses": "count",
    "caches.l1_hit_rate": "ratio",
    "caches.l2_hit_rate": "ratio",
    "caches.mshr_merges": "count",
    "caches.self_s": "s",
    "ports.packets": "count",
    "ports.rejected": "count",
    "ports.stall_ticks": "ticks",
    "ports.self_s": "s",
    "memory.dram_requests": "count",
    "memory.row_hit_rate": "ratio",
    "memory.bytes": "B",
    "memory.gpu_latency_ticks": "ticks",
    "memory.self_s": "s",
    "soc.display_aborted": "count",
    "soc.cpu_stalled_sends": "count",
    "soc.self_s": "s",
    "stats.self_s": "s",
    "scene.frame_s": "s",
    "scene.self_s": "s",
    "checkpoint.captures": "count",
    "checkpoint.capture_s": "s",
    "checkpoint.restore_s": "s",
    "checkpoint.bytes": "B",
    "checkpoint.self_s": "s",
    "sampling.functional_s": "s",
    "sampling.detailed_s": "s",
    "sampling.functional_frames": "count",
    "sampling.detailed_frames": "count",
    "sampling.self_s": "s",
    "sample_err_max": "ratio",
    "fleet.executed": "count",
    "fleet.cache_hits": "count",
    "fleet.attempts": "count",
    "fleet.cache_lookup_s": "s",
    "fleet.cache_store_s": "s",
    "fleet.run_job_s": "s",
    "fleet.idle_share": "ratio",
    "fleet.self_s": "s",
    "health.self_s": "s",
    "harness.self_s": "s",
    "benchmark.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}

#: Profiler layer -> the per-layer metric carrying its self time.
SELF_METRIC = {layer: f"{layer}.self_s" for layer in layers.LAYERS}
SELF_METRIC["shader"] = "shader.exec_self_s"


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- set-up time ------------------------------------------------------------

def setup_probe(workload: str, seed: int, size: str, started: float) -> dict:
    """Import ``repro`` and assemble ``workload``; ``started`` is the
    ``perf_counter`` taken before the import."""
    import repro  # noqa: F401  (the import is part of what is timed)

    workdir = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    try:
        WORKLOADS[workload](seed, size, workdir).setup()
        return {"setup_s": time.perf_counter() - started}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(workload: str, seed: int, size: str) -> list[float]:
    """Set-up times of fresh interpreters."""
    script = os.path.join(ROOT, "perfbench", "run.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, script, "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--size", size],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


# -- the run ----------------------------------------------------------------

def _op_loop(workload, sink, seconds: float, min_ops: int,
             profiler=None, spans=None, on_op=None) -> list:
    """Run operations until ``seconds`` have passed (at least ``min_ops``)."""
    ops = []
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        if spans is not None:
            spans.op += 1
        timer = tracing.Timer(profiler=profiler, spans=spans)
        result = workload.op(timer)
        records = sink.drain()
        if result.counts is None:
            result.counts = probe.sum_counts(records)
        result.spans = [r for r in records if r["kind"] == "span"]
        ops.append(result)
        if on_op is not None:
            on_op(result)
    return ops


def _peak_rss_mb(with_workers: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _end_to_end(ops: list, setup_samples: list[float],
                with_workers: bool) -> dict:
    return {
        "wall_s": median(op.wall for op in ops),
        "setup_s": median(setup_samples),
        "frames_per_s": median(op.frames / op.wall for op in ops),
        "kinsts_per_s": median(op.counts["warp_insts"] / op.wall / 1e3
                               for op in ops),
        "jobs_per_s": median(op.jobs / op.wall for op in ops),
        "peak_rss_mb": _peak_rss_mb(with_workers),
    }


def _op_spans(op) -> list[dict]:
    """The operation's spans, without those of its correctness check."""
    return [span for span in op.spans if not span["checking"]]


def _span_metrics(ops: list, workers: int, wall: float) -> dict:
    """Span-derived per-layer values, per operation (means over ``ops``)."""
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    size = 0
    for op in ops:
        for span in _op_spans(op):
            name = span["name"]
            totals[name] = totals.get(name, 0.0) + span["end"] - span["start"]
            counts[name] = counts.get(name, 0) + 1
            size += span["bytes"]
    n = max(1, len(ops))
    run_job = totals.get("fleet.run_job", 0.0) / n
    return {
        "scene.frame_s": totals.get("scene.frame", 0.0) / n,
        "checkpoint.captures": counts.get("checkpoint.capture", 0) / n,
        "checkpoint.capture_s": totals.get("checkpoint.capture", 0.0) / n,
        "checkpoint.restore_s": totals.get("checkpoint.restore", 0.0) / n,
        "checkpoint.bytes": size / n,
        "fleet.cache_lookup_s": totals.get("fleet.cache_lookup", 0.0) / n,
        "fleet.cache_store_s": totals.get("fleet.cache_store", 0.0) / n,
        "fleet.run_job_s": run_job,
        "fleet.idle_share": (1.0 - run_job / (workers * wall)
                             if workers and wall else 0.0),
    }


def _count_metrics(counts: dict, wall: float) -> dict:
    return {
        "events.fired": counts["events_fired"],
        "events.us_per_event": _ratio(wall * 1e6, counts["events_fired"]),
        "simt_core.warp_insts": counts["warp_insts"],
        "pipeline.fragments": counts["fragments"],
        "pipeline.prims_rasterized": counts["prims_rasterized"],
        "pipeline.hiz_culled_fragments": counts["hiz_culled_fragments"],
        "caches.l1_accesses": counts["l1_accesses"],
        "caches.l1_hit_rate": _ratio(counts["l1_hits"],
                                     counts["l1_accesses"]),
        "caches.l2_hit_rate": _ratio(counts["l2_hits"],
                                     counts["l2_accesses"]),
        "caches.mshr_merges": counts["mshr_merges"],
        "ports.packets": counts["packets"],
        "ports.rejected": counts["rejected"],
        "ports.stall_ticks": counts["stall_ticks"],
        "memory.dram_requests": counts["dram_requests"],
        "memory.row_hit_rate": _ratio(counts["row_hits"],
                                      counts["row_accesses"]),
        "memory.bytes": counts["dram_bytes"],
        "memory.gpu_latency_ticks": _ratio(counts["gpu_latency_sum"],
                                           counts["gpu_latency_n"]),
        "soc.display_aborted": counts["display_aborted"],
        "soc.cpu_stalled_sends": counts["cpu_stalled_sends"],
    }


def _sample_error(workload, ops: list) -> float:
    """Largest relative error of the sampled estimates against full
    detail over the same frames and seed (cached per code version)."""
    from repro.fleet import code_version

    config = workload.config
    path = os.path.join(
        OUT_DIR, "cache",
        f"truth-{code_version()}-{config.width}x{config.height}"
        f"-{config.num_frames}-seed{config.seed}.json")
    if os.path.exists(path):
        with open(path) as handle:
            truth = json.load(handle)
    else:
        truth = workload.ground_truth()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(f"{path}.tmp", "w") as handle:
            json.dump(truth, handle)
        os.replace(f"{path}.tmp", path)
    estimates = ops[-1].extra["estimates"]
    return max(abs(estimates[name] - value) / abs(value)
               for name, value in truth.items())


def _per_layer(workload, untraced: list, traced: list,
               profiler: cProfile.Profile, compiled: list[dict]) -> dict:
    wall = fmean(op.wall for op in untraced)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(_count_metrics(untraced[-1].counts, wall))
    metrics.update(_span_metrics(untraced, workload.workers, wall))
    for name in untraced[-1].layer_metrics:
        metrics[name] = median(op.layer_metrics[name] for op in untraced)
    metrics["shader.compiles"] = len(compiled)
    metrics["shader.compile_s"] = sum(span["end"] - span["start"]
                                      for span in compiled)
    if hasattr(workload, "ground_truth"):
        metrics["sample_err_max"] = _sample_error(workload, untraced)
    n = len(traced)
    seconds, calls = layers.rollup(pstats.Stats(profiler),
                                   layers.LayerMap())
    for layer, total in seconds.items():
        metrics[SELF_METRIC[layer]] = total / n
    ticks = calls.get("simt_core.py:_cycle", 0)
    metrics["simt_core.ticks"] = ticks / n
    metrics["simt_core.issue_ratio"] = _ratio(
        sum(op.counts["busy_cycles"] for op in traced), ticks)
    traced_wall = fmean(op.wall for op in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - sum(
        metrics[SELF_METRIC[layer]] for layer in seconds)
    metrics["trace.overhead"] = _ratio(traced_wall, wall) - 1.0
    return metrics


def _traced(workload, sink, seconds: float, on_op) -> tuple[list, dict]:
    """The per-layer run: (operations, metrics); writes the spans."""
    with tracing.SpanRecorder(sink) as spans:
        workload.setup()
        setup_spans = [r for r in sink.drain() if r["kind"] == "span"]
        spans.phase = "untraced"
        untraced = _op_loop(workload, sink, seconds / 2, 1, spans=spans,
                            on_op=on_op)
        spans.phase = "profiled"
        profiler = cProfile.Profile()
        traced = _op_loop(workload, sink, seconds / 2, 1, profiler=profiler,
                          spans=spans, on_op=on_op)
    # A process compiles its shaders once (the fleet: once per worker),
    # so set-up and the first operation hold every compile.
    compiled = [span for span in setup_spans + _op_spans(untraced[0])
                if span["compiled"]]
    metrics = _per_layer(workload, untraced, traced, profiler, compiled)
    tracing.write_spans(
        os.path.join(OUT_DIR, "traces",
                     f"{workload.name}-seed{workload.seed}.json"),
        setup_spans + [span for op in untraced + traced
                       for span in op.spans])
    return untraced + traced, metrics


def tally(ops: list) -> tuple[int, int]:
    """(outputs checked, outputs that failed their check)."""
    return (sum(op.attempted for op in ops),
            sum(min(op.attempted, len(op.failures)) for op in ops))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run; returns the result document."""
    import repro  # noqa: F401  (fails here, before any work, without src/)

    if not trace:
        setup_samples = _measure_setup(workload_name, seed, size)
        _log("setup_s samples: "
             + ", ".join(f"{sample:.4f}" for sample in setup_samples))
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    sink = probe.Sink(os.path.join(workdir, "sink"))
    workload = WORKLOADS[workload_name](seed, size,
                                        os.path.join(workdir, "work"))

    def show(op) -> None:
        _log(f"  op wall {op.wall:.4f}s frames {op.frames} jobs {op.jobs}"
             + (f" FAILED: {'; '.join(op.failures)}" if op.failures else ""))

    try:
        with (probe.SocRunProbe(sink) if workload.uses_soc_probe
              else contextlib.nullcontext()):
            if trace:
                ops, metrics = _traced(workload, sink, seconds, show)
            else:
                workload.setup()
                ops = _op_loop(workload, sink, seconds, 1, on_op=show)
                metrics = _end_to_end(ops, setup_samples,
                                      workload.workers > 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = tally(ops)
    _log(f"failed_share: {failed}/{attempted}")
    for failure in (f for op in ops for f in op.failures):
        _log(f"  check failed: {failure}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
