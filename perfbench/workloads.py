"""The four benchmark workloads.

Each workload turns the seed into inputs (configs, frame indices, job
specs), assembles the simulator in :meth:`setup`, and runs one operation
per :meth:`op`.  An operation times only the simulation calls, through
the ``timed`` callable it is given, and then checks every output it
produced; a failed check is counted, never raised.

===============  ===========================================================
workload         one operation
===============  ===========================================================
``soc_m1_high``  case study I, M1 (chair) / BAS / high load, 128x96, 4
                 frames: the Fig. 14 unit of ``BENCH_fig14.json``
``gpu_teapot``   one standalone ``EmeraldGPU`` teapot frame, 256x192, 4
                 clusters, 2 DRAM channels: the ``BENCH_pipeline.json``
                 unit; the seed picks four frame indices a quarter orbit
                 apart, which the operations cycle through
``sampled_m1``   ``run_sampled`` on the M1 / BAS / high scene, 36 frames,
                 schedule ``2:12:1`` (as ``BENCH_ffwd.json``)
``fleet_sweep``  two ``run_sweep`` waves on 2 workers with a fresh result
                 cache: 6 cold jobs, then their 6 repeats (cache hits)
                 plus 2 new jobs; full-detail, ``ffwd`` and ``sample``
                 specs of the 48x36 chair scene
===============  ===========================================================
"""

from __future__ import annotations

import math
import os
import random
import shutil
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

SIZES = ("full", "small")

#: Frames per camera revolution of a scene session (orbit step 0.05 rad).
_ORBIT_FRAMES = 125
_TEAPOT_FRAMES_PER_RUN = 4


@dataclass
class OpResult:
    """One operation: its timed wall, simulated work and check verdicts."""

    wall: float
    frames: int                      # simulated frames completed
    jobs: int                        # runs, GPU frames or sweep jobs done ok
    attempted: int                   # outputs checked
    failures: list[str] = field(default_factory=list)
    counts: Optional[dict] = None    # harvested here; None: from the probe
    layer_metrics: dict = field(default_factory=dict)   # by metric name
    extra: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # recorded in a traced run


def _small_cs1(**overrides):
    """The reduced case-study-I operating point the benchmark tests use."""
    from repro.harness.case_study1 import CS1Config

    return CS1Config(width=48, height=36, texture_size=64,
                     gpu_frame_period_ticks=120_000,
                     display_period_ticks=60_000,
                     cpu_work_per_frame=40, cpu_fixed_ticks=5_000,
                     **overrides)


class _References:
    """``ReferenceRenderer`` images, memoized by a caller-chosen key."""

    def __init__(self) -> None:
        self._images: dict = {}

    def color(self, key, width: int, height: int, make_frame: Callable):
        if key not in self._images:
            from repro.pipeline.renderer import ReferenceRenderer

            fb, _ = ReferenceRenderer(width, height).render(make_frame())
            self._images[key] = fb.color
        return self._images[key]

    def scene(self, model: str, width: int, height: int, index: int,
              texture_size: int = 64):
        """Reference image of frame ``index`` of a fresh scene session."""
        from repro.harness.scenes import SceneSession

        def make_frame():
            return SceneSession(model, width, height,
                                texture_size=texture_size).frame(index)

        return self.color((model, width, height, texture_size, index),
                          width, height, make_frame)

    def scene_crc(self, *args) -> int:
        return zlib.crc32(self.scene(*args).tobytes())


def _fb_check(label: str, color, reference) -> list[str]:
    import numpy as np

    if np.array_equal(color, reference):
        return []
    return [f"{label}: framebuffer differs from ReferenceRenderer"]


class SocM1High:
    """Full-system Fig. 14 unit: DRAM-bound, event-kernel heavy."""

    name = "soc_m1_high"
    uses_soc_probe = False
    workers = 0

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        from repro.harness.case_study1 import CS1Config

        self.config = (CS1Config(num_frames=4, seed=seed) if size == "full"
                       else _small_cs1(num_frames=2, seed=seed))
        self.references = _References()
        self._soc = None

    def _assemble(self):
        from repro.harness.case_study1 import make_cs1_soc

        return make_cs1_soc("M1", "BAS", "high", config=self.config)

    def setup(self) -> None:
        self._soc = self._assemble()

    def op(self, timed: Callable) -> OpResult:
        from repro.harness.scenes import CASE_STUDY1_SCENES
        from perfbench.probe import harvest_soc

        soc, self._soc = self._soc or self._assemble(), None
        results = timed(soc.run)
        config = self.config
        failures = []
        if len(results.frames) != config.num_frames:
            failures.append(f"{len(results.frames)} of {config.num_frames} "
                            f"frames completed")
        failures += _fb_check(
            "soc last frame", soc.gpu.fb.color,
            self.references.scene(CASE_STUDY1_SCENES["M1"], config.width,
                                  config.height, config.num_frames - 1,
                                  config.texture_size))
        return OpResult(wall=timed.elapsed, frames=len(results.frames),
                        jobs=0 if failures else 1, attempted=1,
                        failures=failures, counts=harvest_soc(soc),
                        extra={"end_tick": results.end_tick,
                               "fb_crc": zlib.crc32(
                                   soc.gpu.fb.color.tobytes())})


class GpuTeapot:
    """GPU-only teapot frames: shader, raster and cache heavy."""

    name = "gpu_teapot"
    uses_soc_probe = False
    workers = 0

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.width, self.height = (256, 192) if size == "full" else (64, 48)
        quarter = _ORBIT_FRAMES // _TEAPOT_FRAMES_PER_RUN
        offset = random.Random(seed).randrange(quarter)
        self.indices = [offset + quarter * j
                        for j in range(_TEAPOT_FRAMES_PER_RUN)]
        self.references = _References()
        self._ops = 0
        self._session = None
        self._gpu = None

    def _assemble(self):
        from repro.common.config import DRAMConfig, GPUConfig
        from repro.common.events import EventQueue
        from repro.gpu.gpu import EmeraldGPU
        from repro.memory.builders import build_baseline_memory

        events = EventQueue()
        memory = build_baseline_memory(events, DRAMConfig(channels=2))
        gpu = EmeraldGPU(events, GPUConfig(num_clusters=4), self.width,
                         self.height, memory=memory)
        return gpu, memory, events

    def setup(self) -> None:
        from repro.harness.scenes import SceneSession

        self._session = SceneSession("teapot", self.width, self.height)
        self._gpu = self._assemble()

    def op(self, timed: Callable) -> OpResult:
        from perfbench.probe import harvest_gpu

        index = self.indices[self._ops % len(self.indices)]
        self._ops += 1
        frame = self._session.frame(index)
        (gpu, memory, events), self._gpu = (self._gpu or self._assemble(),
                                            None)
        stats = timed(gpu.run_frame, frame)
        reference = self.references.color(index, self.width, self.height,
                                          lambda: frame)
        failures = _fb_check(f"teapot frame {index}", gpu.fb.color,
                             reference)
        return OpResult(wall=timed.elapsed, frames=1,
                        jobs=0 if failures else 1, attempted=1,
                        failures=failures,
                        counts=harvest_gpu(gpu, memory, events),
                        extra={"frame": index, "cycles": stats.cycles,
                               "fb_crc": zlib.crc32(
                                   gpu.fb.color.tobytes())})


class SampledM1:
    """Sampled simulation of the Fig. 14 scene: functional replay,
    checkpoint capture/restore and cold detailed windows."""

    name = "sampled_m1"
    uses_soc_probe = True
    workers = 0

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        if size == "full":
            from repro.harness.case_study1 import CS1Config

            self.config, self.spec = CS1Config(num_frames=36,
                                               seed=seed), "2:12:1"
        else:
            self.config, self.spec = _small_cs1(num_frames=8,
                                                seed=seed), "3:4:2"
        self.references = _References()
        self.run_config = self.factory = self.schedule = None

    def setup(self) -> None:
        from repro.harness.case_study1 import make_cs1_setup
        from repro.sampling import parse_sample_spec

        self.run_config, self.factory = make_cs1_setup(
            "M1", "BAS", "high", config=self.config)
        self.schedule = parse_sample_spec(self.spec, self.config.num_frames)

    def op(self, timed: Callable) -> OpResult:
        from repro.harness.scenes import CASE_STUDY1_SCENES
        from repro.sampling import run_sampled

        result = timed(run_sampled, self.run_config, self.factory,
                       self.schedule)
        config = self.config
        failures = []
        for metric, estimate in result.estimates.items():
            if not (math.isfinite(estimate.mean)
                    and math.isfinite(estimate.stderr)):
                failures.append(f"estimate {metric} is not finite")
        simulated = result.frames_functional + result.frames_detailed
        if simulated != config.num_frames:
            failures.append(f"{simulated} of {config.num_frames} frames "
                            f"simulated")
        reference = self.references.scene_crc(
            CASE_STUDY1_SCENES["M1"], config.width, config.height,
            result.final_detailed_frame, config.texture_size)
        if result.final_detailed_fb_crc != reference:
            failures.append(f"last detailed frame "
                            f"{result.final_detailed_frame}: framebuffer "
                            f"differs from ReferenceRenderer")
        return OpResult(
            wall=timed.elapsed, frames=simulated,
            jobs=0 if failures else 1, attempted=1, failures=failures,
            layer_metrics={
                "sampling.functional_s": result.wall_functional,
                "sampling.detailed_s": result.wall_detailed,
                "sampling.functional_frames": result.frames_functional,
                "sampling.detailed_frames": result.frames_detailed},
            extra={"estimates": {name: est.mean for name, est
                                 in result.estimates.items()}})

    def ground_truth(self) -> dict:
        """Per-frame means of the sampled metrics over a full-detail run.

        The same definitions the sampler uses for its window samples:
        deltas between frame boundaries, the warmup frame 0 excluded.
        """
        from dataclasses import replace

        from repro.gpu.energy import frame_energy, gpu_activity_snapshot
        from repro.sampling.stats import SAMPLE_METRICS
        from repro.soc.soc import EmeraldSoC

        per_frame: dict[int, dict] = {}
        cell: dict = {}

        def hook(frame_index: int, tick: int) -> None:
            soc = cell["soc"]
            activity = gpu_activity_snapshot(soc.gpu)
            per_frame[frame_index] = {
                "total_bytes": soc.memory.total_bytes(),
                "issued": activity["issued"],
                "l1_accesses": activity["l1_accesses"]}

        session = self.factory()
        soc = cell["soc"] = EmeraldSoC(
            replace(self.run_config, frame_hook=hook), session.frame,
            session.framebuffer_address)
        results = soc.run()
        previous = {"total_bytes": 0, "issued": 0, "l1_accesses": 0}
        rows = []
        for record in results.frames:
            entry = per_frame[record.index]
            delta = {key: entry[key] - previous[key] for key in entry}
            previous = entry
            if record.index == 0:
                continue
            rows.append((record.gpu_time, record.total_time,
                         delta["total_bytes"],
                         frame_energy(record.gpu_stats, delta["issued"],
                                      delta["l1_accesses"]).total_uj))
        return {metric: sum(row[i] for row in rows) / len(rows)
                for i, metric in enumerate(SAMPLE_METRICS)}


def _fleet_specs(seed: int, size: str):
    """(wave 1, wave 2): cold jobs, then their repeats plus new jobs."""
    from repro.fleet import JobSpec

    rng = random.Random(seed)
    kinds = {"full": dict(frames=3), "ffwd": dict(frames=4, ffwd=2),
             "sample": dict(frames=8, sample="1:4:0")}

    def jobs(names):
        specs = []
        for kind in names:
            job_seed = rng.randrange(1 << 20)
            specs.append(JobSpec(name=f"{kind}-{job_seed}", model="chair",
                                 seed=job_seed, **kinds[kind]))
        return specs

    if size == "full":
        first = jobs(["full", "ffwd", "sample", "full", "ffwd", "sample"])
        return first, first + jobs(["full", "ffwd"])
    first = jobs(["full", "ffwd"])
    return first, first + jobs(["full"])


class FleetSweep:
    """One-shot sweeps: spawn, polling, result-cache publish and lookup."""

    name = "fleet_sweep"
    uses_soc_probe = True
    workers = 2

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.waves = _fleet_specs(seed, size)
        self.references = _References()
        self._ops = 0
        self._config = None

    def setup(self) -> None:
        self._config = self._fresh_dirs()

    def _fresh_dirs(self):
        from repro.fleet import FleetConfig

        base = os.path.join(self.workdir, f"sweep-{self._ops}")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(os.path.join(base, "cache"))
        return FleetConfig(workers=self.workers,
                           cache_dir=os.path.join(base, "cache"))

    def op(self, timed: Callable) -> OpResult:
        from repro.fleet import run_sweep

        config, self._config = self._config or self._fresh_dirs(), None
        base = os.path.dirname(config.cache_dir)
        reports = [timed(run_sweep, wave, config,
                         workdir=os.path.join(base, f"wave{i}"))
                   for i, wave in enumerate(self.waves)]
        self._ops += 1
        shutil.rmtree(base, ignore_errors=True)
        records = [record for report in reports for record in report.records]
        failures = [f"job {record.spec.name}: {record.outcome}"
                    for record in records if not record.ok]
        executed = {}
        for record in reports[0].records:
            if record.ok:
                executed[record.key] = record.payload
        for record in reports[1].records:
            if record.ok and record.cache_hit and \
                    record.payload != executed.get(record.key):
                failures.append(f"job {record.spec.name}: cache-hit payload "
                                f"differs from the executed payload")
        for record in records:
            if record.ok and not record.cache_hit:
                failures += self._check_payload(record)
        ok = sum(1 for record in records if record.ok)
        return OpResult(
            wall=timed.elapsed,
            frames=sum(record.spec.frames for record in records
                       if record.ok and not record.cache_hit),
            jobs=ok, attempted=len(records), failures=failures,
            layer_metrics={
                "fleet.executed": sum(report.executed for report in reports),
                "fleet.cache_hits": sum(report.cached for report in reports),
                "fleet.attempts": sum(len(record.attempts)
                                      for record in records)})

    def _check_payload(self, record) -> list[str]:
        payload, spec = record.payload, record.spec
        index = spec.frames - 1
        if spec.sample is not None:
            index = payload["metrics"]["sampled"]["final_detailed_frame"]
        reference = self.references.scene_crc(spec.model, spec.width,
                                              spec.height, index)
        if int(payload["fb_crc"], 16) != reference:
            return [f"job {spec.name}: frame {index} framebuffer differs "
                    f"from ReferenceRenderer"]
        return []


WORKLOADS = {cls.name: cls for cls in (SocM1High, GpuTeapot, SampledM1,
                                       FleetSweep)}
