"""Case study I: memory organization & scheduling on a mobile SoC (§5).

Full-system runs of the M1-M4 Android-app models under the four Table 6
memory configurations (BAS / DCB / DTB / HMC), in the regular-load
(1333 Mb/s LPDDR3) and high-load (133 Mb/s) scenarios, producing the data
behind Figs. 9-14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import (
    DRAMConfig,
    GPUConfig,
    NoCLinkBudget,
    SIMTCoreConfig,
    CacheConfig,
)
from repro.harness.scenes import CASE_STUDY1_SCENES, SceneSession
from repro.memory.builders import MEMORY_CONFIG_NAMES
from repro.soc.soc import (EmeraldSoC, SoCResults, SoCRunConfig,
                           preset_topology)

MODELS = tuple(CASE_STUDY1_SCENES)           # M1..M4
CONFIGS = MEMORY_CONFIG_NAMES                # BAS, DCB, DTB, HMC
LOADS = ("regular", "high")


def _cs1_gpu() -> GPUConfig:
    """Table 5's GPU (4 SIMT cores @ 0.95 GHz) with resolution-scaled L1s.

    Same scaling rationale as case study II (see
    :func:`repro.harness.case_study2._scaled_cs2_gpu`).
    """
    core = SIMTCoreConfig(
        l1d=CacheConfig(4 * 1024, ways=4),
        l1t=CacheConfig(8 * 1024, ways=4),
        l1z=CacheConfig(4 * 1024, ways=4),
        l1c=CacheConfig(4 * 1024, ways=4),
    )
    return GPUConfig(num_clusters=4, core=core,
                     l2=CacheConfig(32 * 1024, ways=8, hit_latency=20),
                     clock_ghz=0.95)


@dataclass
class CS1Config:
    """Experiment scale knobs for case study I."""

    width: int = 128
    height: int = 96
    num_frames: int = 5                  # 1 warmup + 4 profiled (Table 6)
    warmup_frames: int = 1
    texture_size: int = 128
    gpu_frame_period_ticks: int = 220_000
    display_period_ticks: int = 110_000
    cpu_work_per_frame: int = 400
    cpu_fixed_ticks: int = 25_000
    # DRAM rates: the paper runs 1333 Mb/s (regular) and a 133 Mb/s
    # stressor (high).  Our workload is ~50x smaller than 1024x768 frames,
    # so the rates are rescaled to preserve *utilization*, the quantity the
    # scheduling dynamics depend on (see EXPERIMENTS.md).
    regular_rate_mbps: int = 800
    high_rate_mbps: int = 400
    channels: int = 2
    # Bounded-bandwidth NoC link (None = unbounded; see NoCLinkBudget).
    noc_capacity: Optional[int] = None
    noc_bytes_per_cycle: Optional[float] = None
    seed: int = 7


def make_cs1_setup(model: str, config_name: str, load: str = "regular",
                   config: Optional[CS1Config] = None,
                   health=None, trace=None, sanitize=None):
    """(run config, session factory) for one case-study-I grid cell.

    The fast-forward and sampling drivers (:mod:`repro.sampling`) need
    the pieces rather than an assembled SoC: they build fresh
    :class:`~repro.harness.scenes.SceneSession`\\ s at every mode switch
    (the replay contract — both modes pull identical frame streams from
    identical fresh sessions) and construct the simulators themselves.
    """
    config = config or CS1Config()
    if load not in LOADS:
        raise ValueError(f"load must be one of {LOADS}, got {load!r}")
    model_name = CASE_STUDY1_SCENES.get(model, model)

    def session_factory() -> SceneSession:
        return SceneSession(model_name, config.width, config.height,
                            texture_size=config.texture_size)

    rate = (config.regular_rate_mbps if load == "regular"
            else config.high_rate_mbps)
    link = None
    if (config.noc_capacity is not None
            or config.noc_bytes_per_cycle is not None):
        link = NoCLinkBudget(capacity=config.noc_capacity,
                             bytes_per_cycle=config.noc_bytes_per_cycle)
    run_config = SoCRunConfig(
        width=config.width, height=config.height,
        num_frames=config.num_frames,
        topology=preset_topology(
            config_name,
            dram=DRAMConfig(channels=config.channels, data_rate_mbps=rate),
            gpu=_cs1_gpu(), link=link),
        gpu_frame_period_ticks=config.gpu_frame_period_ticks,
        display_period_ticks=config.display_period_ticks,
        cpu_work_per_frame=config.cpu_work_per_frame,
        cpu_fixed_ticks=config.cpu_fixed_ticks,
        seed=config.seed,
        health=health,
        trace=trace,
        sanitize=sanitize,
    )
    return run_config, session_factory


def make_cs1_soc(model: str, config_name: str, load: str = "regular",
                 config: Optional[CS1Config] = None,
                 health=None, trace=None, sanitize=None) -> EmeraldSoC:
    """Assemble (but do not run) the case-study-I SoC for one grid cell.

    Split out of :func:`run_cs1` so callers that need the live system —
    the benchmark harness reads ``soc.events.events_fired`` and hashes
    ``soc.gpu.fb`` after the run — can hold the SoC object instead of
    just the reduced :class:`SoCResults`.
    """
    run_config, session_factory = make_cs1_setup(
        model, config_name, load, config,
        health=health, trace=trace, sanitize=sanitize)
    session = session_factory()
    return EmeraldSoC(run_config, session.frame, session.framebuffer_address)


def run_cs1(model: str, config_name: str, load: str = "regular",
            config: Optional[CS1Config] = None,
            health=None, stats_path: Optional[str] = None,
            trace=None, sanitize=None) -> SoCResults:
    """One full-system run; returns everything Figs. 9-14 need.

    ``health`` (a :class:`repro.health.HealthConfig`) arms the watchdog /
    fault-injection / checkpointing subsystem; ``None`` keeps the run
    bit-identical to a health-free build.  ``stats_path`` dumps every
    component's statistics to one JSON file after the run.  ``trace`` (a
    :class:`repro.trace.TraceConfig`) records the run as Chrome-trace JSON
    and/or reduces it into ``results.profile``; ``sanitize`` (a
    :class:`repro.sanitize.SanitizeConfig`) arms runtime invariant
    checking — like tracing, neither changes the run's event schedule.
    """
    soc = make_cs1_soc(model, config_name, load, config,
                       health=health, trace=trace, sanitize=sanitize)
    results = soc.run()
    if stats_path is not None:
        from repro.harness.report import write_stats_json
        write_stats_json(soc.stat_groups(), stats_path,
                         topology=soc.topology)
    return results


@dataclass
class CS1Sweep:
    """Results of a (models x configs) sweep under one load."""

    load: str
    results: dict[tuple[str, str], SoCResults] = field(default_factory=dict)

    def get(self, model: str, config_name: str) -> SoCResults:
        return self.results[(model, config_name)]

    def normalized_gpu_time(self) -> dict[str, dict[str, float]]:
        """Fig. 9 / Fig. 12 right: GPU frame time normalized to BAS."""
        out: dict[str, dict[str, float]] = {}
        for model in sorted({m for m, _ in self.results}):
            base = self.get(model, "BAS").mean_gpu_time
            out[model] = {
                name: self.get(model, name).mean_gpu_time / base
                for name in sorted({c for _, c in self.results})
            }
        return out

    def normalized_total_time(self) -> dict[str, dict[str, float]]:
        """Fig. 12 left: total frame time normalized to BAS."""
        out: dict[str, dict[str, float]] = {}
        for model in sorted({m for m, _ in self.results}):
            base = self.get(model, "BAS").mean_total_time
            out[model] = {
                name: self.get(model, name).mean_total_time / base
                for name in sorted({c for _, c in self.results})
            }
        return out

    def normalized_display_service(self) -> dict[str, dict[str, float]]:
        """Fig. 13: display requests serviced relative to BAS."""
        out: dict[str, dict[str, float]] = {}
        for model in sorted({m for m, _ in self.results}):
            base = self.get(model, "BAS").display_requests
            out[model] = {
                name: self.get(model, name).display_requests / max(base, 1)
                for name in sorted({c for _, c in self.results})
            }
        return out

    def row_locality_vs_bas(self) -> dict[str, dict[str, float]]:
        """Fig. 11: HMC row-hit rate and bytes/activation relative to BAS."""
        out: dict[str, dict[str, float]] = {}
        for model in sorted({m for m, _ in self.results}):
            bas = self.get(model, "BAS")
            hmc = self.get(model, "HMC")
            out[model] = {
                "row_hit_rate": (hmc.row_hit_rate / bas.row_hit_rate
                                 if bas.row_hit_rate else 0.0),
                "bytes_per_activation": (
                    hmc.bytes_per_activation / bas.bytes_per_activation
                    if bas.bytes_per_activation else 0.0),
            }
        return out


def sweep(models=MODELS, configs=CONFIGS, load: str = "regular",
          config: Optional[CS1Config] = None) -> CS1Sweep:
    """Run the (models x configs) grid under one load scenario."""
    result = CS1Sweep(load=load)
    for model in models:
        for name in configs:
            result.results[(model, name)] = run_cs1(model, name, load,
                                                    config)
    return result
