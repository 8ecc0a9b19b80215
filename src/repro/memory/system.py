"""The memory system facade: routing, channels, aggregate statistics.

A :class:`MemorySystem` owns one :class:`~repro.memory.dram.DRAMChannel`
per physical channel plus a *router* deciding which channel a request goes
to.  The baseline routes by address bits (channel interleaving per the
Table 4 mapping); HMC routes by source type (see the ``HMC`` preset in
:mod:`repro.memory.builders`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.common.config import DRAMConfig
from repro.common.events import EventQueue
from repro.common.ports import RequestPort, ResponsePort
from repro.memory.address_map import (
    AddressMapping,
    BASELINE_MAPPING,
)
from repro.memory.dram import DEFAULT_ROWS, DRAMChannel, Scheduler
from repro.memory.frfcfs import FRFCFSScheduler
from repro.memory.request import MemRequest, SourceType


def dram_cycle_ticks(config: DRAMConfig, gpu_clock_ghz: float) -> int:
    """GPU ticks per DRAM controller cycle.

    The controller runs at half the per-pin data rate (DDR).  A 1333 Mb/s
    part next to a 1 GHz GPU gives ~1.5 ticks/cycle; the low-frequency
    high-load configuration (133 Mb/s) gives ~15.
    """
    controller_mhz = config.data_rate_mbps / 2.0
    ticks = round(gpu_clock_ghz * 1000.0 / controller_mhz)
    return max(1, ticks)


class AddressRouter:
    """Baseline routing: channel is decoded from address bits."""

    def __init__(self, mapping: AddressMapping, config: DRAMConfig,
                 rows: int = DEFAULT_ROWS) -> None:
        self.mapping = mapping
        self.config = config
        self.rows = rows
        self.columns = max(1, config.row_bytes // mapping.line_bytes)
        self._decode = mapping.compiled(config.channels, config.ranks,
                                        config.banks, rows, self.columns)

    def route(self, request: MemRequest) -> int:
        return self._decode(request.address).channel


class SourceTypeRouter:
    """HMC routing: CPU traffic to one channel set, IP traffic to another."""

    def __init__(self, cpu_channels: Sequence[int],
                 ip_channels: Sequence[int]) -> None:
        if not cpu_channels or not ip_channels:
            raise ValueError("need at least one channel per source class")
        self.cpu_channels = list(cpu_channels)
        self.ip_channels = list(ip_channels)
        self._cpu_rr = 0
        self._ip_rr = 0

    def route(self, request: MemRequest) -> int:
        if request.source is SourceType.CPU:
            channel = self.cpu_channels[self._cpu_rr % len(self.cpu_channels)]
            self._cpu_rr += 1
            return channel
        channel = self.ip_channels[self._ip_rr % len(self.ip_channels)]
        self._ip_rr += 1
        return channel


class MemorySystem:
    """Channels + router + cross-channel statistics."""

    def __init__(self, events: EventQueue, config: DRAMConfig,
                 gpu_clock_ghz: float = 1.0,
                 scheduler_factory: Optional[Callable[[int], Scheduler]] = None,
                 channel_mappings: Optional[Sequence[AddressMapping]] = None,
                 router=None, rows: int = DEFAULT_ROWS,
                 decode_channels: Optional[int] = None) -> None:
        self.events = events
        self.config = config
        self.rows = rows
        cycle_ticks = dram_cycle_ticks(config, gpu_clock_ghz)
        self.cycle_ticks = cycle_ticks
        if scheduler_factory is None:
            scheduler_factory = lambda channel_id: FRFCFSScheduler()  # noqa: E731
        if channel_mappings is None:
            channel_mappings = [BASELINE_MAPPING] * config.channels
        if len(channel_mappings) != config.channels:
            raise ValueError("one mapping per channel required")
        if router is None:
            router = AddressRouter(BASELINE_MAPPING, config, rows)
            decode = config.channels if decode_channels is None else decode_channels
        else:
            decode = 1 if decode_channels is None else decode_channels
        self.router = router
        self.channels = [
            DRAMChannel(events, config, channel_mappings[i],
                        scheduler_factory(i), channel_id=i,
                        cycle_ticks=cycle_ticks, decode_channels=decode,
                        rows=rows)
            for i in range(config.channels)
        ]
        # Ingress observation probes (health instrumentation).  Empty by
        # default so the hot path stays a single falsy check.
        self.probes: list[Callable[[MemRequest], None]] = []
        # Timing-port surface: upstream components (NoC link, GPU L2)
        # connect to ``ingress``; each channel hangs off its own request
        # port.  Both hops are synchronous, so port-connected entry is
        # event-identical to calling submit() directly.
        self.ingress = ResponsePort("memory.in", self._recv, owner=self)
        self._channel_ports = []
        for channel in self.channels:
            port = RequestPort(f"memory.ch{channel.channel_id}", owner=self)
            port.connect(channel)
            self._channel_ports.append(port)

    def _recv(self, request: MemRequest) -> bool:
        # Late-bound self.submit so trace recorders that wrap it still see
        # port-delivered traffic.
        self.submit(request)
        return True

    def add_probe(self, probe: Callable[[MemRequest], None]) -> None:
        """Register an ingress probe called with every submitted request."""
        self.probes.append(probe)

    def attach_watchdog(self, watchdog) -> None:
        """Track every request's lifecycle with a health watchdog.

        Used in standalone (no-NoC) mode where requests enter here
        directly; full-system runs attach the watchdog at the NoC instead
        so retries and injected faults are visible to it.
        """
        def probe(request: MemRequest) -> None:
            watchdog.track(request)
            original = request.callback

            def delivered(completed: MemRequest) -> None:
                watchdog.retire(completed)
                if original is not None:
                    original(completed)

            request.callback = delivered
        self.add_probe(probe)

    def submit(self, request: MemRequest) -> None:
        request.issue_time = self.events.now
        if self.probes:
            for probe in self.probes:
                probe(request)
        channel = self.router.route(request)
        self._channel_ports[channel].send(request)

    # -- aggregate statistics ---------------------------------------------------

    def stats_dump(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for channel in self.channels:
            for key, value in channel.stats.dump().items():
                out[f"ch{channel.channel_id}.{key}"] = value
        return out

    def row_hit_rate(self) -> float:
        hits = sum(c.stats.rate("row_hit").hits for c in self.channels)
        total = sum(c.stats.rate("row_hit").total for c in self.channels)
        return hits / total if total else 0.0

    def bytes_per_activation(self) -> float:
        for channel in self.channels:
            channel.drain_flush_stats()
        values = []
        for channel in self.channels:
            values.extend(channel.stats.histogram("bytes_per_activation").values())
        return sum(values) / len(values) if values else 0.0

    def total_bytes(self, source: Optional[SourceType] = None) -> int:
        total = 0
        for channel in self.channels:
            if source is None:
                for src in SourceType:
                    total += channel.stats.counter(f"bytes.{src.value}").value
            else:
                total += channel.stats.counter(f"bytes.{source.value}").value
        return total

    def mean_latency(self, source: SourceType) -> float:
        values = []
        for channel in self.channels:
            values.extend(channel.stats.histogram(
                f"latency.{source.value}").values())
        return sum(values) / len(values) if values else 0.0

    def bandwidth_series(self, source: SourceType,
                         window: int = 1000) -> list[tuple[int, float]]:
        """Summed (time, bytes) series across channels for one source.

        Channels record at 1000-tick granularity; coarser ``window``
        requests are re-binned here.
        """
        merged: dict[int, float] = {}
        for channel in self.channels:
            for time, value in channel.stats.time_series(
                    f"bandwidth.{source.value}", window=1000).series():
                bucket = (time // window) * window
                merged[bucket] = merged.get(bucket, 0.0) + value
        return sorted(merged.items())


class MemoryFabric:
    """Aggregate statistics view over several :class:`MemorySystem`
    endpoints (a multi-endpoint topology's DRAM side).

    Duck-typed like one MemorySystem for every *read-side* consumer (the
    SoC results, the stats dump, the energy model); the request path does
    NOT go through here — the NoC routes to each endpoint's own ingress.
    """

    def __init__(self, systems: Sequence[MemorySystem]) -> None:
        if not systems:
            raise ValueError("need at least one memory endpoint")
        self.systems = list(systems)

    @property
    def channels(self):
        return [channel for system in self.systems
                for channel in system.channels]

    def stats_dump(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for index, system in enumerate(self.systems):
            for key, value in system.stats_dump().items():
                out[f"ep{index}.{key}"] = value
        return out

    def row_hit_rate(self) -> float:
        hits = sum(c.stats.rate("row_hit").hits for c in self.channels)
        total = sum(c.stats.rate("row_hit").total for c in self.channels)
        return hits / total if total else 0.0

    def bytes_per_activation(self) -> float:
        for channel in self.channels:
            channel.drain_flush_stats()
        values = []
        for channel in self.channels:
            values.extend(
                channel.stats.histogram("bytes_per_activation").values())
        return sum(values) / len(values) if values else 0.0

    def total_bytes(self, source: Optional[SourceType] = None) -> int:
        return sum(system.total_bytes(source) for system in self.systems)

    def mean_latency(self, source: SourceType) -> float:
        values = []
        for channel in self.channels:
            values.extend(channel.stats.histogram(
                f"latency.{source.value}").values())
        return sum(values) / len(values) if values else 0.0

    def bandwidth_series(self, source: SourceType,
                         window: int = 1000) -> list[tuple[int, float]]:
        merged: dict[int, float] = {}
        for system in self.systems:
            for time, value in system.bandwidth_series(source, window=window):
                merged[time] = merged.get(time, 0.0) + value
        return sorted(merged.items())
