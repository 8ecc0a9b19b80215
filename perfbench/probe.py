"""Simulator counters, read from the components' ``StatGroup`` dumps.

Every count here is deterministic for a given input, so two commits can
be compared on them exactly.  :func:`harvest_gpu` reads a standalone
:class:`~repro.gpu.gpu.EmeraldGPU` and its memory; :func:`harvest_soc`
reads a finished :class:`~repro.soc.soc.EmeraldSoC`.

The sampled and fleet workloads never hand the benchmark their SoC
objects, so :class:`SocRunProbe` wraps ``EmeraldSoC.run`` and harvests
each run as it returns.  Inside a forked fleet worker the record goes to
a file in the :class:`Sink` directory, since the worker's memory is lost
when it exits.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Optional

#: Counter names every harvest fills (summable across runs and workers).
COUNT_KEYS = (
    "runs", "events_fired", "warp_insts", "busy_cycles",
    "fragments", "prims_rasterized", "hiz_culled_fragments",
    "l1_accesses", "l1_hits", "l2_accesses", "l2_hits", "mshr_merges",
    "packets", "rejected", "stall_ticks",
    "dram_requests", "row_hits", "row_accesses", "dram_bytes",
    "gpu_latency_sum", "gpu_latency_n",
    "display_aborted", "cpu_stalled_sends",
)


def empty_counts() -> dict:
    return {key: 0 for key in COUNT_KEYS}


def add_counts(total: dict, counts: dict) -> dict:
    for key in COUNT_KEYS:
        total[key] += counts.get(key, 0)
    return total


def _rate(dump: dict, name: str) -> tuple[int, int]:
    """(hits, total) of a ``RateStat`` from a ``StatGroup.dump``."""
    total = int(dump.get(f"{name}.total", 0))
    return round(dump.get(f"{name}.rate", 0.0) * total), total


def _harvest_links(counts: dict, links) -> None:
    for link in links:
        dump = link.stats.dump()
        counts["packets"] += dump.get("packets", 0)
        counts["rejected"] += dump.get("rejected", 0)
        counts["stall_ticks"] += dump.get("stall_ticks", 0)


def harvest_gpu(gpu, memory, events) -> dict:
    """Counters of one GPU, the memory behind it and its event queue."""
    from repro.memory.request import SourceType

    counts = empty_counts()
    counts["runs"] = 1
    counts["events_fired"] = events.events_fired
    for core in gpu.cores:
        dump = core.stats.dump()
        counts["warp_insts"] += dump.get("issued", 0)
        counts["busy_cycles"] += dump.get("busy_cycles", 0)
        for l1 in (core.l1i, core.l1d, core.l1t, core.l1z, core.l1c):
            l1_dump = l1.stats.dump()
            hits, total = _rate(l1_dump, "hit")
            counts["l1_accesses"] += total
            counts["l1_hits"] += hits
            counts["mshr_merges"] += l1_dump.get("mshr_merges", 0)
    _harvest_links(counts, [core.link for core in gpu.cores])
    l2_dump = gpu.l2.stats.dump()
    counts["l2_hits"], counts["l2_accesses"] = _rate(l2_dump, "hit")
    counts["mshr_merges"] += l2_dump.get("mshr_merges", 0)
    engine = gpu.draw_engine.stats.dump()
    for name in ("fragments", "prims_rasterized", "hiz_culled_fragments"):
        counts[name] = engine.get(name, 0)
    for channel in memory.channels:
        dump = channel.stats.dump()
        counts["dram_requests"] += dump.get("requests", 0)
        hits, total = _rate(dump, "row_hit")
        counts["row_hits"] += hits
        counts["row_accesses"] += total
        count = dump.get(f"latency.{SourceType.GPU.value}.count", 0)
        counts["gpu_latency_n"] += count
        counts["gpu_latency_sum"] += count * dump.get(
            f"latency.{SourceType.GPU.value}.mean", 0.0)
    counts["dram_bytes"] = memory.total_bytes()
    return counts


def harvest_soc(soc) -> dict:
    """Counters of one finished full-system run."""
    counts = harvest_gpu(soc.gpu, soc.memory, soc.events)
    _harvest_links(counts, soc.noc.links)
    counts["display_aborted"] = soc.display.frames_aborted
    counts["cpu_stalled_sends"] = sum(
        core.stats.dump().get("stalled_sends", 0) for core in soc.cpus.cores)
    return counts


class Sink:
    """Records from this process and from the workers it forks.

    A record emitted in the process that made the sink stays in memory;
    one emitted in a forked child is appended to a per-pid JSON-lines
    file, and :meth:`drain` gathers both.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.pid = os.getpid()
        self._records: list[dict] = []
        os.makedirs(directory, exist_ok=True)

    def emit(self, record: dict) -> None:
        if os.getpid() == self.pid:
            self._records.append(record)
            return
        path = os.path.join(self.directory, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def drain(self) -> list[dict]:
        records, self._records = self._records, []
        for path in sorted(glob.glob(os.path.join(self.directory,
                                                  "worker-*.jsonl"))):
            with open(path) as handle:
                records.extend(json.loads(line) for line in handle if line)
            os.remove(path)
        return records


class SocRunProbe:
    """Context manager: harvest every ``EmeraldSoC.run`` into ``sink``."""

    def __init__(self, sink: Sink) -> None:
        self.sink = sink
        self._original: Optional[object] = None

    def __enter__(self) -> "SocRunProbe":
        from repro.soc.soc import EmeraldSoC

        original = self._original = EmeraldSoC.run
        sink = self.sink

        def run(soc, *args, **kwargs):
            results = original(soc, *args, **kwargs)
            sink.emit({"kind": "counts", "counts": harvest_soc(soc)})
            return results

        EmeraldSoC.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.soc.soc import EmeraldSoC

        EmeraldSoC.run = self._original


def sum_counts(records: list[dict]) -> dict:
    """Sum of the ``counts`` records among ``records``."""
    total = empty_counts()
    for record in records:
        if record["kind"] == "counts":
            add_counts(total, record["counts"])
    return total
