"""Spans around the calls into each layer, recorded from outside ``src/``.

:class:`SpanRecorder` replaces a fixed list of public ``repro`` functions
and methods (:data:`SPAN_POINTS`) with wrappers that record a span —
name, start, end, parent, process — and restores the originals on exit.
Nothing under ``src/`` changes.  Spans of a forked fleet worker travel
through the :class:`~perfbench.probe.Sink`; a worker also switches off
the profiler it inherited from the parent, so its simulation runs at
full speed and only the parent's time is profiled.

:class:`Timer` times the simulation calls of an operation and, in the
traced run, runs them under :mod:`cProfile`.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Optional

#: The span around the benchmark's reference renders.  Spans under it
#: belong to the correctness check, not to the operation.
CHECK_SPAN = "check.reference"

#: (module, attribute path, span name).  ``compile_shader`` is imported by
#: name into each module that calls it, so every binding is wrapped.
SPAN_POINTS = (
    ("repro.harness.scenes", "SceneSession.frame", "scene.frame"),
    ("repro.shader.compiler", "compile_shader", "shader.compile"),
    ("repro.pipeline.vertex", "compile_shader", "shader.compile"),
    ("repro.pipeline.renderer", "compile_shader", "shader.compile"),
    ("repro.gpu.draw_engine", "compile_shader", "shader.compile"),
    ("repro.soc.soc", "EmeraldSoC.run", "sim.soc_run"),
    ("repro.gpu.gpu", "EmeraldGPU.run_frame", "sim.gpu_frame"),
    ("repro.sampling.functional", "FunctionalSim.run",
     "sampling.functional"),
    ("repro.soc.checkpoint", "capture", "checkpoint.capture"),
    ("repro.health.recovery", "capture", "checkpoint.capture"),
    ("repro.sampling.functional", "capture", "checkpoint.capture"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.restore_frames",
     "checkpoint.restore"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.to_json",
     "checkpoint.to_json"),
    ("repro.soc.checkpoint", "GraphicsCheckpoint.from_json",
     "checkpoint.from_json"),
    ("repro.fleet.cache", "ResultCache.lookup", "fleet.cache_lookup"),
    ("repro.fleet.cache", "ResultCache.store", "fleet.cache_store"),
    ("repro.fleet.worker", "run_job", "fleet.run_job"),
    ("perfbench.workloads", "_References.color", CHECK_SPAN),
)


class SpanRecorder:
    """Context manager installing span wrappers on :data:`SPAN_POINTS`."""

    def __init__(self, sink) -> None:
        self.sink = sink
        self.phase = "setup"
        self.op = 0
        self._ids = itertools.count(1)
        self._stack: list[tuple[str, str]] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        worker = os.getpid() != self.sink.pid
        if worker and sys.getprofile() is not None:
            sys.setprofile(None)          # profile the parent only
        span_id = f"{os.getpid()}.{next(self._ids)}"
        parent = self._stack[-1][0] if self._stack else None
        checking = any(entry[1] == CHECK_SPAN for entry in self._stack)
        self._stack.append((span_id, name))
        misses = fn.cache_info().misses if name == "shader.compile" else 0
        start = time.perf_counter()
        size = 0
        try:
            result = fn(*args, **kwargs)
            if name == "checkpoint.capture":
                size = len(result.trace_json)
            elif name == "shader.compile":
                misses = fn.cache_info().misses - misses
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.sink.emit({"kind": "span", "name": name, "id": span_id,
                            "parent": parent, "start": start, "end": end,
                            "pid": os.getpid(), "phase": self.phase,
                            "op": self.op, "checking": checking,
                            "bytes": size, "compiled": misses > 0})

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        for module_name, path, name in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(name, raw.__func__))
            else:
                wrapped = self._wrapper(name, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the time its child spans
    cover (children run inside the parent, in the same process).
    """
    child_time: dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None and \
                span["parent"].split(".")[0] == str(span["pid"]):
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    table: dict[str, dict] = {}
    for span in spans:
        entry = table.setdefault(span["name"], {"count": 0, "total_s": 0.0,
                                                "self_s": 0.0})
        duration = span["end"] - span["start"]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
    return table


def write_spans(path: str, spans: list[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"spans": spans, "summary": self_times(spans)}, handle,
                  indent=1)
        handle.write("\n")


class Timer:
    """Times the simulation calls of one operation.

    ``timer(fn, *args)`` returns ``fn(*args)`` and adds its wall time to
    :attr:`elapsed`; with a profiler, the call runs under it, and with a
    span recorder, inside a ``timed`` span.
    """

    def __init__(self, profiler: Optional[cProfile.Profile] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.profiler = profiler
        self.spans = spans
        self.elapsed = 0.0

    def __call__(self, fn: Callable, /, *args, **kwargs):
        if self.spans is not None:
            return self.spans.span("timed", self._run, fn, *args, **kwargs)
        return self._run(fn, *args, **kwargs)

    def _run(self, fn: Callable, /, *args, **kwargs):
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
