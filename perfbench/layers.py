"""Host-time rollup: ``repro`` module files -> simulator layers.

The traced run profiles the timed section with :mod:`cProfile` and sums
each function's self time (``tottime``) into the layer that owns its
source file.  Functions outside ``repro`` (builtins, NumPy, the standard
library) are charged to the layers of their callers, split by the time
each caller spent in them, so a ``list.append`` inside the DRAM model is
DRAM time.  Time that reaches no ``repro`` or benchmark frame (the
profiler's own root calls) is left unattributed and shows up in the
reported remainder.

Rules match by path prefix under ``src/repro/`` and the longest prefix
wins, so every module file maps to exactly one layer; a file no rule
matches returns ``None`` and the benchmark's tests fail on it.
"""

from __future__ import annotations

import os
import pstats
from typing import Optional

#: Prefix (relative to ``src/repro/``, ``/``-separated) -> layer name.
LAYER_RULES = {
    "common/events.py": "events",
    "common/stats.py": "stats",
    "common/ports.py": "ports",
    "soc/noc.py": "ports",
    "gpu/simt_core.py": "simt_core",
    "shader/": "shader",
    "pipeline/": "pipeline",
    "gpu/draw_engine.py": "pipeline",
    "gpu/cluster.py": "pipeline",
    "gpu/tc.py": "pipeline",
    "gpu/hiz.py": "pipeline",
    "gpu/stages.py": "pipeline",
    "gpu/dfsl.py": "pipeline",
    "common/geometry2d.py": "pipeline",
    "gpu/": "gpu",
    "gpu/caches.py": "caches",
    "gpu/coalescer.py": "caches",
    "memory/": "memory",
    "soc/": "soc",
    "soc/checkpoint.py": "checkpoint",
    "gl/trace.py": "checkpoint",
    "gl/": "scene",
    "geometry/": "scene",
    "harness/scenes.py": "scene",
    "sampling/": "sampling",
    "fleet/": "fleet",
    "health/": "health",
    "sanitize/": "health",
    "trace/": "health",
    "harness/": "harness",
    "common/config.py": "harness",
    "common/__init__.py": "harness",
    "dse/": "harness",
    "fastpath/": "harness",
    "validation/": "harness",
    "bench.py": "harness",
    "__init__.py": "harness",
    "__main__.py": "harness",
}

#: Every layer, in report order.  ``benchmark`` is this package's own
#: code plus time whose nearest attributed caller is benchmark code.
LAYERS = ("events", "simt_core", "shader", "pipeline", "gpu", "caches",
          "ports", "memory", "soc", "stats", "scene", "checkpoint",
          "sampling", "fleet", "health", "harness", "benchmark")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def repro_root() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a ``repro`` file given relative to the package root."""
    relpath = relpath.replace(os.sep, "/")
    best = None
    for prefix, layer in LAYER_RULES.items():
        if relpath.startswith(prefix) and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


class LayerMap:
    """Resolves profiler source paths to layers (memoized per path)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = (root or repro_root()) + os.sep
        self._memo: dict[str, Optional[str]] = {}

    def __call__(self, filename: str) -> Optional[str]:
        if filename in self._memo:
            return self._memo[filename]
        # Builtins are "~" and generated code "<string>": no file.
        path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
        if path.startswith(self.root):
            layer = layer_of_module(path[len(self.root):])
        elif path.startswith(_BENCH_DIR + os.sep):
            layer = "benchmark"
        else:
            layer = None
        self._memo[filename] = layer
        return layer


def rollup(stats: pstats.Stats, layer_of: LayerMap) -> tuple[dict, dict]:
    """(self seconds per layer, call counts per ``file:function``).

    Self time of a function outside ``repro`` is split across its callers
    in proportion to the time each caller spent in it, recursively, until
    it reaches an attributed frame.
    """
    table = stats.stats
    mixes: dict = {}

    def mix(func, active: frozenset) -> dict:
        if func in mixes:
            return mixes[func]
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            # A caller already on the chain is a cycle among unattributed
            # frames: its share stays unattributed.
            callers = table[func][4] if func in table else {}
            weights = {caller: entry[2] for caller, entry in callers.items()
                       if caller not in active}
            total = sum(weights.values())
            result = {}
            if total > 0:
                for caller, weight in weights.items():
                    for name, share in mix(caller, active | {func}).items():
                        result[name] = (result.get(name, 0.0)
                                        + share * weight / total)
        mixes[func] = result
        return result

    seconds = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    for func, (_cc, ncalls, tottime, _ct, _callers) in table.items():
        for layer, share in mix(func, frozenset()).items():
            seconds[layer] += tottime * share
        key = f"{os.path.basename(func[0])}:{func[2]}"
        calls[key] = calls.get(key, 0) + ncalls
    return seconds, calls
