"""The profiler rollup: every ``repro`` file has one layer, and the
rollup charges all profiled self time to some layer."""

import cProfile
import os
import pstats

from perfbench import layers


def _module_files():
    root = layers.repro_root()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, filename), root)


def test_every_module_file_maps_to_exactly_one_layer():
    files = list(_module_files())
    assert len(files) > 100
    for relpath in files:
        matches = [prefix for prefix in layers.LAYER_RULES
                   if relpath.replace(os.sep, "/").startswith(prefix)]
        longest = max(len(prefix) for prefix in matches)
        assert [len(p) for p in matches].count(longest) == 1, relpath
        assert layers.layer_of_module(relpath) in layers.LAYERS, relpath


def test_named_layers_own_their_modules():
    expect = {
        "common/events.py": "events",
        "gpu/simt_core.py": "simt_core",
        "shader/dispatch.py": "shader",
        "gpu/draw_engine.py": "pipeline",
        "gpu/gpu.py": "gpu",
        "gpu/caches.py": "caches",
        "soc/noc.py": "ports",
        "memory/frfcfs.py": "memory",
        "soc/display.py": "soc",
        "common/stats.py": "stats",
        "harness/scenes.py": "scene",
        "gl/trace.py": "checkpoint",
        "soc/checkpoint.py": "checkpoint",
        "sampling/functional.py": "sampling",
        "fleet/cache.py": "fleet",
    }
    for relpath, layer in expect.items():
        assert layers.layer_of_module(relpath) == layer, relpath


def test_rollup_conserves_profiled_self_time():
    """External callees are charged to their callers' layers, so the
    layer totals add up to the profile's total self time."""
    from repro.common.stats import StatGroup

    group = StatGroup("probe")

    def work():
        for _ in range(2000):
            group.counter("hits").add()
            sorted(range(50))

    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    stats = pstats.Stats(profiler)
    seconds, calls = layers.rollup(stats, layers.LayerMap())
    total = sum(entry[2] for entry in stats.stats.values())
    attributed = sum(seconds.values())
    assert attributed <= total * (1 + 1e-9)
    # Only the profiler's own disable call has no attributed caller.
    assert attributed >= total * 0.9
    assert seconds["stats"] > 0 and seconds["benchmark"] > 0
    assert calls["stats.py:add"] == 2000
