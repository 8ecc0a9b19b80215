"""Fig. 10: M3-HMC DRAM bandwidth per source over time.

Paper shape: CPU traffic spikes *between* GPU frames (frame preparation)
and drops while the GPU renders; under HMC's split channels this leaves
the CPU channel underutilized during rendering — the traffic-balance
problem the case study diagnoses.
"""

from repro.harness.report import ascii_sparkline, format_series


def test_fig10_hmc_bandwidth(cs1_regular):
    sweep = cs1_regular
    results = sweep.get("M3", "HMC")

    print()
    print("Fig. 10 — M3-HMC bandwidth vs time (bytes per 10k-tick window)")
    for source in ("cpu", "gpu", "display"):
        series = results.bandwidth[source]
        print(f"  {source:8s} {ascii_sparkline([v for _, v in series])}")
        print(" ", format_series(source, series[:24]))

    # Locate each frame's GPU-render phase and compare CPU traffic inside
    # vs outside it.
    cpu = dict(results.bandwidth["cpu"])
    window = 10_000

    def cpu_bytes(t0, t1):
        keys = [t for t in cpu if t0 <= t < t1]
        return sum(cpu[t] for t in keys) / max(len(keys), 1)

    inside, outside = [], []
    for record in results.frames[1:]:
        inside.append(cpu_bytes(record.cpu_done, record.gpu_done))
        outside.append(cpu_bytes(record.start, record.cpu_done))
    mean_inside = sum(inside) / len(inside)
    mean_outside = sum(outside) / len(outside)
    print(f"mean CPU bytes/window during GPU render : {mean_inside:10.0f}")
    print(f"mean CPU bytes/window during CPU prepare: {mean_outside:10.0f}")

    # Shape: the app thread's traffic concentrates between GPU frames, so
    # CPU demand during rendering is visibly lower than during preparation.
    assert mean_outside > mean_inside * 1.15, \
        "CPU traffic should drop while the GPU renders (Fig. 10 phases)"
    # And GPU traffic exists (the IP channel is being used meanwhile).
    assert results.dram_bytes["gpu"] > 0
