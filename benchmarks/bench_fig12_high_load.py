"""Fig. 12: total frame time and GPU render time under high memory load.

Paper shape (low-frequency DRAM stressor): HMC takes ~45% longer than the
baseline to produce a frame; DASH reduces frame rates ~9-10% on average
(worse on the larger models M1/M3); the smaller models (M2/M4) suffer
less.
"""

from repro.harness.report import format_table


def test_fig12_high_load(cs1_high):
    sweep = cs1_high
    total = sweep.normalized_total_time()
    gpu = sweep.normalized_gpu_time()

    configs = ("BAS", "DCB", "DTB", "HMC")
    rows = []
    for model in sorted(total):
        rows.append([model] + [total[model][c] for c in configs]
                    + [gpu[model][c] for c in configs])
    avg_total = {c: sum(total[m][c] for m in total) / len(total)
                 for c in configs}
    avg_gpu = {c: sum(gpu[m][c] for m in gpu) / len(gpu) for c in configs}
    rows.append(["AVG"] + [avg_total[c] for c in configs]
                + [avg_gpu[c] for c in configs])
    print()
    print(format_table(
        ["model"] + [f"total_{c}" for c in configs]
        + [f"gpu_{c}" for c in configs],
        rows, title="Fig. 12 — frame time under high load "
                    "(normalized to BAS)"))

    # Shape: the load hurts the alternatives — HMC lengthens frames (its
    # GPU time inflates even where CPU-side gains mask the total), and
    # DASH does not beat the baseline.
    assert avg_total["HMC"] > 1.02 or avg_gpu["HMC"] > 1.2, \
        f"HMC should lengthen frames under load, got " \
        f"total {avg_total['HMC']:.2f}x / gpu {avg_gpu['HMC']:.2f}x"
    assert avg_total["DCB"] >= 0.97 and avg_total["DTB"] >= 0.97, \
        "DASH must not outperform FR-FCFS here (paper: it is slightly worse)"
    assert avg_gpu["DCB"] > 1.1 and avg_gpu["DTB"] > 1.1, \
        "DASH should visibly stretch GPU rendering under load"
