"""Fig. 18: W1 execution time and L1 misses vs WT size.

Paper shape: L1 (texture/depth/color) misses fall as WT grows — larger
work tiles improve locality — and execution time correlates with L1
misses (78-82% in the paper), while L2/DRAM traffic stays roughly flat.
"""

from benchmarks.conftest import FULL, cs2_config
from repro.common.stats import pearson
from repro.harness.case_study2 import wt_sweep
from repro.harness.report import format_table

# The paper uses W1 (Sibenik); quick mode uses W2 to keep runtime sane.
WORKLOAD = "W1" if FULL else "W2"
WT_RANGE = range(1, 11)


def test_fig18_l1_locality():
    results = wt_sweep(WORKLOAD, wt_sizes=WT_RANGE, config=cs2_config())

    rows = []
    times, l1_misses, l2_misses = {}, {}, {}
    for wt, result in results.items():
        stats = result.stats
        l1 = stats.l1_misses
        total_l1 = l1["l1t"] + l1["l1z"] + l1["l1d"]
        times[wt] = result.time
        l1_misses[wt] = total_l1
        l2_misses[wt] = stats.l2_misses
        rows.append([wt, result.time, l1["l1t"], l1["l1z"], l1["l1d"],
                     total_l1, stats.l2_misses])
    print()
    print(format_table(
        ["WT", "exec_time", "L1T_miss", "L1Z_miss", "L1D_miss",
         "L1_total", "L2_miss"],
        rows, title=f"Fig. 18 — {WORKLOAD} execution time and cache misses "
                    "vs WT size"))

    wts = list(WT_RANGE)
    time_l1_corr = pearson([times[w] for w in wts],
                           [l1_misses[w] for w in wts])
    print(f"corr(exec time, L1 misses) = {time_l1_corr:.2f}")

    # Shape checks: locality improves with WT; L2 traffic compares flat.
    assert l1_misses[10] < l1_misses[1], \
        "larger work tiles should reduce total L1 misses"
    l2_spread = (max(l2_misses.values())
                 / max(1, min(l2_misses.values())))
    l1_spread = (max(l1_misses.values())
                 / max(1, min(l1_misses.values())))
    print(f"L1 miss spread {l1_spread:.2f}x vs L2 miss spread "
          f"{l2_spread:.2f}x")
    assert l1_spread > l2_spread, \
        "WT size should move L1 locality much more than L2/DRAM traffic"
