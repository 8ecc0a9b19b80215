"""Fig. 19: DFSL vs static work distributions (MLB / MLC / SOPT).

Paper shape: DFSL speeds up frame rendering by ~19% on average over MLB
(max load balance, WT=1) and ~7.3% over SOPT (the best single static WT
across all workloads); MLC (max locality) is the worst on average.
"""

from benchmarks.conftest import FULL, cs2_config, cs2_workloads
from repro.harness.case_study2 import compare_policies
from repro.harness.report import format_table


def test_fig19_dfsl():
    comparisons = compare_policies(workloads=cs2_workloads(), frames=4,
                                   config=cs2_config(),
                                   eval_max=10 if FULL else 6,
                                   run_frames=20 if FULL else 12)

    rows = []
    policies = ("mlb", "mlc", "sopt", "dfsl", "dfsl_steady")
    speedups = {p: [] for p in policies}
    for comp in comparisons:
        row = [comp.workload]
        for policy in policies:
            speedup = comp.speedup_over_mlb(policy)
            speedups[policy].append(speedup)
            row.append(speedup)
        row.append(comp.dfsl_wt)
        rows.append(row)
    means = {p: sum(v) / len(v) for p, v in speedups.items()}
    rows.append(["MEAN"] + [means[p] for p in policies] + ["-"])
    print()
    print(format_table(
        ["workload", "MLB", "MLC", "SOPT", "DFSL", "DFSL_steady", "WT*"],
        rows,
        title="Fig. 19 — speedup over MLB (higher is better; DFSL_steady "
              "= run phase only)"))
    print("note: the paper amortizes DFSL's evaluation sweep over 100-frame"
          " run phases; at this scale DFSL_steady is the comparable column.")

    # Shape checks on the steady state: DFSL tracks the per-workload best.
    assert means["dfsl_steady"] >= means["mlc"], \
        "DFSL should beat max-locality"
    assert means["dfsl_steady"] >= means["sopt"] * 0.95, \
        "DFSL should track (or beat) the static oracle"
    assert means["dfsl_steady"] >= means["mlb"] * 0.95, \
        "DFSL should not lose to max-load-balance on average"
