"""Fig. 17: frame execution time vs work-tile (WT) size, per workload.

Paper shape: execution time varies substantially (25-88%) across WT sizes
1-10; the best WT size differs from workload to workload; W5 (translucent
Suzanne) is best at WT=1.
"""

import pytest

from benchmarks.conftest import cs2_config, cs2_workloads
from repro.harness.case_study2 import wt_sweep
from repro.harness.report import format_table

WT_RANGE = range(1, 11)


@pytest.fixture(scope="module")
def sweep_data(request):
    config = cs2_config()
    data = {}
    for workload in cs2_workloads():
        results = wt_sweep(workload, wt_sizes=WT_RANGE, config=config)
        data[workload] = {wt: r.time for wt, r in results.items()}
    return data


def test_fig17_wt_sweep(sweep_data):
    data = sweep_data

    rows = []
    for workload, times in data.items():
        base = times[1]
        rows.append([workload] + [times[wt] / base for wt in WT_RANGE])
    print()
    print(format_table(
        ["workload"] + [f"WT{wt}" for wt in WT_RANGE], rows,
        title="Fig. 17 — frame execution time vs WT size "
              "(normalized to WT=1)"))

    best = {w: min(times, key=times.get) for w, times in data.items()}
    spread = {w: max(times.values()) / min(times.values())
              for w, times in data.items()}
    print(f"best WT per workload: {best}")
    print(f"max/min spread per workload: "
          f"{ {w: round(s, 2) for w, s in spread.items()} }")

    # Shape checks (paper: 25%-88% variation; best WT differs; W5 best=1).
    assert any(s >= 1.25 for s in spread.values()), \
        "expected at least one workload with >=25% WT sensitivity"
    assert len(set(best.values())) > 1, \
        "expected the optimal WT size to differ across workloads"
    if "W5" in best:
        assert best["W5"] <= 2, "W5 should favor maximum load balance"
