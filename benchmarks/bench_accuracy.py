"""Section 3.4: model accuracy vs the (surrogate) hardware reference.

Paper numbers (vs Tegra K1 silicon): draw-time correlation 98% with 32.2%
mean absolute relative error; fill-rate correlation 76.5% with 33% error.
Here the hardware is a surrogate analytic model (see DESIGN.md §1); the
shape to hold is the *ordering*: strong draw-time correlation, visibly
weaker fill-rate correlation, sizeable absolute errors in both.
"""

from repro.harness.report import format_table
from repro.validation.reference import accuracy_study


def test_sec34_accuracy():
    result = accuracy_study()

    rows = list(zip(result.names,
                    [f"{t:.0f}" for t in result.sim_time],
                    [f"{t:.0f}" for t in result.ref_time],
                    [f"{f:.3f}" for f in result.sim_fill],
                    [f"{f:.3f}" for f in result.ref_fill]))
    print()
    print(format_table(
        ["microbench", "sim_cycles", "ref_cycles", "sim_fill", "ref_fill"],
        rows, title="Sec. 3.4 — 14-microbenchmark accuracy study"))
    print(f"draw time  : corr={result.draw_time_correlation:.3f} "
          f"(paper 0.98), MARE={result.draw_time_error:.3f} (paper 0.322)")
    print(f"fill rate  : corr={result.fill_rate_correlation:.3f} "
          f"(paper 0.765), MARE={result.fill_rate_error:.3f} (paper 0.33)")

    assert result.draw_time_correlation > 0.85
    assert result.fill_rate_correlation > 0.5
    assert result.draw_time_correlation > result.fill_rate_correlation, \
        "draw time should correlate better than fill rate (paper's shape)"
    assert 0.1 < result.draw_time_error < 0.7
