"""Fig. 9: GPU frame time under regular load, normalized to the baseline.

Paper shape: every configuration still meets the application frame rate,
but the GPU portion of the frame takes ~19-20% longer under DASH and
roughly 2x under HMC.
"""

from repro.harness.report import ascii_bars, format_table


def test_fig09_regular_load(cs1_regular):
    sweep = cs1_regular
    normalized = sweep.normalized_gpu_time()

    configs = ("BAS", "DCB", "DTB", "HMC")
    rows = [[model] + [normalized[model][c] for c in configs]
            for model in sorted(normalized)]
    means = [sum(normalized[m][c] for m in normalized) / len(normalized)
             for c in configs]
    rows.append(["AVG"] + means)
    print()
    print(format_table(["model"] + list(configs), rows,
                       title="Fig. 9 — GPU execution time under regular "
                             "load (normalized to BAS; lower is better)"))
    print()
    print(ascii_bars(list(configs), means, unit="x"))
    fps = {(m, c): sweep.get(m, c).fps_fraction
           for m in sorted(normalized) for c in configs}
    print("fraction of frames meeting the app period:",
          {k: round(v, 2) for k, v in fps.items()})

    avg = dict(zip(configs, means))
    # Shape: BAS == 1 by construction; HMC clearly slower on average.
    assert avg["HMC"] > 1.3, \
        f"HMC should slow GPU rendering substantially, got {avg['HMC']:.2f}x"
    # DASH's deprioritization must not *help* the GPU.
    assert avg["DCB"] >= 0.97 and avg["DTB"] >= 0.97
