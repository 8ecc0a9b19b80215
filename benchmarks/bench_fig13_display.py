"""Fig. 13: display requests serviced under high load, relative to BAS.

Paper shape: on the small models (M2/M4) HMC *outperforms* the baseline —
the dedicated IP channel has slack to serve scanout without CPU
interference; on the large models DASH delivers markedly less display
traffic (the controller starts frames non-urgent, falls behind, aborts).
"""

from repro.harness.report import format_table


def test_fig13_display_service(cs1_high):
    sweep = cs1_high
    service = sweep.normalized_display_service()

    configs = ("BAS", "DCB", "DTB", "HMC")
    rows = [[model] + [service[model][c] for c in configs]
            for model in sorted(service)]
    print()
    print(format_table(
        ["model"] + list(configs), rows,
        title="Fig. 13 — display requests serviced (relative to BAS)"))
    aborts = {(m, c): sweep.get(m, c).display_aborted
              for m in sorted(service) for c in configs}
    print("aborted display frames:", aborts)

    small_models = [m for m in ("M2", "M4") if m in service]
    assert small_models, "need the small models for the HMC comparison"
    hmc_small = sum(service[m]["HMC"] for m in small_models) / len(small_models)
    # Shape: HMC serves more display traffic than BAS on small models.
    assert hmc_small > 1.1, \
        f"HMC should outperform BAS on small models, got {hmc_small:.2f}x"
