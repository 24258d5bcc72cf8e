#!/usr/bin/env python3
"""Sweep Equation (4)'s alpha and plot the power/balance trade-off.

alpha = 1 weighs only the glitch-aware SA estimate; alpha = 0 only the
multiplexer-balance term. The paper picks 0.5 (Table 3) after finding
SA alone gives -6.5% power and the combination -19.3%. This example
sweeps alpha on one benchmark and prints the measured dynamic power,
mux balance, and area for each setting as an ASCII chart.

Run:  python examples/alpha_sweep.py [benchmark]
"""

import sys

from repro import (
    FlowConfig,
    benchmark_spec,
    list_schedule,
    load_benchmark,
    run_flow,
)
from repro.binding import SATable, assign_ports, bind_registers


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "wang"
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    table = SATable(path="data/sa_table.txt")

    print(f"alpha sweep on {name} (constraints {spec.constraints})\n")
    results = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        config = FlowConfig(
            width=8, n_vectors=128, alpha=alpha, sa_table=table
        )
        result = run_flow(
            schedule, spec.constraints, "hlpower", config, registers, ports
        )
        results.append((alpha, result))

    peak = max(r.power.dynamic_power_mw for _, r in results)
    print(f"{'alpha':>5s}  {'power mW':>8s}  {'muxDiff':>7s}  "
          f"{'LUTs':>5s}  chart")
    for alpha, result in results:
        power = result.power.dynamic_power_mw
        bar = "#" * int(round(40 * power / peak))
        print(
            f"{alpha:5.2f}  {power:8.3f}  "
            f"{result.muxes.mux_diff_mean:7.2f}  "
            f"{result.area_luts:5d}  {bar}"
        )
    print(
        "\nalpha=0.5 is the paper's operating point: the SA term prunes "
        "high-activity merges while the muxDiff term keeps port loads "
        "balanced."
    )


if __name__ == "__main__":
    main()
