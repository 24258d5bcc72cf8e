#!/usr/bin/env python3
"""Gate-level tour: build, estimate, map and export a partial datapath.

Works entirely at the netlist layer (no CDFG): builds the paper's
Figure 2 structure — two input multiplexers feeding a multiplier —
runs the glitch-aware switching-activity estimator on it, maps it to
4-LUTs with the GlitchMap-style mapper, compares estimates, and writes
the BLIF the paper's flow would pass around.

Run:  python examples/netlist_estimation.py
"""

from repro.activity import estimate_switching_activity
from repro.netlist import build_partial_datapath
from repro.netlist.blif import blif_text
from repro.netlist.compile import clean_fast
from repro.techmap import map_netlist


def main() -> None:
    # Figure 2: a 2-input and a 3-input mux feeding a 4-bit multiplier.
    netlist = build_partial_datapath("mult", 2, 3, width=4)
    print(f"built {netlist}")
    folded, buffers, dead = clean_fast(netlist)
    print(
        f"cleaned: {folded} constants folded, {buffers} buffers, "
        f"{dead} dead gates -> {netlist.num_gates()} gates"
    )

    # Glitch-aware vs zero-delay estimation (Section 4).
    aware = estimate_switching_activity(netlist, glitch_aware=True)
    blind = estimate_switching_activity(netlist, glitch_aware=False)
    print(f"\nzero-delay estimated SA:    {blind.total:8.2f}")
    print(f"glitch-aware estimated SA:  {aware.total:8.2f}")
    print(f"  functional component:     {aware.functional:8.2f}")
    print(f"  glitch component:         {aware.glitch:8.2f} "
          f"({aware.glitch_fraction:.1%} of total)")

    # Technology mapping to 4-LUTs, minimizing glitch-aware SA.
    result = map_netlist(netlist, k=4)
    print(f"\nmapped to {result.area} LUTs, depth {result.depth} levels")
    print(f"mapped-netlist SA (Eq. 3): {result.total_sa:.2f} "
          f"(glitch {result.glitch_fraction:.1%})")

    # The five highest-activity LUTs.
    hottest = sorted(
        result.lut_sa.items(), key=lambda item: -item[1]
    )[:5]
    print("\nhottest LUTs:")
    for net, activity in hottest:
        print(f"  {net:30s} SA {activity:.3f}")

    # BLIF export (what Figure 2 generates for the estimator).
    text = blif_text(result.netlist)
    print(f"\nBLIF of the mapped netlist ({len(text.splitlines())} lines), "
          "first 12 lines:")
    for line in text.splitlines()[:12]:
        print("  " + line)


if __name__ == "__main__":
    main()
