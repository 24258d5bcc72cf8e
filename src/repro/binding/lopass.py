"""Network-flow baseline binder (the LOPASS comparison point).

LOPASS [3,4] binds with a min-cost network-flow formulation (Chen &
Cong, ASP-DAC'04 [2]) that assigns *all* operations of a class to FUs
in a single pass, minimizing an interconnect/multiplexer cost — with
no glitch model. :func:`repro.binding.compile.bind_lopass` implements
that formulation (this module holds its constants):

* one flow unit = one functional unit; a unit's path through the DAG
  of compatible operations is the set of operations bound to it;
* every operation's internal edge carries a large reward so min-cost
  solutions cover all operations (feasible whenever the FU count is at
  least the densest-step count);
* edge costs between consecutive operations count the new input
  *variables* the successor adds to the unit's two ports — the flow
  view of multiplexer growth. LOPASS binds FUs before registers are
  assigned, so its interconnect costs are variable-level estimates;
  giving the baseline HLPower's exact register-level mux sizes would
  overstate it.

The contrast with HLPower is exactly the paper's: a one-shot,
mux-aware but glitch-blind global optimization versus an iterative,
glitch-aware matching (Section 5.2.2: "The iterative approach ...
allows the multiplexer size to be better controlled than is possible
with single iteration approaches, such as with a network flow
algorithm").
"""

from __future__ import annotations

#: Reward (negative cost) for covering one operation; must dominate any
#: feasible interconnect cost so coverage is never traded away.
_COVER_REWARD = 1_000_000
