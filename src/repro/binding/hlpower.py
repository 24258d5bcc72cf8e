"""HLPower functional-unit binding (Algorithm 1): tunables and helpers.

Algorithm 1 iteratively constructs weighted bipartite graphs between
the allocated FU nodes (``U``) and the not-yet-absorbed operation nodes
(``V``), solves each for maximum weight, and merges matched nodes,
until the resource constraint is met. Edge weights follow Equation (4):
the glitch-aware switching activity of the partial datapath the merge
would create (from the precalculated :class:`~repro.binding.sa_table.
SATable`) balanced against multiplexer-size balance (``muxDiff``).

Register binding precedes FU binding, so the exact register sources of
every port — and hence exact multiplexer sizes — are known when an
edge is weighted (Section 5.2.2 step 1). The binder itself is
:func:`repro.binding.compile.bind_hlpower`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Set, Tuple

from repro.binding.base import PortAssignment, RegisterBinding
from repro.binding.compat import BindingNode
from repro.binding.sa_table import SATable
from repro.binding.weights import DEFAULT_ALPHA
from repro.cdfg.schedule import Schedule


@dataclass
class HLPowerConfig:
    """Tunables of Algorithm 1 (defaults = the paper's Table 3 run)."""

    alpha: float = DEFAULT_ALPHA
    beta: Optional[Mapping[str, float]] = None
    sa_table: Optional[SATable] = None
    #: Stop once the per-class FU count reaches the constraint (the
    #: paper's loop condition). With False, keep merging to the minimum
    #: allocation (Figure 1 runs to exhaustion).
    stop_at_constraint: bool = True
    #: Safety bound on iterations per class.
    max_iterations: int = 10_000


def _port_registers(
    schedule: Schedule,
    node: BindingNode,
    registers: RegisterBinding,
    ports: PortAssignment,
) -> Tuple[frozenset, frozenset]:
    """Register sources on each port of a node's hypothetical FU."""
    cdfg = schedule.cdfg
    regs_a: Set[int] = set()
    regs_b: Set[int] = set()
    for op_id in node.ops:
        var_a, var_b = ports.of(cdfg.operations[op_id])
        regs_a.add(registers.register_of(var_a))
        regs_b.add(registers.register_of(var_b))
    return frozenset(regs_a), frozenset(regs_b)
