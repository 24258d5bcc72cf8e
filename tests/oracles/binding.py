"""The seed binders: HLPower's per-edge matching loop and the
networkx min-cost-flow LOPASS baseline.

The original implementations of Algorithm 1 and of the network-flow
baseline, kept as the differential oracles for the vectorized engines
of :mod:`repro.binding.compile`, which must make every decision —
edge weights, tie-breaks, pivots, matching extraction — the same way.
Only this module imports networkx.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.errors import BindingError, ResourceError
from repro.binding.base import (
    BindingSolution,
    FUBinding,
    FunctionalUnit,
    PortAssignment,
    RegisterBinding,
)
from repro.binding.compat import BindingNode, select_initial_sets
from repro.binding.hlpower import HLPowerConfig, _port_registers
from repro.binding.lopass import _COVER_REWARD
from repro.binding.matching import max_weight_matching
from repro.binding.registers import assign_ports, bind_registers
from repro.binding.sa_table import SATable
from repro.binding.weights import edge_weight
from repro.cdfg.graph import Operation
from repro.cdfg.schedule import Schedule


# ---------------------------------------------------------------------------
# HLPower (Algorithm 1).
# ---------------------------------------------------------------------------


@dataclass
class _ClassState:
    """Mutable per-class binding state."""

    u_nodes: List[BindingNode]
    v_nodes: List[BindingNode]
    regs_a: Dict[BindingNode, frozenset]
    regs_b: Dict[BindingNode, frozenset]
    iterations: int = 0
    constraint_met: bool = True


def bind_hlpower_reference(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    config: Optional[HLPowerConfig] = None,
) -> BindingSolution:
    """The seed Algorithm 1; same contract as
    :func:`repro.binding.bind_hlpower`."""
    started = time.perf_counter()
    cfg = config or HLPowerConfig()
    cdfg = schedule.cdfg
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(cdfg)
    table = cfg.sa_table if cfg.sa_table is not None else SATable()

    units: List[FunctionalUnit] = []
    constraint_met = True
    for fu_class in cdfg.resource_classes():
        limit = constraints.get(fu_class)
        if limit is None:
            raise ResourceError(f"no constraint for class {fu_class!r}")
        state = _bind_hlpower_class(
            schedule, fu_class, limit, registers, ports, table, cfg
        )
        constraint_met &= state.constraint_met
        for node in state.u_nodes + state.v_nodes:
            units.append(
                FunctionalUnit(len(units), fu_class, node.ops)
            )

    solution = BindingSolution(
        schedule=schedule,
        registers=registers,
        ports=ports,
        fus=FUBinding(units, constraint_met),
        algorithm="hlpower",
        runtime_s=time.perf_counter() - started,
    )
    solution.validate()
    return solution


def _bind_hlpower_class(
    schedule: Schedule,
    fu_class: str,
    limit: int,
    registers: RegisterBinding,
    ports: PortAssignment,
    table: SATable,
    cfg: HLPowerConfig,
) -> _ClassState:
    """Iterative bipartite matching for one resource class."""
    u_nodes, v_nodes = select_initial_sets(schedule, fu_class)
    state = _ClassState(u_nodes, v_nodes, {}, {})
    if not u_nodes and not v_nodes:
        return state
    for node in u_nodes + v_nodes:
        state.regs_a[node], state.regs_b[node] = _port_registers(
            schedule, node, registers, ports
        )

    while state.iterations < cfg.max_iterations:
        total = len(state.u_nodes) + len(state.v_nodes)
        if cfg.stop_at_constraint and total <= limit:
            break
        if not state.v_nodes:
            break
        weights = _edge_weights(state, fu_class, table, cfg)
        if not weights:
            break
        matching = max_weight_matching(
            list(range(len(state.u_nodes))),
            list(range(len(state.v_nodes))),
            weights,
        )
        if not matching:
            break
        _apply_matching(state, matching)
        state.iterations += 1

    if len(state.u_nodes) + len(state.v_nodes) > limit:
        state.constraint_met = False
    return state


def _edge_weights(
    state: _ClassState,
    fu_class: str,
    table: SATable,
    cfg: HLPowerConfig,
) -> Dict[Tuple[int, int], float]:
    """Equation-(4) weights for every compatible (U, V) node pair."""
    weights: Dict[Tuple[int, int], float] = {}
    for i, u_node in enumerate(state.u_nodes):
        for j, v_node in enumerate(state.v_nodes):
            if not u_node.compatible(v_node):
                continue
            mux_a = len(state.regs_a[u_node] | state.regs_a[v_node])
            mux_b = len(state.regs_b[u_node] | state.regs_b[v_node])
            sa = table.get(fu_class, mux_a, mux_b)
            weights[(i, j)] = edge_weight(
                sa, abs(mux_a - mux_b), fu_class, cfg.alpha, cfg.beta
            )
    return weights


def _apply_matching(
    state: _ClassState, matching: Mapping[int, int]
) -> None:
    """Merge matched V nodes into their U nodes (Algorithm 1 line 15)."""
    absorbed: Set[int] = set()
    for i, j in matching.items():
        u_node = state.u_nodes[i]
        v_node = state.v_nodes[j]
        merged = u_node.merge(v_node)
        state.regs_a[merged] = state.regs_a[u_node] | state.regs_a[v_node]
        state.regs_b[merged] = state.regs_b[u_node] | state.regs_b[v_node]
        state.u_nodes[i] = merged
        absorbed.add(j)
    state.v_nodes = [
        node for j, node in enumerate(state.v_nodes) if j not in absorbed
    ]


# ---------------------------------------------------------------------------
# LOPASS (min-cost network flow).
# ---------------------------------------------------------------------------


def bind_lopass_reference(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
) -> BindingSolution:
    """The seed flow baseline on networkx; same contract as
    :func:`repro.binding.bind_lopass`."""
    started = time.perf_counter()
    cdfg = schedule.cdfg
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(cdfg)

    units: List[FunctionalUnit] = []
    constraint_met = True
    for fu_class in cdfg.resource_classes():
        limit = constraints.get(fu_class)
        if limit is None:
            raise ResourceError(f"no constraint for class {fu_class!r}")
        chains = _bind_lopass_class(schedule, fu_class, limit, registers, ports)
        if len(chains) > limit:
            constraint_met = False
        for chain in chains:
            units.append(
                FunctionalUnit(len(units), fu_class, frozenset(chain))
            )

    solution = BindingSolution(
        schedule=schedule,
        registers=registers,
        ports=ports,
        fus=FUBinding(units, constraint_met),
        algorithm="lopass",
        runtime_s=time.perf_counter() - started,
    )
    solution.validate()
    return solution


def _bind_lopass_class(
    schedule: Schedule,
    fu_class: str,
    limit: int,
    registers: RegisterBinding,
    ports: PortAssignment,
) -> List[List[int]]:
    """Chains of operation ids, one chain per allocated FU."""
    cdfg = schedule.cdfg
    ops = sorted(
        (
            op
            for op in cdfg.operations.values()
            if op.resource_class == fu_class
        ),
        key=lambda op: (schedule.start_of(op), op.op_id),
    )
    if not ops:
        return []
    _, density = schedule.densest_step(fu_class)
    if limit < density:
        raise ResourceError(
            f"constraint {limit} for {fu_class!r} below the "
            f"densest-step bound {density}"
        )

    graph = nx.DiGraph()
    graph.add_node("S", demand=-limit)
    graph.add_node("T", demand=limit)
    graph.add_edge("S", "T", capacity=limit, weight=0)  # idle units

    # LOPASS's FU binding runs before registers are assigned, so its
    # interconnect costs are *variable*-level estimates: two operations
    # share an input only when they read the same variable. (HLPower's
    # structural advantage — Section 5.2.2 — is exactly that register
    # binding precedes FU binding, so it sees exact register-level mux
    # sizes; giving the baseline that knowledge would overstate it.)
    port_regs = {op.op_id: ports.of(op) for op in ops}
    for op in ops:
        node_in = ("in", op.op_id)
        node_out = ("out", op.op_id)
        graph.add_edge(node_in, node_out, capacity=1, weight=-_COVER_REWARD)
        graph.add_edge("S", node_in, capacity=1, weight=2)  # two fresh ports
        graph.add_edge(node_out, "T", capacity=1, weight=0)
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if schedule.end_of(earlier) < schedule.start_of(later):
                cost = _transition_cost(
                    port_regs[earlier.op_id], port_regs[later.op_id]
                )
                graph.add_edge(
                    ("out", earlier.op_id),
                    ("in", later.op_id),
                    capacity=1,
                    weight=cost,
                )

    # Exactly `limit` units of flow (node demands), minimum cost; the
    # coverage rewards make every op-internal edge carry flow.
    flow = nx.min_cost_flow(graph)
    return _extract_chains(flow, ops)


def _transition_cost(earlier_regs, later_regs) -> int:
    """New mux inputs when ``later`` joins a unit after ``earlier``.

    The pairwise surrogate for multiplexer growth used by flow-based
    binders: each port whose source *variable* differs from the
    predecessor's adds one estimated multiplexer input.
    """
    cost = 0
    if later_regs[0] != earlier_regs[0]:
        cost += 1
    if later_regs[1] != earlier_regs[1]:
        cost += 1
    return cost


def _extract_chains(flow, ops: List[Operation]) -> List[List[int]]:
    """Follow unit flow paths S -> ... -> T into operation chains."""
    next_of: Dict[int, Optional[int]] = {}
    starts: List[int] = []
    for op in ops:
        if flow["S"].get(("in", op.op_id), 0) > 0:
            starts.append(op.op_id)
        out_flow = flow[("out", op.op_id)]
        successor = None
        for target, amount in out_flow.items():
            if amount > 0 and target != "T":
                successor = target[1]
                break
        next_of[op.op_id] = successor
        if flow[("in", op.op_id)][("out", op.op_id)] == 0:
            raise BindingError(
                f"network flow left operation {op.op_id} uncovered"
            )

    chains: List[List[int]] = []
    for start in starts:
        chain = []
        current: Optional[int] = start
        while current is not None:
            chain.append(current)
            current = next_of[current]
        chains.append(chain)

    covered = {op_id for chain in chains for op_id in chain}
    if len(covered) != len(ops):
        raise BindingError(
            f"flow chains cover {len(covered)} of {len(ops)} operations"
        )
    return chains
