"""The seed gate-level simulator: per-gate timed waveforms.

The original implementation of the delay model that
:mod:`repro.fpga.simulate` documents, kept as the differential oracle
for the native event kernel and the batched kernel: every dirty gate
re-evaluates, in topological order, at each time one of its fanins'
waveforms changes, over packed ``uint64`` lane words. It is slow (one
numpy call per gate evaluation) and exact; every product kernel must
match it byte for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.simulate import BatchConfig, SimulationResult, _gate_delay
from repro.fpga.vectors import VectorSet, broadcast, n_words, popcount
from repro.netlist.gates import TruthTable
from repro.rtl.controller import build_controller


_EVALUATOR_CACHE: Dict[Tuple[int, int], Callable] = {}


def _compile_table(table: TruthTable) -> Callable:
    """Compile a truth table into a packed-word evaluator.

    Shannon expansion over the inputs: ``2^k - 1`` select operations of
    the form ``(x & hi) | (~x & lo)``, bottoming out at constant words.
    Compiled once per distinct function and cached process-wide.
    """
    key = (table.n_inputs, table.bits)
    cached = _EVALUATOR_CACHE.get(key)
    if cached is not None:
        return cached

    n = table.n_inputs

    def build(level: int, bits: int):
        """Evaluator for the sub-function over inputs [0, level)."""
        if level == 0:
            return bool(bits & 1)
        half = 1 << (level - 1)
        mask = (1 << half) - 1
        lo = build(level - 1, bits & mask)
        hi = build(level - 1, bits >> half)
        if lo is hi or (isinstance(lo, bool) and lo == hi):
            return lo
        sel_index = level - 1

        if isinstance(lo, bool) and isinstance(hi, bool):
            if hi and not lo:
                return lambda values, ones: values[sel_index]
            # lo and not hi
            return lambda values, ones: values[sel_index] ^ ones

        def node(values, ones, lo=lo, hi=hi, sel_index=sel_index):
            sel = values[sel_index]
            lo_words = lo if isinstance(lo, np.ndarray) else (
                lo(values, ones) if callable(lo) else (ones if lo else None)
            )
            hi_words = hi if isinstance(hi, np.ndarray) else (
                hi(values, ones) if callable(hi) else (ones if hi else None)
            )
            if lo_words is None:  # constant 0
                return sel & hi_words
            if hi_words is None:
                return ~sel & lo_words
            return (sel & hi_words) | (~sel & lo_words)

        return node

    # Shannon on the full table; inputs ordered LSB-first like
    # TruthTable indices.
    root = build(n, table.bits)
    if isinstance(root, bool):
        constant = root

        def evaluator(values, ones, zeros):
            return ones.copy() if constant else zeros.copy()

    else:

        def evaluator(values, ones, zeros, root=root):
            result = root(values, ones)
            return result & ones  # mask tail lanes

    _EVALUATOR_CACHE[key] = evaluator
    return evaluator



class _Waveform:
    """Timed transitions of one net within a control step."""

    __slots__ = ("times", "values")

    def __init__(self):
        self.times: List[int] = []
        self.values: List[np.ndarray] = []

    def value_at(self, time: int, steady: np.ndarray) -> np.ndarray:
        """Net value at (just after) ``time``."""
        result = steady
        for t, value in zip(self.times, self.values):
            if t <= time:
                result = value
            else:
                break
        return result


def simulate_reference(
    design: ElaboratedDesign,
    vectors: VectorSet,
    collect_per_net: bool = False,
    idle_selects: str = "zero",
    delay_jitter: int = 0,
) -> SimulationResult:
    """The seed timed-waveform simulator.

    Same signature and result as
    :func:`repro.fpga.simulate.simulate_design`.
    """
    netlist = design.netlist
    lanes = vectors.lanes
    words = n_words(lanes)
    ones = broadcast(True, lanes)
    zeros = np.zeros(words, dtype=np.uint64)

    controller = build_controller(design.datapath)
    control_values = controller.resolved(idle_selects)

    topo = netlist.topological_order()
    gates = [netlist.gates[net] for net in topo]
    evaluators = [_compile_table(gate.table) for gate in gates]
    delays = [_gate_delay(gate.output, delay_jitter) for gate in gates]
    fanout_positions: Dict[str, List[int]] = {}
    for position, gate in enumerate(gates):
        for name in gate.inputs:
            fanout_positions.setdefault(name, []).append(position)

    steady: Dict[str, np.ndarray] = {}
    for net in netlist.inputs:
        steady[net] = zeros.copy()
    for net in netlist.latches:
        steady[net] = zeros.copy()

    # Settle the all-zero state without counting (power-on, as in the
    # paper's simulator warm-up before vectors apply).
    for gate, evaluator in zip(gates, evaluators):
        values = [steady[name] for name in gate.inputs]
        steady[gate.output] = evaluator(values, ones, zeros)

    counters = {
        "comb": 0,
        "reg": 0,
        "pad": 0,
        "control": 0,
    }
    per_net: Dict[str, int] = {}

    def count(net: str, delta_words: np.ndarray, category: str) -> None:
        toggles = popcount(delta_words)
        if toggles:
            counters[category] += toggles
            if collect_per_net:
                per_net[net] = per_net.get(net, 0) + toggles

    def drive(net: str, new_value: np.ndarray, category: str, changed):
        old = steady[net]
        delta = old ^ new_value
        if delta.any():
            count(net, delta, category)
            steady[net] = new_value
            changed[net] = old  # remember pre-change value

    n_steps = len(design.datapath.control)
    for step in range(n_steps):
        changed: Dict[str, np.ndarray] = {}

        # Pads present their vector at the load step.
        if step == 0:
            for position, nets in design.pad_nets.items():
                for bit, net in enumerate(nets):
                    drive(net, vectors.pad_words(position, bit), "pad", changed)

        # Control signals take this step's value.
        for name, nets in design.control_nets.items():
            value = control_values.get(name)
            if value is None:
                continue
            step_value = value[step]
            for bit, net in enumerate(nets):
                bit_set = bool((step_value >> bit) & 1)
                drive(net, ones.copy() if bit_set else zeros.copy(),
                      "control", changed)

        _propagate(
            gates, evaluators, delays, fanout_positions, steady, changed,
            ones, zeros, count,
        )

        # Clock edge: all flip-flops load their data nets.
        updates = []
        for latch in netlist.latches.values():
            new_q = steady[latch.data]
            updates.append((latch.output, new_q))
        changed = {}
        for net, new_q in updates:
            drive(net, new_q.copy(), "reg", changed)
        # Settle after the clock edge (counted — the paper's simulator
        # sees these transitions too, including after the final edge).
        _propagate(
            gates, evaluators, delays, fanout_positions, steady, changed,
            ones, zeros, count,
        )

    outputs: Dict[int, List[int]] = {}
    for position, nets in design.output_nets.items():
        values = []
        for lane in range(lanes):
            value = 0
            for bit, net in enumerate(nets):
                if (int(steady[net][lane // 64]) >> (lane % 64)) & 1:
                    value |= 1 << bit
            values.append(value)
        outputs[position] = values

    return SimulationResult(
        lanes=lanes,
        steps=n_steps,
        comb_toggles=counters["comb"],
        register_toggles=counters["reg"],
        pad_toggles=counters["pad"],
        control_toggles=counters["control"],
        per_net=per_net,
        outputs=outputs,
    )



def simulate_batch_reference(
    design: ElaboratedDesign,
    configs: List[BatchConfig],
    collect_per_net: bool = False,
) -> List[SimulationResult]:
    """:func:`repro.fpga.simulate.simulate_batch`, one seed run per config."""
    return [
        simulate_reference(
            design, config.vectors, collect_per_net,
            config.idle_selects, config.delay_jitter,
        )
        for config in configs
    ]


def _propagate(
    gates,
    evaluators,
    delays,
    fanout_positions,
    steady: Dict[str, np.ndarray],
    changed_sources: Dict[str, np.ndarray],
    ones: np.ndarray,
    zeros: np.ndarray,
    count,
) -> None:
    """Timed-waveform settling after source changes (unit delay).

    ``changed_sources`` maps nets that changed at time 0 to their
    *previous* value; ``steady`` already holds their new value.
    """
    if not changed_sources:
        return
    waveforms: Dict[str, _Waveform] = {}
    previous: Dict[str, np.ndarray] = {}
    for net, old in changed_sources.items():
        wave = _Waveform()
        wave.times.append(0)
        wave.values.append(steady[net])
        waveforms[net] = wave
        previous[net] = old

    dirty = [
        position
        for net in changed_sources
        for position in fanout_positions.get(net, [])
    ]
    dirty_set = set(dirty)

    for position, (gate, evaluator) in enumerate(zip(gates, evaluators)):
        if position not in dirty_set:
            continue
        delay = delays[position]
        input_waves = [
            (index, waveforms[name])
            for index, name in enumerate(gate.inputs)
            if name in waveforms
        ]
        if not input_waves:
            continue
        times = sorted(
            {t for _, wave in input_waves for t in wave.times}
        )
        old_output = steady[gate.output]
        base_values = [
            previous.get(name, steady[name]) for name in gate.inputs
        ]
        last_value = old_output
        wave = _Waveform()
        for t in times:
            current = list(base_values)
            for index, in_wave in input_waves:
                current[index] = in_wave.value_at(
                    t, previous.get(gate.inputs[index], steady[gate.inputs[index]])
                )
            new_value = evaluator(current, ones, zeros)
            if (new_value ^ last_value).any():
                wave.times.append(t + delay)
                wave.values.append(new_value)
                count(gate.output, new_value ^ last_value, "comb")
                last_value = new_value
        if wave.times:
            waveforms[gate.output] = wave
            previous[gate.output] = old_output
            steady[gate.output] = last_value
            for fan in fanout_positions.get(gate.output, []):
                dirty_set.add(fan)
