"""Exact gate-level simulation with glitch counting (event-driven).

This is the reproduction's stand-in for Quartus II's vector simulation
(with *glitch filtering set to never*, as the paper configures): every
signal transition — functional or glitch — is counted.

Model:

* every input vector occupies one bit lane; all lanes evaluate
  simultaneously through numpy bitwise ops on packed ``uint64`` words;
* each control step, the changed sources (clocked flip-flops, control
  signals, pads at load time) kick off a timed settling of the
  combinational network: a gate re-evaluates at every discrete time at
  which one of its fanins changed, and its output change (if any)
  propagates one gate delay later — exactly the delay model the
  paper's SA estimator assumes (Section 4);
* every appended transition adds ``popcount(old XOR new)`` to the
  owning net's toggle counter;
* at the end of the step all flip-flops clock simultaneously (their
  output toggles are the register power contribution).

Two kernels implement that model:

* ``kernel="event"`` (default) — the netlist is lowered once to dense
  integer ids and flat arrays (see :func:`compile_netlist`, cached on
  the netlist object). :func:`simulate_design` then runs the whole
  simulation — the power-on settle, every step's drives, both settles
  per step and all toggle counters — in one call into a native C
  kernel (``settle.c``) over an ``(n_nets, n_words)`` ``uint64`` lane
  state, walking a ring-buffer time wheel. The kernel is compiled with
  the system C compiler on the first simulation in a process and
  cached per user (see :mod:`repro.fpga.native`). Without a compiler,
  or for a gate wider than :data:`repro.fpga.native.MAX_ARITY` inputs,
  ``simulate_design`` runs :func:`simulate_batch` with one
  configuration instead — byte-identical, slower — after a
  ``RuntimeWarning`` naming the cause.
  :func:`simulate_batch` settles many configurations of one netlist
  in a single Python event loop over packed big ints (sweeps use it);
* ``kernel="reference"`` — the original timed-waveform implementation,
  kept verbatim as the differential-testing oracle.

Every path produces byte-identical :class:`SimulationResult` records
(the differential suite pins this across every built-in benchmark,
both idle conventions and jittered delays).

Functional correctness is checked against the CDFG's arithmetic
semantics (modular add/sub/mult) via :func:`golden_outputs`.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.fpga import native
from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.vectors import (
    VectorSet,
    broadcast,
    n_words,
    popcount,
    unpack_lane_values,
)
from repro.netlist.gates import Netlist, TruthTable
from repro.rtl.controller import build_controller


@dataclass
class SimulationResult:
    """Transition counts from one run."""

    lanes: int
    steps: int
    comb_toggles: int
    register_toggles: int
    pad_toggles: int
    control_toggles: int
    per_net: Dict[str, int] = field(default_factory=dict)
    #: Primary-output position -> per-lane integer values.
    outputs: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def total_toggles(self) -> int:
        return (
            self.comb_toggles
            + self.register_toggles
            + self.pad_toggles
            + self.control_toggles
        )


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


def _gate_delay(net: str, jitter: int) -> int:
    """Deterministic per-gate delay in ``1 .. 1 + jitter`` ticks."""
    if jitter <= 0:
        return 1
    return 1 + (zlib.crc32(net.encode()) % (jitter + 1))


_INT_EVALUATOR_CACHE: Dict[Tuple[int, int], Callable] = {}


def _compile_table_int(table: TruthTable) -> Callable:
    """Compile a truth table into a packed big-int evaluator.

    Same Shannon expansion as :func:`_compile_table`, but over Python
    integers (bit ``i`` = lane ``i``) and code-generated into one flat
    expression — a single function call per gate evaluation, with no
    interpreter-level tree walking. Every intermediate stays within the
    ``ones`` lane mask by construction (``~x`` only ever appears under
    an ``&`` with an in-mask operand), so no tail masking is needed.
    Cached process-wide per distinct function.
    """
    key = (table.n_inputs, table.bits)
    cached = _INT_EVALUATOR_CACHE.get(key)
    if cached is not None:
        return cached

    used: set = set()

    def build(level: int, bits: int):
        """Expression for the sub-function over inputs [0, level)."""
        if level == 0:
            return bool(bits & 1)
        half = 1 << (level - 1)
        mask = (1 << half) - 1
        lo = build(level - 1, bits & mask)
        hi = build(level - 1, bits >> half)
        if lo == hi and isinstance(lo, (bool, str)) and type(lo) is type(hi):
            return lo
        sel = f"v{level - 1}"
        used.add(level - 1)
        lo_bool = isinstance(lo, bool)
        hi_bool = isinstance(hi, bool)
        if lo_bool and hi_bool:
            if hi:  # hi=1, lo=0: the select input itself
                return sel
            # hi=0, lo=1: the select input, inverted within the mask
            return f"({sel} ^ ones)"
        if lo_bool:
            if lo:  # (sel & hi) | (~sel & ones)
                return f"(({sel} & {hi}) | ({sel} ^ ones))"
            return f"({sel} & {hi})"
        if hi_bool:
            if hi:  # (sel & ones) | (~sel & lo) == sel | lo
                return f"({sel} | {lo})"
            return f"(~{sel} & {lo})"
        return f"(({sel} & {hi}) | (~{sel} & {lo}))"

    root = build(table.n_inputs, table.bits)
    if isinstance(root, bool):
        body = "ones" if root else "0"
        unpack = []
    else:
        body = root
        unpack = [f"v{i} = values[{i}]" for i in sorted(used)]
    lines = ["def _evaluate(values, ones):"]
    lines.extend(f"    {line}" for line in unpack)
    lines.append(f"    return {body}")
    namespace: Dict[str, Callable] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from bits only
    evaluator = namespace["_evaluate"]
    _INT_EVALUATOR_CACHE[key] = evaluator
    return evaluator


def _words_to_int(words: np.ndarray) -> int:
    """Packed ``uint64`` word array -> one packed big int (lane i = bit i)."""
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


def _int_to_words(value: int, words: int) -> np.ndarray:
    """Inverse of :func:`_words_to_int` (``words`` output words)."""
    raw = np.frombuffer(value.to_bytes(words * 8, "little"), dtype="<u8")
    return raw.astype(np.uint64)


# ---------------------------------------------------------------------------
# Compiled netlist: the integer-indexed form the native kernel and the
# batched kernel operate on. Built once per (netlist, jitter) and cached on
# the netlist object itself, so repeated simulations of the same design
# (differential tests, sweeps, benches) skip the lowering entirely.
# ---------------------------------------------------------------------------


@dataclass
class CompiledNetlist:
    """Dense-id lowering of a :class:`Netlist` for simulation.

    Net ids are assigned sources-first (primary inputs, then latch
    outputs), then gate outputs in topological order, so evaluating
    gates in position order is a valid settling order.
    """

    jitter: int
    n_nets: int
    #: Net name -> dense id.
    net_id: Dict[str, int]
    #: Dense id -> net name (inverse of :attr:`net_id`).
    net_names: List[str]
    #: Per gate position (topological order): output net id.
    gate_outputs: List[int]
    #: Per gate position: fanin net ids, in port order.
    gate_fanins: List[Tuple[int, ...]]
    #: Per gate position: packed big-int evaluator.
    gate_evals: List[Callable]
    #: Per gate position: propagation delay in ticks.
    gate_delays: List[int]
    #: Per net id: positions of the gates reading that net.
    fanout_gates: List[List[int]]
    #: Per latch (declaration order): (output net id, data net id).
    latch_pairs: List[Tuple[int, int]]
    #: The native kernel's flat int32 lowering of the fields above, in
    #: ``struct repro_sim`` order: gate outputs, CSR fanins
    #: (``fanin_ptr``, ``fanin``), CSR fanouts (``fanout_ptr``,
    #: ``fanout``), truth-table bits as CSR uint32 words (``table_ptr``,
    #: ``table``), gate delays, latch outputs, latch data nets. ``None``
    #: when a gate is wider than the kernel's
    #: :data:`~repro.fpga.native.MAX_ARITY`.
    native_arrays: Optional[Tuple[np.ndarray, ...]]
    #: Widest gate (most fanins) in the netlist.
    max_arity: int
    #: Cheap staleness guard for the per-netlist cache.
    signature: Tuple[int, int, int]

    @property
    def n_gates(self) -> int:
        return len(self.gate_outputs)


def _netlist_signature(netlist: Netlist) -> Tuple[int, int, int]:
    return (len(netlist.inputs), len(netlist.gates), len(netlist.latches))


def compile_netlist(netlist: Netlist, delay_jitter: int = 0) -> CompiledNetlist:
    """Compiled form of ``netlist`` for the given delay spread.

    Cached on the netlist instance, keyed by ``delay_jitter``; a gate or
    latch added after compilation invalidates the cached entry (the
    signature check), so stale lowerings are never reused.
    """
    cache = getattr(netlist, "_sim_compiled", None)
    if cache is None:
        cache = {}
        netlist._sim_compiled = cache
    compiled = cache.get(delay_jitter)
    if compiled is None or compiled.signature != _netlist_signature(netlist):
        compiled = _lower_netlist(netlist, delay_jitter)
        cache[delay_jitter] = compiled
    return compiled


def _lower_netlist(netlist: Netlist, jitter: int) -> CompiledNetlist:
    topo = netlist.topological_order()
    net_names = list(netlist.inputs) + list(netlist.latches) + topo
    net_id = {name: index for index, name in enumerate(net_names)}
    if len(net_id) != len(net_names):
        raise SimulationError(
            f"{netlist.name}: net driven by more than one of "
            f"input/latch/gate"
        )

    gate_outputs: List[int] = []
    gate_fanins: List[Tuple[int, ...]] = []
    gate_evals: List[Callable] = []
    gate_delays: List[int] = []
    fanout_gates: List[List[int]] = [[] for _ in net_names]
    for position, name in enumerate(topo):
        gate = netlist.gates[name]
        try:
            fanins = tuple(net_id[fanin] for fanin in gate.inputs)
        except KeyError as exc:
            raise SimulationError(
                f"{netlist.name}: gate {name!r} reads undriven net {exc}"
            ) from None
        gate_outputs.append(net_id[name])
        gate_fanins.append(fanins)
        gate_evals.append(_compile_table_int(gate.table))
        gate_delays.append(_gate_delay(name, jitter))
        for fanin in fanins:
            fanout_gates[fanin].append(position)

    latch_pairs = [
        (net_id[latch.output], net_id[latch.data])
        for latch in netlist.latches.values()
    ]
    tables = [netlist.gates[name].table for name in topo]
    max_arity = max((table.n_inputs for table in tables), default=0)
    return CompiledNetlist(
        jitter=jitter,
        n_nets=len(net_names),
        net_id=net_id,
        net_names=net_names,
        gate_outputs=gate_outputs,
        gate_fanins=gate_fanins,
        gate_evals=gate_evals,
        gate_delays=gate_delays,
        fanout_gates=fanout_gates,
        latch_pairs=latch_pairs,
        native_arrays=_native_arrays(
            gate_outputs, gate_fanins, tables, gate_delays, fanout_gates,
            latch_pairs,
        ) if max_arity <= native.MAX_ARITY else None,
        max_arity=max_arity,
        signature=_netlist_signature(netlist),
    )


def _csr(rows, dtype=np.int32) -> Tuple[np.ndarray, np.ndarray]:
    """int32 row pointers and flat ``dtype`` values of int rows."""
    pointer = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(row) for row in rows], out=pointer[1:])
    flat = np.fromiter(
        (item for row in rows for item in row), dtype=dtype,
        count=int(pointer[-1]),
    )
    return pointer, flat


def _table_words(table: TruthTable) -> Tuple[int, ...]:
    """A truth table's bits as little-endian uint32 words."""
    count = ((1 << table.n_inputs) + 31) >> 5
    return tuple((table.bits >> (32 * i)) & 0xFFFFFFFF for i in range(count))


def _native_arrays(
    gate_outputs: List[int],
    gate_fanins: List[Tuple[int, ...]],
    tables: List[TruthTable],
    gate_delays: List[int],
    fanout_gates: List[List[int]],
    latch_pairs: List[Tuple[int, int]],
) -> Tuple[np.ndarray, ...]:
    fanin_ptr, fanin = _csr(gate_fanins)
    fanout_ptr, fanout = _csr(fanout_gates)
    table_ptr, table = _csr(
        [_table_words(table) for table in tables], dtype=np.uint32
    )
    return (
        np.asarray(gate_outputs, dtype=np.int32),
        fanin_ptr, fanin, fanout_ptr, fanout,
        table_ptr, table,
        np.asarray(gate_delays, dtype=np.int32),
        np.asarray([q for q, _ in latch_pairs], dtype=np.int32),
        np.asarray([d for _, d in latch_pairs], dtype=np.int32),
    )


# ---------------------------------------------------------------------------
# Event-driven kernel.
# ---------------------------------------------------------------------------


def simulate_design(
    design: ElaboratedDesign,
    vectors: VectorSet,
    collect_per_net: bool = False,
    idle_selects: str = "zero",
    delay_jitter: int = 0,
    kernel: str = "event",
) -> SimulationResult:
    """Replay the control table over the netlist for all lanes.

    ``idle_selects`` picks the idle-step control convention (see
    :meth:`repro.rtl.controller.Controller.resolved`).

    ``delay_jitter`` spreads per-gate delays over ``1 .. 1 + jitter``
    ticks, keyed deterministically by output net name. The paper's SA
    *estimator* assumes pure unit delay, but its *measurement* is a
    Quartus timing simulation with real routed delays and glitch
    filtering off; the jitter models that routing spread (0 restores
    the pure unit-delay model — the estimator-vs-measurement gap is an
    ablation bench).

    ``kernel`` selects the implementation: ``"event"`` (default) is the
    native event-driven kernel (the batch kernel when it is unavailable,
    see the module docstring); ``"reference"`` is the original
    timed-waveform loop kept as the differential-testing oracle. Both
    produce byte-identical results.
    """
    if kernel == "reference":
        return _simulate_reference(
            design, vectors, collect_per_net, idle_selects, delay_jitter
        )
    if kernel != "event":
        raise SimulationError(
            f"unknown simulation kernel {kernel!r}; choose 'event' or "
            f"'reference'"
        )

    netlist = design.netlist
    compiled = compile_netlist(netlist, delay_jitter)
    if compiled.native_arrays is None:
        warnings.warn(
            f"{netlist.name}: a gate has {compiled.max_arity} inputs, more "
            f"than the native settle kernel's {native.MAX_ARITY}; "
            f"simulating with the batch kernel",
            RuntimeWarning, stacklevel=2,
        )
        library = None
    else:
        library = native.load()
    if library is None:
        return simulate_batch(
            design, [BatchConfig(vectors, idle_selects, delay_jitter)],
            collect_per_net,
        )[0]

    lanes = vectors.lanes
    words = n_words(lanes)
    net_id = compiled.net_id
    n_steps = len(design.datapath.control)

    # Pads present their vector at the load step (step 0).
    pad_nets = [
        (net_id[net], vectors.pad_words(position, bit))
        for position, nets in design.pad_nets.items()
        for bit, net in enumerate(nets)
    ]
    pad_value = np.zeros((len(pad_nets), words), dtype=np.uint64)
    for row, (_, value) in enumerate(pad_nets):
        if len(value) != words:
            raise SimulationError(
                f"pad stimulus has {len(value)} words per bit; "
                f"{lanes} lanes need {words}"
            )
        pad_value[row] = value

    # Control signals take each step's value; a signal the idle
    # convention leaves undriven keeps its value.
    control_values = build_controller(design.datapath).resolved(idle_selects)
    control_nets: List[int] = []
    control_columns: List[List[int]] = []
    for name, nets in design.control_nets.items():
        value = control_values.get(name)
        if value is None:
            continue
        for bit, net in enumerate(nets):
            control_nets.append(net_id[net])
            control_columns.append(
                [(value[step] >> bit) & 1 for step in range(n_steps)]
            )
    control_bit = np.zeros((n_steps, len(control_nets)), dtype=np.uint8)
    for column, bits in enumerate(control_columns):
        control_bit[:, column] = bits

    state, net_toggles, counters = native.simulate(
        library, compiled.native_arrays, compiled.n_nets, lanes, n_steps,
        np.asarray([index for index, _ in pad_nets], dtype=np.int32),
        pad_value, np.asarray(control_nets, dtype=np.int32), control_bit,
    )

    outputs: Dict[int, List[int]] = {}
    for position, nets in design.output_nets.items():
        rows = [state[net_id[net]] for net in nets]
        outputs[position] = [
            int(value) for value in unpack_lane_values(rows, lanes)
        ]

    per_net: Dict[str, int] = {}
    if collect_per_net:
        names = compiled.net_names
        for index in np.flatnonzero(net_toggles):
            per_net[names[index]] = int(net_toggles[index])

    comb, reg, pad, control = (int(count) for count in counters)
    return SimulationResult(
        lanes=lanes,
        steps=n_steps,
        comb_toggles=comb,
        register_toggles=reg,
        pad_toggles=pad,
        control_toggles=control,
        per_net=per_net,
        outputs=outputs,
    )


# ---------------------------------------------------------------------------
# Batched kernel: many (vectors x jitter x idle) configurations of the
# same netlist in one event-driven pass. Each configuration owns a
# contiguous block of bit lanes inside one wider packed big int, so the
# per-gate evaluators run once per event for every configuration at
# once; only the toggle accounting and the pack/unpack boundaries are
# per-configuration.
# ---------------------------------------------------------------------------


@dataclass
class BatchConfig:
    """One configuration of a batched simulation run.

    The netlist, datapath and control table come from the shared
    design; a configuration only varies the simulation knobs — the
    stimulus, the idle-step control convention and the delay spread.
    """

    vectors: VectorSet
    idle_selects: str = "zero"
    delay_jitter: int = 0


def simulate_batch(
    design: ElaboratedDesign,
    configs: List[BatchConfig],
    collect_per_net: bool = False,
    kernel: str = "event",
) -> List[SimulationResult]:
    """Simulate every configuration in one batched kernel pass.

    Returns one :class:`SimulationResult` per configuration, in order,
    byte-identical to what :func:`simulate_design` produces for that
    configuration alone (the differential suite pins this against the
    ``"reference"`` kernel).

    Layout: configuration ``c`` occupies lanes ``[offset_c, offset_c +
    lanes_c)`` of every net's packed big int. Bitwise ops never move
    bits across lanes, so the compiled per-gate evaluators are reused
    unchanged over the wider words. Configurations sharing a
    ``delay_jitter`` form a *delay group* with one per-gate delay
    vector; the time-wheel carries ``(net, value, group_mask)``
    transitions so groups with different delays coexist on one wheel,
    each landing only on its own lanes. Idle conventions differ only in
    the per-step control words, composed per-config with the same
    masks.

    ``kernel="reference"`` runs the oracle once per configuration —
    the batched path's differential baseline.
    """
    if kernel == "reference":
        return [
            _simulate_reference(
                design, config.vectors, collect_per_net,
                config.idle_selects, config.delay_jitter,
            )
            for config in configs
        ]
    if kernel != "event":
        raise SimulationError(
            f"unknown simulation kernel {kernel!r}; choose 'event' or "
            f"'reference'"
        )
    if not configs:
        return []

    netlist = design.netlist
    n_configs = len(configs)

    # Lane layout: contiguous blocks, one per configuration, each
    # starting on a byte boundary so toggle counting can slice the
    # delta's byte string per configuration (see
    # :func:`_settle_events_batch`). The padding lanes between blocks
    # are inert: nothing ever drives them away from their power-on
    # value, so they contribute zero to every delta.
    offsets: List[int] = []
    block_ones: List[int] = []
    byte_ranges: List[Tuple[int, int]] = []
    total_lanes = 0
    for config in configs:
        lanes = config.vectors.lanes
        offsets.append(total_lanes)
        block_ones.append(((1 << lanes) - 1) << total_lanes)
        byte_ranges.append(
            (total_lanes // 8, (total_lanes + lanes + 7) // 8)
        )
        total_lanes += (lanes + 7) & ~7
    ones = (1 << total_lanes) - 1
    n_bytes = total_lanes // 8
    blocks = list(zip(range(n_configs), block_ones))
    real_ones = 0
    for block in block_ones:
        real_ones |= block
    gap_mask = ones ^ real_ones

    # Delay groups: one compiled netlist per distinct jitter. The
    # lowering is identical across jitters except for the delay vector,
    # so any of them serves as the structural base.
    compiled_by_jitter = {
        jitter: compile_netlist(netlist, jitter)
        for jitter in {config.delay_jitter for config in configs}
    }
    compiled = compiled_by_jitter[configs[0].delay_jitter]
    net_id = compiled.net_id
    group_delays: List[List[int]] = []
    group_masks: List[int] = []
    group_of_jitter: Dict[int, int] = {}
    for index, config in enumerate(configs):
        group = group_of_jitter.get(config.delay_jitter)
        if group is None:
            group = len(group_delays)
            group_of_jitter[config.delay_jitter] = group
            group_delays.append(
                compiled_by_jitter[config.delay_jitter].gate_delays
            )
            group_masks.append(0)
        group_masks[group] |= block_ones[index]

    # Per-gate delay plan: groups whose delay for this gate coincides
    # share one wheel transition (their masks merge). With jittered
    # delays drawn from small ranges, a large fraction of gates end up
    # with a single merged entry covering every lane — those schedule
    # one event with no mask test at all.
    delay_plans: List[List[Tuple[int, int]]] = []
    for position in range(compiled.n_gates):
        merged: Dict[int, int] = {}
        for group, delays in enumerate(group_delays):
            tick = delays[position]
            merged[tick] = merged.get(tick, 0) | group_masks[group]
        delay_plans.append(sorted(merged.items()))
    # One tuple per gate keeps the settle loop to a single list index;
    # a plan of one merged entry is pre-split out of the tuple so the
    # common case needs no len() test. Fanin values are gathered with
    # ``operator.itemgetter`` (one C call) instead of a per-gate list
    # comprehension.
    gate_data = [
        (evaluate, _fanin_getter(fanins), out, plan,
         plan[0] if len(plan) == 1 else None)
        for evaluate, fanins, out, plan in zip(
            compiled.gate_evals, compiled.gate_fanins,
            compiled.gate_outputs, delay_plans,
        )
    ]
    # Settle-call scratch: epoch-stamped pending words (cheaper than a
    # dict in the hot loop) and the configs' byte-segment layout for
    # the vectorized toggle counting.
    pend_value = [0] * compiled.n_gates
    pend_epoch = [-1] * compiled.n_gates
    epoch_box = [0]
    seg_bounds = [start for start, _ in byte_ranges] + [n_bytes]
    seg_widths = {b - a for a, b in zip(seg_bounds, seg_bounds[1:])}
    seg_width = seg_widths.pop() if len(seg_widths) == 1 else 0
    seg_starts = np.array(seg_bounds[:-1], dtype=np.intp)

    # Idle conventions: per-step control words composed per mode.
    controller = build_controller(design.datapath)
    mode_values: Dict[str, Dict[str, List[int]]] = {}
    mode_masks: Dict[str, int] = {}
    for index, config in enumerate(configs):
        mode = config.idle_selects
        if mode not in mode_values:
            mode_values[mode] = controller.resolved(mode)
            mode_masks[mode] = 0
        mode_masks[mode] |= block_ones[index]
    modes = list(mode_values)

    # One packed big int per net; power-on settle, uncounted (every
    # configuration starts from the same all-zero state).
    state: List[int] = [0] * compiled.n_nets
    gate_outputs = compiled.gate_outputs
    gate_fanins = compiled.gate_fanins
    gate_evals = compiled.gate_evals
    for position in range(compiled.n_gates):
        values = [state[i] for i in gate_fanins[position]]
        state[gate_outputs[position]] = gate_evals[position](values, ones)

    counters = [
        {"comb": 0, "reg": 0, "pad": 0, "control": 0}
        for _ in range(n_configs)
    ]
    net_toggles: Optional[List[np.ndarray]] = (
        [np.zeros(compiled.n_nets, dtype=np.int64)
         for _ in range(n_configs)]
        if collect_per_net else None
    )

    def drive(index: int, new_value: int, category: str,
              changed: List[int]) -> None:
        if gap_mask:
            # Keep padding lanes pinned at their power-on value so
            # they never show up in any delta.
            new_value = (new_value & real_ones) | (state[index] & gap_mask)
        delta = state[index] ^ new_value
        if delta:
            for ci, block in blocks:
                part = delta & block
                if part:
                    toggles = part.bit_count()
                    counters[ci][category] += toggles
                    if net_toggles is not None:
                        net_toggles[ci][index] += toggles
            state[index] = new_value
            changed.append(index)

    n_steps = len(design.datapath.control)
    for step in range(n_steps):
        changed: List[int] = []

        # Pads present their vector at the load step: every
        # configuration's packed words, shifted into its lane block.
        if step == 0:
            for position, nets in design.pad_nets.items():
                for bit, net in enumerate(nets):
                    value = 0
                    for ci, config in enumerate(configs):
                        value |= _words_to_int(
                            config.vectors.pad_words(position, bit)
                        ) << offsets[ci]
                    drive(net_id[net], value, "pad", changed)

        # Control signals take this step's value, composed per idle
        # mode. A mode that does not drive a signal (resolved() returns
        # no entry) keeps that mode's lanes at their current value —
        # exactly the solo kernel's "skip" semantics.
        for name, nets in design.control_nets.items():
            per_mode = [
                (mode_masks[mode], mode_values[mode].get(name))
                for mode in modes
            ]
            if all(value is None for _, value in per_mode):
                continue
            for bit, net in enumerate(nets):
                index = net_id[net]
                new_value = state[index]
                for mask, value in per_mode:
                    if value is None:
                        continue
                    if (value[step] >> bit) & 1:
                        new_value |= mask
                    else:
                        new_value &= ~mask
                drive(index, new_value, "control", changed)

        _settle_events_batch(
            compiled, gate_data, state, changed, ones,
            n_bytes, seg_starts, seg_width, counters, net_toggles,
            pend_value, pend_epoch, epoch_box,
        )

        # Clock edge: all flip-flops load their data nets (read out
        # first — flops clock simultaneously, in every configuration).
        updates = [
            (q_index, state[data_index])
            for q_index, data_index in compiled.latch_pairs
        ]
        changed = []
        for q_index, new_q in updates:
            drive(q_index, new_q, "reg", changed)
        _settle_events_batch(
            compiled, gate_data, state, changed, ones,
            n_bytes, seg_starts, seg_width, counters, net_toggles,
            pend_value, pend_epoch, epoch_box,
        )

    results: List[SimulationResult] = []
    names = compiled.net_names
    for ci, config in enumerate(configs):
        lanes = config.vectors.lanes
        words = n_words(lanes)
        offset = offsets[ci]
        lane_mask = (1 << lanes) - 1
        outputs: Dict[int, List[int]] = {}
        for position, nets in design.output_nets.items():
            rows = [
                _int_to_words((state[net_id[net]] >> offset) & lane_mask,
                              words)
                for net in nets
            ]
            outputs[position] = [
                int(value) for value in unpack_lane_values(rows, lanes)
            ]
        per_net: Dict[str, int] = {}
        if net_toggles is not None:
            for index in np.nonzero(net_toggles[ci])[0]:
                per_net[names[index]] = int(net_toggles[ci][index])
        results.append(SimulationResult(
            lanes=lanes,
            steps=n_steps,
            comb_toggles=counters[ci]["comb"],
            register_toggles=counters[ci]["reg"],
            pad_toggles=counters[ci]["pad"],
            control_toggles=counters[ci]["control"],
            per_net=per_net,
            outputs=outputs,
        ))
    return results


#: Per-byte popcounts, for the vectorized delta counting below
#: (int16: segment sums in `np.add.reduceat` stay within dtype).
_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.int16
)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    def _popcount_bytes(matrix: np.ndarray) -> np.ndarray:
        return np.bitwise_count(matrix).astype(np.int16)
else:
    def _popcount_bytes(matrix: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[matrix]


def _fanin_getter(fanins: List[int]) -> Callable:
    """One C-level call that gathers a gate's fanin values."""
    if len(fanins) > 1:
        return itemgetter(*fanins)
    if fanins:
        index = fanins[0]
        return lambda state: (state[index],)
    return lambda state: ()


def _settle_events_batch(
    compiled: CompiledNetlist,
    gate_data: List[Tuple],
    state: List[int],
    changed: List[int],
    ones: int,
    n_bytes: int,
    seg_starts: np.ndarray,
    seg_width: int,
    counters: List[Dict[str, int]],
    net_toggles: Optional[List[np.ndarray]],
    pend_value: List[int],
    pend_epoch: List[int],
    epoch_box: List[int],
) -> None:
    """Batched event-driven settling after source changes at time 0.

    ``changed`` lists net ids whose ``state`` entries already hold the
    new time-0 value. The wheel walks time forward one tick at a time:
    at each tick the pending transitions for that tick are applied to
    ``state``, then every gate with a fanin among them re-evaluates.
    A gate whose evaluation differs from its previous evaluation (its
    pending word, else its net's state) schedules its output
    transition ``delay`` ticks later and counts ``popcount(change)``
    toggles — the reference waveform loop's accounting, discovered in
    time order instead of per gate; ``settle.c`` walks the same wheel.

    Batching adds two twists. A changed gate
    schedules one wheel transition per entry of its delay plan — delay
    groups whose delay for this gate coincides were merged into one
    entry up front — carrying the entry's lane mask: transitions land
    as ``state = (state & ~mask) | (value & mask)``, so groups with
    different delays never clobber each other's lanes. The pending
    word (epoch-stamped scratch arrays, one epoch per settle call)
    still holds the full projection — lanes an entry did not schedule
    are, by construction, equal to their previous value, so the
    full-word update is exact.

    And toggle counting is deferred: each nonzero evaluation delta is
    captured as its little-endian byte string, and one vectorized pass
    at the end popcounts every (delta, configuration) pair — per-byte
    popcounts summed per configuration at the (byte-aligned)
    lane-block boundaries (a reshape for uniform blocks, reduceat for
    ragged ones). That replaces ``n_configs`` big-int masks per event
    with one ``to_bytes`` per event plus a few numpy reductions per
    settle — a configuration whose lanes did not change still
    contributes nothing, even when a sibling's did.
    """
    if not changed:
        return
    fanout_gates = compiled.fanout_gates
    epoch_box[0] += 1
    epoch = epoch_box[0]

    delta_nets: List[int] = []
    delta_rows: List[bytes] = []
    nets_append = delta_nets.append
    rows_append = delta_rows.append
    # Tick -> transitions [(net id, new value, lane mask)].
    wheel: Dict[int, List[Tuple[int, int, int]]] = {}
    wheel_setdefault = wheel.setdefault
    time = 0
    in_flight = 0
    changed_now = changed
    while True:
        triggered = set()
        for index in changed_now:
            triggered.update(fanout_gates[index])
        for position in sorted(triggered):
            evaluate, gather, out, plan, single = gate_data[position]
            new_value = evaluate(gather(state), ones)
            if pend_epoch[position] == epoch:
                previous = pend_value[position]
            else:
                previous = state[out]
            delta = previous ^ new_value
            if delta:
                nets_append(out)
                rows_append(delta.to_bytes(n_bytes, "little"))
                if single is not None:
                    # Merged entry: its mask covers every lane, and the
                    # delta is nonzero, so it always schedules.
                    tick, mask = single
                    wheel_setdefault(time + tick, []).append(
                        (out, new_value, mask)
                    )
                    in_flight += 1
                else:
                    for tick, mask in plan:
                        if delta & mask:
                            wheel_setdefault(time + tick, []).append(
                                (out, new_value, mask)
                            )
                            in_flight += 1
                pend_value[position] = new_value
                pend_epoch[position] = epoch
        if not in_flight:
            break
        time += 1
        while time not in wheel:
            time += 1
        events = wheel.pop(time)
        in_flight -= len(events)
        changed_now = []
        for index, value, mask in events:
            state[index] = (state[index] & ~mask) | (value & mask)
            changed_now.append(index)

    if not delta_rows:
        return
    matrix = np.frombuffer(
        b"".join(delta_rows), dtype=np.uint8
    ).reshape(len(delta_rows), n_bytes)
    # (n_deltas, n_configs) toggle counts in two C calls: per-byte
    # popcount, then a segmented sum at the block starts (a block's
    # trailing padding bytes fold into its own segment and are always
    # zero in every delta). Uniform lane blocks — the usual case — sum
    # via a cheap reshape; ragged blocks fall back to reduceat.
    counts = _popcount_bytes(matrix)
    if seg_width:
        per_config = counts.reshape(
            len(delta_rows), -1, seg_width
        ).sum(axis=2, dtype=np.int64)
    else:
        per_config = np.add.reduceat(counts, seg_starts, axis=1)
    totals = per_config.sum(axis=0, dtype=np.int64)
    outs = np.asarray(delta_nets, dtype=np.intp)
    n_nets = compiled.n_nets
    for ci in range(len(seg_starts)):
        total = int(totals[ci])
        if not total:
            continue
        counters[ci]["comb"] += total
        if net_toggles is not None:
            # bincount's float64 weights are exact here (counts are
            # far below 2**53).
            net_toggles[ci] += np.bincount(
                outs, weights=per_config[:, ci], minlength=n_nets
            ).astype(np.int64)


# ---------------------------------------------------------------------------
# Reference kernel (the seed implementation, kept as the differential
# oracle: per-gate timed waveforms settled in topological order).
# ---------------------------------------------------------------------------


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


def _simulate_reference(
    design: ElaboratedDesign,
    vectors: VectorSet,
    collect_per_net: bool = False,
    idle_selects: str = "zero",
    delay_jitter: int = 0,
) -> SimulationResult:
    """The original timed-waveform simulator (see :func:`simulate_design`)."""
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


def golden_outputs(
    design: ElaboratedDesign, vectors: VectorSet
) -> Dict[int, List[int]]:
    """Expected primary-output values from CDFG semantics.

    Evaluates the dataflow graph with modular arithmetic at the
    datapath width, all lanes at once — the reference the simulated
    hardware must match bit-exactly.
    """
    cdfg = design.datapath.cdfg
    width = design.width
    if width > 64:
        raise SimulationError(f"datapath width {width} exceeds 64 bits")
    mask = np.uint64((1 << width) - 1)
    values: Dict[int, np.ndarray] = {
        var_id: vectors.lane_values(position)
        for position, var_id in enumerate(cdfg.primary_inputs)
    }
    for op in cdfg.topological_order():
        a = values[op.inputs[0]]
        b = values[op.inputs[1]]
        if op.op_type == "add":
            result = (a + b) & mask
        elif op.op_type == "sub":
            result = (a - b) & mask
        else:
            # uint64 wraps mod 2**64; masking keeps the low `width`
            # bits, which only depend on the low bits of the operands.
            result = (a * b) & mask
        values[op.output] = result
    return {
        position: [int(value) for value in values[var_id]]
        for position, var_id in enumerate(cdfg.primary_outputs)
    }


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
