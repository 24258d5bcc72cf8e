"""Bit-blasting elaboration for external word-level modules.

Lowers :class:`repro.ingest.module.Module` ops onto the structural
generators in :mod:`repro.netlist.library` — ripple-carry adders and
subtractors, the array multiplier, pairwise mux trees, per-bit latches —
so an ingested design yields a :class:`~repro.netlist.gates.Netlist`
indistinguishable from the CDFG generator's elaboration output
(including the same :func:`repro.netlist.compile.clean_fast` pass the
generator path runs).

Naming is deterministic and pinned by golden tests: bit ``b`` of signal
``x`` is the net ``x[b]``, and internal nets of the cell instantiated
for op ``i`` carry the prefix ``u<i>_<op>/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import IngestError
from repro.netlist.blif import parse_blif
from repro.netlist.compile import clean_fast
from repro.netlist.gates import GateType, Netlist
from repro.netlist.library import (
    build_adder,
    build_multiplier,
    build_mux,
    build_subtractor,
    select_width,
)
from repro.ingest.module import ExternalDesign, Module, WordOp, parse_module

_BITWISE = {
    "and": GateType.AND,
    "or": GateType.OR,
    "xor": GateType.XOR,
    "not": GateType.NOT,
}


@dataclass
class IngestedDesign:
    """An external design elaborated to the gate level.

    ``signal_bits`` maps the module's input/output signals to their bit
    nets (LSB first); ``control_nets`` are the bit nets of ``control``
    -flagged inputs, fed to the tech mapper as the low-activity inputs
    exactly like the generator flow's control nets.
    """

    name: str
    netlist: Netlist
    control_nets: Tuple[str, ...]
    n_registers: int
    signal_bits: Dict[str, Tuple[str, ...]]


def bit_blast(module: Module) -> IngestedDesign:
    """Lower ``module`` to gates; deterministic for a given module."""
    netlist = Netlist(module.name)
    bits = {
        signal.name: tuple(f"{signal.name}[{b}]"
                           for b in range(signal.width))
        for signal in module.signals.values()
    }
    control_nets: List[str] = []
    for signal in module.signals.values():
        if signal.is_input:
            for net in bits[signal.name]:
                netlist.add_input(net)
            if signal.is_control:
                control_nets.extend(bits[signal.name])

    for index, op in enumerate(module.ops):
        _lower_op(netlist, op, bits, prefix=f"u{index}_{op.op}/",
                  init=module.signals[op.output].init)

    for signal in module.signals.values():
        if signal.is_output:
            for net in bits[signal.name]:
                netlist.set_output(net)

    clean_fast(netlist)
    io_bits = {
        name: bits[name] for name, signal in module.signals.items()
        if signal.is_input or signal.is_output
    }
    n_registers = sum(
        1 for signal in module.signals.values() if signal.is_reg
    )
    return IngestedDesign(name=module.name, netlist=netlist,
                          control_nets=tuple(control_nets),
                          n_registers=n_registers, signal_bits=io_bits)


def _lower_op(
    netlist: Netlist,
    op: WordOp,
    bits: Dict[str, Tuple[str, ...]],
    prefix: str,
    init: int,
) -> None:
    out = bits[op.output]
    width = len(out)
    if op.op in ("add", "sub", "mul"):
        builder = {"add": build_adder, "sub": build_subtractor,
                   "mul": build_multiplier}[op.op]
        cell = builder(width)
        port_map = {}
        for port, name in zip("ab", op.inputs):
            for b in range(width):
                port_map[f"{port}{b}"] = bits[name][b]
        netlist.instantiate(
            cell, port_map, prefix,
            output_map={f"s{b}": out[b] for b in range(width)},
        )
    elif op.op == "mux":
        cell = build_mux(len(op.inputs), width)
        port_map = {}
        for i, name in enumerate(op.inputs):
            for b in range(width):
                port_map[f"d{i}_{b}"] = bits[name][b]
        for k in range(select_width(len(op.inputs))):
            port_map[f"sel{k}"] = bits[op.select][k]
        netlist.instantiate(
            cell, port_map, prefix,
            output_map={f"y{b}": out[b] for b in range(width)},
        )
    elif op.op in _BITWISE:
        gate_type = _BITWISE[op.op]
        for b in range(width):
            operands = tuple(bits[name][b] for name in op.inputs)
            netlist.add_simple(gate_type, operands, out[b])
    elif op.op == "dff":
        data = bits[op.inputs[0]]
        for b in range(width):
            netlist.add_latch(data[b], out[b], init=bool((init >> b) & 1))
    elif op.op == "const":
        for b in range(width):
            netlist.add_const(bool((op.value >> b) & 1), out[b])
    elif op.op == "slice":
        source = bits[op.inputs[0]]
        for b in range(width):
            netlist.add_simple(GateType.BUF, (source[op.lsb + b],), out[b])
    elif op.op == "concat":
        # inputs[0] supplies the least-significant bits.
        position = 0
        for name in op.inputs:
            for source in bits[name]:
                netlist.add_simple(GateType.BUF, (source,), out[position])
                position += 1
    else:  # pragma: no cover - parse_op rejects unknown ops
        raise IngestError(f"cannot lower op {op.op!r}")


def elaborate_design(design: ExternalDesign) -> IngestedDesign:
    """Elaborate an :class:`ExternalDesign` from its canonical text.

    Word-level modules bit-blast; flat BLIF is already gate-level and is
    taken verbatim (re-parsed from the canonical text so the artifact is
    a pure function of the content address).
    """
    if design.kind == "module":
        return bit_blast(parse_module(design.canonical))
    if design.kind != "blif":
        raise IngestError(f"unknown design kind {design.kind!r}")
    netlist = parse_blif(design.canonical)
    return IngestedDesign(name=netlist.name, netlist=netlist,
                          control_nets=(),
                          n_registers=len(netlist.latches), signal_bits={})
