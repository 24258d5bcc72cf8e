"""The seed datapath elaborator.

Instantiates the structural library netlist of every component
instance through :meth:`Netlist.instantiate` and sweeps the result
with the seed :func:`repro.netlist.transform.clean`. Kept as the
differential oracle for the template-stamped elaborator
(:func:`repro.fpga.elaborate_datapath`), which must produce the same
netlist byte for byte, gate insertion order included.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import RTLError
from repro.fpga.elaborate import ElaboratedDesign
from repro.netlist.gates import Netlist
from repro.netlist.library import (
    build_addsub,
    build_functional_unit,
    build_mux,
    build_register,
    select_width,
)
from repro.netlist.transform import clean
from repro.rtl.datapath import Datapath, FUSpec, MuxSpec, SourceRef


def elaborate_reference(datapath: Datapath) -> ElaboratedDesign:
    """Build the flat gate-level netlist of ``datapath``."""
    width = datapath.width
    top = Netlist("design")

    pad_nets: Dict[int, List[str]] = {}
    n_pads = len(datapath.cdfg.primary_inputs)
    for position in range(n_pads):
        pad_nets[position] = [
            top.add_input(f"pi{position}_{bit}") for bit in range(width)
        ]

    control_nets: Dict[str, List[str]] = {}

    def control_bus(name: str, bits: int) -> List[str]:
        nets = [top.add_input(f"{name}_{k}") for k in range(bits)]
        control_nets[name] = nets
        return nets

    # Register outputs must exist before FU muxes reference them, and
    # FU outputs before register muxes do; declare latch outputs first
    # by reserving their net names, then build logic in two passes.
    register_nets: Dict[int, List[str]] = {
        reg.index: [f"reg{reg.index}_q{bit}" for bit in range(width)]
        for reg in datapath.registers
    }

    # Pass 1: FU port muxes and arithmetic.
    fu_nets: Dict[int, List[str]] = {}
    for spec in datapath.fus:
        fu_nets[spec.unit.fu_id] = _build_fu(
            top, datapath, spec, width, register_nets, control_bus
        )

    # Pass 2: register input muxes and flip-flops.
    for reg in datapath.registers:
        _build_register(
            top,
            reg.index,
            reg.mux,
            width,
            pad_nets,
            fu_nets,
            register_nets,
            control_bus,
        )

    output_nets: Dict[int, List[str]] = {}
    for position, register in enumerate(datapath.output_registers):
        nets = register_nets[register]
        for net in nets:
            top.set_output(net)
        output_nets[position] = nets

    clean(top)
    return ElaboratedDesign(
        datapath=datapath,
        netlist=top,
        pad_nets=pad_nets,
        register_nets=register_nets,
        fu_nets=fu_nets,
        control_nets=control_nets,
        output_nets=output_nets,
    )


def _resolve_source(
    source: SourceRef,
    bit: int,
    pad_nets: Dict[int, List[str]],
    fu_nets: Dict[int, List[str]],
    register_nets: Dict[int, List[str]],
) -> str:
    kind, index = source
    if kind == "reg":
        return register_nets[index][bit]
    if kind == "pad":
        return pad_nets[index][bit]
    if kind == "fu":
        return fu_nets[index][bit]
    raise RTLError(f"unknown source kind {kind!r}")


def _build_mux_instance(
    top: Netlist,
    name: str,
    select_name: str,
    mux: MuxSpec,
    width: int,
    resolve,
    control_bus,
) -> List[str]:
    """Instantiate one mux; returns its output bus nets.

    ``select_name`` must match the controller's signal naming
    (:mod:`repro.rtl.controller`) so the simulator can drive it.
    """
    if mux.size == 1:
        return [resolve(mux.sources[0], bit) for bit in range(width)]
    instance = build_mux(mux.size, width)
    port_map: Dict[str, str] = {}
    for position, source in enumerate(mux.sources):
        for bit in range(width):
            port_map[f"d{position}_{bit}"] = resolve(source, bit)
    selects = control_bus(select_name, select_width(mux.size))
    for k, net in enumerate(selects):
        if f"sel{k}" in instance.inputs:
            port_map[f"sel{k}"] = net
    out_map = top.instantiate(instance, port_map, prefix=f"u_{name}/")
    return [out_map[f"y{bit}"] for bit in range(width)]


def _build_fu(
    top: Netlist,
    datapath: Datapath,
    spec: FUSpec,
    width: int,
    register_nets: Dict[int, List[str]],
    control_bus,
) -> List[str]:
    fu = spec.unit.fu_id

    def resolve(source: SourceRef, bit: int) -> str:
        if source[0] != "reg":
            raise RTLError(f"FU port reads non-register source {source}")
        return register_nets[source[1]][bit]

    bus_a = _build_mux_instance(
        top, f"fu{fu}_a", f"fu{fu}_sel_a", spec.mux_a, width,
        resolve, control_bus,
    )
    bus_b = _build_mux_instance(
        top, f"fu{fu}_b", f"fu{fu}_sel_b", spec.mux_b, width,
        resolve, control_bus,
    )

    if spec.needs_mode:
        unit = build_addsub(width)
    elif spec.unit.fu_class == "mult":
        unit = build_functional_unit("mult", width)
    else:
        # A unit of the adder class holding only subtractions still
        # elaborates as a subtractor; mixed units took the branch above.
        op_types = {
            datapath.cdfg.operations[op_id].op_type
            for op_id in spec.unit.ops
        }
        fu_type = "sub" if op_types == {"sub"} else "add"
        unit = build_functional_unit(fu_type, width)
    port_map: Dict[str, str] = {}
    for bit in range(width):
        port_map[f"a{bit}"] = bus_a[bit]
        port_map[f"b{bit}"] = bus_b[bit]
    if spec.needs_mode:
        port_map["mode"] = control_bus(f"fu{fu}_mode", 1)[0]
    out_map = top.instantiate(unit, port_map, prefix=f"u_fu{fu}/")
    return [out_map[f"s{bit}"] for bit in range(width)]


def _build_register(
    top: Netlist,
    index: int,
    mux: MuxSpec,
    width: int,
    pad_nets: Dict[int, List[str]],
    fu_nets: Dict[int, List[str]],
    register_nets: Dict[int, List[str]],
    control_bus,
) -> None:
    def resolve(source: SourceRef, bit: int) -> str:
        return _resolve_source(source, bit, pad_nets, fu_nets, register_nets)

    data_bus = _build_mux_instance(
        top, f"reg{index}", f"reg{index}_sel", mux, width,
        resolve, control_bus,
    )
    bank = build_register(width, with_enable=True)
    port_map: Dict[str, str] = {"en": control_bus(f"reg{index}_en", 1)[0]}
    for bit in range(width):
        port_map[f"d{bit}"] = data_bus[bit]
    # Force the flop outputs onto the pre-declared net names the FU
    # muxes already reference.
    output_map = {
        f"q{bit}": register_nets[index][bit] for bit in range(width)
    }
    top.instantiate(bank, port_map, prefix=f"u_reg{index}/", output_map=output_map)
