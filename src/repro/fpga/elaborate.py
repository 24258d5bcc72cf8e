"""The elaborated design: a flat gate-level netlist plus its name maps.

:func:`repro.fpga.compile.elaborate_datapath` builds it: the
structural library for every datapath component — register banks
(with enable recirculation), register input muxes, FU port muxes, and
the arithmetic units — wired per the binding. Mux select lines,
register enables and add/sub mode bits become primary inputs of the
netlist; the simulator drives them with the control table (an ideal
FSM), and the SA estimator treats them as low-activity sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.netlist.gates import Netlist
from repro.rtl.datapath import Datapath


@dataclass
class ElaboratedDesign:
    """Flat netlist plus the name maps the simulator needs."""

    datapath: Datapath
    netlist: Netlist
    #: Pad position -> per-bit primary input nets.
    pad_nets: Dict[int, List[str]]
    #: Register index -> per-bit flip-flop output nets.
    register_nets: Dict[int, List[str]]
    #: FU id -> per-bit result nets.
    fu_nets: Dict[int, List[str]]
    #: Control signal name -> list of nets (select bus bits / enable).
    control_nets: Dict[str, List[str]]
    #: Primary-output position -> per-bit nets.
    output_nets: Dict[int, List[str]]

    @property
    def width(self) -> int:
        return self.datapath.width
