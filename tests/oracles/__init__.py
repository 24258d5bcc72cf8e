"""Differential oracles: the seed engine of every flow stage.

The product has one engine per stage. The seed engine each replaced
lives here, outside ``src/`` (no ``repro`` module imports this
package), as the oracle that the differential, golden and hypothesis
suites hold the product to, byte for byte:

=========  ===========================  ================================
stage      oracle                       product engine
=========  ===========================  ================================
bind       ``bind_hlpower_reference``,  :func:`repro.binding.bind_hlpower`,
           ``bind_lopass_reference``    :func:`repro.binding.bind_lopass`
elaborate  ``elaborate_reference``      :func:`repro.fpga.elaborate_datapath`
techmap    ``map_reference``            :func:`repro.techmap.map_netlist`
simulate   ``simulate_reference``,      :func:`repro.fpga.simulate_design`,
           ``simulate_batch_reference`` :func:`repro.fpga.simulate_batch`
=========  ===========================  ================================

:func:`run_flow_reference` runs the whole flow with all four swapped in
(see :mod:`tests.oracles.flow`).
"""

from tests.oracles.binding import bind_hlpower_reference, bind_lopass_reference
from tests.oracles.elaborate import elaborate_reference
from tests.oracles.flow import oracle_engines, run_flow_reference
from tests.oracles.mapper import map_reference
from tests.oracles.simulate import simulate_batch_reference, simulate_reference

__all__ = [
    "bind_hlpower_reference",
    "bind_lopass_reference",
    "elaborate_reference",
    "map_reference",
    "oracle_engines",
    "run_flow_reference",
    "simulate_batch_reference",
    "simulate_reference",
]
