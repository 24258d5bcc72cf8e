"""The flow with its stages on their seed engines.

:func:`oracle_engines` swaps seed engines in for the entry points the
pipeline calls — by attribute on :mod:`repro.flow.pipeline`, the
same names the traced benchmark wraps — and for the heuristic
incumbents of the MCTS binder; :func:`run_flow_reference` runs
:func:`repro.flow.run.run_flow` under it with a fresh artifact cache,
so no stage is served from an artifact the product engines made.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import repro.binding.mcts as mcts
import repro.flow.pipeline as pipeline
from repro.binding.hlpower import HLPowerConfig
from repro.flow.cache import ArtifactCache
from repro.flow.run import FlowResult, run_flow
from tests.oracles.binding import bind_hlpower_reference, bind_lopass_reference
from tests.oracles.elaborate import elaborate_reference
from tests.oracles.mapper import map_reference
from tests.oracles.simulate import simulate_batch_reference, simulate_reference


def _run_binder(binder, schedule, constraints, registers, ports,
                alpha=0.5, sa_table=None, bind_memo=None, **mcts_knobs):
    if binder == "hlpower":
        return bind_hlpower_reference(
            schedule, constraints, registers, ports,
            HLPowerConfig(alpha=alpha, sa_table=sa_table),
        )
    if binder == "lopass":
        return bind_lopass_reference(schedule, constraints, registers, ports)
    # MCTS searches on top of the (patched) heuristic incumbents;
    # custom callables have no seed engine.
    return _product_run_binder(
        binder, schedule, constraints, registers, ports, alpha=alpha,
        sa_table=sa_table, bind_memo=bind_memo, **mcts_knobs,
    )


def _map_netlist(netlist, *args, effort="fast", cone_memo=None, **kwargs):
    if effort != "fast":
        raise ValueError(f"the seed mapper has no {effort!r} effort")
    return map_reference(netlist, *args, **kwargs)


def _hlpower_incumbent(schedule, constraints, registers, ports, config,
                       memo=None):
    return bind_hlpower_reference(
        schedule, constraints, registers, ports, config
    )


#: The product dispatcher, captured before any swap.
_product_run_binder = pipeline.run_binder

#: Stage -> the (module, attribute, seed engine) swaps that put it on
#: its seed engine.
_SUBSTITUTES = {
    "bind": (
        (pipeline, "run_binder", _run_binder),
        (mcts, "bind_hlpower", _hlpower_incumbent),
        (mcts, "bind_lopass", bind_lopass_reference),
    ),
    "elaborate": ((pipeline, "elaborate_design", elaborate_reference),),
    "techmap": ((pipeline, "map_netlist", _map_netlist),),
    "simulate": (
        (pipeline, "simulate_design", simulate_reference),
        (pipeline, "simulate_batch", simulate_batch_reference),
    ),
}

@contextlib.contextmanager
def oracle_engines(*stages: str) -> Iterator[None]:
    """Run the enclosed flow code with ``stages`` (default: all four)
    on their seed engines."""
    swaps = [swap for stage in stages or _SUBSTITUTES
             for swap in _SUBSTITUTES[stage]]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
    try:
        for owner, name, substitute in swaps:
            setattr(owner, name, substitute)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def run_flow_reference(schedule, constraints, binder="hlpower",
                       config=None, registers=None,
                       ports=None) -> FlowResult:
    """:func:`~repro.flow.run.run_flow` on the seed engines, with a
    fresh artifact cache."""
    with oracle_engines():
        return run_flow(schedule, constraints, binder, config, registers,
                        ports, ArtifactCache())
