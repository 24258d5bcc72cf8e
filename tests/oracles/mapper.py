"""The seed glitch-aware LUT mapper.

The original per-node implementation of the mapping algorithm
:mod:`repro.techmap.mapper` documents — reference cut enumeration
(:func:`repro.techmap.cuts.enumerate_cuts`), one cone collapse and one
waveform evaluation per candidate cut, no memoization — kept as the
differential oracle for the compiled mapper (``effort="fast"``), which
must reproduce its covers, waveforms and SA figures bit for bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.activity.glitch import (
    DEFAULT_INPUT_ACTIVITY,
    GlitchWaveform,
    source_waveform,
)
from repro.activity.probability import (
    DEFAULT_INPUT_PROBABILITY,
    gate_output_probability,
)
from repro.activity.transition import (
    clamp_activity,
    held_distribution,
    mixed_joint_matrix,
    pair_distribution,
    switching_activity,
)
from repro.errors import MappingError
from repro.netlist.gates import Netlist, TruthTable
from repro.techmap.cuts import DEFAULT_CUT_CAP, cone_function, enumerate_cuts
from repro.techmap.mapper import (
    DEFAULT_SA_EVAL_LIMIT,
    MapResult,
    _finish,
    _no_cut_message,
)


def map_reference(
    netlist: Netlist,
    k: int = 4,
    cut_cap: int = DEFAULT_CUT_CAP,
    sa_eval_limit: int = DEFAULT_SA_EVAL_LIMIT,
    glitch_aware: bool = True,
    input_probs: Optional[Mapping[str, float]] = None,
    input_activities: Optional[Mapping[str, float]] = None,
    default_probability: float = DEFAULT_INPUT_PROBABILITY,
    default_activity: float = DEFAULT_INPUT_ACTIVITY,
) -> MapResult:
    """The seed mapper; :func:`repro.techmap.map_netlist` at
    ``effort="fast"`` returns the same :class:`MapResult`."""
    cuts = enumerate_cuts(netlist, k, cut_cap)
    fanouts = {
        net: max(1, len(readers))
        for net, readers in netlist.fanout_map().items()
    }

    waveforms: Dict[str, GlitchWaveform] = {}
    depths: Dict[str, int] = {}
    sa_flow: Dict[str, float] = {}
    area_flow: Dict[str, float] = {}
    for net in list(netlist.inputs) + list(netlist.latches):
        prob = (input_probs or {}).get(net, default_probability)
        act = (input_activities or {}).get(net, default_activity)
        waveforms[net] = source_waveform(prob, act)
        depths[net] = 0
        sa_flow[net] = 0.0
        area_flow[net] = 0.0

    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]] = {}
    for net in netlist.topological_order():
        gate = netlist.gates[net]
        if not gate.inputs:
            value = gate.table.is_constant()
            if value is None:
                raise MappingError(f"zero-input non-constant gate {net!r}")
            waveforms[net] = GlitchWaveform(1.0 if value else 0.0, {}, 0)
            depths[net] = 0
            sa_flow[net] = 0.0
            area_flow[net] = 0.0
            chosen[net] = ((), gate.table)
            continue
        candidates = [c for c in cuts[net] if c != frozenset((net,))]
        if not candidates:
            raise MappingError(_no_cut_message(net, k, cut_cap))
        best = None
        for cut in candidates[: max(1, sa_eval_limit)]:
            leaves = tuple(sorted(cut))
            table = cone_function(netlist, net, leaves)
            wave, depth = _evaluate_cut(
                table, [waveforms[l] for l in leaves],
                [depths[l] for l in leaves], glitch_aware,
            )
            flow = wave.total() + sum(
                sa_flow[l] / fanouts[l] for l in leaves
            )
            af = 1.0 + sum(area_flow[l] / fanouts[l] for l in leaves)
            cost = (flow, depth, af)
            if best is None or cost < best[0]:
                best = (cost, leaves, table, wave, depth)
        (flow, depth, af), leaves, table, wave, depth = best
        waveforms[net] = wave
        depths[net] = depth
        sa_flow[net] = flow
        area_flow[net] = af
        chosen[net] = (leaves, table)

    return _finish(netlist, k, chosen, waveforms, depths)


def _evaluate_cut(
    table: TruthTable,
    leaf_waves: Sequence[GlitchWaveform],
    leaf_depths: Sequence[int],
    glitch_aware: bool,
) -> Tuple[GlitchWaveform, int]:
    """Waveform and depth of a LUT implementing ``table`` over leaves."""
    depth = 1 + max(leaf_depths, default=0)
    probs = [w.probability for w in leaf_waves]
    out_prob = gate_output_probability(table, probs)
    if not glitch_aware:
        acts = [clamp_activity(w.probability, w.total()) for w in leaf_waves]
        activity = switching_activity(table, probs, acts)
        activity = clamp_activity(out_prob, activity)
        steps = {depth: activity} if activity > 0.0 else {}
        return GlitchWaveform(out_prob, steps, depth), depth

    column = np.array(table.output_column(), dtype=np.float64)
    differs = column[:, None] != column[None, :]
    steps: Dict[int, float] = {}
    trigger_times = sorted({t for w in leaf_waves for t in w.steps})
    for t in trigger_times:
        joints = []
        for wave in leaf_waves:
            s_t = wave.steps.get(t, 0.0)
            if s_t > 0.0:
                s_t = clamp_activity(wave.probability, s_t)
                joints.append(pair_distribution(wave.probability, s_t))
            else:
                joints.append(held_distribution(wave.probability))
        matrix = mixed_joint_matrix(table.n_inputs, joints)
        activity = float(matrix[differs].sum())
        if activity > 0.0:
            steps[t + 1] = clamp_activity(out_prob, activity)
    return GlitchWaveform(out_prob, steps, depth), depth
