"""Differential test: event-driven kernels vs the reference simulator.

The native event kernel (compiled netlist + time-wheel settling in
``settle.c``) and the seed timed-waveform loop implement the same delay
model, so for every design their :class:`SimulationResult` records must
be *byte-identical* — all four toggle counters, the per-net toggle map,
and the primary-output values — not merely close. This is pinned across
every built-in benchmark, both idle-select conventions, three delay
spreads, and two lane counts: 48 (one word, tail lanes masked) and 1000
(16 words, a ragged last word). Random netlists with truth tables of
every arity the native kernel represents (constants included) are
pinned by a hypothesis property; wider gates take the batch fallback
with a warning that names the arity.

The batched kernel (:func:`simulate_batch`) shares the same contract
per configuration: every per-config record of a batched run must equal
a solo ``kernel="reference"`` run of that configuration (a fast chem
smoke here, the full benchmark cross-product slow-marked), and a batch
of one must equal the unbatched event kernel (hypothesis property).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BENCHMARK_NAMES, benchmark_spec, list_schedule, load_benchmark
from repro.binding import assign_ports, bind_lopass, bind_registers
from repro.fpga import (
    BatchConfig,
    ElaboratedDesign,
    compile_netlist,
    elaborate_datapath,
    random_vectors,
    simulate_batch,
    simulate_design,
)
from repro.errors import SimulationError
from repro.fpga import native
from repro.netlist.gates import GateType, Netlist, TruthTable
from repro.rtl import build_datapath
from repro.techmap import map_netlist

WIDTH = 4
#: Not a multiple of 64, so the tail-lane masking is exercised too.
LANES = 48
#: Sixteen words with a ragged last one (1000 = 15 * 64 + 40).
WIDE_LANES = 1000
SEED = 11

_BUILT = {}


def build_mapped(name):
    """LUT-mapped design + stimulus for one built-in benchmark
    (memoized — the batch tests and the param fixture share builds)."""
    if name in _BUILT:
        return _BUILT[name]
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    solution = bind_lopass(schedule, spec.constraints, registers, ports)
    datapath = build_datapath(solution, WIDTH)
    design = elaborate_datapath(datapath)
    mapping = map_netlist(design.netlist, k=4)
    mapped = ElaboratedDesign(
        datapath,
        mapping.netlist,
        design.pad_nets,
        design.register_nets,
        design.fu_nets,
        design.control_nets,
        design.output_nets,
    )
    vectors = random_vectors(
        len(schedule.cdfg.primary_inputs), WIDTH, LANES, seed=SEED
    )
    _BUILT[name] = (mapped, vectors)
    return _BUILT[name]


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def mapped_design(request):
    """LUT-mapped design + stimulus for one built-in benchmark."""
    return build_mapped(request.param)


def _n_pads(design):
    return len(design.datapath.cdfg.primary_inputs)


@pytest.mark.parametrize("lanes", [LANES, WIDE_LANES])
@pytest.mark.parametrize("idle_selects", ["zero", "hold"])
@pytest.mark.parametrize("delay_jitter", [0, 1, 2])
def test_kernels_byte_identical(
    mapped_design, idle_selects, delay_jitter, lanes
):
    design, vectors = mapped_design
    if lanes != vectors.lanes:
        vectors = random_vectors(_n_pads(design), WIDTH, lanes, seed=SEED)
    event = simulate_design(
        design, vectors, collect_per_net=True,
        idle_selects=idle_selects, delay_jitter=delay_jitter,
    )
    reference = simulate_design(
        design, vectors, collect_per_net=True,
        idle_selects=idle_selects, delay_jitter=delay_jitter,
        kernel="reference",
    )
    # Dataclass equality covers every counter, the per-net map and the
    # per-lane outputs.
    assert event == reference


def test_unknown_kernel_rejected(mapped_design):
    design, vectors = mapped_design
    with pytest.raises(SimulationError):
        simulate_design(design, vectors, kernel="quantum")


def test_compiled_netlist_is_cached(mapped_design):
    design, _ = mapped_design
    first = compile_netlist(design.netlist, 0)
    assert compile_netlist(design.netlist, 0) is first
    # A different delay spread compiles (and caches) separately.
    jittered = compile_netlist(design.netlist, 2)
    assert jittered is not first
    assert compile_netlist(design.netlist, 2) is jittered


def test_compiled_netlist_invalidated_on_mutation(mapped_design):
    design, _ = mapped_design
    netlist = design.netlist
    first = compile_netlist(netlist, 0)
    pi = netlist.add_input()
    try:
        recompiled = compile_netlist(netlist, 0)
        assert recompiled is not first
        assert recompiled.n_nets == first.n_nets + 1
    finally:
        netlist.inputs.remove(pi)
        netlist._sim_compiled.clear()


# ---------------------------------------------------------------------------
# Batched kernel: every per-config record == a solo reference run.
# ---------------------------------------------------------------------------

def _solo_reference(design, config, collect_per_net=True):
    return simulate_design(
        design, config.vectors, collect_per_net=collect_per_net,
        idle_selects=config.idle_selects, delay_jitter=config.delay_jitter,
        kernel="reference",
    )


def test_batch_matches_reference_chem():
    """Tier-1 smoke: a mixed batch (two stimuli, both idle conventions,
    three delay spreads) on chem, each config byte-identical to solo."""
    design, vectors = build_mapped("chem")
    alt = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED + 3)
    configs = [
        BatchConfig(vectors, "zero", 0),
        BatchConfig(alt, "zero", 2),
        BatchConfig(vectors, "hold", 1),
        BatchConfig(alt, "hold", 0),
    ]
    results = simulate_batch(design, configs, collect_per_net=True)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


def test_batch_mixed_lane_counts():
    """Configs with different lane counts share one packed word; the
    narrow config's block mask must isolate it from its wide sibling."""
    design, vectors = build_mapped("pr")
    narrow = random_vectors(_n_pads(design), WIDTH, 10, seed=SEED + 5)
    configs = [BatchConfig(vectors, "zero", 0), BatchConfig(narrow, "hold", 3)]
    results = simulate_batch(design, configs, collect_per_net=True)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


@pytest.mark.slow
@pytest.mark.parametrize("idle_selects", ["zero", "hold"])
@pytest.mark.parametrize("delay_jitter", [0, 2])
def test_batch_matches_reference_all_benchmarks(
    mapped_design, idle_selects, delay_jitter
):
    design, vectors = mapped_design
    alt = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED + 3)
    configs = [
        BatchConfig(vectors, idle_selects, delay_jitter),
        BatchConfig(alt, idle_selects, delay_jitter),
    ]
    results = simulate_batch(design, configs, collect_per_net=True)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


def test_batch_unknown_kernel_rejected():
    design, vectors = build_mapped("pr")
    with pytest.raises(SimulationError):
        simulate_batch(design, [BatchConfig(vectors)], kernel="quantum")


def test_batch_empty():
    design, _ = build_mapped("pr")
    assert simulate_batch(design, []) == []


@settings(max_examples=12, deadline=None)
@given(
    lanes=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
    idle_selects=st.sampled_from(["zero", "hold"]),
    delay_jitter=st.integers(min_value=0, max_value=3),
)
def test_batch_of_one_equals_event_kernel(
    lanes, seed, idle_selects, delay_jitter
):
    """Property: a batch of one is the unbatched event kernel."""
    design, _ = build_mapped("pr")
    vectors = random_vectors(_n_pads(design), WIDTH, lanes, seed=seed)
    [batched] = simulate_batch(
        design,
        [BatchConfig(vectors, idle_selects, delay_jitter)],
        collect_per_net=True,
    )
    solo = simulate_design(
        design, vectors, collect_per_net=True,
        idle_selects=idle_selects, delay_jitter=delay_jitter,
    )
    assert batched == solo


# ---------------------------------------------------------------------------
# Random truth tables: every arity the native kernel represents, and the
# named fallback beyond it.
# ---------------------------------------------------------------------------

def _with_random_logic(design, specs):
    """``design`` plus extra LUTs spliced onto its nets.

    Each spec is ``(arity, bits, picks, latched)``: a gate with that
    truth table reading the nets ``picks`` select (modulo the nets
    defined so far, repeats allowed), optionally registered by a new
    latch whose output later gates may read.
    """
    base = design.netlist
    netlist = Netlist(base.name)
    for net in base.inputs:
        netlist.add_input(net)
    netlist.gates.update(base.gates)
    netlist.latches.update(base.latches)
    pool = list(base.inputs) + list(base.latches) + list(base.gates)
    for arity, bits, picks, latched in specs:
        inputs = [pool[pick % len(pool)] for pick in picks[:arity]]
        out = netlist.add_gate(
            TruthTable(arity, bits), inputs, gate_type=GateType.LUT
        )
        pool.append(out)
        if latched:
            pool.append(netlist.add_latch(out))
    return ElaboratedDesign(
        design.datapath, netlist, design.pad_nets, design.register_nets,
        design.fu_nets, design.control_nets, design.output_nets,
    )


@st.composite
def _logic_specs(draw):
    specs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        arity = draw(st.integers(min_value=0, max_value=native.MAX_ARITY))
        bits = draw(st.integers(min_value=0, max_value=(1 << (1 << arity)) - 1))
        picks = draw(st.lists(st.integers(min_value=0, max_value=10_000),
                              min_size=arity, max_size=arity))
        specs.append((arity, bits, picks, draw(st.booleans())))
    return specs


@settings(max_examples=15, deadline=None)
@given(
    specs=_logic_specs(),
    lanes=st.sampled_from([7, 64, 130]),
    delay_jitter=st.integers(min_value=0, max_value=2),
)
def test_random_truth_tables_match_reference(specs, lanes, delay_jitter):
    """Property: any table of arity 0 (constants) .. MAX_ARITY settles
    exactly as in the reference simulator."""
    base, _ = build_mapped("pr")
    design = _with_random_logic(base, specs)
    vectors = random_vectors(_n_pads(design), WIDTH, lanes, seed=SEED)
    native_result = simulate_design(
        design, vectors, collect_per_net=True, delay_jitter=delay_jitter,
    )
    reference = simulate_design(
        design, vectors, collect_per_net=True, delay_jitter=delay_jitter,
        kernel="reference",
    )
    assert native_result == reference


def test_gate_wider_than_native_takes_fallback():
    base, vectors = build_mapped("pr")
    arity = native.MAX_ARITY + 1
    bits = (0x9E3779B97F4A7C15 * 0x1F) ** 120 % (1 << (1 << arity))
    design = _with_random_logic(
        base, [(arity, bits, list(range(0, 7 * arity, 7)), True)]
    )
    assert compile_netlist(design.netlist, 0).native_arrays is None
    with pytest.warns(RuntimeWarning, match=f"a gate has {arity} inputs"):
        result = simulate_design(design, vectors, collect_per_net=True)
    assert result == simulate_design(
        design, vectors, collect_per_net=True, kernel="reference"
    )
