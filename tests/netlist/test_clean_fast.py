"""Differential pinning: the worklist ``clean_fast`` vs the seed ``clean``.

``repro.netlist.compile.clean_fast`` must be a pure speedup of the seed
``clean`` in ``tests/oracles/clean.py`` — same fold/buffer/dead counts and a
gate-for-gate identical result (names, insertion order, tables,
latches, BLIF bytes). The suite drives both over hypothesis-generated
netlists biased toward the pathological shapes the worklist passes
must handle: deep buffer chains (path compression), constant cones
(multi-wave folding), and dangling fanout (dead-cone removal).

The ingest class replays the bit-blaster's pre-clean netlists of the
shipped word-level modules. The golden class freezes the cleaned gate counts of all seven paper
benchmarks — a cheap tripwire for any change that shifts what the
cleanup removes.
"""

import copy
import io
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.blif import write_blif
from repro.netlist.compile import clean_fast
from repro.netlist.gates import GateType, Netlist
from tests.oracles.clean import clean

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

#: Gate types the random builder draws from, with their arities.
_DRAWABLE = (
    (GateType.BUF, 1),
    (GateType.NOT, 1),
    (GateType.AND, 2),
    (GateType.OR, 2),
    (GateType.NAND, 2),
    (GateType.XOR, 2),
    (GateType.MUX, 3),
)


def random_netlist(seed: int, n_gates: int = 60) -> Netlist:
    """A random DAG salted with the pathological shapes.

    Roughly one third of the draws extend buffer chains, constants
    appear as inputs throughout (building foldable cones), and only a
    suffix of the nets is ever marked as an output, leaving dangling
    fanout for the dead sweep.
    """
    rng = random.Random(seed)
    netlist = Netlist()
    nets = [netlist.add_input(f"pi{i}") for i in range(rng.randint(2, 5))]
    nets.append(netlist.add_const(False))
    nets.append(netlist.add_const(True))
    for index in range(n_gates):
        roll = rng.random()
        if roll < 0.35:  # deep buffer chains
            gate_type, arity = GateType.BUF, 1
        else:
            gate_type, arity = _DRAWABLE[
                rng.randrange(len(_DRAWABLE))
            ]
        inputs = tuple(rng.choice(nets) for _ in range(arity))
        nets.append(netlist.add_simple(gate_type, inputs, f"g{index}"))
    # A couple of latches so the sweeps exercise data/enable rewiring.
    for index in range(rng.randint(0, 2)):
        nets.append(netlist.add_latch(rng.choice(nets), f"q{index}"))
    # Only a few late nets become outputs; the rest is dangling.
    for _ in range(rng.randint(1, 4)):
        netlist.set_output(rng.choice(nets[-10:]))
    return netlist


def blif_bytes(netlist: Netlist) -> str:
    stream = io.StringIO()
    write_blif(netlist, stream)
    return stream.getvalue()


def assert_identical_netlists(reference: Netlist, fast: Netlist) -> None:
    """Gate-for-gate identity, insertion order included."""
    assert list(reference.inputs) == list(fast.inputs)
    assert list(reference.outputs) == list(fast.outputs)
    assert list(reference.gates) == list(fast.gates)
    for net, gate in reference.gates.items():
        other = fast.gates[net]
        assert gate.output == other.output
        assert gate.inputs == other.inputs
        assert gate.gate_type == other.gate_type
        assert gate.table.n_inputs == other.table.n_inputs
        assert gate.table.bits == other.table.bits
    assert list(reference.latches) == list(fast.latches)
    for name, latch in reference.latches.items():
        other = fast.latches[name]
        assert (latch.data, latch.output, latch.enable) == (
            other.data, other.output, other.enable
        )
    assert blif_bytes(reference) == blif_bytes(fast)


def assert_clean_equivalent(netlist: Netlist) -> None:
    reference = copy.deepcopy(netlist)
    fast = copy.deepcopy(netlist)
    assert clean(reference) == clean_fast(fast)
    assert_identical_netlists(reference, fast)


class TestCleanFastProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_pathological_netlists(self, seed):
        assert_clean_equivalent(random_netlist(seed))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(120, 240))
    def test_larger_netlists(self, seed, n_gates):
        assert_clean_equivalent(random_netlist(seed, n_gates))


class TestCleanFastDirected:
    def test_deep_buffer_chain(self):
        netlist = Netlist()
        net = netlist.add_input("a")
        for index in range(500):
            net = netlist.add_simple(GateType.BUF, (net,), f"b{index}")
        y = netlist.add_simple(GateType.NOT, (net,), "y")
        netlist.set_output(y)
        assert_clean_equivalent(netlist)

    def test_constant_cone(self):
        netlist = Netlist()
        zero = netlist.add_const(False)
        one = netlist.add_const(True)
        a = netlist.add_input("a")
        net = netlist.add_simple(GateType.OR, (zero, one), "c0")
        for index in range(50):
            net = netlist.add_simple(
                GateType.AND if index % 2 else GateType.XOR,
                (net, one if index % 3 else zero),
                f"c{index + 1}",
            )
        y = netlist.add_simple(GateType.OR, (a, net), "y")
        netlist.set_output(y)
        assert_clean_equivalent(netlist)

    def test_dangling_fanout(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        live = netlist.add_simple(GateType.AND, (a, b), "live")
        net = live
        for index in range(40):  # a long cone nobody reads
            net = netlist.add_simple(GateType.NOT, (net,), f"d{index}")
        netlist.set_output(live)
        assert_clean_equivalent(netlist)

    def test_buffer_chain_into_latch(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        net = a
        for index in range(20):
            net = netlist.add_simple(GateType.BUF, (net,), f"b{index}")
        q = netlist.add_latch(net, "q")
        netlist.set_output(q)
        assert_clean_equivalent(netlist)

    def test_constant_into_mux_select(self):
        netlist = Netlist()
        one = netlist.add_const(True)
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        y = netlist.add_simple(GateType.MUX, (one, a, b), "y")
        netlist.set_output(y)
        assert_clean_equivalent(netlist)


def _ingest_fixtures():
    """Every word-level module the ingest suites and examples ship."""
    from repro.ingest import parse_module
    from tests.ingest.test_bitblast import TINY
    from tests.ingest.test_flow import TINY_TEXT
    from tests.ingest.test_module import VALID

    with open(os.path.join(_REPO_ROOT, "examples", "mac4.json")) as handle:
        mac4 = handle.read()
    return {"bitblast-tiny": TINY, "flow-tiny": parse_module(TINY_TEXT),
            "module-valid": parse_module(VALID),
            "examples-mac4": parse_module(mac4)}


class TestCleanFastIngest:
    """The bit-blaster's netlists, taken just before its clean pass."""

    @pytest.mark.parametrize(
        "name", ["bitblast-tiny", "flow-tiny", "module-valid",
                 "examples-mac4"],
    )
    def test_ingest_fixture(self, name, monkeypatch):
        import repro.ingest.bitblast as bitblast

        checked = []

        def checked_clean(netlist):
            assert_clean_equivalent(netlist)
            checked.append(netlist.num_gates())
            return clean_fast(netlist)

        monkeypatch.setattr(bitblast, "clean_fast", checked_clean)
        bitblast.bit_blast(_ingest_fixtures()[name])
        assert checked and checked[0] > 0


#: Cleaned gate counts of the seven paper benchmarks (fast elaborator,
#: width 8). Regenerate ONLY when a deliberate library or cleanup
#: change shifts elaboration (and record why in the commit):
#:     PYTHONPATH=src python -c "from tests.netlist.test_clean_fast \
#:         import cleaned_gate_count, _GOLDEN_CLEANED; \
#:         print({n: cleaned_gate_count(n) for n in _GOLDEN_CLEANED})"
_GOLDEN_CLEANED = {
    "chem": 6410,
    "dir": 2086,
    "honda": 1984,
    "mcm": 1496,
    "pr": 932,
    "steam": 4182,
    "wang": 996,
}


def cleaned_gate_count(bench_name: str) -> int:
    from repro import benchmark_spec, load_benchmark
    from repro.flow.run import prepare_flow_inputs
    from repro.fpga import elaborate_datapath
    from repro.rtl.datapath import build_datapath
    from repro.flow.pipeline import run_binder
    from repro.scheduling import list_schedule

    spec = benchmark_spec(bench_name)
    schedule = list_schedule(load_benchmark(bench_name), spec.constraints)
    registers, ports = prepare_flow_inputs(schedule)
    solution = run_binder(
        "lopass", schedule, spec.constraints, registers, ports
    )
    datapath = build_datapath(solution, 8)
    return elaborate_datapath(datapath).netlist.num_gates()


class TestGoldenCleanedCounts:
    @pytest.mark.parametrize("bench_name", sorted(_GOLDEN_CLEANED))
    def test_cleaned_gate_count_pinned(self, bench_name):
        assert cleaned_gate_count(bench_name) == _GOLDEN_CLEANED[bench_name]
