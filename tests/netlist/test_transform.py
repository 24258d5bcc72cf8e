"""Tests for the seed netlist cleanup passes (the ``clean_fast`` oracle)."""

import random

from hypothesis import given, settings, strategies as st

from repro.netlist.gates import GateType, Netlist
from repro.netlist.library import build_partial_datapath
from tests.conftest import evaluate_netlist
from tests.oracles.clean import (
    clean,
    propagate_constants,
    sweep_buffers,
    sweep_dead,
)


class TestConstantPropagation:
    def test_and_with_zero_becomes_constant(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        zero = netlist.add_const(False)
        y = netlist.add_simple(GateType.AND, (a, zero), "y")
        netlist.set_output(y)
        assert propagate_constants(netlist) >= 1
        assert netlist.gates["y"].gate_type is GateType.CONST0

    def test_and_with_one_becomes_buffer(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        one = netlist.add_const(True)
        y = netlist.add_simple(GateType.AND, (a, one), "y")
        netlist.set_output(y)
        propagate_constants(netlist)
        assert netlist.gates["y"].gate_type is GateType.BUF

    def test_constant_chains_fold_to_fixpoint(self):
        netlist = Netlist()
        zero = netlist.add_const(False)
        n1 = netlist.add_simple(GateType.NOT, (zero,))
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.OR, (a, n1), "y")
        netlist.set_output(y)
        propagate_constants(netlist)
        assert netlist.gates["y"].gate_type is GateType.CONST1


class TestBufferSweep:
    def test_chain_collapses(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        b1 = netlist.add_simple(GateType.BUF, (a,))
        b2 = netlist.add_simple(GateType.BUF, (b1,))
        y = netlist.add_simple(GateType.NOT, (b2,), "y")
        netlist.set_output(y)
        removed = sweep_buffers(netlist)
        assert removed == 2
        assert netlist.gates["y"].inputs == (a,)

    def test_output_buffers_kept(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.BUF, (a,), "y")
        netlist.set_output(y)
        assert sweep_buffers(netlist) == 0
        assert "y" in netlist.gates

    def test_latch_data_rewired(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        buf = netlist.add_simple(GateType.BUF, (a,))
        q = netlist.add_latch(buf, "q")
        netlist.set_output(q)
        sweep_buffers(netlist)
        assert netlist.latches["q"].data == a


class TestDeadSweep:
    def test_unreachable_logic_removed(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.NOT, (a,), "y")
        netlist.add_simple(GateType.AND, (a, a), "dead")
        netlist.set_output(y)
        assert sweep_dead(netlist) == 1
        assert "dead" not in netlist.gates

    def test_latch_cone_is_live(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        inv = netlist.add_simple(GateType.NOT, (a,))
        q = netlist.add_latch(inv, "q")
        y = netlist.add_simple(GateType.BUF, (q,), "y")
        netlist.set_output(y)
        assert sweep_dead(netlist) == 0

    def test_recirculating_latch_survives(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        en = netlist.add_input("en")
        data = netlist.new_net()
        q = netlist.add_latch(data, "q")
        netlist.add_simple(GateType.MUX, (en, q, a), data)
        netlist.set_output(q)
        assert sweep_dead(netlist) == 0


class TestClean:
    def test_clean_preserves_function(self):
        netlist = build_partial_datapath("add", 3, 2, 4)
        reference = build_partial_datapath("add", 3, 2, 4)
        clean(netlist)
        rng = random.Random(17)
        for _ in range(25):
            assignment = {pi: rng.random() < 0.5 for pi in reference.inputs}
            expected = evaluate_netlist(reference, assignment)
            actual = evaluate_netlist(netlist, assignment)
            for out in reference.outputs:
                assert actual[out] == expected[out]

    def test_clean_reduces_gate_count(self):
        netlist = build_partial_datapath("mult", 2, 2, 4)
        before = netlist.num_gates()
        folded, buffers, dead = clean(netlist)
        assert netlist.num_gates() < before
        assert folded + buffers + dead > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000))
    def test_clean_preserves_random_datapaths(self, m1, m2, seed):
        netlist = build_partial_datapath("add", m1, m2, 3)
        reference = build_partial_datapath("add", m1, m2, 3)
        clean(netlist)
        rng = random.Random(seed)
        assignment = {pi: rng.random() < 0.5 for pi in reference.inputs}
        expected = evaluate_netlist(reference, assignment)
        actual = evaluate_netlist(netlist, assignment)
        for out in reference.outputs:
            assert actual[out] == expected[out]
