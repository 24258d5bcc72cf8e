"""Tests for the netlist-level SA estimation driver."""

import pytest

from repro.activity import estimate_switching_activity
from repro.netlist.gates import GateType, Netlist
from repro.netlist.library import build_adder, build_multiplier, build_partial_datapath
from repro.netlist.compile import clean_fast


class TestTotals:
    def test_total_is_sum_of_gate_activities(self):
        netlist = build_adder(3)
        report = estimate_switching_activity(netlist)
        gate_sum = sum(
            report.per_net[net] for net in netlist.gates
        )
        assert report.total == pytest.approx(gate_sum)

    def test_functional_plus_glitch_equals_total(self):
        netlist = build_adder(4)
        report = estimate_switching_activity(netlist)
        assert report.functional + report.glitch == pytest.approx(report.total)

    def test_glitch_fraction_in_unit_interval(self):
        netlist = build_multiplier(3)
        report = estimate_switching_activity(netlist)
        assert 0.0 <= report.glitch_fraction <= 1.0

    def test_sources_excluded_by_default(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.NOT, (a,), "y")
        netlist.set_output(y)
        excl = estimate_switching_activity(netlist)
        incl = estimate_switching_activity(netlist, include_sources=True)
        assert incl.total == pytest.approx(excl.total + 0.5)


class TestGlitchVsZeroDelay:
    def test_zero_delay_has_no_glitch_component(self):
        netlist = build_adder(4)
        report = estimate_switching_activity(netlist, glitch_aware=False)
        assert report.glitch == pytest.approx(0.0)

    def test_glitch_aware_sees_more_activity_on_ripple_logic(self):
        # Ripple carry chains produce substantial glitching under the
        # unit-delay model; the zero-delay model misses all of it.
        netlist = build_adder(8)
        glitchy = estimate_switching_activity(netlist, glitch_aware=True)
        flat = estimate_switching_activity(netlist, glitch_aware=False)
        assert glitchy.total > flat.total

    def test_single_gate_models_agree(self):
        # Without path-delay imbalance the two models coincide.
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        y = netlist.add_simple(GateType.AND, (a, b), "y")
        netlist.set_output(y)
        glitchy = estimate_switching_activity(netlist)
        flat = estimate_switching_activity(netlist, glitch_aware=False)
        assert glitchy.total == pytest.approx(flat.total)


class TestInputOverrides:
    def test_zero_activity_inputs_zero_total(self):
        netlist = build_adder(3)
        report = estimate_switching_activity(
            netlist, input_activities={pi: 0.0 for pi in netlist.inputs}
        )
        assert report.total == pytest.approx(0.0)

    def test_activity_scales_monotonically(self):
        netlist = build_adder(3)
        low = estimate_switching_activity(
            netlist, input_activities={pi: 0.1 for pi in netlist.inputs}
        )
        high = estimate_switching_activity(
            netlist, input_activities={pi: 0.5 for pi in netlist.inputs}
        )
        assert high.total > low.total

    def test_partial_datapath_mux_size_monotonicity(self):
        """Bigger input muxes mean higher estimated SA (Section 5.2.2)."""
        totals = []
        for size in (1, 3, 6):
            netlist = build_partial_datapath("add", size, size, 4)
            clean_fast(netlist)
            totals.append(estimate_switching_activity(netlist).total)
        assert totals[0] < totals[1] < totals[2]

    def test_balanced_muxes_cheaper_than_skewed(self):
        """The muxDiff intuition: (4,4) glitches less than (1,7)."""
        balanced = build_partial_datapath("add", 4, 4, 4)
        skewed = build_partial_datapath("add", 1, 7, 4)
        clean_fast(balanced)
        clean_fast(skewed)
        sa_balanced = estimate_switching_activity(balanced).total
        sa_skewed = estimate_switching_activity(skewed).total
        assert sa_balanced < sa_skewed
