"""Property tests for the seed simulator's compiled truth-table evaluators.

``_compile_table`` turns a :class:`TruthTable` into a packed-word
evaluator via Shannon expansion; the seed simulator
(``tests/oracles/simulate.py``) — the oracle every product kernel is
pinned to — rests on it agreeing with direct truth-table evaluation
for *every* function, so it gets its own exhaustive + property
coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.oracles.simulate import _compile_table
from repro.fpga.vectors import broadcast, pack_values, unpack_values
from repro.netlist.gates import GateType, TruthTable


def evaluate_packed(table: TruthTable, input_bits, lanes: int):
    """Run the compiled evaluator on per-lane boolean inputs."""
    ones = broadcast(True, lanes)
    zeros = np.zeros_like(ones)
    values = [pack_values(bits) for bits in input_bits]
    evaluator = _compile_table(table)
    return unpack_values(evaluator(values, ones, zeros), lanes)


class TestExhaustiveSmall:
    @pytest.mark.parametrize("bits", range(16))
    def test_all_two_input_functions(self, bits):
        table = TruthTable(2, bits)
        lanes = 4
        input_bits = [
            [False, True, False, True],   # input 0 per lane
            [False, False, True, True],   # input 1 per lane
        ]
        expected = [
            table.evaluate([input_bits[0][lane], input_bits[1][lane]])
            for lane in range(lanes)
        ]
        assert evaluate_packed(table, input_bits, lanes) == expected

    def test_constants(self):
        lanes = 5
        assert evaluate_packed(TruthTable.constant(True), [], lanes) == (
            [True] * lanes
        )
        assert evaluate_packed(TruthTable.constant(False), [], lanes) == (
            [False] * lanes
        )

    def test_named_gates(self):
        lanes = 8
        rng_bits = [
            [bool((lane >> 0) & 1) for lane in range(lanes)],
            [bool((lane >> 1) & 1) for lane in range(lanes)],
            [bool((lane >> 2) & 1) for lane in range(lanes)],
        ]
        for gate_type in (GateType.AND, GateType.OR, GateType.XOR,
                          GateType.NAND, GateType.NOR, GateType.XNOR):
            table = TruthTable.for_type(gate_type, 3)
            expected = [
                table.evaluate([bits[lane] for bits in rng_bits])
                for lane in range(lanes)
            ]
            assert evaluate_packed(table, rng_bits, lanes) == expected


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << (1 << n)) - 1),
            st.lists(
                st.lists(st.booleans(), min_size=7, max_size=7),
                min_size=n, max_size=n,
            ),
        )
    )
)
def test_compiled_matches_reference(case):
    n, bits, input_bits = case
    table = TruthTable(n, bits)
    lanes = 7
    expected = [
        table.evaluate([input_bits[i][lane] for i in range(n)])
        for lane in range(lanes)
    ]
    assert evaluate_packed(table, input_bits, lanes) == expected


def test_tail_lanes_masked():
    """Results must have clean bits past the last lane (broadcast ones
    masking), or toggle counting would see ghost lanes."""
    table = TruthTable.for_type(GateType.NOT, 1)
    lanes = 3
    result_words = _compile_table(table)(
        [pack_values([False] * lanes)],
        broadcast(True, lanes),
        np.zeros(1, dtype=np.uint64),
    )
    assert int(result_words[0]) == 0b111  # only 3 lanes set


def test_evaluator_cache_reuse():
    from tests.oracles.simulate import _EVALUATOR_CACHE

    table = TruthTable(3, 0b10110010)
    first = _compile_table(table)
    second = _compile_table(TruthTable(3, 0b10110010))
    assert first is second
    assert (3, 0b10110010) in _EVALUATOR_CACHE
