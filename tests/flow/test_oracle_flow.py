"""End to end against the seed engines: the whole flow, every stage.

``tests.oracles.run_flow_reference`` runs :func:`repro.flow.run.run_flow`
with the four stages that have a seed engine — bind, elaborate, techmap
and simulate — all on it, with a fresh artifact cache. The product flow
must report the same metrics and the same simulated outputs on every
paper benchmark under both binders (tier-1, at a small width and vector
count). The slow test holds the seed flow at the paper's default
:class:`FlowConfig` to the metrics recorded in
``perfbench/expected.json`` (``paper-flow``, record seed 0), read
without writing.
"""

import json
import os

import pytest

from repro import (
    BENCHMARK_NAMES,
    benchmark_spec,
    list_schedule,
    load_benchmark,
)
from repro.binding import SATable
from repro.flow.run import FlowConfig, run_flow
from tests.oracles import run_flow_reference

_EXPECTED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))),
    "perfbench", "expected.json",
)

BINDERS = ("lopass", "hlpower")


def schedule_of(name):
    spec = benchmark_spec(name)
    return (list_schedule(load_benchmark(name), spec.constraints),
            spec.constraints)


@pytest.fixture(scope="module")
def shared_table():
    """One SA table for both sides (its values are settings-determined)."""
    return SATable()


@pytest.mark.parametrize("binder", BINDERS)
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_seed_engines_match_product_flow(bench_name, binder, shared_table):
    schedule, constraints = schedule_of(bench_name)
    config = FlowConfig(width=4, n_vectors=16, sa_table=shared_table)
    product = run_flow(schedule, constraints, binder, config)
    reference = run_flow_reference(schedule, constraints, binder, config)
    assert reference.metrics() == product.metrics()
    assert reference.simulation.outputs == product.simulation.outputs


@pytest.mark.slow
@pytest.mark.parametrize("binder", BINDERS)
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_seed_engines_match_recorded_paper_flow(bench_name, binder):
    with open(_EXPECTED) as handle:
        record = json.load(handle)["paper-flow"]
    schedule, constraints = schedule_of(bench_name)
    result = run_flow_reference(schedule, constraints, binder, FlowConfig())
    # The record holds metrics as they read after a JSON round trip.
    metrics = json.loads(json.dumps(result.metrics()))
    assert metrics == record[f"{bench_name}/{binder}"]
