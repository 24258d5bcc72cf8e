"""Component micro-benchmarks (pytest-benchmark timings).

These benches time the individual engines — the binder, the baseline,
the glitch-aware estimator, the mapper and the simulator — so runtime
regressions in any stage are visible. (The HLPower runtime column of
Table 2 comes from ``test_table2_schedule.py``.)
"""

import pytest

from repro import benchmark_spec, list_schedule, load_benchmark
from repro.activity import estimate_switching_activity
from repro.binding import (
    HLPowerConfig,
    assign_ports,
    bind_hlpower,
    bind_lopass,
    bind_registers,
)
from repro.fpga import elaborate_datapath, random_vectors, simulate_design
from repro.netlist.library import build_partial_datapath
from repro.netlist.compile import clean_fast
from repro.rtl import build_datapath
from repro.techmap import map_netlist


@pytest.fixture(scope="module")
def pr_schedule():
    spec = benchmark_spec("pr")
    return list_schedule(load_benchmark("pr"), spec.constraints), spec


@pytest.fixture(scope="module")
def honda_schedule():
    spec = benchmark_spec("honda")
    return list_schedule(load_benchmark("honda"), spec.constraints), spec


def test_perf_hlpower_binding_pr(benchmark, pr_schedule, sa_table):
    schedule, spec = pr_schedule
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    config = HLPowerConfig(sa_table=sa_table)
    bind_hlpower(schedule, spec.constraints, registers, ports, config)  # warm

    result = benchmark(
        bind_hlpower, schedule, spec.constraints, registers, ports, config
    )
    assert result.fus.constraint_met


def test_perf_hlpower_binding_honda(benchmark, honda_schedule, sa_table):
    schedule, spec = honda_schedule
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    config = HLPowerConfig(sa_table=sa_table)
    bind_hlpower(schedule, spec.constraints, registers, ports, config)

    result = benchmark(
        bind_hlpower, schedule, spec.constraints, registers, ports, config
    )
    assert result.fus.constraint_met


def test_perf_lopass_binding_pr(benchmark, pr_schedule):
    schedule, spec = pr_schedule
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    result = benchmark(
        bind_lopass, schedule, spec.constraints, registers, ports
    )
    assert result.fus.allocation() == spec.constraints


def test_perf_register_binding(benchmark, honda_schedule):
    schedule, _ = honda_schedule
    result = benchmark(bind_registers, schedule)
    assert result.n_registers > 0


def test_perf_glitch_estimator(benchmark):
    netlist = build_partial_datapath("mult", 4, 4, 4)
    clean_fast(netlist)
    report = benchmark(estimate_switching_activity, netlist)
    assert report.total > 0


def test_perf_mapper(benchmark):
    netlist = build_partial_datapath("mult", 3, 3, 6)
    clean_fast(netlist)
    result = benchmark(map_netlist, netlist)
    assert result.area > 0


def test_perf_simulator(benchmark, pr_schedule, sa_table):
    schedule, spec = pr_schedule
    solution = bind_hlpower(
        schedule, spec.constraints, config=HLPowerConfig(sa_table=sa_table)
    )
    datapath = build_datapath(solution, width=6)
    design = elaborate_datapath(datapath)
    vectors = random_vectors(
        len(design.pad_nets), 6, lanes=128, seed=1
    )
    sim = benchmark(simulate_design, design, vectors)
    assert sim.comb_toggles > 0
