"""Property tests: the MCTS binder's determinism and legality contract.

Three invariant families, over random corpus draws and knob settings:

* **determinism** — same (budget, seed) means a byte-identical
  solution across repeat runs in one process, and byte-identical cell
  metrics across process-pool workers (the sweep engine ships jobs to
  a ``ProcessPoolExecutor``; a playout that consulted any global or
  hash-randomized state would diverge there first);
* **degeneration** — budget 0 returns exactly the best heuristic's
  assignment (the search's incumbent baseline), so the binder is a
  strict superset of the heuristics, never a replacement;
* **legality** — every solution binds each operation exactly once to a
  unit of its class, with no two time-overlapping operations sharing a
  unit, no register-lifetime conflicts, and the per-class unit counts
  within the resource constraints.
"""

from hypothesis import given, settings, strategies as st

from repro.binding import bind_hlpower, bind_lopass
from repro.binding.mcts import MCTSConfig, bind_mcts
from repro.cdfg import load_benchmark
from repro.cdfg.corpus import (
    classic_corpus_names,
    corpus_instances,
    oracle_feasible,
)
from repro.flow.batch import run_sweep
from repro.flow.grid import SweepSpec
from repro.flow.run import prepare_flow_inputs
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule

_ORACLE_SLICE = [
    instance for instance in corpus_instances()
    if instance.name in set(classic_corpus_names())
    and oracle_feasible(instance)
]

_ELABORATED = {}


def elaborated(instance):
    if instance.name not in _ELABORATED:
        schedule = list_schedule(
            load_benchmark(instance.name), instance.constraints
        )
        registers, ports = prepare_flow_inputs(schedule)
        _ELABORATED[instance.name] = (
            schedule, instance.constraints, registers, ports
        )
    return _ELABORATED[instance.name]


def solution_bytes(solution):
    """A canonical byte serialization of the binding decisions."""
    return repr((
        solution.algorithm,
        solution.fus.constraint_met,
        [(unit.fu_id, unit.fu_class, sorted(unit.ops))
         for unit in solution.fus.units],
        sorted(solution.registers.assignment.items()),
        sorted(solution.ports.ports.items()),
    )).encode()


draws = st.integers(min_value=0, max_value=len(_ORACLE_SLICE) - 1)
budgets = st.sampled_from((0, 1, 8, 33))
seeds = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)


@settings(max_examples=15, deadline=None)
@given(index=draws, budget=budgets, seed=seeds)
def test_repeat_runs_byte_identical(index, budget, seed):
    instance = _ORACLE_SLICE[index]
    schedule, limits, registers, ports = elaborated(instance)
    cfg = MCTSConfig(budget=budget, seed=seed)
    first = bind_mcts(schedule, limits, registers, ports, cfg)
    second = bind_mcts(schedule, limits, registers, ports, cfg)
    assert solution_bytes(first) == solution_bytes(second)


@settings(max_examples=15, deadline=None)
@given(index=draws, budget=budgets, seed=seeds)
def test_solutions_always_legal(index, budget, seed):
    instance = _ORACLE_SLICE[index]
    schedule, limits, registers, ports = elaborated(instance)
    solution = bind_mcts(schedule, limits, registers, ports,
                         MCTSConfig(budget=budget, seed=seed))
    # Completeness, class purity, time overlaps, register lifetimes.
    solution.validate()
    assert solution.algorithm == "mcts"
    assert solution.fus.constraint_met
    for fu_class, limit in limits.items():
        assert len(solution.fus.units_of_class(fu_class)) <= limit


@settings(max_examples=10, deadline=None)
@given(index=draws, seed=seeds)
def test_budget_zero_is_exactly_the_best_heuristic(index, seed):
    instance = _ORACLE_SLICE[index]
    schedule, limits, registers, ports = elaborated(instance)
    hlpower = bind_hlpower(schedule, limits, registers, ports)
    lopass = bind_lopass(schedule, limits, registers, ports)

    def objective(solution):
        report = mux_report(solution)
        return (report.fu_mux_length, sum(report.mux_diffs))

    # Ties resolve to HLPower — the same order bind_mcts evaluates.
    best = min((hlpower, lopass), key=objective)
    degenerate = bind_mcts(schedule, limits, registers, ports,
                           MCTSConfig(budget=0, seed=seed))
    assert objective(degenerate) == objective(best)
    assert {
        (unit.fu_class, unit.ops) for unit in degenerate.fus.units
    } == {
        (unit.fu_class, unit.ops) for unit in best.fus.units
    }


def test_pool_workers_byte_identical():
    # The same grid through the in-process executor and through a
    # 2-worker process pool: every metric of every cell must match
    # exactly (fresh workers, fresh memos, same decisions).
    spec = SweepSpec(
        benchmarks=[instance.name for instance in _ORACLE_SLICE[:3]],
        binders=("mcts",),
        baseline="none",
        flow="estimate",
        mcts_budget=16,
        mcts_seed=5,
    )
    solo = run_sweep(spec, jobs=1)
    pooled = run_sweep(spec, jobs=2)
    assert {cell.key: cell.metrics for cell in solo.cells} == \
        {cell.key: cell.metrics for cell in pooled.cells}
