"""MCTS binder bench — heuristic-to-oracle gap closed vs search budget.

For every oracle-feasible classic corpus instance (the same 62-instance
slice `repro corpus --oracle` tabulates) this script records the
branch-and-bound objective (total FU mux inputs) of:

* the better of the two heuristics (HLPower / LOPASS fast paths) — the
  MCTS binder's incumbent baseline;
* the exact optimum (``bind_optimal``) — the floor;
* the MCTS binder at each budget on the curve.

Per budget it reports how many instances strictly improved on the best
heuristic, how many landed exactly on the oracle, and the aggregate
**gap closed**: ``(best_heuristic - mcts) / (best_heuristic - oracle)``
summed over the instances where the heuristics are not already optimal.
Budget 0 is on the default curve deliberately — it must close 0% of
the gap (the degenerate search returns the incumbent untouched), which
pins the curve's origin.

The run **fails loudly** if any (instance, budget) point is worse than
the best heuristic (the search's never-regress contract) or better
than the oracle (a costing bug), or if the largest budget improves
nowhere.

Results land in ``BENCH_mcts.json`` at the repo root. Standalone
script, not collected by pytest:

    PYTHONPATH=src python benchmarks/bench_mcts.py

Knobs (environment variables): ``REPRO_MCTS_BUDGETS`` (comma-separated
curve, default ``0,32,128,256``), ``REPRO_MCTS_SEED`` (default 1),
``REPRO_MCTS_LIMIT`` (cap the instance count, for smoke runs).
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.binding import bind_hlpower, bind_lopass, bind_optimal
from repro.binding.mcts import MCTSConfig, bind_mcts
from repro.cdfg import load_benchmark
from repro.cdfg.corpus import (
    classic_corpus_names,
    corpus_instances,
    oracle_feasible,
)
from repro.flow.run import prepare_flow_inputs
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_mcts.json")

BUDGETS = tuple(
    int(token)
    for token in os.environ.get("REPRO_MCTS_BUDGETS", "0,32,128,256").split(",")
    if token.strip()
)
SEED = int(os.environ.get("REPRO_MCTS_SEED", "1"))
LIMIT = int(os.environ.get("REPRO_MCTS_LIMIT", "0"))


def oracle_slice():
    classic = set(classic_corpus_names())
    instances = [
        instance for instance in corpus_instances()
        if instance.name in classic and oracle_feasible(instance)
    ]
    return instances[:LIMIT] if LIMIT else instances


def length_of(solution) -> int:
    return mux_report(solution).fu_mux_length


def measure_instance(instance) -> dict:
    schedule = list_schedule(
        load_benchmark(instance.name), instance.constraints
    )
    registers, ports = prepare_flow_inputs(schedule)
    limits = instance.constraints
    best_heuristic = min(
        length_of(bind_hlpower(schedule, limits, registers, ports)),
        length_of(bind_lopass(schedule, limits, registers, ports)),
    )
    oracle = length_of(bind_optimal(schedule, limits, registers, ports))
    points = {}
    for budget in BUDGETS:
        start = time.perf_counter()
        mcts = length_of(bind_mcts(
            schedule, limits, registers, ports,
            MCTSConfig(budget=budget, seed=SEED),
        ))
        wall = time.perf_counter() - start
        if mcts > best_heuristic:
            raise SystemExit(
                f"REGRESSION: {instance.name} budget {budget}: mcts "
                f"{mcts} > best heuristic {best_heuristic}"
            )
        if mcts < oracle:
            raise SystemExit(
                f"COSTING BUG: {instance.name} budget {budget}: mcts "
                f"{mcts} < oracle {oracle}"
            )
        points[budget] = {"mux_length": mcts, "wall_s": round(wall, 4)}
    return {
        "instance": instance.name,
        "best_heuristic": best_heuristic,
        "oracle": oracle,
        "points": points,
    }


def summarize(rows, budget) -> dict:
    improved = sum(
        1 for row in rows
        if row["points"][budget]["mux_length"] < row["best_heuristic"]
    )
    at_oracle = sum(
        1 for row in rows
        if row["points"][budget]["mux_length"] == row["oracle"]
    )
    gapped = [row for row in rows if row["best_heuristic"] > row["oracle"]]
    closed = sum(
        row["best_heuristic"] - row["points"][budget]["mux_length"]
        for row in gapped
    )
    gap = sum(row["best_heuristic"] - row["oracle"] for row in gapped)
    return {
        "budget": budget,
        "improved": improved,
        "at_oracle": at_oracle,
        "instances_with_gap": len(gapped),
        "gap_closed": round(closed / gap, 4) if gap else 1.0,
        "total_wall_s": round(
            sum(row["points"][budget]["wall_s"] for row in rows), 3
        ),
    }


def main() -> int:
    instances = oracle_slice()
    print(f"bench_mcts: {len(instances)} oracle-feasible instances, "
          f"budgets {list(BUDGETS)}, seed {SEED}")
    rows = [measure_instance(instance) for instance in instances]
    curve = [summarize(rows, budget) for budget in BUDGETS]
    for point in curve:
        print(f"  budget {point['budget']:5d}: improved "
              f"{point['improved']:3d}/{len(rows)}  at-oracle "
              f"{point['at_oracle']:3d}  gap closed "
              f"{point['gap_closed'] * 100:6.2f}%  "
              f"{point['total_wall_s']:.2f}s")

    top = curve[-1]
    if max(BUDGETS) > 0 and summarize(rows, max(BUDGETS))["improved"] == 0:
        print("FAIL: the largest budget improved on the heuristics "
              "nowhere", file=sys.stderr)
        return 1
    if 0 in BUDGETS and summarize(rows, 0)["gap_closed"] != 0.0:
        print("FAIL: budget 0 must close exactly 0% of the gap",
              file=sys.stderr)
        return 1

    payload = {
        "bench": "mcts",
        "seed": SEED,
        "budgets": list(BUDGETS),
        "n_instances": len(rows),
        "curve": curve,
        "instances": rows,
    }
    with open(_OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {_OUT_PATH} (top budget {top['budget']}: "
          f"{top['improved']}/{len(rows)} improved, "
          f"{top['gap_closed'] * 100:.2f}% of the gap closed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
