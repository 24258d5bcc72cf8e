"""Write (or verify) ``expected.json``, the benchmark's output record.

    python3 perfbench/record.py                # rewrite expected.json
    python3 perfbench/record.py --crosscheck   # compare paper-flow's record
                                               # with the reference engines

The record holds the metrics of every flow, sweep cell and served
config at the record seed (``workloads.RECORD_SEED``); ``run.py``
compares against it whenever it runs at that seed. Served configs are
recorded from a direct ``run_estimate`` (the run itself checks every
served payload against one), for more misses than any run of up to
:data:`RECORDED_SERVE_SECONDS` seconds draws.

``--crosscheck`` re-runs the paper-flow designs with every stage on its
``"reference"`` engine (the seed simulator, mapper, binders and
elaborator) and reports any metric that differs from the record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PATH = os.path.join(HERE, "expected.json")
RECORDED_SERVE_SECONDS = 60


def _pass_outputs(name: str) -> dict:
    workload = workloads.WORKLOADS[name](workloads.RECORD_SEED, False, 15)
    workload.setup()
    result = workload.run_pass()
    failed = [op for op in result.ops if op.error]
    if failed:
        raise SystemExit(f"{name}: {failed[0].key} failed: {failed[0].error}")
    return {key: workloads.normalized(metrics)
            for key, metrics in sorted(result.outputs.items())}


def _serve_outputs() -> dict:
    from repro.binding import SATable
    from repro.flow import run

    workload = workloads.ServeMixed(
        workloads.RECORD_SEED, False, RECORDED_SERVE_SECONDS
    )
    configs = sorted({(benchmark, binder)
                      for _, benchmark, binder in workload.script})
    table = SATable()
    outputs = {}
    for benchmark, binder in configs:
        schedule, constraints = workloads.schedule_of(benchmark)
        result = run.run_estimate(
            schedule, constraints, binder,
            run.FlowConfig(flow="estimate", sa_table=table),
        )
        outputs[f"{benchmark}/{binder}"] = workloads.normalized(
            result.metrics()
        )
    return outputs


def record() -> None:
    expected = {"seed": workloads.RECORD_SEED}
    for name in workloads.WORKLOADS:
        started = time.perf_counter()
        expected[name] = (
            _serve_outputs() if name == "serve-mixed" else _pass_outputs(name)
        )
        print(f"{name}: {len(expected[name])} outputs recorded "
              f"({time.perf_counter() - started:.1f}s)")
    with open(PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def crosscheck() -> int:
    from repro.flow import run

    with open(PATH) as handle:
        record = json.load(handle)["paper-flow"]
    workload = workloads.PaperFlow(workloads.RECORD_SEED, False, 15)
    config = run.FlowConfig(
        vector_seed=workload.vector_seed, n_vectors=workload.n_vectors,
        sim_kernel="reference", map_effort="reference",
        bind_engine="reference", elab_engine="reference",
    )
    mismatches = 0
    for name in workload.designs:
        schedule, constraints = workloads.schedule_of(name)
        for binder in workload.binders:
            key = f"{name}/{binder}"
            started = time.perf_counter()
            metrics = workloads.normalized(
                run.run_flow(schedule, constraints, binder, config).metrics()
            )
            same = metrics == record[key]
            mismatches += not same
            print(f"{key}: {'identical' if same else 'DIFFERS'} "
                  f"({time.perf_counter() - started:.1f}s)", flush=True)
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--crosscheck", action="store_true")
    args = parser.parse_args()
    if args.crosscheck:
        return crosscheck()
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
