"""The benchmark's own tests, on smoke-size workloads.

* every workload runs, checks its outputs and prints exactly the
  end-to-end metrics BENCHMARK.json names, all non-zero;
* the traced run prints exactly the per-layer metrics, its layer self
  times add up to the traced wall, and its exact counts repeat;
* an output a pass did not deliver is a failed operation, and the
  child-process memory peak does not grow with the number of passes;
* a 20% slowdown injected into ``map_netlist`` is attributed to the
  ``techmap`` layer (in-process, alternating slowed and plain passes);
* without the package next to it the benchmark fails without a result.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from attribution import analyze, moved_layers  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

EXACT_COUNTS = ("fpga.sim_toggles", "techmap.luts", "binding.sa_fills")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _traced() -> dict:
    # --seconds 0: exactly one pass of each kind, so counts compare.
    result = _result(_run(
        "--workload", "paper-flow", "--seed", "0", "--seconds", "0",
        "--trace", "1", "--smoke",
    ))
    return result["metrics"]


@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]]
)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--smoke",
    ))
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_baseline():
    return _traced()


def test_traced_run_accounts_for_its_wall(traced_baseline):
    metrics = {name: m["value"] for name, m in traced_baseline.items()}
    assert {name: m["unit"] for name, m in traced_baseline.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    layer_sum = sum(metrics[f"layer.{layer}_s"] for layer in LAYERS)
    assert layer_sum + metrics["flow.self_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )
    assert all(metrics[name] > 0 for name in EXACT_COUNTS)


def test_exact_counts_repeat(traced_baseline):
    again = _traced()
    assert {name: again[name]["value"] for name in EXACT_COUNTS} == {
        name: traced_baseline[name]["value"] for name in EXACT_COUNTS
    }


def test_undelivered_outputs_are_failed_ops():
    """A flow a pass did not deliver, and a request never answered,
    each count as one failed operation."""
    import run
    from workloads import Op, PassResult

    workload = WORKLOADS["paper-flow"](3, True, 1)
    delivered = workload.expected_keys()[1:]
    result = PassResult(1.0, [Op(key, 0.1) for key in delivered],
                        {key: {"power": 1.0} for key in delivered})
    run._failures(workload, [result], 3, True)
    assert [op.key for op in result.ops if op.error] == \
        workload.expected_keys()[:1]

    workload = WORKLOADS["serve-mixed"](3, True, 1)
    result = PassResult(1.0, [], {})
    run._failures(workload, [result], 3, True)
    assert len(result.ops) == len(workload.script)
    assert all(op.error for op in result.ops)


def test_child_peak_does_not_grow_with_passes():
    """Pools of successive passes are not summed into ``peak_rss_mb``."""
    import run

    workload = WORKLOADS["corpus-estimate"](3, True, 1)
    workload.setup()
    peaks = []
    for passes in (1, 3):
        monitor = run.ChildPeakMonitor(period_s=0.01).start()
        for _ in range(passes):
            workload.run_pass()
        monitor.stop()
        peaks.append(monitor.children_peak_kb)
    assert peaks[0] > 0
    assert peaks[1] < 1.5 * peaks[0]


def test_injected_slowdown_is_attributed_to_its_layer(tmp_path,
                                                       monkeypatch):
    """A 20% delay in ``map_netlist`` makes techmap the layer that moved.

    Passes with and without the delay alternate in one process, so a
    host whose speed drifts from second to second slows both sides
    alike; the report compares their summed per-layer metrics.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.flow.pipeline as pipeline

    original = pipeline.map_netlist

    def delayed(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        time.sleep(0.2 * (time.perf_counter() - started))
        return result

    workload = WORKLOADS["paper-flow"](0, True, 1)
    workload.setup()
    sums = {False: defaultdict(float), True: defaultdict(float)}
    for _ in range(8):
        for slow in (False, True):
            monkeypatch.setattr(pipeline, "map_netlist",
                                delayed if slow else original)
            gc.collect()
            tracing.RECORDER.reset()
            tracing.install(str(tmp_path))
            try:
                with tracing.span("pass") as root:
                    workload.run_pass()
            finally:
                tracing.uninstall()
            metrics, _ = analyze("local", tracing.RECORDER.dump(), [],
                                 root.record(), None, 1, 0.0, [])
            for name, value in metrics.items():
                sums[slow][name] += value
    (layer, grown), *_ = moved_layers(sums[False], sums[True])
    assert layer == "techmap"
    assert grown > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-flow",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
