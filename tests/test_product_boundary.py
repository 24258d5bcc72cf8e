"""The product boundary: what importing the package loads and exposes.

The seed engines live in ``tests/oracles`` and must stay unreachable
from ``src/``: importing the package's entry points loads neither the
oracle package nor networkx (which only the seed LOPASS binder uses).
The field names of :class:`FlowConfig` and :class:`SweepSpec` are
pinned, so a new knob shows up in review as a change to this file.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_SRC = Path(repro.__file__).resolve().parents[1]

FLOW_CONFIG_FIELDS = [
    "width", "k", "n_vectors", "vector_seed", "alpha", "device",
    "sa_table", "check_function", "control_activity", "idle_selects",
    "sim_clock_ns", "delay_jitter", "map_effort", "flow", "mcts_budget",
    "mcts_seed",
]

SWEEP_SPEC_FIELDS = [
    "benchmarks", "binders", "alphas", "widths", "vector_seeds",
    "configs", "n_vectors", "k", "scheduler", "check_function",
    "map_effort", "baseline", "idle_modes", "jitters", "map_efforts",
    "flow", "designs", "sim_batch", "mcts_budget", "mcts_seed",
]


def test_entry_points_load_no_oracle_and_pin_the_knobs():
    code = textwrap.dedent("""
        import dataclasses
        import json
        import sys

        import repro
        import repro.cli
        import repro.flow
        import repro.serve
        from repro.flow import FlowConfig, SweepSpec

        print(json.dumps({
            "loaded": sorted(
                name for name in sys.modules
                if name.split(".")[0] in ("tests", "networkx")
            ),
            "flow_config": [f.name for f in dataclasses.fields(FlowConfig)],
            "sweep_spec": [f.name for f in dataclasses.fields(SweepSpec)],
        }))
    """)
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=_SRC,
        capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["flow_config"] == FLOW_CONFIG_FIELDS
    assert report["sweep_spec"] == SWEEP_SPEC_FIELDS
