"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload paper-flow --seed 0 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs untraced passes, then passes with every layer
wrapped (see tracing.py), and prints the per-layer metrics. The last
stdout line is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary
(machine, set-up samples, per-op percentiles with their sample counts,
``failed_frac`` with its base). The full record of the run, machine
included, is written to ``perfbench/.out/``.

``--smoke`` shrinks every workload to seconds (the benchmark's own
tests use it). See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from attribution import analyze, percentile  # noqa: E402
from workloads import RECORD_SEED, WORKLOADS, Op, normalized  # noqa: E402

SETUP_SAMPLES = 3


# -- machine --------------------------------------------------------------


def _calibration_ms() -> float:
    """Median time of a fixed pure-Python loop (cross-machine ratio)."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.median(samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _source_digest() -> str:
    """SHA-256 over src/ (the checkout the benchmark runs in need not be
    a git repository, so the commit alone cannot name the code)."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def machine_info() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "calibration_ms": _calibration_ms(),
    }


# -- memory ---------------------------------------------------------------


class ChildPeakMonitor:
    """Tracks the peak memory of the child processes (pool workers, the
    serve daemon) alive at one time.

    Each sample sums the high-water mark (VmHWM) of the children alive
    at that moment; the peak is the largest such sum. Pools that come
    and go one after the other (a sweep per pass) therefore count once,
    not once per pass.
    """

    def __init__(self, period_s: float = 0.2) -> None:
        self.period_s = period_s
        self.children_peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _children(self) -> List[int]:
        pids: List[int] = []
        task_dir = f"/proc/{os.getpid()}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/children") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
            except OSError:
                continue
        return pids

    def sample(self) -> None:
        live_kb = 0
        for pid in self._children():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            live_kb += int(line.split()[1])
                            break
            except (OSError, ValueError):
                continue
        self.children_peak_kb = max(self.children_peak_kb, live_kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample()

    def start(self) -> "ChildPeakMonitor":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.children_peak_kb) / 1024.0


# -- helpers --------------------------------------------------------------


def _setup_samples(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh processes (imports included): the samples
    beyond this process's own."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed: {proc.stderr.strip()[-2000:]}"
            )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _load_record(workload: str) -> Dict[str, Any]:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)[workload]


def _units() -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


# -- the run --------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.seconds)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T0
    finally:
        workload.teardown()
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _timed_passes(workload, seconds: float) -> List[Any]:
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if not workload.repeatable:
            break
        if time.perf_counter() - started + passes[-1].wall_s > seconds:
            break
    return passes


def _traced_run(workload, trace_dir: str, seconds: float) -> Dict[str, Any]:
    """Untraced reference passes, then as many traced passes (one
    ``--seconds`` budget each); the traced ones share one root span."""
    if workload.frame == "serve":
        workload.setup()
        reference = [workload.run_pass()]
        workload.teardown()
        workload.trace_dir = trace_dir
        with tracing.span("setup") as setup_root:
            workload.setup()
        workload.daemon.send(signal.SIGUSR1)
        time.sleep(0.1)
        with tracing.span("pass") as pass_root:
            traced = [workload.run_pass()]
        workload.teardown()
    else:
        tracing.install(trace_dir)
        with tracing.span("setup") as setup_root:
            workload.setup()
        tracing.uninstall()
        reference = _timed_passes(workload, seconds)
        tracing.install(trace_dir)
        tracing.RECORDER.counts.clear()
        with tracing.span("pass") as pass_root:
            traced = _timed_passes(workload, seconds)
        tracing.uninstall()
    return {
        "reference": reference,
        "traced": traced,
        "setup_root": setup_root.record(),
        "pass_root": pass_root.record(),
    }


def _failures(workload, passes, seed: int, smoke: bool) -> Dict[str, str]:
    """Op key -> failure reason. An expected output that a pass did not
    deliver becomes a failed op of that pass, as does a scripted
    request that was never answered."""
    bad: Dict[str, str] = {}
    record = None if smoke or seed != RECORD_SEED else \
        _load_record(workload.name)
    expected = set(workload.expected_keys())
    if record is not None and workload.record_is_exact:
        expected |= set(record)
    for result in passes:
        result.ops.extend(
            Op(key, 0.0, error="request never answered")
            for key in workload.unanswered(result)
        )
        errored = {op.key for op in result.ops if op.error}
        for key in sorted(expected - set(result.outputs) - errored):
            result.ops.append(Op(key, 0.0, error="no output delivered"))
        bad.update(workload.check(result))
        if record is None:
            continue
        for key, metrics in result.outputs.items():
            expected = record.get(key)
            if expected is None:
                bad[key] = "no expected record for this op"
            elif normalized(metrics) != expected:
                bad[key] = "differs from expected.json"
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dir = os.path.join(OUT, f"trace-{tag}-{os.getpid()}")
    per_layer: Dict[str, float] = {}
    details: Dict[str, Any] = {}
    setup_samples: List[float] = []
    monitor: Optional[ChildPeakMonitor] = None
    try:
        if args.trace:
            machine = machine_info()
            monitor = ChildPeakMonitor().start()
            shutil.rmtree(trace_dir, ignore_errors=True)
            traced = _traced_run(workload, trace_dir, args.seconds)
            passes = traced["reference"] + traced["traced"]
        else:
            # This process's own set-up is the first sample, measured
            # exactly like a probe's: from interpreter start.
            workload.setup()
            setup_samples.append(time.perf_counter() - _T0)
            machine = machine_info()
            setup_samples += _setup_samples(args)
            # Started after the probes, so their memory is not counted;
            # the daemon's high-water mark is read later all the same.
            monitor = ChildPeakMonitor().start()
            passes = _timed_passes(workload, args.seconds)
    finally:
        workload.teardown()
        if monitor is not None:
            monitor.sample()
            monitor.stop()
    failures = _failures(workload, passes, args.seed, args.smoke)

    ops = [op for result in passes for op in result.ops]
    failed_ops = [op for op in ops if op.error or op.key in failures]
    latencies_ms = [latency * 1e3 for result in passes
                    for latency in result.latencies_s]
    walls = [result.wall_s for result in passes]
    end_to_end = {
        "setup_s": percentile(setup_samples, 50),
        "wall_s": percentile(walls, 50),
        "peak_rss_mb": monitor.peak_mb(),
        "op_p50_ms": percentile(latencies_ms, 50),
    }
    units = _units()
    if args.trace:
        main_dump = tracing.RECORDER.dump()
        others = tracing.load_dumps(trace_dir)
        per_layer, details = analyze(
            workload.frame, main_dump, others, traced["pass_root"],
            traced["setup_root"], workload.jobs,
            # The untraced wall of as many passes as were traced.
            statistics.mean(r.wall_s for r in traced["reference"])
            * len(traced["traced"]),
            [op for result in traced["traced"] for op in result.ops],
            hot_keys=[f"{b}/{n}" for b, n in getattr(workload, "hot", ())],
        )
        shutil.rmtree(trace_dir, ignore_errors=True)

    # -- report --------------------------------------------------------
    lines = [
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
        f"workload {args.workload} seed {args.seed} "
        f"({'traced' if args.trace else 'untraced'}, {len(passes)} "
        f"pass(es)): {json.dumps(workload.describe())}",
    ]
    if args.trace:
        lines.append(
            f"  accounted {per_layer['trace.accounted_s']:.3f}s of traced "
            f"wall {per_layer['trace.wall_s']:.3f}s; untraced wall "
            f"{per_layer['trace.untraced_wall_s']:.3f}s; tracing overhead "
            f"{per_layer['trace.overhead_frac']:+.1%}"
        )
        lines += [f"  {name:32s} {value:.6g}"
                  for name, value in per_layer.items()]
    else:
        lines.append(f"  set-up samples (s): {setup_samples}")
        for name, value in end_to_end.items():
            lines.append(f"  {name:12s} {value:.6g} {units[name]}")
        lines.append(
            f"  op latency: p50 {percentile(latencies_ms, 50):.3f} ms, "
            f"p90 {percentile(latencies_ms, 90):.3f} ms, max "
            f"{max(latencies_ms, default=0):.3f} ms over "
            f"{len(latencies_ms)} {workload.name} ops"
        )
        if workload.frame == "serve":
            for kind in ("hit", "miss"):
                values = [op.latency_s * 1e3 for op in ops
                          if op.kind == kind]
                lines.append(
                    f"  {kind}_p50_ms {percentile(values, 50):.3f} "
                    f"{kind}_p99_ms {percentile(values, 99):.3f} "
                    f"(n={len(values)})"
                )
            lines.append(
                f"  requests_per_s {len(ops) / walls[0]:.3f} "
                f"({len(ops)} requests in {walls[0]:.3f} s)"
            )
    lines.append(
        f"  failed_frac {len(failed_ops) / max(1, len(ops)):.6g} "
        f"({len(failed_ops)} failed of {len(ops)} ops)"
    )
    for key, reason in sorted(failures.items()):
        lines.append(f"  FAILED {key}: {reason}")
    for op in failed_ops:
        if op.error:
            lines.append(f"  FAILED {op.key}: {op.error}")

    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in (per_layer if args.trace else end_to_end).items()
    }
    result = {
        "correct": not failed_ops,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump({
            "machine": machine, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "inputs": workload.describe(),
            "setup_samples_s": setup_samples, "pass_walls_s": walls,
            "ops": [[op.key, op.kind, op.latency_s, op.error]
                    for op in ops],
            "failures": failures, "details": details,
            "reported": [result.reported for result in passes],
            "result": result,
        }, handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
