"""The benchmark's four workloads, each driven through the public API.

A workload builds its inputs from the seed alone, sets up (imports,
CDFG loading and scheduling, a warm-up flow or a daemon start), then
runs timed passes. A pass is a fixed list of operations the user waits
on — a ``run_flow`` call, a sweep cell, a served request — and returns
their latencies and outputs; the outputs are checked afterwards, never
inside the timed window.

Every call into :mod:`repro` goes through a module attribute looked up
at call time (``run.run_flow``, ``batch.run_sweep`` ...), so the traced
run's wrappers see the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, ".out")

#: The seed whose outputs ``expected.json`` records.
RECORD_SEED = 0

#: The warm-up flow of every in-process workload's set-up: small, but
#: it reaches every stage once (first-call costs, process-wide memos).
WARMUP = ("pr", "hlpower")
WARMUP_VECTORS = 32


@dataclass
class Op:
    """One operation of a pass, as the user saw it."""

    key: str
    latency_s: float
    kind: str = "op"  # "hit" / "miss" on serve-mixed
    error: Optional[str] = None
    #: Client-side send/receive clock (serve-mixed), to pair each
    #: request with the daemon's trace of it.
    sent_ns: int = 0
    recv_ns: int = 0


@dataclass
class PassResult:
    wall_s: float
    ops: List[Op]
    #: op key -> metrics dict (the checked output).
    outputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: What the program reported about itself (for the result file).
    reported: Dict[str, Any] = field(default_factory=dict)
    #: Latencies of the operations a user waits on (``op_p50_ms``):
    #: each flow, the whole sweep, each hit request.
    latencies_s: List[float] = field(default_factory=list)


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{stream}:{seed}")


def schedule_of(name: str):
    """(schedule, constraints) as the executor derives them."""
    from repro.cdfg import benchmarks
    from repro.scheduling import list_scheduler

    spec = benchmarks.benchmark_spec(name)
    cdfg = benchmarks.load_benchmark(name)
    return list_scheduler.list_schedule(cdfg, spec.constraints), \
        spec.constraints


def _warmup_flow() -> None:
    from repro.flow import run

    schedule, constraints = schedule_of(WARMUP[0])
    run.run_flow(schedule, constraints, WARMUP[1],
                 run.FlowConfig(n_vectors=WARMUP_VECTORS))


def normalized(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Metrics as they read after a JSON round trip (exact floats)."""
    return json.loads(json.dumps(metrics))


def _cell_key(benchmark: str, label: str, alpha: float, vector_seed: int,
              idle: str, jitter: int) -> str:
    return f"{benchmark}/{label}/a{alpha}/vs{vector_seed}/{idle}/j{jitter}"


class Workload:
    name = ""
    #: How tracing attributes worker/daemon time to the pass wall.
    frame = "local"
    jobs = 1
    repeatable = True
    #: expected.json holds exactly the outputs of one record-seed pass.
    record_is_exact = True

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        self.seed = seed
        self.smoke = smoke
        self.seconds = seconds

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> Dict[str, str]:
        """Op key -> failure reason, beyond errors raised in the pass."""
        return {}

    def expected_keys(self) -> List[str]:
        """The op keys a pass must deliver an output for (after set-up)."""
        raise NotImplementedError

    def unanswered(self, result: PassResult) -> List[str]:
        """Keys of the scripted operations the pass produced no op for."""
        return []

    def describe(self) -> Dict[str, Any]:
        return {}

    def teardown(self) -> None:
        pass


class PaperFlow(Workload):
    """``run_flow`` on the paper benchmarks x {lopass, hlpower}."""

    name = "paper-flow"

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        from repro.cdfg import BENCHMARK_NAMES

        self.designs = ["pr"] if smoke else list(BENCHMARK_NAMES)
        self.binders = ("lopass", "hlpower")
        # The record seed is the paper's default FlowConfig exactly.
        self.vector_seed = (
            7 if seed == RECORD_SEED
            else _rng(seed, self.name).randrange(1, 1 << 30)
        )
        self.n_vectors = 32 if smoke else 256

    def describe(self) -> Dict[str, Any]:
        return {"designs": self.designs, "binders": list(self.binders),
                "vector_seed": self.vector_seed, "n_vectors": self.n_vectors}

    def expected_keys(self) -> List[str]:
        return [f"{name}/{binder}" for name in self.designs
                for binder in self.binders]

    def setup(self) -> None:
        from repro.flow import run

        self.inputs = {name: schedule_of(name) for name in self.designs}
        self.config = run.FlowConfig(
            vector_seed=self.vector_seed, n_vectors=self.n_vectors
        )
        _warmup_flow()

    def run_pass(self) -> PassResult:
        from repro.flow import run

        ops: List[Op] = []
        outputs: Dict[str, Dict[str, Any]] = {}
        started = time.perf_counter()
        for name in self.designs:
            schedule, constraints = self.inputs[name]
            for binder in self.binders:
                key = f"{name}/{binder}"
                t0 = time.perf_counter()
                try:
                    result = run.run_flow(schedule, constraints, binder,
                                          self.config)
                except Exception as exc:  # counted, never fatal
                    ops.append(Op(key, time.perf_counter() - t0,
                                  error=repr(exc)))
                    continue
                ops.append(Op(key, time.perf_counter() - t0))
                outputs[key] = result.metrics()
        # A user-level operation is one Table-3 row: both binders'
        # flows on one design.
        per_design: Dict[str, float] = {}
        for op in ops:
            design = op.key.split("/")[0]
            per_design[design] = per_design.get(design, 0.0) + op.latency_s
        return PassResult(time.perf_counter() - started, ops, outputs,
                          latencies_s=list(per_design.values()))


class _SweepWorkload(Workload):
    """A workload whose pass is one ``run_sweep`` call; ops are cells."""

    def spec(self):
        raise NotImplementedError

    def setup(self) -> None:
        self._spec = self.spec()
        _warmup_flow()

    def expected_keys(self) -> List[str]:
        from repro.flow.grid import expand_grid

        return [
            _cell_key(job.benchmark, job.config.label, job.config.alpha,
                      job.vector_seed, job.idle_selects, job.delay_jitter)
            for job in expand_grid(self._spec)
        ]

    def run_pass(self) -> PassResult:
        from repro.flow import batch

        ops: List[Op] = []
        outputs: Dict[str, Dict[str, Any]] = {}
        started = time.perf_counter()

        cell_runtime: Dict[str, float] = {}

        def progress(cell) -> None:
            key = _cell_key(cell.benchmark, cell.config, cell.alpha,
                            cell.vector_seed, cell.idle_selects,
                            cell.delay_jitter)
            ops.append(Op(key, time.perf_counter() - started))
            outputs[key] = cell.metrics
            cell_runtime[key] = cell.runtime_s

        reported: Dict[str, Any] = {}
        try:
            sweep = batch.run_sweep(self._spec, jobs=self.jobs,
                                    progress=progress)
            reported = {"stage_time_totals": sweep.stage_time_totals(),
                        "sim_batch_wall_s": sweep.sim_batch_wall_s,
                        "cell_runtime_s": cell_runtime}
        except Exception as exc:  # every undelivered cell failed
            wall = time.perf_counter() - started
            ops.extend(Op(key, wall, error=repr(exc))
                       for key in self.expected_keys() if key not in outputs)
        wall = time.perf_counter() - started
        # The user holds the sweep's result once run_sweep returns; the
        # time a single cell lands depends on pool chunk order.
        return PassResult(wall, ops, outputs, reported, latencies_s=[wall])

    def check(self, result: PassResult) -> Dict[str, str]:
        bad = {}
        for key, metrics in result.outputs.items():
            if not metrics or any(
                not isinstance(value, (int, float)) or value != value
                for value in metrics.values()
            ):
                bad[key] = "non-numeric or NaN metric"
        return bad


class SimSweep(_SweepWorkload):
    """hlpower chem over vector seeds x idle x jitter: batched sims."""

    name = "sim-sweep"

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        rng = _rng(seed, self.name)
        self.vector_seeds = tuple(
            sorted(rng.sample(range(1, 1 << 30), 2 if smoke else 4))
        )

    def describe(self) -> Dict[str, Any]:
        return {"vector_seeds": list(self.vector_seeds)}

    def spec(self):
        from repro.flow.grid import SweepSpec

        return SweepSpec(
            benchmarks=["pr" if self.smoke else "chem"],
            binders=("hlpower",),
            vector_seeds=self.vector_seeds,
            n_vectors=32 if self.smoke else 256,
            idle_modes=("zero", "hold"),
            jitters=(0, 1),
            check_function=True,
            baseline="none",
        )

    def setup(self) -> None:
        # The sweep schedules inside its executor; loading the design
        # here keeps set-up the same shape as paper-flow's.
        schedule_of("pr" if self.smoke else "chem")
        super().setup()


#: Strata of the corpus draw: one instance per stratum keeps the
#: pass's total work steady across seeds while the seed picks the
#: graphs.
def _corpus_draw(seed: int, smoke: bool) -> List[str]:
    from repro.cdfg.corpus import CORPUS

    rng = _rng(seed, "corpus-estimate")
    strata: Dict[Tuple, List[str]] = {}
    for name, inst in CORPUS.items():
        if inst.family == "kernel":
            strata.setdefault(("kernel", inst.n_ops, inst.mult_frac),
                              []).append(name)
        elif inst.family == "wide":
            strata.setdefault(("wide", inst.n_ops, inst.density),
                              []).append(name)
    keys = sorted(strata)
    if smoke:
        keys = keys[:2]
    picked = [rng.choice(strata[key]) for key in keys]
    if not smoke:
        # First, so its chunk starts at once instead of running alone
        # after every other chunk has finished.
        picked.insert(0, "huge-n512-m40-d100-s0")
    return picked


class CorpusEstimate(_SweepWorkload):
    """Estimate-only corpus sweep over a pool: no simulation at all."""

    name = "corpus-estimate"
    frame = "pool"
    jobs = 2

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        self.instances = _corpus_draw(seed, smoke)

    def describe(self) -> Dict[str, Any]:
        return {"instances": self.instances, "jobs": self.jobs}

    def spec(self):
        from repro.flow.grid import SweepSpec

        return SweepSpec(
            benchmarks=self.instances,
            binders=("lopass", "hlpower"),
            alphas=(0.5, 1.0),
            flow="estimate",
            baseline="none",
        )


# -- serve-mixed ----------------------------------------------------------

#: Paper configs every hit request draws from (warmed during set-up).
HOT_SET = (("pr", "lopass"), ("pr", "hlpower"), ("wang", "lopass"),
           ("wang", "hlpower"))
#: Requests per second of ``--seconds`` in the request script.
REQUESTS_PER_SECOND = 40
MISS_FRACTION = 0.05
CLIENTS = 2


class Daemon:
    """A ``repro serve --jobs 1`` daemon started through the launcher."""

    def __init__(self, log_path: str,
                 trace_dir: Optional[str] = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", trace_dir]
        self.log_path = log_path
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.proc.wait(timeout=60)
            with open(log_path) as handle:
                stderr = handle.read()[-2000:]
            self.stop()
            raise RuntimeError(
                f"serve daemon failed to start: {line!r} {stderr!r}"
            )
        self.port = int(line.split("listening on http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])

    def request(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request("POST", "/estimate", json.dumps(body),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def send(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.proc.returncode == 0:  # keep the log of a failed daemon
            os.remove(self.log_path)


def _body(benchmark: str, binder: str) -> Dict[str, Any]:
    return {"benchmark": benchmark, "binder": binder}


def _miss_draw(seed: int, count: int) -> List[str]:
    """Fresh kernel instances, one per (ops, mult, density) stratum per
    round, so every seed's misses cost about the same in total."""
    from repro.cdfg.corpus import CORPUS

    rng = _rng(seed, "serve-miss")
    strata: Dict[Tuple, List[str]] = {}
    for name, inst in CORPUS.items():
        if inst.family == "kernel":
            strata.setdefault((inst.n_ops, inst.mult_frac, inst.density),
                              []).append(name)
    pools = [rng.sample(names, len(names)) for _, names in
             sorted(strata.items())]
    picked: List[str] = []
    for round_ in range(min(len(pool) for pool in pools)):
        order = rng.sample(range(len(pools)), len(pools))
        picked += [pools[stratum][round_] for stratum in order]
    return picked[:count]


class ServeMixed(Workload):
    """Two closed-loop clients against a resident daemon: hits + misses."""

    name = "serve-mixed"
    frame = "serve"
    #: A second pass would find every miss already cached.
    repeatable = False
    #: The record covers more misses than one run draws.
    record_is_exact = False

    def __init__(self, seed: int, smoke: bool, seconds: float) -> None:
        super().__init__(seed, smoke, seconds)
        rng = _rng(seed, self.name)
        hot = HOT_SET[:2] if smoke else HOT_SET
        total = max(20, int(REQUESTS_PER_SECOND * seconds))
        n_miss = max(1, round(total * MISS_FRACTION))
        misses = _miss_draw(seed, n_miss)
        script = [("miss", name, "hlpower") for name in misses]
        script += [("hit",) + hot[rng.randrange(len(hot))]
                   for _ in range(total - n_miss)]
        rng.shuffle(script)
        self.hot = hot
        self.script = script
        self.trace_dir: Optional[str] = None
        self.daemon: Optional[Daemon] = None

    def describe(self) -> Dict[str, Any]:
        return {
            "hot_set": [list(item) for item in self.hot],
            "requests": len(self.script),
            "misses": [name for kind, name, _ in self.script
                       if kind == "miss"],
            "clients": CLIENTS,
        }

    def setup(self) -> None:
        import repro.serve  # noqa: F401  (imports are part of set-up)

        os.makedirs(OUT, exist_ok=True)
        self.daemon = Daemon(
            os.path.join(OUT, f"daemon-{os.getpid()}.log"), self.trace_dir
        )
        for benchmark, binder in self.hot:
            status, payload = self.daemon.request(_body(benchmark, binder))
            if status != 200:
                raise RuntimeError(
                    f"warming {benchmark}/{binder} failed: {status} "
                    f"{payload}"
                )

    def run_pass(self) -> PassResult:
        assert self.daemon is not None
        ops: List[Op] = []
        outputs: Dict[str, Dict[str, Any]] = {}
        cursor = iter(range(len(self.script)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, benchmark, binder = self.script[index]
                key = f"{benchmark}/{binder}"
                sent = time.perf_counter()
                sent_ns = time.perf_counter_ns()
                try:
                    status, payload = self.daemon.request(
                        _body(benchmark, binder)
                    )
                except Exception as exc:
                    status, payload = 0, {"error": repr(exc)}
                op = Op(key, time.perf_counter() - sent, kind,
                        sent_ns=sent_ns, recv_ns=time.perf_counter_ns())
                metrics = payload.get("metrics") \
                    if isinstance(payload, dict) else None
                if status != 200:
                    op.error = f"HTTP {status}: {payload}"[:500]
                elif not isinstance(metrics, dict):
                    op.error = "200 response without metrics"
                with lock:
                    ops.append(op)
                    if op.error is None:
                        # Every response of one config must agree.
                        if outputs.setdefault(key, metrics) != metrics:
                            op.error = "responses of one config differ"

        started = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return PassResult(
            time.perf_counter() - started, ops, outputs,
            latencies_s=[op.latency_s for op in ops if op.kind == "hit"],
        )

    def expected_keys(self) -> List[str]:
        return sorted({f"{benchmark}/{binder}"
                       for _, benchmark, binder in self.script})

    def unanswered(self, result: PassResult) -> List[str]:
        left = Counter(f"{benchmark}/{binder}"
                       for _, benchmark, binder in self.script)
        left.subtract(op.key for op in result.ops)
        return sorted(left.elements())

    def check(self, result: PassResult) -> Dict[str, str]:
        """Every served payload must equal a direct ``run_estimate``."""
        from repro.binding import SATable
        from repro.flow import run

        table = SATable()
        bad = {}
        for key, served in sorted(result.outputs.items()):
            benchmark, binder = key.split("/")
            schedule, constraints = schedule_of(benchmark)
            direct = run.run_estimate(
                schedule, constraints, binder,
                run.FlowConfig(flow="estimate", sa_table=table),
            )
            if normalized(direct.metrics()) != served:
                bad[key] = "served payload differs from run_estimate"
        return bad

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {
    cls.name: cls for cls in (PaperFlow, SimSweep, CorpusEstimate,
                              ServeMixed)
}
