"""Span recorder for the traced benchmark run, installed from outside.

The traced run (``run.py --trace 1``) replaces, by attribute assignment,
the public functions each layer of :mod:`repro` exposes to the flow —
the names that ``repro.flow.pipeline``, ``repro.flow.run``,
``repro.binding.sa_table``, ``repro.techmap.mapper`` and the executor
import — with wrappers that record one span per call. Nothing in
``src/`` changes; :func:`uninstall` restores every original.

A span is ``(id, parent id, name, start ns, end ns, attrs)``; the
parent is carried in a :class:`contextvars.ContextVar`, so nesting
follows the call stack within a thread and within an asyncio task.
Span names are ``<layer>.<phase>`` with the layer named after the
package module (``techmap.cuts``, ``fpga.simulate`` ...). Spans and
counters stay in memory and are written out once: pool workers (forked
after :func:`install`) append theirs to ``spans-<pid>.jsonl`` in the
trace directory after every chunk, and the serve launcher writes the
daemon's at shutdown. Clocks are ``perf_counter_ns`` (CLOCK_MONOTONIC),
shared by every process on the host.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The package's modules, used as the layer vocabulary.
LAYERS = (
    "cdfg", "scheduling", "binding", "activity", "rtl", "fpga", "netlist",
    "techmap", "flow", "serve",
)

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_parent", default=0
)
#: Per-request record of the serve daemon (set inside request tasks).
_request: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, sid: int, parent: int, name: str, start: int, end: int,
            attrs: Optional[Dict[str, Any]] = None) -> None:
        self.spans.append((sid, parent, name, start, end, attrs))

    def dump(self) -> Dict[str, Any]:
        return {"pid": self.pid, "spans": list(self.spans),
                "counts": dict(self.counts)}

    def flush(self, directory: str) -> None:
        """Append this process's spans to its file and forget them."""
        if not self.spans and not self.counts:
            return
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(self.dump()) + "\n")
        self.spans = []
        self.counts = defaultdict(float)


RECORDER = Recorder()
_OUT_DIR: Optional[str] = None
_PATCHES: List[Tuple[Any, str, Any]] = []
_FORK_HOOKED = False


class span:
    """Context manager recording one span (the benchmark's own roots)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "span":
        self.sid = RECORDER.next_id()
        self.parent = _parent.get()
        self._token = _parent.set(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end = time.perf_counter_ns()
        _parent.reset(self._token)
        RECORDER.add(*self.record()[:5])

    def record(self) -> Tuple:
        """The span as stored: (id, parent, name, start, end, attrs)."""
        return (self.sid, self.parent, self.name, self.start, self.end,
                None)


def _wrap(name: str, fn: Callable,
          attrs: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
          before: Optional[Callable[..., Any]] = None) -> Callable:
    """A traced stand-in for ``fn``.

    ``before(args, kwargs)`` runs ahead of the call and its value is
    handed to ``attrs(state, args, kwargs, result)``, whose dict is
    stored on the span (counts ride on spans, so pool workers' counts
    travel with their spans).
    """

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        state = before(args, kwargs) if before is not None else None
        sid = RECORDER.next_id()
        parent = _parent.get()
        token = _parent.set(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _parent.reset(token)
        RECORDER.add(
            sid, parent, name, start, end,
            attrs(state, args, kwargs, result) if attrs is not None else None,
        )
        return result

    return traced


def _patch(owner: Any, attr: str, replacement: Any) -> None:
    _PATCHES.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _counted(counter: str, fn: Callable,
             hit: Optional[Callable[[Any], bool]] = None) -> Callable:
    """Count calls (and, with ``hit``, hits) without recording spans."""

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        counts = RECORDER.counts
        counts[counter + ".calls"] += 1
        if hit is not None and hit(result):
            counts[counter + ".hits"] += 1
        return result

    return counted


# -- per-function attribute hooks ---------------------------------------


def _memo_before(args: Tuple, kwargs: Dict) -> Optional[Tuple[int, int]]:
    memo = kwargs.get("cone_memo")
    return None if memo is None else (memo.hits, memo.misses)


def _map_attrs(state, args, kwargs, result) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {
        "luts": result.area,
        "design": [result.area, len(args[0].gates), repr(result.total_sa)],
    }
    memo = kwargs.get("cone_memo")
    if state is not None and memo is not None:
        attrs["memo_hits"] = memo.hits - state[0]
        attrs["memo_lookups"] = (
            memo.hits + memo.misses - state[0] - state[1]
        )
    return attrs


def _sim_attrs(state, args, kwargs, result) -> Dict[str, Any]:
    return {"toggles": result.total_toggles}


def _batch_attrs(state, args, kwargs, result) -> Dict[str, Any]:
    return {"configs": len(result),
            "toggles": sum(r.total_toggles for r in result)}


def _install_worker_flush(executor_module: Any) -> None:
    original = executor_module.__dict__["_execute_chunk_remote"]
    traced = _wrap("flow.worker_chunk", original)

    @functools.wraps(original)
    def chunk_then_flush(work):
        try:
            return traced(work)
        finally:
            if _OUT_DIR is not None:
                RECORDER.flush(_OUT_DIR)

    _patch(executor_module, "_execute_chunk_remote", chunk_then_flush)


def _after_fork_in_child() -> None:
    if _PATCHES:
        RECORDER.reset()
        _parent.set(0)


def install(out_dir: str, serve: bool = False) -> None:
    """Wrap every layer entry point; idempotent per process."""
    global _OUT_DIR, _FORK_HOOKED
    if _PATCHES:
        return
    _OUT_DIR = out_dir
    os.makedirs(out_dir, exist_ok=True)
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOKED = True

    import repro.binding.sa_table as sa_table
    import repro.cdfg.benchmarks as benchmarks
    import repro.flow.batch as batch
    import repro.flow.cache as cache
    import repro.flow.executor as executor
    import repro.flow.pipeline as pipeline
    import repro.flow.run as run
    import repro.fpga.compile as fpga_compile
    import repro.scheduling.list_scheduler as list_scheduler
    import repro.techmap.mapper as mapper

    def wrap(module: Any, attr: str, name: str, **hooks: Any) -> None:
        _patch(module, attr, _wrap(name, module.__dict__[attr], **hooks))

    # flow: the API entry points, the executor and the stage dispatcher.
    wrap(run, "run_flow", "flow.run_flow")
    wrap(run, "run_estimate", "flow.run_estimate")
    wrap(batch, "run_sweep", "flow.run_sweep")
    wrap(executor, "_run_chunk", "flow.chunk")
    wrap(executor, "_prefetch_batches", "flow.prefetch")
    wrap(pipeline.Pipeline, "artifact", "flow.artifact")
    _patch(cache.ArtifactCache, "lookup", _counted(
        "flow.cache", cache.ArtifactCache.lookup, hit=lambda r: r[0]))
    _install_worker_flush(executor)
    run_jobs_attrs = _serve_job_attrs if serve else None
    wrap(executor.FlowExecutor, "run_jobs", "flow.run_jobs",
         attrs=run_jobs_attrs)
    # cdfg + scheduling (the benchmark's set-up calls these too).
    wrap(benchmarks, "load_benchmark", "cdfg.build")
    _patch(executor, "load_benchmark", benchmarks.load_benchmark)
    wrap(list_scheduler, "list_schedule", "scheduling.schedule")
    _patch(executor, "list_schedule", list_scheduler.list_schedule)
    # binding.
    wrap(run, "bind_registers", "binding.prepare")
    wrap(run, "assign_ports", "binding.prepare")
    wrap(pipeline, "run_binder", "binding.bind")
    wrap(sa_table.SATable, "_estimate", "binding.sa_fill",
         attrs=lambda state, args, kwargs, result: {"key": list(args[1])})
    _patch(sa_table.SATable, "get",
           _counted("binding.sa", sa_table.SATable.get))
    # activity + netlist (inside SA fills and elaboration).
    wrap(sa_table, "estimate_switching_activity", "activity.estimate")
    wrap(sa_table, "clean", "netlist.clean")
    wrap(fpga_compile, "clean_fast", "netlist.clean")
    # rtl.
    wrap(pipeline, "build_datapath", "rtl.datapath")
    wrap(run, "build_controller", "rtl.controller")
    wrap(run, "mux_report", "rtl.mux_report")
    # fpga.
    wrap(pipeline, "elaborate_design", "fpga.elaborate")
    wrap(pipeline, "simulate_design", "fpga.simulate", attrs=_sim_attrs)
    wrap(pipeline, "simulate_batch", "fpga.simulate_batch",
         attrs=_batch_attrs)
    wrap(pipeline, "golden_outputs", "fpga.check")
    wrap(pipeline, "timing_report", "fpga.timing")
    wrap(pipeline, "random_vectors", "fpga.vectors")
    wrap(pipeline, "power_report", "fpga.power")
    # techmap and its sub-phases.
    wrap(pipeline, "map_netlist", "techmap.map", attrs=_map_attrs,
         before=_memo_before)
    wrap(mapper, "compile_map_netlist", "techmap.compile")
    wrap(mapper, "enumerate_cuts_ids", "techmap.cuts")
    wrap(mapper, "batch_evaluate", "techmap.cone_eval")
    if serve:
        _install_serve()


def uninstall() -> None:
    """Restore every original attribute (reverse order)."""
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


# -- serve daemon ---------------------------------------------------------


def _serve_job_attrs(state, args, kwargs, result) -> Dict[str, Any]:
    from repro.serve.api import request_key

    spec = args[1]
    return {"key": request_key(spec.flow, spec)}


def _install_serve() -> None:
    import repro.serve.server as server
    from repro.serve.api import request_key

    handle = server.FlowServer.__dict__["_handle_single"]
    submit = server.FlowServer.__dict__["_submit"]

    @functools.wraps(handle)
    async def handle_single(self, kind, payload, writer):
        record: Dict[str, Any] = {
            "benchmark": payload.get("benchmark")
            if isinstance(payload, dict) else None,
        }
        token = _request.set(record)
        sid = RECORDER.next_id()
        start = time.perf_counter_ns()
        try:
            return await handle(self, kind, payload, writer)
        finally:
            end = time.perf_counter_ns()
            _request.reset(token)
            RECORDER.add(sid, _parent.get(), "serve.request", start, end,
                         record)

    @functools.wraps(submit)
    def submit_traced(self, kind, spec, priority, stream=None):
        record = _request.get()
        if record is not None:
            key = request_key(kind, spec)
            record["key"] = key
            record["submit_ns"] = time.perf_counter_ns()
            record["deduped"] = key in self._inflight
        return submit(self, kind, spec, priority, stream)

    _patch(server.FlowServer, "_handle_single", handle_single)
    _patch(server.FlowServer, "_submit", submit_traced)


# -- analysis -------------------------------------------------------------


def load_dumps(directory: str) -> List[Dict[str, Any]]:
    """Every record written by other processes into ``directory``."""
    dumps: List[Dict[str, Any]] = []
    if not os.path.isdir(directory):
        return dumps
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(directory, entry)) as handle:
                dumps.extend(json.loads(line) for line in handle if line)
    return dumps


def self_times(spans: List[Tuple]) -> Dict[int, int]:
    """Span id -> duration minus its direct children's durations."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own
