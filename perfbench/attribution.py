"""Turn the traced run's spans into per-layer metrics.

Self time of a span is its duration minus its direct children's. The
per-layer numbers are expressed in the frame of the pass's wall clock,
so that they add up to it:

* ``local`` (paper-flow, sim-sweep) — everything runs in the benchmark
  process; the pass root's own self time is ``flow.self_s``, the time
  no layer span covers.
* ``pool`` (corpus-estimate) — the parent blocks in
  ``FlowExecutor.run_jobs`` while forked workers run the chunks. That
  blocked self time is replaced by the workers' per-layer self times,
  scaled by (blocked time / worker busy time); the unscaled worker
  seconds are kept under ``raw``.
* ``serve`` (serve-mixed) — the daemon's drain thread: compute spans
  (``flow.run_jobs`` and below) keep their self times; the rest of the
  time a request span covers belongs to ``serve``; wall time that
  neither covers is ``flow.self_s``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from tracing import LAYERS, self_times

NS = 1e-9

#: Span name -> per-layer metric of its summed self time (seconds).
SPAN_METRICS = {
    "binding.prepare": "binding.prepare_s",
    "binding.bind": "binding.bind_s",
    "binding.sa_fill": "binding.sa_fill_s",
    "activity.estimate": "activity.estimate_s",
    "cdfg.build": "cdfg.build_s",
    "scheduling.schedule": "scheduling.schedule_s",
    "rtl.datapath": "rtl.datapath_s",
    "rtl.controller": "rtl.controller_s",
    "fpga.elaborate": "fpga.elaborate_s",
    "netlist.clean": "netlist.clean_s",
    "fpga.simulate": "fpga.simulate_s",
    "fpga.simulate_batch": "fpga.simulate_batch_s",
    "fpga.check": "fpga.check_s",
    "fpga.timing": "fpga.timing_s",
    "techmap.map": "techmap.map_s",
    "techmap.cuts": "techmap.cuts_s",
    "techmap.cone_eval": "techmap.cone_eval_s",
}

SETUP_METRICS = {
    "cdfg.build": "setup.cdfg_build_s",
    "scheduling.schedule": "setup.schedule_s",
    "binding.prepare": "setup.bind_prepare_s",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _descendants(spans: List[Tuple], root: int) -> List[Tuple]:
    children: Dict[int, List[Tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    out: List[Tuple] = []
    stack = [root]
    while stack:
        for span in children.get(stack.pop(), ()):
            out.append(span)
            stack.append(span[0])
    return out


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (q = 50 is the median); 0.0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    total, end = 0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class Attribution:
    """Accumulates self time by span name in the wall-clock frame."""

    def __init__(self) -> None:
        self.by_name: Dict[str, float] = defaultdict(float)
        self.raw: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple] = []

    def add(self, spans: List[Tuple], scale: float = 1.0) -> None:
        own = self_times(spans)
        for span in spans:
            seconds = own[span[0]] * NS
            self.by_name[span[2]] += seconds * scale
            self.raw[span[2]] += seconds
        self.spans.extend(spans)

    def layer_totals(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.by_name.items():
            totals[_layer(name)] += seconds
        return totals


def analyze(
    frame: str,
    main: Dict[str, Any],
    others: List[Dict[str, Any]],
    pass_root: Tuple,
    setup_root: Optional[Tuple],
    jobs: int,
    untraced_wall_s: float,
    ops: List[Any],
    hot_keys: Iterable[str] = (),
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """(per-layer metrics, details for the result file)."""
    main_spans = [tuple(s) for s in main["spans"]]
    pass_start, pass_end = pass_root[3], pass_root[4]
    wall = (pass_end - pass_start) * NS
    # Span ids are unique per process: group other processes' spans by
    # pid (a pool worker appends one record per chunk).
    by_pid: Dict[int, List[Tuple]] = defaultdict(list)
    for dump in others:
        by_pid[dump["pid"]].extend(
            tuple(s) for s in dump["spans"]
            if s[3] >= pass_start and s[4] <= pass_end
        )
    in_window = list(by_pid.values())
    counts: Dict[str, float] = defaultdict(float)
    for dump in [main] + others:
        for name, value in dump["counts"].items():
            counts[name] += value

    acc = Attribution()
    pass_spans = _descendants(main_spans, pass_root[0])
    flow_self = self_times(main_spans + [pass_root])[pass_root[0]] * NS
    acc.add(pass_spans)
    details: Dict[str, Any] = {}
    busy = 0.0
    if frame == "pool":
        busy = sum(s[4] - s[3] for spans in in_window for s in spans
                   if s[1] == 0) * NS
        blocked = acc.by_name.get("flow.run_jobs", 0.0)
        if busy > 0:
            acc.by_name["flow.run_jobs"] -= blocked
            for spans in in_window:
                acc.add(spans, scale=blocked / busy)
        details["pool_blocked_s"] = blocked
        details["worker_busy_s"] = busy
    elif frame == "serve":
        compute: List[Tuple] = []
        requests: List[Tuple] = []
        for spans in in_window:
            own = [s for s in spans if s[2] != "serve.request"]
            acc.add(own)
            compute += own
            requests += [s for s in spans if s[2] == "serve.request"]
        compute_roots = [(s[3], s[4]) for s in compute if s[1] == 0]
        covered = _union_ns(
            compute_roots + [(s[3], s[4]) for s in requests]
        ) * NS
        acc.by_name["serve.front"] += covered - sum(
            (e - s) for s, e in compute_roots) * NS
        flow_self = wall - covered
        details.update(_serve_details(requests, compute, ops, hot_keys))

    layers = acc.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = layers[layer]
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = acc.by_name.get(span_name, 0.0)
    metrics["flow.self_s"] = flow_self

    spans = acc.spans
    fills = [s for s in spans if s[2] == "binding.sa_fill"]
    metrics["binding.sa_fills"] = len(fills)
    details["sa_fill_distinct_keys"] = len(
        {tuple(s[5]["key"]) for s in fills})
    metrics["binding.sa_gets"] = int(counts.get("binding.sa.calls", 0))
    sims = [s for s in spans
            if s[2] in ("fpga.simulate", "fpga.simulate_batch")]
    toggles = sum(s[5]["toggles"] for s in sims)
    metrics["fpga.sim_toggles"] = toggles
    metrics["fpga.batch_configs"] = sum(
        s[5]["configs"] for s in sims if s[2] == "fpga.simulate_batch")
    sim_ns = (acc.raw.get("fpga.simulate", 0.0)
              + acc.raw.get("fpga.simulate_batch", 0.0)) / NS
    metrics["fpga.sim_ns_per_toggle"] = sim_ns / toggles if toggles else 0.0
    maps = [s for s in spans if s[2] == "techmap.map"]
    designs = {tuple(s[5]["design"]) for s in maps}
    metrics["techmap.luts"] = sum(design[0] for design in designs)
    lookups = sum(s[5].get("memo_lookups", 0) for s in maps)
    metrics["techmap.cone_memo_hit_ratio"] = (
        sum(s[5].get("memo_hits", 0) for s in maps) / lookups
        if lookups else 0.0
    )
    cache_calls = counts.get("flow.cache.calls", 0)
    metrics["flow.cache_hit_ratio"] = (
        counts.get("flow.cache.hits", 0) / cache_calls if cache_calls else 0.0
    )
    metrics["flow.pool_busy_frac"] = busy / (jobs * wall) if busy else 0.0
    for name in ("serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
                 "serve.compute_ms_hit", "serve.compute_ms_miss",
                 "serve.overhead_ms", "serve.submissions", "serve.deduped",
                 "serve.hit_p50_ms", "serve.hit_p99_ms", "serve.miss_p50_ms",
                 "serve.requests_per_s"):
        metrics[name] = details.pop(name, 0.0)

    setup_spans = (
        _descendants(main_spans, setup_root[0]) if setup_root else []
    )
    setup_self = self_times(setup_spans)
    for span_name, metric in SETUP_METRICS.items():
        metrics[metric] = sum(
            setup_self[s[0]] for s in setup_spans if s[2] == span_name
        ) * NS

    accounted = sum(layers.values()) + flow_self
    metrics["trace.wall_s"] = wall
    metrics["trace.accounted_s"] = accounted
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.overhead_frac"] = (
        wall / untraced_wall_s - 1.0 if untraced_wall_s else 0.0
    )
    metrics["trace.spans"] = len(spans)
    details["raw_self_s"] = dict(sorted(acc.raw.items()))
    details["counts"] = dict(counts)
    return metrics, details


def _serve_details(requests: List[Tuple], compute: List[Tuple],
                   ops: List[Any], hot_keys: Iterable[str]
                   ) -> Dict[str, Any]:
    """Queue wait / compute / overhead per request, matched by key."""
    hot = set(hot_keys)
    jobs_by_key: Dict[str, List[Tuple]] = defaultdict(list)
    for span in compute:
        if span[2] == "flow.run_jobs" and span[5]:
            jobs_by_key[span[5]["key"]].append(span)
    for spans in jobs_by_key.values():
        spans.sort(key=lambda s: s[4])
    # Client ops, by benchmark, to pair daemon records with latencies.
    client: Dict[str, List[Any]] = defaultdict(list)
    for op in ops:
        if op.sent_ns:
            client[op.key.split("/")[0]].append(op)
    waits: List[float] = []
    compute_ms: Dict[str, List[float]] = {"hit": [], "miss": []}
    overhead: List[float] = []
    deduped = 0
    for request in sorted(requests, key=lambda s: s[3]):
        record = request[5] or {}
        submitted = record.get("submit_ns")
        key = record.get("key")
        if submitted is None or key is None:
            continue
        deduped += bool(record.get("deduped"))
        job = next((s for s in jobs_by_key.get(key, ())
                    if s[4] >= submitted), None)
        if job is None:
            continue
        wait = max(0, job[3] - submitted) * NS * 1e3
        busy = (job[4] - max(job[3], submitted)) * NS * 1e3
        waits.append(wait)
        benchmark = record.get("benchmark")
        kind = "hit" if any(k.startswith(f"{benchmark}/") for k in hot) \
            else "miss"
        compute_ms[kind].append(busy)
        match = next((op for op in client.get(benchmark, ())
                      if op.sent_ns <= request[3]
                      and op.recv_ns >= request[4]), None)
        if match is not None:
            client[benchmark].remove(match)
            overhead.append(match.latency_s * 1e3 - wait - busy)
    hits = [op.latency_s * 1e3 for op in ops if op.kind == "hit"]
    misses = [op.latency_s * 1e3 for op in ops if op.kind == "miss"]
    span_s = (max(op.recv_ns for op in ops) - min(op.sent_ns for op in ops)
              ) * NS if ops else 0.0
    return {
        "serve.queue_wait_p50_ms": percentile(waits, 50),
        "serve.queue_wait_p99_ms": percentile(waits, 99),
        "serve.compute_ms_hit": percentile(compute_ms["hit"], 50),
        "serve.compute_ms_miss": percentile(compute_ms["miss"], 50),
        "serve.overhead_ms": percentile(overhead, 50),
        "serve.submissions": sum(len(v) for v in jobs_by_key.values()),
        "serve.deduped": deduped,
        "serve.hit_p50_ms": percentile(hits, 50),
        "serve.hit_p99_ms": percentile(hits, 99),
        "serve.miss_p50_ms": percentile(misses, 50),
        "serve.requests_per_s": len(ops) / span_s if span_s else 0.0,
        "serve_matched_requests": len(waits),
    }


def moved_layers(before: Dict[str, float], after: Dict[str, float]
                 ) -> List[Tuple[str, float]]:
    """Layers by how much their share of the traced wall grew from
    ``before`` to ``after`` (two traced runs' per-layer metrics),
    largest first. Shares, not seconds, so that a host that is slower
    for one of the two runs does not move every layer at once."""
    deltas = [
        (layer,
         after[f"layer.{layer}_s"] / after["trace.wall_s"]
         - before[f"layer.{layer}_s"] / before["trace.wall_s"])
        for layer in LAYERS
    ]
    return sorted(deltas, key=lambda item: item[1], reverse=True)
