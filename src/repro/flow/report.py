"""Table formatting for the reproduction benches.

Small, dependency-free helpers that render the paper-style rows the
benches print (Tables 1-4, Figure 3) and compute the percentage
changes the paper reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flow.batch import SweepResult

#: Pipeline order for the per-stage wall-clock line; stages the
#: pipeline grows later sort after these, alphabetically.
_STAGE_ORDER = (
    "bind", "datapath", "elaborate", "techmap", "timing",
    "vectors", "simulate", "power",
)


def percent_change(before: float, after: float) -> float:
    """Signed percentage change, as in Table 3's "Change" columns."""
    if before == 0:
        return 0.0
    return (after - before) / before * 100.0


def format_change(value: float) -> str:
    """Render a percentage with the paper's sign convention."""
    return f"{value:+.2f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Plain-text aligned table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def render_row(values: Sequence[str]) -> str:
        return "  ".join(
            value.rjust(widths[index]) if index else value.ljust(widths[0])
            for index, value in enumerate(values)
        )

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_sweep_summary(sweep: "SweepResult") -> str:
    """Aggregate table + execution stats for one sweep.

    One row per (benchmark, config, width, map effort, idle, jitter)
    group. Full-flow sweeps show seed-averaged power (with stdev when
    several seeds ran), toggle rate, the seed-invariant area/clock
    numbers, and the power change versus the sweep's baseline binder;
    estimate-only sweeps show the Equation-(3) switching-activity
    estimate and glitch fraction instead. Grid axes held at a single
    value are omitted from the columns.
    """
    spec = sweep.spec
    estimate = spec.flow == "estimate"
    rows = []
    multi_width = len(spec.widths) > 1
    extra_axes = []
    if len(spec.efforts()) > 1:
        extra_axes.append(("effort", "map_effort"))
    if not estimate:
        if len(spec.idle_modes) > 1:
            extra_axes.append(("idle", "idle_selects"))
        if len(spec.jitters) > 1:
            extra_axes.append(("jit", "delay_jitter"))
    for agg in sweep.aggregates():
        row = [agg["benchmark"], agg["config"]]
        if multi_width:
            row.append(agg["width"])
        for _, key in extra_axes:
            row.append(agg[key])
        if estimate:
            delta = agg["d_sa_vs_baseline_pct"]
            row += [
                f"{agg['sa_mean']:.1f}",
                f"{agg['glitch_fraction'] * 100:.1f}%",
            ]
        else:
            delta = agg["d_power_vs_baseline_pct"]
            power = f"{agg['power_mean_mw']:.2f}"
            if agg["n_seeds"] > 1:
                power += f"±{agg['power_stdev_mw']:.2f}"
            row += [power, f"{agg['toggle_rate_mean_mhz']:.2f}"]
        row += [
            f"{agg['clock_period_ns']:.1f}",
            agg["area_luts"],
            agg["largest_mux"],
            format_change(delta) if delta is not None else "n/a",
        ]
        rows.append(row)
    headers = ["bench", "config"]
    if multi_width:
        headers.append("width")
    headers += [label for label, _ in extra_axes]
    if estimate:
        headers += ["est SA", "glitch", "clk ns", "LUTs", "lrg mux", "dSA"]
    else:
        headers += ["power mW", "tog MHz", "clk ns", "LUTs", "lrg mux",
                    "dPow"]
    axes = [
        (len(spec.benchmarks), "benchmarks"),
        (len(spec.binder_configs()), "configs"),
        (len(spec.widths), "widths"),
        (len(spec.efforts()), "efforts"),
    ]
    if not estimate:
        # Estimate sweeps collapse the simulation-only axes, so only
        # full sweeps multiply over them.
        axes += [
            (len(spec.idle_modes), "idle"),
            (len(spec.jitters), "jitters"),
            (len(spec.vector_seeds), "seeds"),
        ]
    grid = " x ".join(
        f"{count} {label}" for count, label in axes
        if count > 1 or label in ("benchmarks", "configs")
    )
    flow_tag = "estimate-only, " if estimate else ""
    title = (
        f"Sweep: {len(sweep.cells)} cells ({flow_tag}{grid}), "
        f"jobs={sweep.jobs}, wall {sweep.wall_s:.1f}s"
    )
    stage_total = sweep.stage_cache_hits + sweep.stage_cache_misses
    hit_rate = (
        f" ({100.0 * sweep.stage_cache_hits / stage_total:.0f}% hit rate)"
        if stage_total else ""
    )
    # Collect stats as segments and lines and join once — repeated
    # ``str +=`` re-copies the accumulated summary per append, which
    # goes quadratic on wide sweeps. Bytes are pinned by
    # tests/flow/test_report.py.
    segments = [
        f"elaboration cache: {sweep.schedule_cache_hits} hits / "
        f"{sweep.schedule_cache_misses} misses",
        f"pipeline stages: {sweep.stage_cache_hits} cached / "
        f"{sweep.stage_cache_misses} computed{hit_rate}",
    ]
    if sweep.sim_batches:
        segments.append(
            f"batched simulation: {sweep.sim_batched_cells} cells in "
            f"{sweep.sim_batches} kernel passes "
            f"({sweep.sim_batch_wall_s:.1f}s)"
        )
    lines = [
        format_table(headers, rows, title=title),
        "; ".join(segments),
    ]
    totals = sweep.stage_time_totals()
    if totals:
        rank = {stage: index for index, stage in enumerate(_STAGE_ORDER)}
        ordered = sorted(
            totals.items(),
            key=lambda item: (rank.get(item[0], len(rank)), item[0]),
        )
        lines.append("stage wall: " + ", ".join(
            f"{stage} {seconds:.2f}s" for stage, seconds in ordered
        ))
    return "\n".join(lines)
