"""Byte pins for the report helpers (tables and sweep summaries).

:func:`format_sweep_summary` builds its output via list-append +
``str.join`` (quadratic ``+=`` growth would bite on thousand-cell
sweeps); these tests freeze the exact bytes so the rebuild stays a
pure refactor, and so future axis additions change the summary only
deliberately. The synthetic :class:`SweepResult` fixtures carry fixed
wall clocks and cache counters — nothing here runs a flow.
"""

from repro.flow.batch import SweepResult
from repro.flow.grid import SweepCell, SweepSpec
from repro.flow.report import (
    format_change,
    format_table,
    format_sweep_summary,
    percent_change,
)


def estimate_cell(config: str, sa: float) -> SweepCell:
    return SweepCell(
        benchmark="pr", config=config, binder=config, alpha=0.5, width=8,
        vector_seed=7,
        metrics={"estimated_sa": sa, "glitch_fraction": 0.25,
                 "area_luts": 100, "largest_mux": 6,
                 "clock_period_ns": 12.0},
        runtime_s=1.5, schedule_cache_hit=False,
        stage_timings={"bind": 0.25, "techmap": 1.0, "elaborate": 0.5},
    )


def full_cell(seed: int, effort: str, power: float) -> SweepCell:
    return SweepCell(
        benchmark="pr", config="lopass", binder="lopass", alpha=0.5,
        width=8, vector_seed=seed,
        metrics={"dynamic_power_mw": power, "toggle_rate_mhz": 4.0,
                 "area_luts": 100, "largest_mux": 6,
                 "clock_period_ns": 12.0},
        runtime_s=1.5, schedule_cache_hit=True,
        map_effort=effort,
    )


class TestTableHelpers:
    def test_percent_change(self):
        assert percent_change(2.0, 1.0) == -50.0
        assert percent_change(0.0, 1.0) == 0.0

    def test_format_change(self):
        assert format_change(-19.34) == "-19.34%"
        assert format_change(2.5) == "+2.50%"

    def test_format_table_bytes(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["bb", 22]], title="t"
        )
        assert table == (
            "t\n"
            "name  value\n"
            "----  -----\n"
            "a         1\n"
            "bb       22"
        )


class TestSweepSummaryBytes:
    def test_estimate_summary_pinned(self):
        spec = SweepSpec(
            benchmarks=["pr"], binders=("lopass", "hlpower"),
            widths=(8,), flow="estimate", baseline="lopass",
        )
        sweep = SweepResult(
            spec=spec,
            cells=[estimate_cell("lopass", 40.0),
                   estimate_cell("hlpower", 30.0)],
            jobs=1, wall_s=3.25,
            schedule_cache_hits=1, schedule_cache_misses=1,
            stage_cache_hits=3, stage_cache_misses=7,
        )
        assert format_sweep_summary(sweep) == (
            "Sweep: 2 cells (estimate-only, 1 benchmarks x 2 configs), "
            "jobs=1, wall 3.2s\n"
            "bench   config  est SA  glitch  clk ns  LUTs  lrg mux      dSA\n"
            "-----  -------  ------  ------  ------  ----  -------  -------\n"
            "pr      lopass    40.0   25.0%    12.0   100        6   +0.00%\n"
            "pr     hlpower    30.0   25.0%    12.0   100        6  -25.00%\n"
            "elaboration cache: 1 hits / 1 misses; "
            "pipeline stages: 3 cached / 7 computed (30% hit rate)\n"
            "stage wall: bind 0.50s, elaborate 1.00s, techmap 2.00s"
        )

    def test_full_flow_with_effort_axis_pinned(self):
        spec = SweepSpec(
            benchmarks=["pr"], binders=("lopass",), widths=(8,),
            vector_seeds=(7, 8), baseline="none",
            map_effort="fast", map_efforts=("fast", "exhaustive"),
        )
        sweep = SweepResult(
            spec=spec,
            cells=[full_cell(7, "fast", 2.0), full_cell(8, "fast", 3.0),
                   full_cell(7, "exhaustive", 2.0),
                   full_cell(8, "exhaustive", 3.0)],
            jobs=2, wall_s=10.0,
            schedule_cache_hits=3, schedule_cache_misses=1,
            sim_batches=1, sim_batched_cells=4, sim_batch_wall_s=0.5,
        )
        assert format_sweep_summary(sweep) == (
            "Sweep: 4 cells (1 benchmarks x 1 configs x 2 efforts x "
            "2 seeds), jobs=2, wall 10.0s\n"
            "bench  config      effort   power mW  tog MHz  clk ns  LUTs"
            "  lrg mux  dPow\n"
            "-----  ------  ----------  ---------  -------  ------  ----"
            "  -------  ----\n"
            "pr     lopass        fast  2.50±0.71     4.00    12.0   100"
            "        6   n/a\n"
            "pr     lopass  exhaustive  2.50±0.71     4.00    12.0   100"
            "        6   n/a\n"
            "elaboration cache: 3 hits / 1 misses; "
            "pipeline stages: 0 cached / 0 computed; "
            "batched simulation: 4 cells in 1 kernel passes (0.5s)"
        )
