"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bench <name>`` — run one benchmark end to end (both binders) and
  print the Table 3-style row.
* ``synth <name>`` — integrated HLS on a benchmark; prints allocation
  and mux statistics, optionally writes VHDL.
* ``suite`` — the full LOPASS-vs-HLPower comparison over all seven
  benchmarks (what `benchmarks/test_table3_power_area.py` runs).
* ``sweep`` — run a declarative ``benchmark x binder x alpha x width x
  map effort x idle x jitter x seed`` grid across worker processes and
  dump a JSON result store (see docs/sweeps.md).
* ``estimate`` — the partial flow: Equation-(3) switching-activity and
  area estimates after tech-map, with no vectors and no simulation
  (see docs/architecture.md).
* ``corpus`` — enumerate/run the synthetic benchmark corpus
  (parameterized CDFG families; see docs/binding.md) through the sweep
  engine, with exact-binder quality gaps on the feasible subset.
* ``serve`` — run the long-lived power-estimation daemon: an asyncio
  HTTP/JSON server over a resident warm executor (see docs/serving.md).
* ``profiles`` — print Table 1.

``bench``, ``suite``, ``sweep``, ``estimate`` and ``serve`` are all
thin wrappers over the same sweep engine (:mod:`repro.flow.batch` /
:mod:`repro.flow.executor`), so they share one execution path, one
elaboration memo, one pipeline artifact cache per worker, and one
SA table read from ``--sa-table`` (never written back).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Dict, List, Optional, Sequence

from repro import (
    BENCHMARK_NAMES,
    HLSConfig,
    benchmark_spec,
    load_benchmark,
    run_sweep,
    synthesize,
)
from repro.binding import (
    BINDER_NAMES,
    DEFAULT_MCTS_BUDGET,
    DEFAULT_MCTS_SEED,
    SATable,
)
from repro.cdfg.corpus import (
    CORPUS_FAMILIES,
    corpus_instances,
    oracle_feasible,
)
from repro.errors import ReproError
from repro.techmap import MAP_EFFORTS
from repro.flow import (
    BinderConfig,
    SweepSpec,
    format_sweep_summary,
    format_table,
    percent_change,
)


def _axis_type(choices: Sequence[str], flag: str):
    """argparse ``type`` for a comma-separated axis over fixed choices.

    Validation happens at parse time (like ``choices=`` on scalar
    flags), and string defaults pass through the same parser, so a
    subcommand cannot silently accept values its siblings reject.
    """

    def parse(raw: str) -> List[str]:
        values = [token.strip() for token in raw.split(",") if token.strip()]
        if not values:
            raise argparse.ArgumentTypeError(
                f"{flag} needs at least one value"
            )
        for value in values:
            if value not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice {value!r} (choose from "
                    f"{', '.join(choices)})"
                )
        return values

    return parse


# Shared flag declarations. Every subcommand that takes one of these
# flags goes through the same helper, so help text, defaults and
# choices cannot drift apart (tests/test_cli_args.py pins this).

def _add_sa_table_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sa-table", default="data/sa_table.txt",
                        help="precalculated SA table file, read at start "
                             "and never written")


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = in-process)")


def _add_map_effort_arg(
    parser: argparse.ArgumentParser, multi: bool = False
) -> None:
    help_text = ("technology-mapper effort (default fast; 'exhaustive' "
                 "evaluates every surviving cut per node)")
    if multi:
        parser.add_argument(
            "--map-effort", default="fast",
            type=_axis_type(MAP_EFFORTS, "--map-effort"),
            metavar="{" + ",".join(MAP_EFFORTS) + "}[,...]",
            help="comma-separated axis: " + help_text)
    else:
        parser.add_argument("--map-effort", default="fast",
                            choices=MAP_EFFORTS, help=help_text)


def _add_mcts_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mcts-budget", type=int, default=DEFAULT_MCTS_BUDGET, metavar="N",
        help="mcts binder search iterations per resource class "
             f"(default {DEFAULT_MCTS_BUDGET}; 0 = best heuristic)")
    parser.add_argument(
        "--mcts-seed", type=int, default=DEFAULT_MCTS_SEED, metavar="N",
        help="mcts binder playout seed "
             f"(default {DEFAULT_MCTS_SEED}; deterministic per seed)")


def _add_flow_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=8,
                        help="datapath bit-width (default 8)")
    parser.add_argument("--vectors", type=int, default=256,
                        help="random input vectors (default 256)")
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="Equation (4) alpha (default 0.5)")
    _add_sa_table_arg(parser)
    _add_jobs_arg(parser)
    _add_map_effort_arg(parser)
    _add_mcts_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HLPower (DAC'09) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run one benchmark comparison")
    bench.add_argument("name", choices=BENCHMARK_NAMES)
    _add_flow_args(bench)

    suite = sub.add_parser("suite", help="run the full Table 3 comparison")
    _add_flow_args(suite)

    sweep = sub.add_parser(
        "sweep",
        help="run a benchmark x binder x alpha x width x seed grid",
        description=(
            "Expand a declarative grid into jobs, run them across "
            "--jobs worker processes (1 = in-process), and print/save "
            "per-cell metrics with seed-averaged aggregates. Schedules "
            "and register/port bindings are elaborated once per "
            "benchmark and shared; the precalculated SA table is read "
            "once and shipped to every worker."
        ),
    )
    sweep.add_argument(
        "--benchmarks", default=None,
        help="comma-separated names, a count N (= first N benchmarks), "
             "or 'all' (the default, unless --design is given)")
    sweep.add_argument(
        "--design", metavar="FILE", action="append", default=[],
        help="external design to estimate alongside the grid: a "
             "repro-module-v1 JSON module or flat BLIF file (repeatable; "
             "requires --flow estimate; with no explicit --benchmarks, "
             "only the designs run)")
    sweep.add_argument(
        "--binders", default="lopass,hlpower",
        help=f"comma-separated binder names from {BINDER_NAMES} "
             f"(default lopass,hlpower)")
    sweep.add_argument(
        "--alphas", default="0.5",
        help="comma-separated Equation (4) alpha values (default 0.5)")
    sweep.add_argument(
        "--widths", default="8",
        help="comma-separated datapath bit-widths (default 8)")
    sweep.add_argument(
        "--seeds", default="1",
        help="a count N (= vector seeds 7..7+N-1) or a comma-separated "
             "list of explicit seeds (default 1)")
    sweep.add_argument("--vectors", type=int, default=256,
                       help="random input vectors per cell (default 256)")
    sweep.add_argument("--scheduler", choices=("list", "force"),
                       default="list")
    _add_jobs_arg(sweep)
    sweep.add_argument("--out", metavar="FILE",
                       help="write the JSON result store here")
    _add_sa_table_arg(sweep)
    sweep.add_argument("--baseline", default="lopass",
                       help="binder label (or name) percent changes compare "
                            "against; 'none' disables the column "
                            "(default lopass)")
    _add_map_effort_arg(sweep, multi=True)
    _add_mcts_args(sweep)
    sweep.add_argument(
        "--sim-batch", type=int, default=32, metavar="N",
        help="max configurations per batched simulation kernel pass: "
             "cells sharing the mapped design run "
             "together (default 32; 1 disables batching — metrics are "
             "byte-identical either way)")
    sweep.add_argument("--idle-modes", default="zero",
                       help="comma-separated idle-step control policies to "
                            "sweep: 'zero' and/or 'hold' (default zero)")
    sweep.add_argument("--jitters", default="0",
                       help="comma-separated per-gate delay-jitter values "
                            "to sweep (default 0 = pure unit delay)")
    sweep.add_argument("--flow", choices=("full", "estimate"),
                       default="full",
                       help="'full' runs the measurement chain through "
                            "simulation; 'estimate' stops every cell after "
                            "tech-map (Equation-(3) numbers, no simulator)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the per-worker pipeline artifact "
                            "cache (metrics are identical either way; "
                            "useful for benchmarking the speedup)")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="persistent on-disk artifact-cache layer "
                            "shared across workers and sweeps")

    estimate = sub.add_parser(
        "estimate",
        help="estimate-only partial flow (no simulation)",
        description=(
            "Run the pipeline prefix bind -> datapath -> elaborate -> "
            "tech-map -> timing for every benchmark and binder and print "
            "the Equation-(3) switching-activity estimate, glitch "
            "fraction, and area — no vectors are drawn and the simulator "
            "never runs."
        ),
    )
    estimate.add_argument(
        "--benchmarks", default=None,
        help="comma-separated names, a count N (= first N benchmarks), "
             "or 'all' (the default, unless --design is given)")
    estimate.add_argument(
        "--design", metavar="FILE", action="append", default=[],
        help="external design to estimate: a repro-module-v1 JSON "
             "module or flat BLIF file (repeatable; with no explicit "
             "--benchmarks, only the designs run)")
    estimate.add_argument(
        "--binders", default="lopass,hlpower",
        help=f"comma-separated binder names from {BINDER_NAMES} "
             f"(default lopass,hlpower)")
    estimate.add_argument(
        "--alphas", default="0.5",
        help="comma-separated Equation (4) alpha values (default 0.5)")
    estimate.add_argument("--width", type=int, default=8,
                          help="datapath bit-width (default 8)")
    _add_jobs_arg(estimate)
    estimate.add_argument("--baseline", default="lopass",
                          help="binder label (or name) the dSA column "
                               "compares against; 'none' disables the "
                               "column (default lopass)")
    _add_map_effort_arg(estimate)
    _add_mcts_args(estimate)
    _add_sa_table_arg(estimate)
    estimate.add_argument("--out", metavar="FILE",
                          help="write the JSON result store here")

    corpus = sub.add_parser(
        "corpus",
        help="enumerate/run the synthetic benchmark corpus",
        description=(
            "Run corpus instances — parameterized CDFG families "
            "sweeping operation count, add/mult mix and schedule "
            "density — through the sweep engine, and report heuristic "
            "quality gaps against the exact (branch-and-bound) binder "
            "on every instance small enough for it."
        ),
    )
    corpus.add_argument("--list", action="store_true", dest="list_only",
                        help="print the instance table and exit")
    corpus.add_argument("--families", default="all",
                        help="comma-separated corpus families "
                             f"(default all = {','.join(CORPUS_FAMILIES)})")
    corpus.add_argument("--limit", type=int, default=0, metavar="N",
                        help="run at most N instances, drawn round-robin "
                             "across the selected families (default 0 = "
                             "all)")
    corpus.add_argument("--binders", default="lopass,hlpower",
                        help=f"comma-separated binder names from "
                             f"{BINDER_NAMES} (default lopass,hlpower)")
    corpus.add_argument("--alphas", default="0.5",
                        help="comma-separated Equation (4) alpha values "
                             "(default 0.5)")
    corpus.add_argument("--width", type=int, default=8,
                        help="datapath bit-width (default 8)")
    _add_jobs_arg(corpus)
    corpus.add_argument("--flow", choices=("estimate", "full"),
                        default="estimate",
                        help="'estimate' (default) stops every cell after "
                             "tech-map; 'full' simulates every instance")
    _add_map_effort_arg(corpus)
    _add_mcts_args(corpus)
    corpus.add_argument("--no-oracle", action="store_true",
                        help="skip the exact-binder quality-gap report")
    _add_sa_table_arg(corpus)
    corpus.add_argument("--out", metavar="FILE",
                        help="write the JSON result store here")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived power-estimation daemon",
        description=(
            "Start an asyncio HTTP/JSON server over a resident warm "
            "executor: POST /estimate, /flow and /sweep requests are "
            "queued by priority, deduplicated while in flight, and "
            "executed against memos that survive across requests; "
            "GET /metrics reports queue, executor and artifact-cache "
            "counters. SIGTERM shuts down cleanly (see docs/serving.md)."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8791,
                       help="bind port (default 8791; 0 = ephemeral, "
                            "printed at startup)")
    _add_jobs_arg(serve)
    _add_sa_table_arg(serve)
    serve.add_argument("--cache-entries", type=int, default=64, metavar="N",
                       help="in-memory artifact-cache capacity per worker "
                            "(default 64)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent on-disk artifact-cache layer "
                            "shared across workers and sweeps")

    synth = sub.add_parser("synth", help="integrated HLS on a benchmark")
    synth.add_argument("name", choices=BENCHMARK_NAMES)
    synth.add_argument("--scheduler", choices=("list", "force"),
                       default="list")
    synth.add_argument("--binder", choices=BINDER_NAMES,
                       default="hlpower")
    synth.add_argument("--width", type=int, default=8)
    _add_mcts_args(synth)
    synth.add_argument("--vhdl", metavar="FILE",
                       help="write the generated VHDL here")

    sub.add_parser("profiles", help="print Table 1 profiles")
    return parser


def _select_benchmarks(raw: Optional[str],
                       designs: Optional[Dict[str, str]]) -> List[str]:
    """Resolve ``--benchmarks``: default 'all', or none with --design."""
    if raw is None:
        return [] if designs else list(BENCHMARK_NAMES)
    return _parse_benchmarks(raw)


def _load_designs(paths: Sequence[str]) -> Optional[Dict[str, str]]:
    """Read ``--design`` files; the cell name is the file stem."""
    import os

    if not paths:
        return None
    designs: Dict[str, str] = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in designs:
            raise SystemExit(
                f"error: duplicate design name {name!r} (from {path})"
            )
        try:
            with open(path, "r", encoding="utf-8") as stream:
                designs[name] = stream.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read --design {path}: {exc}")
    return designs


def _parse_benchmarks(raw: str) -> List[str]:
    raw = raw.strip()
    if raw == "all":
        return list(BENCHMARK_NAMES)
    try:
        count = int(raw)
    except ValueError:
        names = [name.strip() for name in raw.split(",") if name.strip()]
        for name in names:
            try:
                benchmark_spec(name)
            except ReproError as exc:
                raise SystemExit(f"error: {exc}")
        return names
    if not 1 <= count <= len(BENCHMARK_NAMES):
        raise SystemExit(
            f"--benchmarks count must be in 1..{len(BENCHMARK_NAMES)}"
        )
    return list(BENCHMARK_NAMES[:count])


def _parse_seeds(raw: str) -> List[int]:
    raw = raw.strip()
    if "," in raw:
        return _comma_list(raw, int, "--seeds")
    try:
        count = int(raw)
    except ValueError:
        raise SystemExit(f"error: --seeds expects integers, got {raw!r}")
    if count < 1:
        raise SystemExit("error: --seeds count must be >= 1")
    return list(range(7, 7 + count))


def _comma_list(raw: str, cast, flag: str) -> List:
    try:
        return [cast(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        raise SystemExit(
            f"error: {flag} expects comma-separated "
            f"{cast.__name__} values, got {raw!r}"
        )


def _bench_rows(names: Sequence[str], args) -> List[List[str]]:
    spec = SweepSpec(
        benchmarks=list(names),
        configs=[
            BinderConfig("lopass", "lopass", args.alpha),
            BinderConfig("hlpower", "hlpower", args.alpha),
        ],
        widths=(args.width,),
        n_vectors=args.vectors,
        map_effort=args.map_effort,
        mcts_budget=args.mcts_budget,
        mcts_seed=args.mcts_seed,
    )
    sweep = run_sweep(spec, jobs=args.jobs,
                      sa_table=SATable(path=args.sa_table))
    rows = []
    deltas = []
    for name in names:
        lo = sweep.cell(name, "lopass").metrics
        hl = sweep.cell(name, "hlpower").metrics
        delta = percent_change(
            lo["dynamic_power_mw"], hl["dynamic_power_mw"]
        )
        deltas.append(delta)
        rows.append(
            [
                name,
                f"{lo['dynamic_power_mw']:.2f}",
                f"{hl['dynamic_power_mw']:.2f}",
                f"{delta:+.1f}%",
                f"{lo['area_luts']}/{hl['area_luts']}",
                f"{lo['largest_mux']}/{hl['largest_mux']}",
            ]
        )
    if len(names) > 1:
        rows.append(
            ["average", "", "", f"{statistics.mean(deltas):+.1f}%", "", ""]
        )
    return rows


def cmd_bench(args) -> int:
    try:
        rows = _bench_rows([args.name], args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_table(
        ["bench", "LOPASS mW", "HLPower mW", "dPower", "LUTs", "lrg mux"],
        rows,
    ))
    return 0


def cmd_suite(args) -> int:
    try:
        rows = _bench_rows(list(BENCHMARK_NAMES), args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_table(
        ["bench", "LOPASS mW", "HLPower mW", "dPower", "LUTs", "lrg mux"],
        rows,
        title="LOPASS vs HLPower (paper average: -19.3% power)",
    ))
    return 0


def cmd_sweep(args) -> int:
    # The axis flags carry parse-time validated lists (see _axis_type).
    efforts = args.map_effort
    designs = _load_designs(args.design)
    if designs and args.flow != "estimate":
        raise SystemExit(
            "error: --design cells run the estimate flow only; "
            "pass --flow estimate"
        )
    try:
        # SweepSpec validates binder names eagerly at construction.
        spec = SweepSpec(
            benchmarks=_select_benchmarks(args.benchmarks, designs),
            binders=_comma_list(args.binders, str, "--binders"),
            alphas=_comma_list(args.alphas, float, "--alphas"),
            widths=_comma_list(args.widths, int, "--widths"),
            vector_seeds=_parse_seeds(args.seeds),
            n_vectors=args.vectors,
            scheduler=args.scheduler,
            baseline=args.baseline,
            map_effort=efforts[0],
            map_efforts=efforts if len(efforts) > 1 else None,
            idle_modes=_comma_list(args.idle_modes, str, "--idle-modes"),
            jitters=_comma_list(args.jitters, int, "--jitters"),
            flow=args.flow,
            sim_batch=args.sim_batch,
            designs=designs,
            mcts_budget=args.mcts_budget,
            mcts_seed=args.mcts_seed,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        sweep = run_sweep(
            spec,
            jobs=args.jobs,
            sa_table=SATable(path=args.sa_table),
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_sweep_summary(sweep))
    if args.out:
        sweep.save(args.out)
        print(f"result store written to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    designs = _load_designs(args.design)
    try:
        # SweepSpec validates binder names eagerly at construction.
        spec = SweepSpec(
            benchmarks=_select_benchmarks(args.benchmarks, designs),
            binders=_comma_list(args.binders, str, "--binders"),
            alphas=_comma_list(args.alphas, float, "--alphas"),
            widths=(args.width,),
            baseline=args.baseline,
            map_effort=args.map_effort,
            flow="estimate",
            designs=designs,
            mcts_budget=args.mcts_budget,
            mcts_seed=args.mcts_seed,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        sweep = run_sweep(spec, jobs=args.jobs,
                          sa_table=SATable(path=args.sa_table))
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_sweep_summary(sweep))
    if args.out:
        sweep.save(args.out)
        print(f"result store written to {args.out}")
    return 0


def _corpus_selection(args):
    if args.families.strip() == "all":
        families = None
    else:
        families = _comma_list(args.families, str, "--families")
    limit = args.limit if args.limit > 0 else None
    try:
        return corpus_instances(families, limit)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")


def _oracle_rows(sweep, instances, configs) -> List[List[str]]:
    """Quality-gap table: heuristic vs exact FU mux length per instance.

    The comparison metric is the exact binder's own objective — total
    FU multiplexer inputs (``fu_mux_length``); register-side muxes are
    a function of the whole binding and are not what the oracle
    optimizes. Only instances the exact binder can solve appear; the
    closing row carries the per-config mean gap over that feasible
    subset.
    """
    from repro.binding import bind_optimal
    from repro.cdfg import load_benchmark
    from repro.flow.run import prepare_flow_inputs
    from repro.rtl.metrics import mux_report
    from repro.scheduling import list_schedule

    rows: List[List[str]] = []
    gaps: Dict[str, List[float]] = {config: [] for config in configs}
    for instance in instances:
        if not oracle_feasible(instance):
            continue
        schedule = list_schedule(
            load_benchmark(instance.name), instance.constraints
        )
        registers, ports = prepare_flow_inputs(schedule)
        optimal = bind_optimal(
            schedule, instance.constraints, registers, ports
        )
        best = mux_report(optimal).fu_mux_length
        row = [instance.name, str(best)]
        for config in configs:
            length = sweep.cell(
                instance.name, config
            ).metrics["fu_mux_length"]
            gap = percent_change(best, length) if best else 0.0
            gaps[config].append(gap)
            row.append(f"{length:g} ({gap:+.1f}%)")
        rows.append(row)
    if rows:
        mean_row = ["mean gap", ""]
        for config in configs:
            mean_row.append(f"{statistics.mean(gaps[config]):+.1f}%")
        rows.append(mean_row)
    return rows


def cmd_corpus(args) -> int:
    instances = _corpus_selection(args)
    if not instances:
        raise SystemExit("error: no corpus instances selected")
    if args.list_only:
        rows = []
        for inst in instances:
            profile = inst.profile
            rows.append([
                inst.name, inst.family, profile.n_operations,
                f"{profile.n_adds}/{profile.n_mults}", profile.n_layers,
                f"{profile.add_width}/{profile.mult_width}",
                "yes" if oracle_feasible(inst) else "no",
            ])
        print(format_table(
            ["instance", "family", "ops", "add/mult", "layers",
             "FUs", "oracle"],
            rows,
            title=f"corpus: {len(instances)} instances",
        ))
        return 0

    binders = _comma_list(args.binders, str, "--binders")
    try:
        # SweepSpec validates binder names eagerly at construction.
        spec = SweepSpec(
            benchmarks=[inst.name for inst in instances],
            binders=binders,
            alphas=_comma_list(args.alphas, float, "--alphas"),
            widths=(args.width,),
            baseline="lopass" if "lopass" in binders else "none",
            map_effort=args.map_effort,
            flow=args.flow,
            mcts_budget=args.mcts_budget,
            mcts_seed=args.mcts_seed,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        sweep = run_sweep(spec, jobs=args.jobs,
                          sa_table=SATable(path=args.sa_table))
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_sweep_summary(sweep))
    if not args.no_oracle:
        configs = [config.label for config in spec.binder_configs()]
        try:
            rows = _oracle_rows(sweep, instances, configs)
        except ReproError as exc:
            raise SystemExit(f"error: {exc}")
        if rows:
            print()
            print(format_table(
                ["instance", "optimal mux"]
                + [f"{config} mux (gap)" for config in configs],
                rows,
                title=(
                    "oracle quality gaps (exact branch-and-bound "
                    "binder, feasible subset)"
                ),
            ))
        else:
            print("\nno oracle-feasible instances in the selection")
    if args.out:
        sweep.save(args.out)
        print(f"result store written to {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = benchmark_spec(args.name)
    config = HLSConfig(
        scheduler=args.scheduler, binder=args.binder, width=args.width,
        mcts_budget=args.mcts_budget, mcts_seed=args.mcts_seed,
    )
    constraints = spec.constraints if args.scheduler == "list" else None
    result = synthesize(load_benchmark(args.name), constraints, config,
                        entity=args.name)
    print(f"schedule: {result.schedule.length} steps")
    print(f"allocation: {result.allocation}")
    print(f"registers: {result.solution.registers.n_registers}")
    print(
        f"muxes: largest {result.muxes.largest_mux}, length "
        f"{result.muxes.mux_length}, muxDiff mean "
        f"{result.muxes.mux_diff_mean:.2f}"
    )
    print(f"port-assignment flips: {result.port_flips}")
    if args.vhdl:
        with open(args.vhdl, "w") as handle:
            handle.write(result.vhdl)
        print(f"VHDL written to {args.vhdl}")
    return 0


def cmd_profiles(args) -> int:
    rows = []
    for name in BENCHMARK_NAMES:
        spec = benchmark_spec(name)
        rows.append(
            [
                name, spec.profile.n_inputs, spec.profile.n_outputs,
                spec.profile.n_adds, spec.profile.n_mults,
                spec.add_units, spec.mult_units, spec.paper_cycles,
            ]
        )
    print(format_table(
        ["bench", "PIs", "POs", "adds", "mults", "add FUs", "mult FUs",
         "cycles"],
        rows,
        title="Table 1/2 benchmark data",
    ))
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import main as serve_main
    return serve_main(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bench": cmd_bench,
        "suite": cmd_suite,
        "sweep": cmd_sweep,
        "estimate": cmd_estimate,
        "corpus": cmd_corpus,
        "synth": cmd_synth,
        "serve": cmd_serve,
        "profiles": cmd_profiles,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
