"""The declarative sweep-grid model.

This module is the pure data layer under the sweep engine: a
:class:`SweepSpec` describes one experiment grid (benchmarks, binder
configurations, widths, mapper-effort/simulation axes, seeds, shared
flow knobs), :func:`expand_grid` expands it into concrete
:class:`SweepJob` cells, and :class:`SweepCell` is the record one job
produces. Execution lives in :mod:`repro.flow.executor` (the resident
worker-pool layer) and :mod:`repro.flow.batch` (the ``run_sweep``
driver and result store); the ``repro serve`` daemon builds
single-cell grids out of HTTP requests through the same model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.binding import BINDER_NAMES
from repro.cdfg import benchmark_spec
from repro.errors import ConfigError
from repro.techmap import MAP_EFFORTS


@dataclass(frozen=True)
class BinderConfig:
    """One binder column of the grid.

    ``label`` names the column in records and reports ("lopass",
    "hlpower_a05", ...); ``alpha`` is Equation (4)'s weight and is
    ignored by binders that do not consume it (LOPASS).
    """

    label: str
    binder: str
    alpha: float = 0.5


@dataclass
class SweepSpec:
    """Declarative description of one experiment grid.

    The grid is the cross product ``benchmarks x binder_configs x
    widths x map efforts x idle_modes x jitters x vector_seeds``.
    Binder configurations come either from the ``binders x alphas``
    cross product (the default) or from an explicit ``configs`` list
    when the columns are not a product — e.g. the bench suite's
    ``lopass / hlpower_a1 / hlpower_a05``. The simulation-only axes
    (idle mode, jitter, seed) vary nothing before the simulate
    stage, so the pipeline cache turns them into simulate-only work.
    """

    benchmarks: Sequence[str] = ()
    binders: Sequence[str] = ("lopass", "hlpower")
    alphas: Sequence[float] = (0.5,)
    widths: Sequence[int] = (8,)
    vector_seeds: Sequence[int] = (7,)
    configs: Optional[Sequence[BinderConfig]] = None
    n_vectors: int = 256
    k: int = 4
    scheduler: str = "list"
    check_function: bool = True
    #: Technology-mapper effort for every cell: "fast" (default) or
    #: "exhaustive". ``map_efforts`` overrides this scalar with a grid
    #: axis.
    map_effort: str = "fast"
    #: Binder label (or binder name) used as the reference for
    #: percentage changes; "none" (or empty) disables the comparison.
    baseline: str = "lopass"
    #: Idle-step control policies to sweep ("zero" and/or "hold").
    idle_modes: Sequence[str] = ("zero",)
    #: Per-gate delay-jitter values to sweep (0 = pure unit delay).
    jitters: Sequence[int] = (0,)
    #: Optional mapper-effort axis; ``None`` means ``(map_effort,)``.
    map_efforts: Optional[Sequence[str]] = None
    #: "full" runs the paper's measurement chain; "estimate" stops
    #: every cell after tech-map (Equation-(3) numbers, no simulator).
    flow: str = "full"
    #: External designs to estimate alongside (or instead of) the
    #: benchmarks: design name -> design text (``repro-module-v1`` JSON
    #: or flat BLIF; see :mod:`repro.ingest`). Design cells appear as
    #: benchmark ``design:<name>`` with binder column ``ingest`` and
    #: run the estimate flow only — they have no schedule or binder, so
    #: only the ``k``/``map_efforts`` knobs apply to them. The text
    #: rides in :meth:`to_dict`, so serve request deduplication and
    #: worker-pool shipping see the design content.
    designs: Optional[Mapping[str, str]] = None
    #: Maximum configurations per batched simulation kernel pass.
    #: Full-flow cells that share the mapped design (same benchmark
    #: / binder / width / effort, differing only in seed,
    #: idle mode or jitter) are dispatched through
    #: :func:`~repro.flow.pipeline.batch_simulate_pipelines` in groups
    #: of up to this many; ``1`` disables batching (every cell runs
    #: the solo kernel). Metrics are byte-identical either way. Kernel
    #: wall clock is strongly sublinear in batch width (the union of
    #: scheduled events grows much slower than the config count), so
    #: wider is cheaper until word width dominates; 32 is the sweet
    #: spot measured on the chem benchmark (BENCH_flow.json).
    sim_batch: int = 32
    #: MCTS binder knobs, applied to every ``"mcts"`` cell: search
    #: budget (iterations per resource class; 0 degenerates to the
    #: best heuristic) and playout seed. Both enter the bind-stage
    #: fingerprint; other binders ignore them.
    mcts_budget: int = 256
    mcts_seed: int = 1

    def __post_init__(self) -> None:
        # Binder names gate which bind implementations run at all, so
        # an unknown name must fail here — at construction / from_dict
        # time — not halfway through a sweep when run_binder first sees
        # the job.
        for config in self.binder_configs():
            if config.binder not in BINDER_NAMES:
                raise ConfigError(
                    f"unknown binder {config.binder!r}; choose from "
                    f"{BINDER_NAMES}"
                )

    def binder_configs(self) -> List[BinderConfig]:
        if self.configs is not None:
            return list(self.configs)
        out = []
        for binder in self.binders:
            for alpha in self.alphas:
                label = binder if len(self.alphas) == 1 else (
                    f"{binder}_a{alpha:g}"
                )
                out.append(BinderConfig(label, binder, alpha))
        return out

    def efforts(self) -> List[str]:
        """The mapper-effort axis (scalar unless overridden)."""
        if self.map_efforts is not None:
            return list(self.map_efforts)
        return [self.map_effort]

    def validate(self) -> None:
        if not self.benchmarks and not self.designs:
            raise ConfigError("sweep spec has no benchmarks or designs")
        for name in self.benchmarks:
            benchmark_spec(name)  # raises on unknown names
        if self.designs is not None:
            self._validate_designs()
        if self.scheduler not in ("list", "force"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        for effort in [self.map_effort] + self.efforts():
            if effort not in MAP_EFFORTS:
                raise ConfigError(
                    f"unknown mapper effort {effort!r}; choose from "
                    f"{MAP_EFFORTS}"
                )
        if self.flow not in ("full", "estimate"):
            raise ConfigError(
                f"unknown flow mode {self.flow!r}; choose from "
                f"('full', 'estimate')"
            )
        if self.sim_batch < 1:
            raise ConfigError(
                f"sim_batch must be >= 1, got {self.sim_batch}"
            )
        if not self.idle_modes:
            raise ConfigError("sweep spec needs >= 1 idle mode")
        for idle in self.idle_modes:
            if idle not in ("zero", "hold"):
                raise ConfigError(
                    f"unknown idle policy {idle!r}; choose from "
                    f"('zero', 'hold')"
                )
        if not self.jitters:
            raise ConfigError("sweep spec needs >= 1 jitter value")
        for jitter in self.jitters:
            if jitter < 0:
                raise ConfigError(f"delay jitter must be >= 0, got {jitter}")
        configs = self.binder_configs()
        if not configs:
            raise ConfigError("sweep spec has no binder configurations")
        for config in configs:
            if config.binder not in BINDER_NAMES:
                raise ConfigError(
                    f"unknown binder {config.binder!r}; choose from "
                    f"{BINDER_NAMES}"
                )
        if (not isinstance(self.mcts_budget, int)
                or isinstance(self.mcts_budget, bool)
                or self.mcts_budget < 0):
            raise ConfigError(
                f"mcts_budget must be an integer >= 0, "
                f"got {self.mcts_budget!r}"
            )
        if (not isinstance(self.mcts_seed, int)
                or isinstance(self.mcts_seed, bool)):
            raise ConfigError(
                f"mcts_seed must be an integer, got {self.mcts_seed!r}"
            )
        labels = [config.label for config in configs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate binder labels: {labels}")
        if not self.widths or not self.vector_seeds:
            raise ConfigError("sweep spec needs >= 1 width and seed")
        if self.baseline and self.baseline != "none":
            if self.baseline not in labels:
                matches = [
                    c for c in configs if c.binder == self.baseline
                ]
                if not matches:
                    raise ConfigError(
                        f"baseline {self.baseline!r} matches no binder "
                        f"configuration; choose from {sorted(labels)} or "
                        f"pass 'none'"
                    )
                # LOPASS ignores alpha, so all its grid columns hold
                # identical cells and any of them can anchor the
                # comparison; an alpha-sensitive binder must be named
                # by its exact label.
                if len(matches) > 1 and self.baseline != "lopass":
                    raise ConfigError(
                        f"baseline {self.baseline!r} is ambiguous across "
                        f"alphas; use an explicit label such as "
                        f"{matches[0].label!r}"
                    )

    def _validate_designs(self) -> None:
        # Local import: the ingest frontend sits above this pure data
        # layer and must stay importable without it.
        from repro.errors import ReproError
        from repro.ingest import load_design_text

        if not isinstance(self.designs, Mapping):
            raise ConfigError("designs must map name -> design text")
        if self.flow != "estimate":
            raise ConfigError(
                "external designs have no schedule or binder; they run "
                "the estimate flow only (set flow='estimate')"
            )
        for name, text in self.designs.items():
            if not isinstance(name, str) or not name:
                raise ConfigError(f"bad design name {name!r}")
            try:
                load_design_text(text, name=name)
            except ReproError as exc:
                raise ConfigError(f"design {name!r}: {exc}") from exc

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["benchmarks"] = list(self.benchmarks)
        data["binders"] = list(self.binders)
        data["alphas"] = list(self.alphas)
        data["widths"] = list(self.widths)
        data["vector_seeds"] = list(self.vector_seeds)
        data["idle_modes"] = list(self.idle_modes)
        data["jitters"] = list(self.jitters)
        if self.map_efforts is not None:
            data["map_efforts"] = list(self.map_efforts)
        if self.configs is not None:
            data["configs"] = [asdict(config) for config in self.configs]
        if self.designs is not None:
            data["designs"] = dict(self.designs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        accepted = sorted(spec_field.name for spec_field in fields(cls))
        unknown = sorted(set(data) - set(accepted))
        if unknown:
            raise ConfigError(
                f"unknown sweep spec field(s) {unknown}; accepted: "
                f"{accepted}"
            )
        kwargs = dict(data)
        if kwargs.get("configs") is not None:
            kwargs["configs"] = [
                BinderConfig(**config) for config in kwargs["configs"]
            ]
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepJob:
    """One expanded grid cell, ready to run."""

    index: int
    benchmark: str
    config: BinderConfig
    width: int
    vector_seed: int
    idle_selects: str = "zero"
    delay_jitter: int = 0
    map_effort: str = "fast"
    #: Set for external-design cells: the key into ``spec.designs``.
    design: Optional[str] = None


#: Binder column shown for external-design cells (which have none).
INGEST_CONFIG = BinderConfig("ingest", "ingest", 0.0)


@dataclass
class SweepCell:
    """The record one job produces."""

    benchmark: str
    config: str
    binder: str
    alpha: float
    width: int
    vector_seed: int
    #: Deterministic measurements (see :meth:`FlowResult.metrics` /
    #: :meth:`EstimateResult.metrics` depending on the spec's flow).
    metrics: Dict[str, float]
    runtime_s: float
    schedule_cache_hit: bool
    idle_selects: str = "zero"
    delay_jitter: int = 0
    map_effort: str = "fast"
    #: Per-pipeline-stage wall clock of this cell's flow run.
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: Pipeline stages served from the worker's artifact cache.
    cache_hits: List[str] = field(default_factory=list)
    #: Size of the batched simulation pass that produced this cell's
    #: trace (0 = solo kernel run, batching off or group too small).
    sim_batch: int = 0
    #: This cell's share of its batched pass's kernel wall clock
    #: (total pass seconds / configurations in the pass).
    sim_batch_s: float = 0.0

    @property
    def key(self) -> Tuple[str, str, int, int, str, int, str]:
        return (
            self.benchmark, self.config, self.width, self.vector_seed,
            self.idle_selects, self.delay_jitter, self.map_effort,
        )


def expand_grid(spec: SweepSpec) -> List[SweepJob]:
    """Expand the spec into jobs, benchmark-major.

    Benchmark-major order keeps jobs that share an elaboration-memo key
    adjacent, and simulation-only axes (idle/jitter/seed) innermost so
    consecutive jobs share the longest cached pipeline prefix. In
    estimate mode the simulation-only axes are collapsed to their first
    value — they cannot move any estimate metric, so multiplying cells
    over them would only duplicate records.
    """
    spec.validate()
    idle_modes: Sequence[str] = spec.idle_modes
    jitters: Sequence[int] = spec.jitters
    seeds: Sequence[int] = spec.vector_seeds
    if spec.flow == "estimate":
        idle_modes = idle_modes[:1]
        jitters = jitters[:1]
        seeds = seeds[:1]
    jobs: List[SweepJob] = []
    for benchmark in spec.benchmarks:
        for config in spec.binder_configs():
            for width in spec.widths:
                # The mapper-effort axis sits outside the
                # simulation-only axes: cells that share (benchmark,
                # binder, width, effort) share the mapped prefix.
                for effort in spec.efforts():
                    for idle in idle_modes:
                        for jitter in jitters:
                            for seed in seeds:
                                jobs.append(SweepJob(
                                    len(jobs), benchmark, config, width,
                                    seed, idle, jitter, effort,
                                ))
    if spec.designs:
        # Design cells: estimate flow only (validate() enforces it), so
        # the simulation axes are already collapsed; the mapper-effort
        # axis is the only one that can move a design metric. width=0
        # marks "the design defines its own widths".
        for name in sorted(spec.designs):
            for effort in spec.efforts():
                jobs.append(SweepJob(
                    len(jobs), f"design:{name}", INGEST_CONFIG, 0,
                    seeds[0], idle_modes[0], jitters[0], effort,
                    design=name,
                ))
    return jobs
