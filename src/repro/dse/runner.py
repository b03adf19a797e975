"""Sweep execution: feasibility filtering, engine fan-out, result assembly.

:class:`SweepRunner` evaluates every point of a :class:`~repro.dse.SweepSpec`
and returns a :class:`SweepResult`.  The pipeline per (model, dataset) group:

1. load the dataset and build the model once;
2. pre-filter configurations whose estimated resources do not fit the spec's
   target board (they are reported as ``skipped`` rows, not simulated);
3. wrap the surviving configurations in a :class:`SweepJob` and hand it to
   the shared :class:`~repro.engine.Engine`, which evaluates them either
   in-process or fanned out over ``multiprocessing`` workers, with every
   worker memoising layer schedules in a :class:`~repro.dse.ScheduleCache`.

Latency aggregation goes through
:class:`~repro.arch.accelerator.StreamResult`, so engine rows are
bit-identical to the naive ``FlowGNNAccelerator.run_stream`` loop
(:func:`naive_sweep`) that the pre-engine experiments used — the speedup
comes purely from memoisation, the vectorised scheduler and parallelism,
never from a different cycle model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.accelerator import FlowGNNAccelerator, StreamResult
from ..arch.config import ArchitectureConfig
from ..arch.energy import estimate_energy
from ..arch.resources import estimate_resources
from ..arch.simulator import ModelProfile, simulate_inference
from ..datasets import load_dataset
from ..engine import (
    CheckpointSlice,
    Engine,
    Job,
    ProgressCallback,
    ResultTable,
    contiguous_chunks,
)
from ..graph import Graph
from ..nn import build_model
from ..nn.models.base import GNNModel
from .cache import ScheduleCache
from .pareto import DEFAULT_OBJECTIVES
from .spec import SweepSpec, _config_knobs

__all__ = [
    "SweepResult",
    "SweepRunner",
    "SweepJob",
    "PlatformSweepJob",
    "naive_sweep",
    "contiguous_chunks",
]


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------
@dataclass
class SweepResult(ResultTable):
    """Outcome of one sweep: one row per simulated point, plus bookkeeping.

    ``column`` / ``find`` / ``best`` / ``pareto`` / ``render`` / ``to_csv``
    / ``to_dict`` / ``to_json`` come from :class:`~repro.engine.ResultTable`.
    """

    spec: SweepSpec
    rows: List[Dict]
    skipped: List[Dict] = field(default_factory=list)
    cache_info: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    OBJECTIVES = DEFAULT_OBJECTIVES
    DEFAULT_METRIC = "latency_ms"
    DEFAULT_TITLE = "design-space sweep"

    @property
    def num_points(self) -> int:
        return len(self.rows)

    def to_dict(self) -> Dict:
        """Nested, JSON-serialisable summary of the whole sweep.

        Deliberately excludes timing and cache statistics so that 1-worker
        and N-worker runs of the same spec serialise identically.
        """
        return {
            "backend": self.spec.backend,
            "models": list(self.spec.models),
            "datasets": list(self.spec.datasets),
            "num_points": self.num_points,
            "rows": [dict(row) for row in self.rows],
            "skipped": [dict(row) for row in self.skipped],
        }


# ---------------------------------------------------------------------------
# Per-point evaluation (runs in workers)
# ---------------------------------------------------------------------------
def _evaluate_config(
    profile: ModelProfile,
    model_name: str,
    dataset_name: str,
    graphs: List[Graph],
    timing_graphs: List[Graph],
    config: ArchitectureConfig,
    cache: Optional[ScheduleCache],
) -> Dict:
    """Simulate every graph under ``config`` and aggregate one result row."""
    schedule_fn = cache.bind(config) if cache is not None else None
    results = [
        simulate_inference(
            profile, graph, config, schedule_fn=schedule_fn, timing_graph=timing_graph
        )
        for graph, timing_graph in zip(graphs, timing_graphs)
    ]
    # Aggregate through StreamResult itself so engine rows are identical to
    # FlowGNNAccelerator.run_stream by construction, not by parallel code.
    # Every result carries the point's weight-loading cycles.
    stream = StreamResult(results, results[0].weight_loading_cycles, config)
    resources = estimate_resources(profile, config)
    energy = estimate_energy(results[0], resources)
    row = {"model": model_name, "dataset": dataset_name}
    row.update(_config_knobs(config))
    row["latency_ms"] = stream.mean_latency_ms
    row["total_cycles"] = stream.total_cycles
    row["dsp"] = resources.dsp
    row["bram"] = resources.bram
    row["lut"] = resources.lut
    row["power_w"] = round(energy.power.total_w, 2)
    return row


# ---------------------------------------------------------------------------
# Engine jobs
# ---------------------------------------------------------------------------
@dataclass
class SweepJob(Job):
    """One (model, dataset) group of a FlowGNN sweep as an engine job.

    The model and graphs are job fields, so the engine pickles them once per
    worker.  Each worker's ``setup`` builds its own :class:`ScheduleCache`
    (hit statistics come back through ``collect``) and derives, once, what
    the cycle and resource models read from the model and the graphs: the
    model's :class:`~repro.arch.ModelProfile` and each graph's timing graph.
    A point then pays only for what its configuration changes.
    """

    model: GNNModel
    model_name: str
    dataset_name: str
    graphs: List[Graph]
    configs: List[ArchitectureConfig]
    use_cache: bool = True
    use_fast_path: bool = True

    def enumerate(self) -> List[ArchitectureConfig]:
        return self.configs

    def setup(self, context) -> None:
        self._cache = (
            ScheduleCache(use_fast_path=self.use_fast_path) if self.use_cache else None
        )
        self._profile = ModelProfile.of(self.model)
        self._timing_graphs = [self._profile.timing_graph(graph) for graph in self.graphs]

    def evaluate(self, config: ArchitectureConfig) -> Dict:
        return _evaluate_config(
            self._profile,
            self.model_name,
            self.dataset_name,
            self.graphs,
            self._timing_graphs,
            config,
            self._cache,
        )

    def collect(self) -> Optional[Dict[str, float]]:
        return self._cache.info() if self._cache is not None else None


@dataclass
class PlatformSweepJob(Job):
    """A platform-backend sweep (cpu/gpu/roofline) as an engine job.

    Platform baselines have no architecture knobs, so the config grid
    collapses: one :class:`~repro.api.InferenceReport` per (model, dataset)
    pair, obtained through the backend registry inside each worker.
    """

    spec: SweepSpec

    def enumerate(self) -> List[Tuple[str, str]]:
        return [
            (model, dataset)
            for model in self.spec.models
            for dataset in self.spec.datasets
        ]

    def setup(self, context) -> None:
        from ..api import get_backend

        self._backend = get_backend(self.spec.backend)

    def evaluate(self, item: Tuple[str, str]) -> Dict:
        from ..api import InferenceRequest

        model_name, dataset_name = item
        request = InferenceRequest(
            model=model_name,
            dataset=dataset_name,
            config=self.spec.base_config,
            **self.spec.dataset_load_kwargs(dataset_name),
        )
        report = self._backend.run(request)
        return {
            "model": model_name,
            "dataset": dataset_name,
            "backend": report.backend,
            "platform": report.extras.get("platform", report.backend),
            "latency_ms": report.mean_latency_ms,
            "p99_latency_ms": report.p99_latency_ms,
            "throughput_graphs_per_s": report.throughput_graphs_per_s,
            "energy_mj_per_graph": report.energy_mj_per_graph,
        }


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
class SweepRunner:
    """Executes a :class:`SweepSpec` and assembles a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        The sweep to run.
    workers:
        ``multiprocessing`` worker count.  ``None`` uses ``os.cpu_count()``;
        values below 2 run in-process (no pool, still cached).
    use_cache:
        Memoise layer schedules (on by default; switching it off exists for
        benchmarking the cache itself).
    use_fast_path:
        Compute cache misses with the vectorised scheduler (bit-identical to
        the reference; off means the reference scheduler runs on misses).
    executor:
        Engine transport (``serial`` / ``pool``); both produce
        byte-identical rows.
    """

    def __init__(
        self,
        spec: SweepSpec,
        workers: Optional[int] = None,
        use_cache: bool = True,
        use_fast_path: bool = True,
        executor: str = "pool",
    ) -> None:
        self.spec = spec
        self.engine = Engine(workers=workers, executor=executor)
        self.workers = self.engine.workers
        self.use_cache = use_cache
        self.use_fast_path = use_fast_path

    def run(
        self,
        progress: Optional[ProgressCallback] = None,
        checkpoint=None,
    ) -> SweepResult:
        """Evaluate every feasible sweep point.

        ``progress`` (optional) receives ``(completed, total)`` counts as
        simulated points stream back from the engine.  ``checkpoint``
        (optional, a :class:`~repro.engine.Checkpoint`) journals each
        completed point; a rerun with the same spec and journal skips the
        journaled points and returns a byte-identical result.  The journal
        is indexed by the sweep's run-wide point order (groups in spec
        order, feasible configs in grid order within each group).
        """
        if self.spec.backend != "flowgnn":
            return self._run_platform_backend(progress, checkpoint)
        started = time.perf_counter()
        skipped: List[Dict] = []
        jobs = self._build_group_jobs(skipped)

        rows: List[Dict] = []
        cache_totals = {"entries": 0, "hits": 0, "misses": 0}
        total = sum(len(job.configs) for job in jobs)
        completed = 0
        for job in jobs:
            group_progress = None
            if progress is not None:

                def group_progress(done, _total, _offset=completed):
                    progress(_offset + done, total)

            group_checkpoint = None
            if checkpoint is not None:
                group_checkpoint = CheckpointSlice(
                    checkpoint, completed, len(job.configs)
                )
            run = self.engine.run(
                job, progress=group_progress, checkpoint=group_checkpoint
            )
            rows.extend(run.rows)
            completed += len(job.configs)
            for info in run.infos:
                for key in cache_totals:
                    cache_totals[key] += int(info.get(key, 0))

        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache_info = dict(cache_totals)
        cache_info["hit_rate"] = (
            round(cache_totals["hits"] / lookups, 4) if lookups else 0.0
        )
        return SweepResult(
            spec=self.spec,
            rows=rows,
            skipped=skipped,
            cache_info=cache_info,
            elapsed_s=time.perf_counter() - started,
        )

    # -- internals ------------------------------------------------------------
    def _build_group_jobs(self, skipped: List[Dict]) -> List[SweepJob]:
        """One :class:`SweepJob` per (model, dataset) pair, prefiltered."""
        configs = list(self.spec.configs())
        jobs: List[SweepJob] = []
        datasets = {}  # loaded once per dataset, reused across models
        for model_name in self.spec.models:
            for dataset_name in self.spec.datasets:
                if dataset_name not in datasets:
                    datasets[dataset_name] = load_dataset(
                        dataset_name, **self.spec.dataset_load_kwargs(dataset_name)
                    )
                dataset = datasets[dataset_name]
                model = build_model(
                    model_name,
                    input_dim=dataset.node_feature_dim,
                    edge_input_dim=dataset.edge_feature_dim,
                    seed=0,
                )
                feasible = self._prefilter(
                    model, model_name, dataset_name, configs, skipped
                )
                jobs.append(
                    SweepJob(
                        model=model,
                        model_name=model_name,
                        dataset_name=dataset_name,
                        graphs=list(dataset),
                        configs=feasible,
                        use_cache=self.use_cache,
                        use_fast_path=self.use_fast_path,
                    )
                )
        return jobs

    def _run_platform_backend(
        self, progress: Optional[ProgressCallback] = None, checkpoint=None
    ) -> SweepResult:
        started = time.perf_counter()
        run = self.engine.run(
            PlatformSweepJob(spec=self.spec), progress=progress, checkpoint=checkpoint
        )
        return SweepResult(
            spec=self.spec,
            rows=run.rows,
            skipped=[],
            cache_info={},
            elapsed_s=time.perf_counter() - started,
        )

    def _prefilter(
        self,
        model: GNNModel,
        model_name: str,
        dataset_name: str,
        configs: List[ArchitectureConfig],
        skipped: List[Dict],
    ) -> List[ArchitectureConfig]:
        """Drop configurations whose kernel cannot fit the target board."""
        board = self.spec.board
        if board is None:
            return configs
        profile = ModelProfile.of(model)
        feasible: List[ArchitectureConfig] = []
        for config in configs:
            estimate = estimate_resources(profile, config)
            if estimate.fits(board):
                feasible.append(config)
            else:
                over = {
                    name: round(value, 2)
                    for name, value in estimate.utilisation(board).items()
                    if value > 1.0
                }
                row = {"model": model_name, "dataset": dataset_name}
                row.update(_config_knobs(config))
                row["reason"] = f"exceeds {board.name}: {over}"
                skipped.append(row)
        return feasible


# ---------------------------------------------------------------------------
# The pre-engine reference loop (kept as the benchmark baseline)
# ---------------------------------------------------------------------------
def naive_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate a sweep the way the repo did before the DSE engine existed.

    One :class:`~repro.arch.FlowGNNAccelerator` per point, every layer
    schedule recomputed from scratch, strictly serial.  Exists so benchmarks
    and tests can assert the engine is bit-identical and measure its speedup.
    """
    started = time.perf_counter()
    rows: List[Dict] = []
    datasets = {}
    for model_name in spec.models:
        for dataset_name in spec.datasets:
            if dataset_name not in datasets:
                datasets[dataset_name] = load_dataset(
                    dataset_name, **spec.dataset_load_kwargs(dataset_name)
                )
            dataset = datasets[dataset_name]
            graphs = list(dataset)
            model = build_model(
                model_name,
                input_dim=dataset.node_feature_dim,
                edge_input_dim=dataset.edge_feature_dim,
                seed=0,
            )
            for config in spec.configs():
                accelerator = FlowGNNAccelerator(model, config, use_schedule_cache=False)
                stream = accelerator.run_stream(graphs)
                resources = estimate_resources(model, config)
                energy = estimate_energy(stream.per_graph_results[0], resources)
                row = {"model": model_name, "dataset": dataset_name}
                row.update(_config_knobs(config))
                row.update(
                    {
                        "latency_ms": stream.mean_latency_ms,
                        "total_cycles": stream.total_cycles,
                        "dsp": resources.dsp,
                        "bram": resources.bram,
                        "lut": resources.lut,
                        "power_w": round(energy.power.total_w, 2),
                    }
                )
                rows.append(row)
    return SweepResult(
        spec=spec, rows=rows, skipped=[], cache_info={}, elapsed_s=time.perf_counter() - started
    )
