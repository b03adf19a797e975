"""The benchmark's four workloads, each built only from the program's public API.

Every workload has the same shape:

* ``setup(seed)`` builds the inputs and everything the timed phase needs
  (datasets, models, backend measurements, clusters, generators);
* ``run(state)`` is one unit of timed work and returns the program's result;
  ``items(result)`` says how much simulated work that was;
* ``payload(result)`` is every simulated statistic of the result, which the
  digest hashes;
* ``checks(state, result)`` compares outputs with the program's reference
  implementations and invariants, outside the timed phase;
* ``setup_shims``/``run_shims`` install the tracing wrappers for a traced run
  and ``layer_metrics`` turns the recorded spans into per-layer numbers.

Sizes scale with ``scale`` (1.0 is the benchmark; tests use a tiny size).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Optional

import repro.api.backends as api_backends
import repro.api.request as api_request
import repro.arch.accelerator as arch_accelerator
import repro.dse.cache as dse_cache
import repro.dse.runner as dse_runner
from repro.api import FlowGNNBackend, MeasurementCache
from repro.dse import SweepJob, SweepRunner, SweepSpec
from repro.engine import Engine
from repro.nn import MODEL_NAMES
from repro.serve import (
    AdmissionControl,
    CarbonIntensity,
    Cluster,
    FaultSchedule,
    LoadGenerator,
    PowerModel,
    ReactiveAutoscaler,
    Workload,
    reference_serve,
    reference_serve_dynamic,
    sketch_nbytes,
)
from repro.serve.reference import assert_reports_identical

from tracing import Shims, SpanStats, Tracer

__all__ = ["WORKLOADS", "PER_LAYER", "cpu_count"]

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not exercise reports 0.
PER_LAYER: Dict[str, str] = {
    "datasets.load_s": "s",
    "nn.build_s": "s",
    "api.measure_calls": "count",
    "api.measure_s": "s",
    "api.cache_hit_rate": "fraction",
    "arch.simulate_calls": "count",
    "arch.simulate_self_s": "s",
    "arch.resources_s": "s",
    "arch.sim_cycles": "cycles",
    "dse.schedule_lookups": "count",
    "dse.schedule_hit_rate": "fraction",
    "dse.schedule_miss_s": "s",
    "engine.wall_s": "s",
    "engine.busy_s": "s",
    "engine.parallel_eff": "fraction",
    "serve.arrivals.requests": "count",
    "serve.arrivals.gen_s": "s",
    "serve.cluster.sim_s": "s",
    "serve.policy.assign_calls": "count",
    "serve.policy.s": "s",
    "serve.cluster.batches": "count",
    "serve.cluster.mean_batch": "requests",
    "serve.cluster.max_queue": "requests",
    "serve.cluster.drop_frac": "fraction",
    "serve.cluster.util_mean": "fraction",
    "serve.report.nbytes": "bytes",
    "serve.autoscale.ticks": "count",
    "serve.autoscale.decide_s": "s",
    "serve.autoscale.scale_events": "count",
    "serve.admission.checks": "count",
    "serve.admission.s": "s",
    "serve.admission.shed_frac": "fraction",
    "serve.faults.failures": "count",
    "serve.carbon.integral_calls": "count",
    "serve.carbon.integral_s": "s",
    "serve.power.energy_j": "J",
    "serve.carbon.gco2": "gCO2",
}


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _total(stats: Dict[str, SpanStats], name: str) -> float:
    entry = stats.get(name)
    return entry.total_s if entry else 0.0


def _count(stats: Dict[str, SpanStats], name: str) -> int:
    entry = stats.get(name)
    return entry.count if entry else 0


def _self(stats: Dict[str, SpanStats], name: str) -> float:
    entry = stats.get(name)
    return entry.self_s if entry else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# dse_sweep
# ---------------------------------------------------------------------------
@dataclass
class DseState:
    spec: SweepSpec
    runner: SweepRunner
    seed: int


class DseSweep:
    """The paper's Fig. 10 parallelism grid over every model, MolHIV and HEP."""

    name = "dse_sweep"
    why = (
        "108 configs x 6 models x 2 datasets through the in-process engine: "
        "arch, dse and engine do the work, serve does none"
    )
    SAMPLED_POINTS = 4
    #: One in-process worker.  Two pool workers on a shared 2-CPU host
    #: measured the scheduler, and the host-speed sample, which times one
    #: core, could not scale their rate.
    WORKERS = 1

    def __init__(self, scale: float = 1.0) -> None:
        # Four graphs per dataset keep a unit near 0.4 s, so a run holds
        # dozens of units, each scaled by the host speed sampled next to it.
        self.num_graphs = max(2, int(round(4 * scale)))
        self.models = tuple(MODEL_NAMES[: max(2, int(round(len(MODEL_NAMES) * scale)))])

    def spec(self, **overrides) -> SweepSpec:
        fields = dict(
            models=self.models,
            datasets=("MolHIV", "HEP"),
            num_graphs=self.num_graphs,
            board=None,
        )
        fields.update(overrides)
        return SweepSpec(**fields)

    def setup(self, seed: int) -> DseState:
        # The seed orders each knob's values.  The datasets keep their
        # default seeds: the cycle model's cost follows graph structure, and
        # a seed that changed the graphs would change the work per sweep.
        rng = random.Random(seed)
        grid = {
            knob: tuple(rng.sample(values, len(values)))
            for knob, values in SweepSpec.parallelism_grid().grid.items()
        }
        spec = self.spec(grid=grid)
        return DseState(spec, SweepRunner(spec, workers=self.WORKERS, executor="serial"), seed)

    def run(self, state: DseState):
        return state.runner.run()

    def items(self, result) -> int:
        return result.num_points * self.num_graphs

    def payload(self, result) -> Dict:
        return result.to_dict()

    def checks(self, state: DseState, result) -> Dict[str, bool]:
        spec = state.spec
        checks = {"rows == num_points": len(result.rows) == spec.num_points()}
        points = list(spec.points())
        sample = random.Random(state.seed).sample(points, self.SAMPLED_POINTS)
        for point in sample:
            reference = SweepRunner(
                self.spec(
                    models=(point.model,),
                    datasets=(point.dataset,),
                    grid={},
                    base_config=point.config,
                ),
                workers=1,
                use_cache=False,
                use_fast_path=False,
            ).run()
            expected = reference.rows[0]
            keys = ("model", "dataset", "p_node", "p_edge", "p_apply", "p_scatter")
            matches = [
                row for row in result.rows if all(row[k] == expected[k] for k in keys)
            ]
            checks[f"reference row {point.describe()}"] = matches == [expected]
        return checks

    def setup_shims(self, shims: Shims, tracer: Tracer) -> None:
        """The sweep loads and builds inside ``run``; nothing to trace in setup."""

    def run_shims(self, shims: Shims, tracer: Tracer, state: DseState) -> None:
        for name, span in (
            ("load_dataset", "datasets.load"),
            ("build_model", "nn.build"),
            ("simulate_inference", "arch.simulate"),
            ("estimate_resources", "arch.resources"),
        ):
            shims.patch(dse_runner, name, tracer.wrap(span, getattr(dse_runner, name)))
        # ScheduleCache binds its miss function when it is built (in
        # SweepJob.setup, during the sweep), so patching the module global suffices.
        shims.patch(
            dse_cache,
            "fast_schedule_layer",
            tracer.wrap("dse.schedule_miss", dse_cache.fast_schedule_layer),
        )
        shims.patch(SweepJob, "evaluate", tracer.wrap("engine.evaluate", SweepJob.evaluate))
        shims.patch(Engine, "run", tracer.wrap("engine.run", Engine.run))

    def layer_metrics(
        self,
        setup_stats: Dict[str, SpanStats],
        run_stats: Dict[str, SpanStats],
        iterations: int,
        state: DseState,
        result,
    ) -> Dict[str, float]:
        per = 1.0 / iterations
        wall = _total(run_stats, "engine.run") * per
        busy = _total(run_stats, "engine.evaluate") * per
        info = result.cache_info
        return {
            "datasets.load_s": _total(run_stats, "datasets.load") * per,
            "nn.build_s": _total(run_stats, "nn.build") * per,
            "arch.simulate_calls": _count(run_stats, "arch.simulate") * per,
            "arch.simulate_self_s": _self(run_stats, "arch.simulate") * per,
            "arch.resources_s": _total(run_stats, "arch.resources") * per,
            "arch.sim_cycles": sum(row["total_cycles"] for row in result.rows),
            "dse.schedule_lookups": info["hits"] + info["misses"],
            "dse.schedule_hit_rate": info["hit_rate"],
            "dse.schedule_miss_s": _total(run_stats, "dse.schedule_miss") * per,
            "engine.wall_s": wall,
            "engine.busy_s": busy,
            "engine.parallel_eff": _ratio(busy, wall * self.WORKERS),
        }


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------
@dataclass
class ServeState:
    cache: MeasurementCache
    cluster: Cluster
    generator: LoadGenerator
    #: Arrival horizon of one timed unit; None when sized per tenant.
    duration_s: Optional[float] = None


def _warm_batches(cluster: Cluster, max_batch: int) -> None:
    """Measure every batch size up front, so the timed phase never measures.

    ``TenantService`` measures a batch size the first time a dispatch of
    that size happens; without this, the first timed iteration alone would
    pay for those measurements.
    """
    for service in cluster.services.values():
        for size in range(1, max_batch + 1):
            service.measurement(size)


class _ServeBench:
    """What the three serving workloads share: setup tracing, checks, metrics."""

    name = "abstract"

    def items(self, report) -> int:
        return report.submitted

    def payload(self, report) -> Dict:
        return report.to_dict()

    def common_checks(self, report, expected: Optional[int] = None) -> Dict[str, bool]:
        conserved = all(
            o.submitted == o.completed + o.dropped + o.shed for o in report.tenants.values()
        )
        ordered = all(
            o.report.p50_latency_ms <= o.report.p99_latency_ms <= o.report.max_latency_ms
            for o in report.tenants.values()
            if o.completed
        )
        checks = {
            "conservation submitted == completed + dropped + shed": conserved,
            "p50 <= p99 <= max": ordered,
        }
        if expected is not None:
            checks["every request submitted"] = report.submitted == expected
        return checks

    def setup_shims(self, shims: Shims, tracer: Tracer) -> None:
        shims.patch(api_request, "load_dataset", tracer.wrap("datasets.load", api_request.load_dataset))
        shims.patch(api_request, "build_model", tracer.wrap("nn.build", api_request.build_model))
        shims.patch(FlowGNNBackend, "measure", tracer.wrap("api.measure", FlowGNNBackend.measure))
        shims.patch(
            arch_accelerator,
            "simulate_inference",
            tracer.wrap("arch.simulate", arch_accelerator.simulate_inference),
        )
        shims.patch(
            api_backends,
            "estimate_resources",
            tracer.wrap("arch.resources", api_backends.estimate_resources),
        )
        shims.patch(
            dse_cache,
            "fast_schedule_layer",
            tracer.wrap("dse.schedule_miss", dse_cache.fast_schedule_layer),
        )

    def _trace_cluster(self, shims: Shims, tracer: Tracer, cluster: Cluster, method: str) -> None:
        shims.patch(cluster, method, tracer.wrap("serve.cluster", getattr(cluster, method)))

    def _trace_policy(self, shims: Shims, tracer: Tracer, cluster: Cluster) -> None:
        policy = cluster.policy
        shims.patch(policy, "assign", tracer.wrap("serve.policy.assign", policy.assign))
        shims.patch(policy, "order_key", tracer.wrap("serve.policy.order_key", policy.order_key))

    def layer_metrics(
        self,
        setup_stats: Dict[str, SpanStats],
        run_stats: Dict[str, SpanStats],
        iterations: int,
        state: ServeState,
        report,
    ) -> Dict[str, float]:
        per = 1.0 / iterations
        lookups = hits = 0
        for measurement in state.cache.snapshot().values():
            info = measurement.extras.get("schedule_cache") or {}
            hits += int(info.get("hits", 0))
            lookups += int(info.get("hits", 0)) + int(info.get("misses", 0))
        if report.batch_sizes.size:
            batches = int(report.batch_sizes.size)
        else:
            batches = int(report.batch_size_hist.count)
        metrics = {
            "datasets.load_s": _total(setup_stats, "datasets.load"),
            "nn.build_s": _total(setup_stats, "nn.build"),
            "api.measure_calls": _count(setup_stats, "api.measure"),
            "api.measure_s": _total(setup_stats, "api.measure"),
            "api.cache_hit_rate": state.cache.info()["hit_rate"],
            "arch.simulate_calls": _count(setup_stats, "arch.simulate"),
            "arch.simulate_self_s": _self(setup_stats, "arch.simulate"),
            "arch.resources_s": _total(setup_stats, "arch.resources"),
            "dse.schedule_lookups": lookups,
            "dse.schedule_hit_rate": _ratio(hits, lookups),
            "dse.schedule_miss_s": _total(setup_stats, "dse.schedule_miss"),
            "serve.arrivals.requests": report.submitted,
            "serve.arrivals.gen_s": _total(run_stats, "serve.arrivals") * per,
            "serve.cluster.sim_s": _self(run_stats, "serve.cluster") * per,
            "serve.policy.assign_calls": _count(run_stats, "serve.policy.assign") * per,
            "serve.policy.s": (
                _total(run_stats, "serve.policy.assign")
                + _total(run_stats, "serve.policy.order_key")
            )
            * per,
            "serve.cluster.batches": batches,
            "serve.cluster.mean_batch": report.mean_batch_size,
            "serve.cluster.max_queue": report.max_queue_depth,
            "serve.cluster.drop_frac": _ratio(report.dropped, report.submitted),
            "serve.cluster.util_mean": report.cluster_utilisation,
            "serve.report.nbytes": sketch_nbytes(report),
        }
        if report.is_dynamic:
            counts = report.event_counts
            metrics.update(
                {
                    "serve.autoscale.ticks": _count(run_stats, "serve.autoscale") * per,
                    "serve.autoscale.decide_s": _total(run_stats, "serve.autoscale") * per,
                    "serve.autoscale.scale_events": counts["scale_up_events"]
                    + counts["scale_down_events"],
                    "serve.admission.checks": _count(run_stats, "serve.admission") * per,
                    "serve.admission.s": _total(run_stats, "serve.admission") * per,
                    "serve.admission.shed_frac": _ratio(report.shed, report.submitted),
                    "serve.faults.failures": counts["failures"],
                    "serve.carbon.integral_calls": _count(run_stats, "serve.carbon.integral")
                    * per,
                    "serve.carbon.integral_s": _total(run_stats, "serve.carbon.integral") * per,
                    "serve.power.energy_j": report.energy_j,
                    "serve.carbon.gco2": report.carbon_gco2,
                }
            )
        return metrics


class ServeStream(_ServeBench):
    """100 tenants on 8 round-robin replicas through the vectorised sketch path."""

    name = "serve_stream"
    why = (
        "100 tenants, round-robin, batch 1, unbounded queue, sketch mode: the "
        "vectorised streaming fast path that bypasses policy, batching and autoscaling"
    )
    REPLICAS = 8
    UTILISATION = 0.9

    def __init__(self, scale: float = 1.0) -> None:
        self.num_tenants = max(8, int(round(100 * scale)))
        self.per_tenant = max(50, int(round(5000 * scale)))
        self.expected_requests = self.num_tenants * self.per_tenant
        self.prefix_per_tenant = min(self.per_tenant, 100)

    def setup(self, seed: int) -> ServeState:
        cache = MeasurementCache()
        tenants = [
            Workload(
                f"t{i}",
                model="GIN" if i % 2 else "GCN",
                dataset="MolHIV" if (i // 2) % 2 == 0 else "HEP",
                num_graphs=16,
                deadline_s=1e-3,
            )
            for i in range(self.num_tenants)
        ]
        cluster = Cluster(
            tenants,
            backend="flowgnn",
            num_replicas=self.REPLICAS,
            policy="round_robin",
            measurement_cache=cache,
        )
        rate = self.UTILISATION * self.REPLICAS / cluster.mean_service_s()
        return ServeState(cache, cluster, LoadGenerator.poisson(tenants, rate, seed=seed))

    def run(self, state: ServeState):
        return state.cluster.serve_stream(state.generator, num_requests=self.per_tenant)

    def checks(self, state: ServeState, report) -> Dict[str, bool]:
        checks = self.common_checks(report, self.expected_requests)
        n = self.prefix_per_tenant
        sketch = state.cluster.serve_stream(state.generator, num_requests=n)
        exact = state.cluster.serve_stream(state.generator, num_requests=n, mode="exact")
        checks["prefix counts equal exact mode"] = all(
            (o.submitted, o.completed, o.dropped, o.shed)
            == (exact.tenants[t].submitted, exact.tenants[t].completed,
                exact.tenants[t].dropped, exact.tenants[t].shed)
            for t, o in sketch.tenants.items()
        )
        checks["prefix utilisation equals exact mode"] = (
            sketch.per_replica_utilisation.tolist() == exact.per_replica_utilisation.tolist()
        )
        return checks

    def run_shims(self, shims: Shims, tracer: Tracer, state: ServeState) -> None:
        # The fast path checks the policy's exact type: never wrap it here.
        self._trace_cluster(shims, tracer, state.cluster, "serve_stream")
        generator = state.generator
        blocks = generator.iter_request_blocks
        shims.patch(
            generator,
            "iter_request_blocks",
            lambda *a, **k: tracer.wrap_iter("serve.arrivals", blocks(*a, **k)),
        )


class ServeEdfBatch(_ServeBench):
    """EDF with dynamic batching, bounded queue, exact mode on a materialised list."""

    name = "serve_edf_batch"
    why = (
        "16 tenants, EDF, batch 8 with timeout, queue 512, bursty arrivals, exact "
        "mode: the scalar dispatcher and batch selection on a materialised list"
    )
    REPLICAS = 4
    MAX_BATCH = 8
    UTILISATION = 0.95
    BURST_S = 5e-3
    PREFIX = 2000

    def __init__(self, scale: float = 1.0) -> None:
        # Bursty tenants finish their bursts at very different times, so the
        # trace is sized by a horizon (about this many requests), not per tenant.
        self.target_requests = max(400, int(round(20000 * scale)))

    def setup(self, seed: int) -> ServeState:
        cache = MeasurementCache()
        models = ("GCN", "GIN", "GAT", "PNA")
        tenants = [
            Workload(
                f"t{i}",
                model=models[i % 4],
                dataset="MolHIV" if (i // 4) % 2 == 0 else "HEP",
                num_graphs=16,
                deadline_s=0.5e-3 * (1 + i % 4),
                priority=i % 3,
            )
            for i in range(16)
        ]
        cluster = Cluster(
            tenants,
            backend="flowgnn",
            num_replicas=self.REPLICAS,
            policy="edf",
            max_batch_size=self.MAX_BATCH,
            batch_timeout_s=50e-6,
            queue_capacity=512,
            measurement_cache=cache,
        )
        _warm_batches(cluster, self.MAX_BATCH)
        rate = self.UTILISATION * self.REPLICAS / cluster.mean_service_s()
        generator = LoadGenerator.bursty(tenants, rate, seed=seed, mean_on_s=self.BURST_S)
        return ServeState(cache, cluster, generator, self.target_requests / rate)

    def run(self, state: ServeState):
        requests = state.generator.generate(duration_s=state.duration_s)
        return state.cluster.serve(requests, duration_s=state.duration_s)

    def checks(self, state: ServeState, report) -> Dict[str, bool]:
        checks = self.common_checks(report)
        prefix = state.generator.generate(duration_s=state.duration_s)[: self.PREFIX]
        checks["prefix identical to reference_serve"] = _identical(
            state.cluster.serve(prefix), reference_serve(state.cluster, prefix)
        )
        return checks

    def run_shims(self, shims: Shims, tracer: Tracer, state: ServeState) -> None:
        self._trace_cluster(shims, tracer, state.cluster, "serve")
        generator = state.generator
        shims.patch(generator, "generate", tracer.wrap("serve.arrivals", generator.generate))
        self._trace_policy(shims, tracer, state.cluster)


class ServeDynamic(_ServeBench):
    """Autoscaling, faults, admission, power and carbon in sketch mode."""

    name = "serve_dynamic"
    why = (
        "16 tenants with autoscaler, seeded faults, admission, power and a "
        "diurnal carbon trace: the only workload running the dynamic control plane"
    )
    REPLICAS = 4
    MAX_BATCH = 4
    UTILISATION = 0.8
    #: Mean time between crashes and to repair, as fractions of the horizon.
    MTBF = 1 / 3
    MTTR = 1 / 20
    PREFIX_PER_TENANT = 60

    def __init__(self, scale: float = 1.0) -> None:
        self.per_tenant = max(25, int(round(750 * scale)))
        self.expected_requests = 16 * self.per_tenant

    def setup(self, seed: int) -> ServeState:
        cache = MeasurementCache()
        models = ("GCN", "GIN", "GAT", "PNA")
        tenants = [
            Workload(
                f"t{i}",
                model=models[i % 4],
                dataset="MolHIV" if (i // 4) % 2 == 0 else "HEP",
                num_graphs=16,
                deadline_s=1e-3 * (1 + i % 4),
                tenant_class="deferrable" if i % 4 == 3 else "realtime",
            )
            for i in range(16)
        ]
        base = Cluster(
            tenants,
            backend="flowgnn",
            num_replicas=self.REPLICAS,
            policy="least_loaded",
            max_batch_size=self.MAX_BATCH,
            batch_timeout_s=50e-6,
            measurement_cache=cache,
        )
        _warm_batches(base, self.MAX_BATCH)
        rate = self.UTILISATION * self.REPLICAS / base.mean_service_s()
        horizon = self.expected_requests / rate
        cluster = base.with_options(
            autoscaler=ReactiveAutoscaler(min_replicas=2, max_replicas=8),
            faults=FaultSchedule.crashes(
                self.REPLICAS,
                horizon,
                mtbf_s=horizon * self.MTBF,
                mttr_s=horizon * self.MTTR,
                seed=seed,
            ),
            admission=AdmissionControl(max_queue_depth=256, deadline_headroom=2.0),
            power=PowerModel.parse("busy=2.0,idle=0.5"),
            carbon=CarbonIntensity.diurnal(period_s=horizon / 4),
        )
        generator = LoadGenerator.diurnal(tenants, rate, seed=seed, period_s=horizon / 4)
        return ServeState(cache, cluster, generator)

    def run(self, state: ServeState):
        return state.cluster.serve_stream(state.generator, num_requests=self.per_tenant)

    def checks(self, state: ServeState, report) -> Dict[str, bool]:
        checks = self.common_checks(report, self.expected_requests)
        checks["energy_j == sum(replica_energy_j)"] = report.energy_j == sum(
            report.replica_energy_j
        )
        prefix = state.generator.generate(num_requests=self.PREFIX_PER_TENANT)
        checks["prefix identical to reference_serve_dynamic"] = _identical(
            state.cluster.serve(prefix), reference_serve_dynamic(state.cluster, prefix)
        )
        return checks

    def run_shims(self, shims: Shims, tracer: Tracer, state: ServeState) -> None:
        cluster, generator = state.cluster, state.generator
        self._trace_cluster(shims, tracer, cluster, "serve_stream")
        requests = generator.iter_requests
        shims.patch(
            generator,
            "iter_requests",
            lambda *a, **k: tracer.wrap_iter("serve.arrivals", requests(*a, **k)),
        )
        self._trace_policy(shims, tracer, cluster)
        shims.patch(
            cluster.autoscaler,
            "desired_replicas",
            tracer.wrap("serve.autoscale", cluster.autoscaler.desired_replicas),
        )
        shims.patch(
            cluster.admission,
            "should_shed",
            tracer.wrap("serve.admission", cluster.admission.should_shed),
        )
        shims.patch(
            cluster.carbon,
            "integral_g_per_j",
            tracer.wrap("serve.carbon.integral", cluster.carbon.integral_g_per_j),
        )


def _identical(candidate, reference) -> bool:
    try:
        assert_reports_identical(candidate, reference)
    except AssertionError:
        return False
    return True


WORKLOADS = {bench.name: bench for bench in (DseSweep, ServeStream, ServeEdfBatch, ServeDynamic)}
