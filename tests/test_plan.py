"""Tests for the serving-scenario sweep engine (:mod:`repro.plan`).

Covers the declarative spec (validation, deterministic enumeration), the
parallel runner (byte-identical CSV/JSON for any worker count, shared
measurement cache), the cost model, Pareto extraction and the
min-replicas-for-SLO solver.
"""

import pytest

from repro.api import CPUBackend
from repro.plan import (
    PLAN_OBJECTIVES,
    PlanRunner,
    PlanSpec,
    TenantMix,
    meets_slo,
    min_replicas_for_slo,
)
from repro.plan.runner import build_generator
from repro.serve import Cluster, LoadGenerator, Workload


def _mix(num_graphs: int = 3) -> TenantMix:
    return TenantMix(
        "prod",
        (
            {
                "tenant": "trigger",
                "model": "GIN",
                "dataset": "MolHIV",
                "num_graphs": num_graphs,
                "seed": 1,
                "deadline_s": 15e-3,
                "priority": 1,
                "share": 2.0,
            },
            {
                "tenant": "screening",
                "model": "GCN",
                "dataset": "MolHIV",
                "num_graphs": num_graphs,
                "seed": 2,
                "deadline_s": 25e-3,
            },
        ),
    )


@pytest.fixture(scope="module")
def small_spec() -> PlanSpec:
    """48 quick cpu-backend scenarios (the determinism-bar scenario count)."""
    return PlanSpec(
        mixes=[_mix()],
        backend="cpu",
        replicas=(1, 2, 3),
        policies=("round_robin", "edf"),
        max_batch_sizes=(1, 2),
        queue_capacities=(None, 16),
        arrivals=("poisson", "bursty"),
        duration_s=0.02,
    )


# ---------------------------------------------------------------------------
# Spec validation and enumeration
# ---------------------------------------------------------------------------
class TestPlanSpec:
    def test_enumeration_is_deterministic_and_indexed(self, small_spec):
        scenarios = list(small_spec.scenarios())
        assert len(scenarios) == small_spec.num_scenarios() == 48
        assert [s.index for s in scenarios] == list(range(48))
        assert scenarios == list(small_spec.scenarios())
        # Mix is the outermost loop, capacity the innermost.
        assert scenarios[0].queue_capacity is None
        assert scenarios[1].queue_capacity == 16
        assert scenarios[0].arrival == scenarios[23].arrival == "poisson"
        assert scenarios[24].arrival == "bursty"

    def test_tenant_mix_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown model"):
            TenantMix("bad", ({"tenant": "t", "model": "Transformer"},))
        with pytest.raises(ValueError, match="at least one tenant"):
            TenantMix("empty", ())
        with pytest.raises(ValueError, match="non-empty"):
            TenantMix("", ({"tenant": "t"},))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"replicas": ()}, "grid 'replicas' is empty"),
            ({"policies": ()}, "grid 'policies' is empty"),
            ({"arrivals": ()}, "grid 'arrivals' is empty"),
            ({"replicas": (0,)}, "replicas"),
            ({"policies": ("lifo",)}, "unknown policy"),
            ({"max_batch_sizes": (0,)}, "max_batch_size"),
            ({"batch_timeouts_s": (-1.0,)}, "timeout"),
            ({"queue_capacities": (0,)}, "capacities"),
            ({"arrivals": ("fractal",)}, "unknown arrival"),
            ({"backend": "tpu"}, "unknown backend"),
            ({"rate_rps": 0.0}, "rate_rps"),
            ({"duration_s": 0.0}, "duration_s"),
        ],
    )
    def test_bad_grids_rejected_eagerly(self, overrides, match):
        fields = {"mixes": [_mix()], **overrides}
        with pytest.raises(ValueError, match=match):
            PlanSpec(**fields)

    def test_duplicate_mix_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PlanSpec(mixes=[_mix(), _mix()])

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"replicas": (1, 2, 1)}, r"grid 'replicas' repeats 1: \[1, 2, 1\]"),
            # Equal values sweep the same scenarios, whatever their type.
            ({"batch_timeouts_s": (0, 0.0)}, r"grid 'batch_timeouts_s' repeats 0.0"),
            ({"policies": ("edf", "round_robin", "edf")}, "grid 'policies' repeats 'edf'"),
            ({"queue_capacities": (None, 16, None)}, "grid 'queue_capacities' repeats None"),
        ],
        ids=["int", "float", "str", "none"],
    )
    def test_repeated_grid_values_rejected(self, overrides, match):
        """A repeated value would sweep its scenarios twice."""
        with pytest.raises(ValueError, match=match):
            PlanSpec(mixes=[_mix()], **overrides)

    @pytest.mark.parametrize(
        "grid, values",
        [
            ("max_batch_sizes", (1, 4, 4)),
            ("arrivals", ("poisson", "bursty", "poisson")),
            ("autoscalers", (None, "reactive:min=1,max=2", None)),
            ("faults", ("fail@0.001:r0", "fail@0.001:r0")),
            ("admissions", ("queue=8", None, "queue=8")),
            ("carbon_traces", ("diurnal", "diurnal")),
            ("power_caps", (None, 5.0, 5.0)),
        ],
    )
    def test_every_other_grid_rejects_a_repeated_value(self, grid, values):
        """The seven grids the cases above leave out."""
        with pytest.raises(ValueError) as raised:
            PlanSpec(mixes=[_mix()], **{grid: values})
        repeated = next(value for index, value in enumerate(values) if value in values[:index])
        assert str(raised.value) == f"grid {grid!r} repeats {repeated!r}: {list(values)}"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"replicas": (0, 0)}, "every replicas value must be >= 1"),
            ({"power_caps": (-1.0, -1.0)}, "power cap must be finite and > 0, got -1.0"),
        ],
        ids=["replicas", "power-caps"],
    )
    def test_a_bad_value_is_reported_before_its_repeat(self, overrides, message):
        with pytest.raises(ValueError) as raised:
            PlanSpec(mixes=[_mix()], **overrides)
        assert str(raised.value) == message

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            PlanSpec(mixes=[_mix()], mode="approximate")

    def test_no_mixes_rejected(self):
        with pytest.raises(ValueError, match="at least one tenant mix"):
            PlanSpec(mixes=[])


# ---------------------------------------------------------------------------
# Runner: determinism, caching, result accessors
# ---------------------------------------------------------------------------
class TestPlanRunner:
    @pytest.fixture(scope="class")
    def serial_result(self, small_spec):
        return PlanRunner(small_spec, workers=1).run()

    def test_worker_counts_produce_byte_identical_output(
        self, small_spec, serial_result
    ):
        """The acceptance bar: 1 vs 8 workers over 48 scenarios, byte-equal."""
        fanned = PlanRunner(small_spec, workers=8).run()
        assert serial_result.to_csv() == fanned.to_csv()
        assert serial_result.to_json() == fanned.to_json()

    def test_rows_cover_every_scenario_in_order(self, small_spec, serial_result):
        assert serial_result.num_scenarios == small_spec.num_scenarios()
        assert serial_result.column("scenario") == list(range(48))

    def test_no_scenario_remeasures(self, small_spec, monkeypatch):
        """Every profile comes from the parent's pre-measurement pass."""
        calls = []
        original = CPUBackend.measure

        def counting(self, request):
            calls.append(request.batch_size)
            return original(self, request)

        monkeypatch.setattr(CPUBackend, "measure", counting)
        result = PlanRunner(small_spec, workers=0).run()
        # 2 tenants x batch sizes {1, 2}: four measurements for 48 scenarios.
        assert len(calls) == 4
        assert result.cache_info["entries"] == 4
        assert result.cache_info["misses"] == 4

    def test_pareto_rows_are_mutually_non_dominated(self, serial_result):
        frontier = serial_result.pareto()
        assert frontier, "sweep produced an empty Pareto frontier"

        def dominates(a, b):
            keys = PLAN_OBJECTIVES
            return all(a[k] <= b[k] for k in keys) and any(a[k] < b[k] for k in keys)

        for row in frontier:
            assert not any(
                dominates(other, row) for other in serial_result.rows if other is not row
            )

    def test_cheapest_feasible_is_feasible_and_cheapest(self, serial_result):
        cheapest = serial_result.cheapest_feasible()
        if cheapest is None:
            pytest.skip("no feasible scenario under the derived rate")
        assert cheapest["slo_ok"]
        assert all(
            cheapest["replica_seconds"] <= row["replica_seconds"]
            for row in serial_result.feasible()
        )

    def test_cost_model_charges_replicas_for_the_horizon(self, serial_result):
        for row in serial_result.rows:
            assert row["replica_seconds"] == pytest.approx(
                row["replicas"] * serial_result.spec.duration_s
            )
            assert row["energy_j"] > 0

    def test_explicit_rate_overrides_derivation(self):
        spec = PlanSpec(
            mixes=[_mix()],
            backend="cpu",
            replicas=(1,),
            policies=("edf",),
            rate_rps=1234.5,
            duration_s=0.01,
        )
        result = PlanRunner(spec, workers=0).run()
        assert result.rates["prod"] == 1234.5
        assert all(row["rate_rps"] == 1234.5 for row in result.rows)

    def test_best_effort_only_mix_emits_strict_json(self):
        """Regression: a mix with no deadlines used to put NaN in the JSON."""
        import json

        mix = TenantMix(
            "besteffort",
            ({"tenant": "t", "model": "GIN", "dataset": "MolHIV", "num_graphs": 3,
              "seed": 1},),
        )
        spec = PlanSpec(
            mixes=[mix], backend="cpu", replicas=(1,), policies=("edf",),
            rate_rps=200.0, duration_s=0.01,
        )
        result = PlanRunner(spec, workers=0).run()
        payload = json.loads(result.to_json())  # json.loads default rejects nothing,
        row = payload["scenarios"][0]
        assert row["worst_p99_over_deadline"] is None
        assert "NaN" not in result.to_json()  # strict parsers must accept it

    def test_trace_arrivals_sweep(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "tenant,arrival_s\n"
            + "".join(
                f"{name},{i * 1e-3}\n"
                for i, name in enumerate(["trigger", "screening"] * 5)
            )
        )
        spec = PlanSpec(
            mixes=[_mix()],
            backend="cpu",
            replicas=(1, 2),
            policies=("edf",),
            arrivals=(f"trace:{trace}",),
            duration_s=0.02,
        )
        result = PlanRunner(spec, workers=0).run()
        assert result.num_scenarios == 2
        assert all(row["submitted"] == 10 for row in result.rows)


# ---------------------------------------------------------------------------
# Streaming (sketch-mode) sweeps
# ---------------------------------------------------------------------------
class TestSketchModeSweep:
    @pytest.fixture(scope="class")
    def spec_pair(self, small_spec):
        return small_spec, replace_mode(small_spec, "sketch")

    def test_sketch_rows_match_exact_rows(self, spec_pair):
        """Scenario rows agree with the exact oracle field by field.

        Counts, drops, utilisation, queue depth and miss rate are exact by
        construction; energy and batch-size means reassociate float sums;
        only the percentile-derived columns carry the sketch error band.
        """
        exact_spec, sketch_spec = spec_pair
        exact = PlanRunner(exact_spec, workers=0).run()
        sketch = PlanRunner(sketch_spec, workers=0).run()
        assert exact.rates == sketch.rates
        for exact_row, sketch_row in zip(exact.rows, sketch.rows):
            for key in (
                "scenario", "mix", "arrival", "replicas", "policy",
                "max_batch_size", "queue_capacity", "submitted", "completed",
                "dropped", "deadline_miss_rate", "max_queue_depth",
                "replica_seconds",
            ):
                assert sketch_row[key] == exact_row[key], key
            assert sketch_row["cluster_utilisation"] == exact_row["cluster_utilisation"]
            assert sketch_row["energy_j"] == pytest.approx(
                exact_row["energy_j"], rel=1e-9
            )
            assert sketch_row["mean_batch_size"] == pytest.approx(
                exact_row["mean_batch_size"], rel=1e-12
            )
            if exact_row["worst_p99_latency_ms"]:
                assert sketch_row["worst_p99_latency_ms"] == pytest.approx(
                    exact_row["worst_p99_latency_ms"], rel=0.035
                )

    def test_sketch_sweep_parallelism_is_byte_identical(self, spec_pair):
        _, sketch_spec = spec_pair
        serial = PlanRunner(sketch_spec, workers=0).run()
        fanned = PlanRunner(sketch_spec, workers=4).run()
        assert serial.to_csv() == fanned.to_csv()
        assert serial.to_json() == fanned.to_json()
        assert serial.to_dict()["mode"] == "sketch"


def replace_mode(spec: PlanSpec, mode: str) -> PlanSpec:
    """A copy of ``spec`` with a different evaluation mode."""
    import dataclasses

    return dataclasses.replace(spec, mode=mode)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------
class TestMinReplicasForSLO:
    @pytest.fixture(scope="class")
    def scenario(self):
        # Deadlines sized for the cpu backend (~4 ms service time): loose
        # enough to be reachable, tight enough that one replica fails under
        # the 1.4x-overload bursty traffic.
        workloads = [
            Workload("trigger", model="GIN", dataset="MolHIV", num_graphs=3,
                     seed=1, deadline_s=12e-3, priority=1, share=2.0),
            Workload("screening", model="GCN", dataset="MolHIV", num_graphs=3,
                     seed=2, deadline_s=20e-3),
        ]
        cluster = Cluster(workloads, backend="cpu", num_replicas=1, policy="edf")
        rate = 1.4 / cluster.mean_service_s()
        requests = LoadGenerator.bursty(workloads, rate, seed=0).generate(
            duration_s=0.05
        )
        return cluster, requests

    def test_solution_is_feasible_and_minimal(self, scenario):
        cluster, requests = scenario
        plan = min_replicas_for_slo(cluster, requests, max_replicas=8, duration_s=0.05)
        assert plan.feasible
        # The chosen pool really holds every SLO...
        assert meets_slo(plan.report)
        # ...and every smaller pool really does not.
        for smaller in range(1, plan.replicas):
            report = cluster.with_replicas(smaller).serve(requests, duration_s=0.05)
            assert not meets_slo(report)
        # The evaluation trail covers the whole search space by default.
        assert [e["replicas"] for e in plan.evaluations] == list(range(1, 9))

    def test_matches_the_hand_rolled_loop(self, scenario):
        """The solver replaces examples/capacity_planning.py's loop exactly."""
        cluster, requests = scenario
        answer = None
        for replicas in range(1, 9):
            report = cluster.with_replicas(replicas).serve(requests, duration_s=0.05)
            within = all(
                outcome.report.p99_latency_ms * 1e-3 <= outcome.workload.deadline_s
                for outcome in report.tenants.values()
            )
            if within and answer is None:
                answer = replicas
        plan = min_replicas_for_slo(cluster, requests, max_replicas=8, duration_s=0.05)
        assert plan.replicas == answer

    def test_infeasible_slo_reports_none(self, scenario):
        cluster, requests = scenario
        tight = [
            Workload(
                tenant=w.tenant,
                model=w.model,
                dataset=w.dataset,
                num_graphs=w.num_graphs,
                seed=w.seed,
                deadline_s=1e-9,  # nothing can meet a nanosecond deadline
                priority=w.priority,
                share=w.share,
            )
            for w in cluster.workloads
        ]
        impossible = Cluster(tight, backend="cpu", num_replicas=1, policy="edf")
        plan = min_replicas_for_slo(impossible, requests, max_replicas=3)
        assert not plan.feasible
        assert plan.replicas is None and plan.report is None
        assert "infeasible" in plan.summary()
        assert len(plan.evaluations) == 3

    def test_stop_at_first_shortens_the_trail(self, scenario):
        cluster, requests = scenario
        plan = min_replicas_for_slo(
            cluster, requests, max_replicas=8, duration_s=0.05, stop_at_first=True
        )
        assert plan.feasible
        assert plan.evaluations[-1]["replicas"] == plan.replicas

    def test_bad_bounds_rejected(self, scenario):
        cluster, requests = scenario
        with pytest.raises(ValueError, match="max_replicas"):
            min_replicas_for_slo(cluster, requests, max_replicas=0)


# ---------------------------------------------------------------------------
# build_generator
# ---------------------------------------------------------------------------
class TestBuildGenerator:
    def test_names_map_to_processes(self):
        workloads = _mix().workloads()
        for name in ("poisson", "bursty", "constant", "diurnal"):
            generator = build_generator(workloads, name, 1000.0, seed=0)
            requests = generator.generate(duration_s=0.01)
            assert all(r.arrival_s < 0.01 for r in requests)

    def test_same_seed_same_requests(self):
        workloads = _mix().workloads()
        a = build_generator(workloads, "poisson", 2000.0, seed=5).generate(duration_s=0.01)
        b = build_generator(workloads, "poisson", 2000.0, seed=5).generate(duration_s=0.01)
        assert a == b

    def test_diurnal_options_thread_through(self):
        workloads = _mix().workloads()
        spec = "diurnal:low=0.2,high=1.8,period=0.005"
        a = build_generator(workloads, spec, 4000.0, seed=2).generate(duration_s=0.02)
        b = build_generator(workloads, spec, 4000.0, seed=2).generate(duration_s=0.02)
        assert a == b and a
        with pytest.raises(ValueError, match="unknown diurnal option"):
            build_generator(workloads, "diurnal:swing=2", 4000.0, seed=2)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            build_generator(_mix().workloads(), "tides", 1000.0, seed=0)


# ---------------------------------------------------------------------------
# Dynamic-cluster sweeps: autoscaler/fault grids
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dynamic_spec() -> PlanSpec:
    """8 scenarios crossing policies with a dynamic (autoscale/fault) grid."""
    return PlanSpec(
        mixes=[_mix()],
        backend="cpu",
        replicas=(2,),
        policies=("round_robin", "edf"),
        arrivals=("bursty",),
        autoscalers=(
            None,
            "reactive:min=1,max=4,interval=0.004,delay=0.004,hysteresis=0.02",
        ),
        faults=(None, "fail@0.005:r0;recover@0.012:r0"),
        duration_s=0.02,
    )


class TestDynamicPlan:
    def test_spec_reports_dynamics(self, dynamic_spec, small_spec):
        assert dynamic_spec.has_dynamics
        assert not small_spec.has_dynamics
        assert dynamic_spec.num_scenarios() == 8
        assert "autoscalers=" in dynamic_spec.describe()
        # The dynamic coordinates are the two innermost enumeration loops.
        scenarios = list(dynamic_spec.scenarios())
        assert scenarios[0].autoscale is None and scenarios[0].fault is None
        assert scenarios[1].fault is not None
        assert scenarios[2].autoscale is not None

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"autoscalers": ("sigmoid",)}, "unknown autoscaler"),
            ({"autoscalers": ()}, "grid 'autoscalers' is empty"),
            ({"faults": ("fail@0.01:r9",)}, "replica"),
            ({"faults": ("explode@0.01:r0",)}, "action"),
        ],
    )
    def test_bad_dynamic_grids_rejected_eagerly(self, overrides, match):
        fields = {"mixes": [_mix()], "replicas": (2,), **overrides}
        with pytest.raises(ValueError, match=match):
            PlanSpec(**fields)

    def test_worker_counts_byte_identical_exact(self, dynamic_spec):
        serial = PlanRunner(dynamic_spec, workers=1).run()
        fanned = PlanRunner(dynamic_spec, workers=8).run()
        assert serial.to_csv() == fanned.to_csv()
        assert serial.to_json() == fanned.to_json()

    def test_worker_counts_byte_identical_sketch(self, dynamic_spec):
        from dataclasses import replace

        sketch_spec = replace(dynamic_spec, mode="sketch")
        serial = PlanRunner(sketch_spec, workers=1).run()
        fanned = PlanRunner(sketch_spec, workers=8).run()
        assert serial.to_csv() == fanned.to_csv()
        assert serial.to_json() == fanned.to_json()

    def test_rows_carry_dynamic_columns_and_conserve(self, dynamic_spec):
        result = PlanRunner(dynamic_spec, workers=0).run()
        for row in result.rows:
            assert set(row) >= {
                "autoscale",
                "fault",
                "shed",
                "peak_replicas",
                "scale_events",
                "failures",
            }
            assert row["submitted"] == (
                row["completed"] + row["dropped"] + row["shed"]
            )
            if row["shed"] > 0 or row["dropped"] > 0:
                assert not row["slo_ok"]
        # The faulted rows actually saw the scheduled crash.
        faulted = [row for row in result.rows if row["fault"] is not None]
        assert faulted and all(row["failures"] >= 1 for row in faulted)

    def test_static_rows_have_no_dynamic_columns(self, small_spec):
        result = PlanRunner(
            PlanSpec(
                mixes=[_mix()],
                backend="cpu",
                replicas=(1,),
                policies=("edf",),
                duration_s=0.01,
            ),
            workers=0,
        ).run()
        assert "shed" not in result.rows[0]
        assert "autoscale" not in result.rows[0]
        assert "carbon_gco2" not in result.rows[0]
        assert "grid_energy_j" not in result.rows[0]


# ---------------------------------------------------------------------------
# Carbon/power sweeps: admission/trace/cap grids and budget filters
# ---------------------------------------------------------------------------
def _carbon_mix(num_graphs: int = 3) -> TenantMix:
    """The standard mix with the screening tenant marked deferrable."""
    tenants = _mix(num_graphs).tenants
    deferred = dict(tenants[1])
    deferred["tenant_class"] = "deferrable"
    return TenantMix("green", (tenants[0], deferred))


@pytest.fixture(scope="module")
def carbon_spec() -> PlanSpec:
    """8 scenarios crossing an admission grid with carbon traces and caps."""
    return PlanSpec(
        mixes=[_carbon_mix()],
        backend="cpu",
        replicas=(2,),
        policies=("round_robin",),
        arrivals=("poisson",),
        admissions=(None, "carbon_waiting:threshold=350"),
        carbon_traces=("diurnal", None),
        # 3.0 W binds for the 2-replica pool (idle 1.0 W, each batch +1.5 W):
        # two concurrent batches would draw 4.0 W, so the cap serialises.
        power_caps=(None, 3.0),
        power="busy=2.0,idle=0.5",
        duration_s=0.02,
    )


class TestCarbonPlan:
    def test_spec_reports_carbon(self, carbon_spec, small_spec, dynamic_spec):
        assert carbon_spec.has_carbon and carbon_spec.has_dynamics
        assert not small_spec.has_carbon
        assert not dynamic_spec.has_carbon
        assert carbon_spec.num_scenarios() == 8
        # The carbon coordinates are the innermost enumeration loops:
        # power_caps fastest, then carbon_traces, then admissions.
        scenarios = list(carbon_spec.scenarios())
        assert [
            (s.admission, s.carbon_trace, s.power_cap_w) for s in scenarios[:4]
        ] == [
            (None, "diurnal", None),
            (None, "diurnal", 3.0),
            (None, None, None),
            (None, None, 3.0),
        ]
        assert scenarios[4].admission == "carbon_waiting:threshold=350"

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"admissions": ("carbonated",)}, "cannot parse admission"),
            ({"carbon_traces": ("sinusoid",)}, "unknown carbon trace"),
            ({"carbon_traces": ()}, "grid 'carbon_traces' is empty"),
            ({"power_caps": (0.0,)}, "power cap"),
            ({"power": "watts=2"}, "cannot parse power parameter"),
        ],
    )
    def test_bad_carbon_grids_rejected_eagerly(self, overrides, match):
        fields = {"mixes": [_carbon_mix()], "replicas": (2,), **overrides}
        with pytest.raises(ValueError, match=match):
            PlanSpec(**fields)

    @pytest.fixture(scope="class")
    def carbon_result(self, carbon_spec):
        return PlanRunner(carbon_spec, workers=1).run()

    def test_worker_counts_byte_identical_exact(self, carbon_spec, carbon_result):
        fanned = PlanRunner(carbon_spec, workers=8).run()
        assert carbon_result.to_csv() == fanned.to_csv()
        assert carbon_result.to_json() == fanned.to_json()

    def test_worker_counts_byte_identical_sketch(self, carbon_spec):
        from dataclasses import replace

        sketch_spec = replace(carbon_spec, mode="sketch")
        serial = PlanRunner(sketch_spec, workers=1).run()
        fanned = PlanRunner(sketch_spec, workers=8).run()
        assert serial.to_csv() == fanned.to_csv()
        assert serial.to_json() == fanned.to_json()

    def test_rows_carry_carbon_columns_and_conserve(self, carbon_result):
        for row in carbon_result.rows:
            assert set(row) >= {
                "admission",
                "carbon_trace",
                "power_cap_w",
                "grid_energy_j",
                "carbon_gco2",
            }
            # The explicit power model charges every scenario for energy...
            assert row["grid_energy_j"] > 0.0
            # ...but only traced grid points are charged for carbon.
            if row["carbon_trace"] is not None:
                assert row["carbon_gco2"] > 0.0
            else:
                assert row["carbon_gco2"] is None
            assert row["submitted"] == (
                row["completed"] + row["dropped"] + row["shed"]
            )

    def test_feasible_and_cheapest_respect_budgets(self, carbon_result):
        plain = carbon_result.feasible()
        assert plain, "the 2-replica pool should hold the SLOs somewhere"
        carbon_rows = [r for r in plain if r["carbon_gco2"] is not None]
        assert carbon_rows
        budget = max(r["carbon_gco2"] for r in carbon_rows)
        within = carbon_result.feasible(carbon_budget_gco2=budget)
        # A budget excludes untraced rows (they cannot demonstrate
        # compliance) and anything over it, and never admits new rows.
        assert within == carbon_rows
        assert carbon_result.feasible(carbon_budget_gco2=0.0) == []
        horizon = carbon_result.spec.duration_s
        draws = [r["grid_energy_j"] / horizon for r in plain]
        assert carbon_result.feasible(power_budget_w=max(draws) + 1.0) == plain
        assert carbon_result.feasible(power_budget_w=min(draws) / 2.0) == []
        cheapest = carbon_result.cheapest_feasible(carbon_budget_gco2=budget)
        assert cheapest is not None and cheapest["carbon_gco2"] <= budget
        assert carbon_result.cheapest_feasible(carbon_budget_gco2=0.0) is None

    def test_solver_respects_carbon_and_power_budgets(self):
        workloads = _carbon_mix().workloads()
        cluster = Cluster(
            workloads,
            backend="cpu",
            num_replicas=1,
            power="busy=2.0,idle=0.5",
            carbon="constant:500",
        )
        rate = 0.5 / cluster.mean_service_s()
        requests = LoadGenerator.poisson(workloads, rate, seed=0).generate(
            duration_s=0.03
        )
        free = min_replicas_for_slo(
            cluster, requests, max_replicas=4, duration_s=0.05
        )
        assert free.feasible
        assert free.report.carbon_gco2 is not None
        # A budget at the unconstrained answer's charge changes nothing...
        same = min_replicas_for_slo(
            cluster,
            requests,
            max_replicas=4,
            duration_s=0.05,
            carbon_budget_gco2=free.report.carbon_gco2,
            power_budget_w=free.report.energy_j / 0.05 + 1.0,
        )
        assert same.feasible and same.replicas == free.replicas
        # ...an impossible one makes every pool infeasible, with the trail
        # recording the carbon charge that disqualified each size.
        denied = min_replicas_for_slo(
            cluster,
            requests,
            max_replicas=4,
            duration_s=0.05,
            carbon_budget_gco2=free.report.carbon_gco2 / 1e6,
        )
        assert not denied.feasible
        assert all(e["carbon_gco2"] > 0.0 for e in denied.evaluations)
