"""Tests for carbon- and power-aware serving.

The power ledger (``energy_j = ∫ power dt`` over the replica lifecycle) and
the carbon charge (``carbon_gco2 = ∫ power × intensity dt``) must stay
**bit-identical** to the naive scalar oracle
:func:`repro.serve.reference.reference_serve_dynamic` across the carbon
scenario matrix — explicit and derived power models, diurnal and constant
traces, carbon-suspending autoscaling, the ``carbon_waiting`` hold/release
admission and dispatch under a watt cap — and the streaming sketch path
agrees exactly (the integrals are event-driven sums, exact in both modes).

Behavioural guarantees are pinned too: holding deferrable work for clean
windows must *reduce* gCO2 on a diurnal trace without costing any real-time
tenant a deadline, and a zero-intensity grid charges exactly zero grams.

The trace/model grammars (``diurnal``/``constant``/``trace:`` CSV,
``busy=...`` power specs) and the ``next_below_s`` wake-up postcondition —
including the ulp-boundary regression — are pinned at the unit level.
"""

import math

import numpy as np
import pytest

from repro.serve import (
    CarbonIntensity,
    CarbonSuspendAutoscaler,
    CarbonWaitingAdmission,
    Cluster,
    FaultSchedule,
    LoadGenerator,
    PowerModel,
    ReactiveAutoscaler,
    Workload,
    parse_admission,
    parse_carbon_trace,
    parse_power_model,
    reference_serve_dynamic,
)
from repro.serve.carbon import J_PER_KWH
from repro.serve.reference import assert_reports_identical

_POLICIES = ["round_robin", "least_loaded", "edf"]
_POWER = PowerModel(idle_w=0.5, busy_w=2.0, provisioning_w=1.0, degraded_factor=1.5)


@pytest.fixture
def tenants(molhiv_sample, hep_sample):
    return [
        Workload(
            "trigger",
            model="GIN",
            dataset=hep_sample,
            deadline_s=1e-3,
            priority=1,
            share=2.0,
        ),
        Workload(
            "batch",
            model="GCN",
            dataset=molhiv_sample,
            deadline_s=5e-3,
            tenant_class="deferrable",
        ),
    ]


def _cluster(tenants, policy="round_robin", replicas=2, **kwargs):
    return Cluster(
        tenants,
        backend="cpu",
        num_replicas=replicas,
        policy=policy,
        max_batch_size=2,
        batch_timeout_s=5e-4,
        **kwargs,
    )


def _load(cluster, utilisation, cycles=60, seed=0):
    mean = cluster.mean_service_s()
    duration = cycles * mean
    rate = utilisation * cluster.num_replicas / mean
    generator = LoadGenerator.poisson(list(cluster.workloads), rate, seed=seed)
    return generator.generate(duration_s=duration), duration


def _carbon_cluster(tenants, policy, kind):
    """One scenario of the carbon oracle matrix, plus its offered load level."""
    base = _cluster(tenants, policy=policy)
    mean = base.mean_service_s()
    diurnal = CarbonIntensity.diurnal(period_s=40 * mean)
    if kind == "power_only":
        return base.with_options(power=_POWER), 1.0
    if kind == "derived_power":
        # No explicit model: the carbon trace forces one derived from the
        # backend's measured energy (Cluster.resolved_power).
        return base.with_options(carbon=diurnal), 1.0
    if kind == "power_carbon_degraded":
        faults = FaultSchedule.parse(
            f"degrade@{5 * mean}:r1x3.0;restore@{30 * mean}:r1", num_replicas=2
        )
        return base.with_options(power=_POWER, carbon=diurnal, faults=faults), 1.2
    if kind == "carbon_autoscaler":
        autoscaler = CarbonSuspendAutoscaler(
            carbon_threshold=400.0,
            min_replicas=1,
            max_replicas=4,
            interval_s=2 * mean,
            provision_delay_s=2 * mean,
            scale_down_hysteresis_s=4 * mean,
        )
        return (
            base.with_options(power=_POWER, carbon=diurnal, autoscaler=autoscaler),
            1.5,
        )
    if kind == "carbon_waiting":
        admission = CarbonWaitingAdmission(carbon_threshold=350.0)
        return (
            base.with_options(power=_POWER, carbon=diurnal, admission=admission),
            0.8,
        )
    if kind == "power_cap":
        autoscaler = ReactiveAutoscaler(
            min_replicas=1,
            max_replicas=4,
            interval_s=2 * mean,
            provision_delay_s=2 * mean,
            scale_down_hysteresis_s=8 * mean,
        )
        return (
            base.with_options(power=_POWER, power_cap_w=3.0, autoscaler=autoscaler),
            1.5,
        )
    if kind == "everything":
        faults = FaultSchedule.parse(
            f"fail@{8 * mean}:r0;recover@{20 * mean}:r0", num_replicas=2
        )
        admission = CarbonWaitingAdmission(carbon_threshold=350.0, max_queue_depth=32)
        return (
            base.with_options(
                power=_POWER,
                carbon=diurnal,
                faults=faults,
                admission=admission,
                power_cap_w=4.5,
            ),
            1.2,
        )
    raise AssertionError(kind)


_KINDS = [
    "power_only",
    "derived_power",
    "power_carbon_degraded",
    "carbon_autoscaler",
    "carbon_waiting",
    "power_cap",
    "everything",
]


# ---------------------------------------------------------------------------
# The carbon oracle matrix: every scenario x every dispatch policy
# ---------------------------------------------------------------------------
class TestCarbonOracle:
    @pytest.mark.parametrize("policy", _POLICIES)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_bit_identical_to_reference(self, tenants, policy, kind):
        cluster, utilisation = _carbon_cluster(tenants, policy, kind)
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)
        assert report.is_dynamic
        assert report.energy_j is not None and report.energy_j > 0
        assert report.submitted == report.completed + report.dropped + report.shed

    @pytest.mark.parametrize("kind", _KINDS)
    def test_sketch_mode_power_matches_exact(self, tenants, kind):
        cluster, utilisation = _carbon_cluster(tenants, "round_robin", kind)
        mean = cluster.mean_service_s()
        duration = 60 * mean
        rate = utilisation * 2 / mean
        generator = LoadGenerator.poisson(list(cluster.workloads), rate, seed=0)
        exact = cluster.serve(
            generator.generate(duration_s=duration), duration_s=duration
        )
        sketch = cluster.serve_stream(generator, duration_s=duration)
        assert sketch.submitted == exact.submitted
        assert sketch.completed == exact.completed
        assert sketch.shed == exact.shed
        # The power/carbon ledgers are exact event-driven sums in both
        # modes, so they agree bit for bit — no tolerance.
        assert sketch.energy_j == exact.energy_j
        assert sketch.carbon_gco2 == exact.carbon_gco2
        np.testing.assert_array_equal(
            sketch.replica_energy_j, exact.replica_energy_j
        )


# ---------------------------------------------------------------------------
# Physical invariants of the power/carbon accounting
# ---------------------------------------------------------------------------
class TestCarbonInvariants:
    def test_energy_is_sum_of_replica_integrals(self, tenants):
        cluster, utilisation = _carbon_cluster(tenants, "edf", "power_carbon_degraded")
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        assert report.replica_energy_j.shape == (cluster.num_replicas,)
        assert report.energy_j == sum(report.replica_energy_j.tolist())
        assert np.all(report.replica_energy_j >= 0)

    def test_zero_intensity_grid_charges_zero_grams(self, tenants):
        cluster = _cluster(
            tenants, power=_POWER, carbon=CarbonIntensity.constant(0.0)
        )
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        assert report.energy_j > 0
        assert report.carbon_gco2 == 0.0

    def test_constant_trace_charges_energy_times_intensity(self, tenants):
        # On a flat grid the integral factorises: g = E × I / J_PER_KWH.
        intensity = 420.0
        cluster = _cluster(
            tenants, power=_POWER, carbon=CarbonIntensity.constant(intensity)
        )
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        expected = report.energy_j * intensity / J_PER_KWH
        assert report.carbon_gco2 == pytest.approx(expected, rel=1e-9)

    def test_power_without_carbon_reports_no_gco2(self, tenants):
        cluster = _cluster(tenants, power=_POWER)
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        assert report.energy_j is not None
        assert report.carbon_gco2 is None

    def test_static_cluster_reports_no_power(self, tenants):
        cluster = _cluster(tenants)
        requests, duration = _load(cluster, 1.0)
        report = cluster.serve(requests, duration_s=duration)
        assert report.energy_j is None
        assert report.replica_energy_j is None
        assert report.carbon_gco2 is None
        assert "energy_j" not in report.to_dict()

    def test_power_report_round_trips_through_json(self, tenants):
        import json

        cluster, utilisation = _carbon_cluster(tenants, "round_robin", "carbon_waiting")
        requests, duration = _load(cluster, utilisation)
        report = cluster.serve(requests, duration_s=duration)
        payload = json.loads(report.to_json())
        assert payload["energy_j"] == report.energy_j
        assert payload["carbon_gco2"] == report.carbon_gco2
        assert payload["replica_energy_j"] == [
            float(e) for e in report.replica_energy_j
        ]
        assert "energy" in report.summary() and "carbon" in report.summary()

    def test_power_cap_reduces_peak_draw_energy(self, tenants):
        # A cap at one busy replica's draw serialises dispatch: the capped
        # run can never burn energy as fast as the uncapped one, and the
        # work it cannot place is conserved, not lost.
        base = _cluster(tenants, power=_POWER)
        requests, duration = _load(base, 2.0)
        capped = base.with_options(power_cap_w=3.0)
        report_capped = capped.serve(requests, duration_s=duration)
        report_free = base.serve(requests, duration_s=duration)
        assert report_capped.submitted == (
            report_capped.completed + report_capped.dropped + report_capped.shed
        )
        # Horizon-normalised mean draw under the cap must not exceed the
        # uncapped run's (the capped run may drain longer, never hotter).
        mean_capped = report_capped.energy_j / report_capped.horizon_s
        mean_free = report_free.energy_j / report_free.horizon_s
        assert mean_capped <= mean_free + 1e-12


# ---------------------------------------------------------------------------
# carbon_waiting: the headline behavioural guarantee
# ---------------------------------------------------------------------------
class TestCarbonWaiting:
    def _scenario(self, tenants):
        """Dirty-then-clean grid with capacity headroom for deferred work."""
        base = _cluster(tenants, policy="round_robin", replicas=2)
        mean = base.mean_service_s()
        duration = 60 * mean
        # One full day per horizon: dirty at the start, solar noon half-way.
        trace = CarbonIntensity.diurnal(low=100.0, high=700.0, period_s=duration)
        # The deferrable tenant can wait out the dirty morning entirely.
        for workload in base.workloads:
            if workload.tenant_class == "deferrable":
                workload.deadline_s = duration
        rate = 0.5 * 2 / mean
        generator = LoadGenerator.poisson(list(base.workloads), rate, seed=3)
        requests = generator.generate(duration_s=0.6 * duration)
        return base, trace, requests, duration

    def test_holding_cuts_carbon_without_realtime_misses(self, tenants):
        base, trace, requests, duration = self._scenario(tenants)
        plain = base.with_options(power=_POWER, carbon=trace)
        waiting = plain.with_options(
            admission=CarbonWaitingAdmission(carbon_threshold=350.0)
        )
        report_plain = plain.serve(requests, duration_s=duration)
        report_waiting = waiting.serve(requests, duration_s=duration)
        # Every request still completes: held work is released, not shed.
        assert report_waiting.completed == report_plain.completed == len(requests)
        # Deferring the deferrable tenant's work to the clean afternoon
        # must strictly cut the carbon charge...
        assert report_waiting.carbon_gco2 < report_plain.carbon_gco2
        # ...without costing the real-time tenant a single deadline the
        # baseline meets (real-time work is never held).
        for name, outcome in report_waiting.tenants.items():
            workload = outcome.workload
            if workload.tenant_class != "realtime":
                continue
            baseline = report_plain.tenants[name]
            assert outcome.report.deadline_miss_rate <= (
                baseline.report.deadline_miss_rate
            )

    def test_holding_is_bit_identical_to_reference(self, tenants):
        base, trace, requests, duration = self._scenario(tenants)
        waiting = base.with_options(
            power=_POWER,
            carbon=trace,
            admission=CarbonWaitingAdmission(carbon_threshold=350.0),
        )
        report = waiting.serve(requests, duration_s=duration)
        reference = reference_serve_dynamic(waiting, requests, duration_s=duration)
        assert_reports_identical(report, reference)

    def test_held_work_released_by_deadline_on_always_dirty_grid(self, tenants):
        # A grid that never goes clean: every held request must still be
        # released at its due date and meet its (loose) deadline.
        base = _cluster(tenants, policy="edf", replicas=2)
        mean = base.mean_service_s()
        duration = 60 * mean
        for workload in base.workloads:
            if workload.tenant_class == "deferrable":
                workload.deadline_s = 20 * mean
        cluster = base.with_options(
            power=_POWER,
            carbon=CarbonIntensity.constant(900.0),
            admission=CarbonWaitingAdmission(carbon_threshold=350.0),
        )
        rate = 0.5 * 2 / mean
        generator = LoadGenerator.poisson(list(cluster.workloads), rate, seed=5)
        requests = generator.generate(duration_s=0.5 * duration)
        report = cluster.serve(requests, duration_s=duration)
        assert report.completed == len(requests)
        reference = reference_serve_dynamic(cluster, requests, duration_s=duration)
        assert_reports_identical(report, reference)

    def test_realtime_tenants_are_never_held(self, tenants):
        # All-realtime mix on a permanently dirty grid: carbon_waiting must
        # behave exactly like no admission at all.
        realtime = [w for w in tenants if w.tenant_class == "realtime"]
        base = _cluster(realtime, replicas=2)
        requests, duration = _load(base, 1.0)
        plain = base.with_options(power=_POWER, carbon=CarbonIntensity.constant(900.0))
        waiting = plain.with_options(
            admission=CarbonWaitingAdmission(carbon_threshold=100.0)
        )
        report_plain = plain.serve(requests, duration_s=duration)
        report_waiting = waiting.serve(requests, duration_s=duration)
        assert report_waiting.energy_j == report_plain.energy_j
        assert report_waiting.carbon_gco2 == report_plain.carbon_gco2
        assert report_waiting.completed == report_plain.completed


# ---------------------------------------------------------------------------
# CarbonIntensity: grammar, integrals, wake-up postcondition
# ---------------------------------------------------------------------------
class TestCarbonIntensity:
    def test_constant_trace_integral_is_analytic(self):
        trace = CarbonIntensity.constant(500.0)
        assert trace.intensity_at(0.0) == 500.0
        assert trace.integral(0.0, 2.0) == 1000.0
        assert trace.integral_g_per_j(0.0, 3.6e6) == 500.0

    def test_diurnal_is_dirty_at_dawn_clean_at_noon(self):
        trace = CarbonIntensity.diurnal(low=100.0, high=700.0, period_s=1.0)
        assert trace.intensity_at(0.0) > trace.intensity_at(0.5)
        assert trace.min_intensity >= 100.0
        assert trace.max_intensity <= 700.0
        # Periodicity: one period later reads the same segment.
        assert trace.intensity_at(0.25) == trace.intensity_at(1.25)

    def test_integral_diurnal_steps_parse_as_the_int(self):
        assert CarbonIntensity.parse("diurnal:steps=6.0") == CarbonIntensity.parse("diurnal:steps=6")

    @pytest.mark.parametrize(
        "steps, message",
        [
            ("2.5", "diurnal steps must be an integer, got 2.5"),
            ("inf", "diurnal steps must be finite, got inf"),
            ("nan", "diurnal steps must be finite, got nan"),
        ],
    )
    def test_non_integral_diurnal_steps_rejected(self, steps, message):
        with pytest.raises(ValueError) as raised:
            CarbonIntensity.parse(f"diurnal:steps={steps}")
        assert str(raised.value) == message

    def test_periodic_integral_unwraps_whole_periods(self):
        trace = CarbonIntensity.diurnal(period_s=1.0, steps=8)
        one = trace.integral(0.0, 1.0)
        assert trace.integral(0.0, 3.0) == pytest.approx(3 * one, rel=1e-12)
        # A window crossing a period boundary splits exactly.
        split = trace.integral(0.75, 1.0) + trace.integral(1.0, 1.25)
        assert trace.integral(0.75, 1.25) == pytest.approx(split, rel=1e-12)

    def test_next_below_postcondition_holds_as_evaluated(self):
        # The ulp regression: the reconstructed segment boundary can land
        # one float short of where `t % period` puts it; the contract is
        # that intensity_at(next_below_s(...)) <= threshold, always.
        trace = CarbonIntensity.diurnal(low=100.0, high=700.0, period_s=0.031)
        for after in [0.0, 1e-4, 0.0137, 0.025833333333333333, 0.0309999]:
            t = trace.next_below_s(350.0, after)
            assert t >= after
            assert trace.intensity_at(t) <= 350.0

    def test_next_below_returns_after_when_already_clean(self):
        trace = CarbonIntensity.constant(100.0)
        assert trace.next_below_s(350.0, 0.007) == 0.007

    def test_next_below_is_inf_when_never_clean(self):
        trace = CarbonIntensity.constant(900.0)
        assert trace.next_below_s(350.0, 0.0) == math.inf

    def test_parse_forms(self, tmp_path):
        diurnal = parse_carbon_trace("diurnal:low=50,high=300,period=0.01,steps=6")
        assert diurnal.period_s == 0.01
        assert len(diurnal.intensities) == 6
        assert parse_carbon_trace("constant:420").intensity_at(1.0) == 420.0
        csv_path = tmp_path / "grid.csv"
        csv_path.write_text("time_s,intensity\n0.0,500\n0.5,100\n")
        loaded = parse_carbon_trace(f"trace:{csv_path}")
        assert loaded.intensity_at(0.25) == 500.0
        assert loaded.intensity_at(0.75) == 100.0
        assert "segments" in loaded.describe()

    @pytest.mark.parametrize(
        "text",
        [
            "",                      # empty
            "sinusoid",              # unknown form
            "constant:",             # missing value
            "diurnal:wat=1",         # unknown key
            "trace:",                # missing path
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_carbon_trace(text)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"times_s": (), "intensities": ()},
            {"times_s": (0.1,), "intensities": (100.0,)},       # not from 0
            {"times_s": (0.0, 0.0), "intensities": (1.0, 2.0)},  # not ascending
            {"times_s": (0.0,), "intensities": (-1.0,)},         # negative
            {"times_s": (0.0, 1.0), "intensities": (1.0, 2.0), "period_s": 0.5},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            CarbonIntensity(**kwargs)


# ---------------------------------------------------------------------------
# The overlap-only integrator against the full-scan one it replaced
# ---------------------------------------------------------------------------
def _full_scan_integral(self, t0: float, t1: float) -> float:
    """The integrator as it was before the overlap-only scan, verbatim
    (bar the call to its own aperiodic helper): the oracle below."""
    if t1 <= t0:
        return 0.0
    if self.period_s is None:
        return _full_scan_aperiodic(self, t0, t1)
    period = self.period_s
    whole = _full_scan_aperiodic(self, 0.0, period)
    n0 = math.floor(t0 / period)
    n1 = math.floor(t1 / period)
    if n0 == n1:
        return _full_scan_aperiodic(self, t0 - n0 * period, t1 - n0 * period)
    total = _full_scan_aperiodic(self, t0 - n0 * period, period)
    total += whole * (n1 - n0 - 1)
    total += _full_scan_aperiodic(self, 0.0, t1 - n1 * period)
    return total


def _full_scan_aperiodic(self, t0: float, t1: float) -> float:
    """Segment-sum integral treating the trace as non-repeating."""
    if t1 <= t0:
        return 0.0
    total = 0.0
    times = self.times_s
    for i, value in enumerate(self.intensities):
        start = times[i]
        end = times[i + 1] if i + 1 < len(times) else math.inf
        lo = t0 if t0 > start else start
        hi = t1 if t1 < end else end
        if hi > lo:
            total += value * (hi - lo)
    return total


def _random_traces(rng, tmp_path):
    """Periodic, aperiodic, constant and CSV-replayed traces."""
    traces = [
        CarbonIntensity.diurnal(period_s=0.02),
        CarbonIntensity.diurnal(low=0.0, high=900.0, period_s=86400.0, steps=7),
        CarbonIntensity.constant(420.0),
        CarbonIntensity.constant(0.0),
    ]
    for period in (None, "periodic"):
        for segments in (1, 2, 5, 24):
            times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, segments - 1))))
            values = rng.uniform(0.0, 800.0, segments)
            values[rng.random(segments) < 0.2] = 0.0
            period_s = None if period is None else times[-1] + rng.uniform(0.01, 2.0)
            traces.append(CarbonIntensity(tuple(times), tuple(values), period_s=period_s))
    path = tmp_path / "grid.csv"
    path.write_text(
        "time_s,intensity\n"
        + "".join(f"{3600 * h},{rng.uniform(50, 700):.1f}\n" for h in range(24))
    )
    traces.append(CarbonIntensity.from_csv(str(path)))
    traces.append(CarbonIntensity.from_csv(str(path), period_s=86400.0))
    return traces


def _intervals(trace, rng):
    """Reversed/empty, in-segment, boundary-crossing, whole-period, many-period,
    one-ulp and random intervals over ``trace``."""
    times = trace.times_s
    span = trace.period_s if trace.period_s is not None else times[-1] + 1.0
    out = [(1.0, 0.5), (0.3, 0.3), (0.0, 0.0), (-1.0, -2.0)]
    for i, start in enumerate(times):
        end = times[i + 1] if i + 1 < len(times) else span
        out.append((start, end))
        out.append((start + 0.25 * (end - start), start + 0.75 * (end - start)))
        out.append((start - 0.1 * span, end + 0.1 * span))
        out.append((start, math.nextafter(start, math.inf)))
    if trace.period_s is not None:
        period = trace.period_s
        for k0, k1 in ((0, 1), (1, 2), (0, 3), (2, 5), (0, 1000), (7, 7 + 4096)):
            out.append((k0 * period, k1 * period))
            out.append((k0 * period + 0.3 * period, k1 * period + 0.6 * period))
    for _ in range(150):
        t0 = rng.uniform(0.0, 5.0 * span)
        t1 = t0 + rng.exponential(span) * rng.choice([1e-6, 0.1, 1.0, 30.0])
        out.append((t0, t1))
        out.append((t0, math.nextafter(t0, math.inf)))
    return out


def test_overlap_only_integral_is_bit_identical_to_full_scan(tmp_path):
    rng = np.random.default_rng(2024)
    checked = 0
    for trace in _random_traces(rng, tmp_path):
        for t0, t1 in _intervals(trace, rng):
            fast = trace.integral(t0, t1)
            assert fast.hex() == _full_scan_integral(trace, t0, t1).hex(), (trace, t0, t1)
            checked += 1
    assert checked > 4000


# ---------------------------------------------------------------------------
# PowerModel grammar and admission spec parsing
# ---------------------------------------------------------------------------
class TestPowerModel:
    def test_parse_full_spec(self):
        model = parse_power_model("idle=0.5,busy=2.0,provision=1.0,degraded=1.2")
        assert model == PowerModel(0.5, 2.0, 1.0, 1.2)

    def test_parse_defaults_off_busy(self):
        model = parse_power_model("busy=10")
        assert model.idle_w == pytest.approx(3.0)
        assert model.provisioning_w == pytest.approx(5.0)
        assert model.degraded_factor == 1.0

    def test_busy_watts_applies_degraded_factor(self):
        model = PowerModel(0.5, 2.0, 1.0, degraded_factor=1.5)
        assert model.busy_watts(1.0) == 2.0
        assert model.busy_watts(3.0) == 3.0

    def test_from_energy_matches_measured_draw(self):
        model = PowerModel.from_energy(energy_j=4.0, busy_s=2.0)
        assert model.busy_w == 2.0

    @pytest.mark.parametrize(
        "text", ["", "idle=1", "busy=-2", "busy=2,wat=1", "busy=2,degraded=0"]
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            parse_power_model(text)

    def test_resolved_power_prefers_explicit_model(self, tenants):
        explicit = _cluster(tenants, power=_POWER, carbon="constant:400")
        assert explicit.resolved_power() == _POWER
        derived = _cluster(tenants, carbon="constant:400")
        assert derived.resolved_power().busy_w > 0
        static = _cluster(tenants)
        assert static.resolved_power() is None

    def test_carbon_waiting_spec_parses(self):
        admission = parse_admission("carbon_waiting:threshold=300,release=1.5")
        assert isinstance(admission, CarbonWaitingAdmission)
        assert admission.carbon_threshold == 300.0
        assert admission.release_headroom == 1.5
        bare = parse_admission("carbon_waiting")
        assert isinstance(bare, CarbonWaitingAdmission)
