"""Declarative serving-scenario sweep specifications.

A :class:`PlanSpec` describes a capacity-planning sweep without running it:
one or more named :class:`TenantMix` es (each a list of
:class:`~repro.serve.Workload` keyword dicts — declarative so the spec
pickles cheaply to worker processes) crossed with grids over **replicas x
dispatch policy x dynamic batching (max batch size, timeout) x queue
capacity x arrival process**.  ``scenarios()`` enumerates the cartesian
product as :class:`Scenario` objects in a deterministic order (nested
for-loops in field order, mix outermost), which is what makes a sweep's
CSV/JSON output byte-identical no matter how many workers evaluate it.

Validation is eager, mirroring :class:`~repro.dse.SweepSpec`: a typo'd
policy name, an unknown backend, an empty grid or an invalid tenant spec
fails when the spec is constructed, before any simulation starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Tuple

from ..api.backends import BACKEND_NAMES
from ..checks import finite_nonnegative, finite_positive, reject_repeats
from ..serve.autoscale import parse_admission, parse_autoscaler
from ..serve.carbon import CarbonIntensity
from ..serve.cluster import POLICY_NAMES
from ..serve.faults import FaultSchedule
from ..serve.power import PowerModel
from ..serve.workload import Workload

__all__ = ["TenantMix", "Scenario", "PlanSpec", "ARRIVAL_NAMES"]

#: Arrival-process conveniences a scenario can name (plus ``trace:PATH``).
ARRIVAL_NAMES: Tuple[str, ...] = ("poisson", "bursty", "constant", "diurnal")

#: The eleven grid fields of a :class:`PlanSpec`.
_GRIDS = (
    "replicas",
    "policies",
    "max_batch_sizes",
    "batch_timeouts_s",
    "queue_capacities",
    "arrivals",
    "autoscalers",
    "faults",
    "admissions",
    "carbon_traces",
    "power_caps",
)


@dataclass(frozen=True)
class TenantMix:
    """A named set of tenants, declaratively.

    ``tenants`` holds keyword dicts for :class:`~repro.serve.Workload` (one
    per tenant) rather than built workloads: dicts of names and scalars
    pickle to worker processes without dragging resolved models or datasets
    along.  Construction validates every tenant eagerly by building the
    workloads once.
    """

    name: str
    tenants: Tuple[Mapping, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("mix name must be a non-empty string")
        object.__setattr__(
            self, "tenants", tuple(dict(tenant) for tenant in self.tenants)
        )
        if not self.tenants:
            raise ValueError(f"mix {self.name!r} needs at least one tenant")
        self.workloads()  # eager validation via Workload/InferenceRequest

    def workloads(self) -> List[Workload]:
        """Fresh :class:`Workload` objects for this mix (cheap to build)."""
        return [Workload(**tenant) for tenant in self.tenants]


@dataclass(frozen=True)
class Scenario:
    """One grid point of a plan sweep: a full cluster + traffic configuration."""

    index: int
    mix: str
    arrival: str
    num_replicas: int
    policy: str
    max_batch_size: int
    batch_timeout_s: float
    queue_capacity: Optional[int]
    #: Autoscaler spec string (``reactive:max=8,...``) or ``None`` (static).
    autoscale: Optional[str] = None
    #: Fault-schedule string (``fail@...`` / ``random:...``) or ``None``.
    fault: Optional[str] = None
    #: Admission-control string (``carbon_waiting:...`` / ``queue=N``) or ``None``.
    admission: Optional[str] = None
    #: Carbon-intensity trace string (``diurnal`` / ``constant:420``) or ``None``.
    carbon_trace: Optional[str] = None
    #: Cluster-wide dispatch power cap in watts, or ``None`` (uncapped).
    power_cap_w: Optional[float] = None

    def describe(self) -> str:
        capacity = "inf" if self.queue_capacity is None else str(self.queue_capacity)
        text = (
            f"{self.mix}/{self.arrival}: {self.num_replicas}x {self.policy}, "
            f"batch<= {self.max_batch_size}/{self.batch_timeout_s * 1e6:.0f}us, "
            f"queue {capacity}"
        )
        if self.autoscale is not None:
            text += f", autoscale {self.autoscale}"
        if self.fault is not None:
            text += f", fault {self.fault}"
        if self.admission is not None:
            text += f", admission {self.admission}"
        if self.carbon_trace is not None:
            text += f", carbon {self.carbon_trace}"
        if self.power_cap_w is not None:
            text += f", cap {self.power_cap_w:g}W"
        return text


@dataclass(frozen=True)
class PlanSpec:
    """Declarative description of one serving-scenario sweep.

    Attributes
    ----------
    mixes:
        The tenant mixes to plan for (unique names).
    backend:
        Registered inference backend every replica instantiates.
    replicas / policies / max_batch_sizes / batch_timeouts_s /
    queue_capacities / arrivals:
        The grids.  ``queue_capacities`` entries may be ``None``
        (unbounded); ``arrivals`` entries are ``poisson`` / ``bursty`` /
        ``constant`` or ``trace:PATH``.
    autoscalers / faults:
        Dynamic-cluster grids, both defaulting to ``(None,)`` (static).
        ``autoscalers`` entries are autoscaler spec strings
        (``reactive:max=8,delay=2e-3`` — see
        :func:`~repro.serve.parse_autoscaler`) or ``None``; ``faults``
        entries are fault-schedule strings (``fail@0.01:r0;...`` or
        ``random:mtbf=...,mttr=...`` — see
        :meth:`~repro.serve.FaultSchedule.parse`) or ``None``.  Any
        non-``None`` entry switches the sweep's rows to the dynamic column
        set (``shed``, ``peak_replicas``, measured ``replica_seconds``).
    admissions / carbon_traces / power_caps:
        Carbon/power grids, all defaulting to ``(None,)`` (off).
        ``admissions`` entries are admission-control strings
        (``carbon_waiting:threshold=350`` / ``queue=64`` — see
        :func:`~repro.serve.parse_admission`) or ``None``;
        ``carbon_traces`` entries are carbon-trace strings (``diurnal`` /
        ``constant:420`` / ``trace:PATH`` — see
        :meth:`~repro.serve.CarbonIntensity.parse`) or ``None``;
        ``power_caps`` entries are watt budgets (> 0) or ``None``.  Any
        non-``None`` entry (or an explicit ``power`` model) widens the
        sweep's rows with the carbon columns (``grid_energy_j``,
        ``carbon_gco2``) and switches to the dynamic column set.
    power:
        Replica power-model string (``busy=2.0`` /
        ``idle=...,busy=...,provision=...`` — see
        :meth:`~repro.serve.PowerModel.parse`) applied to every scenario,
        or ``None`` to derive a model from the measured per-request energy
        whenever a carbon trace or power cap demands one.
    rate_rps:
        Total offered request rate, split across a mix's tenants by their
        ``share``.  ``None`` derives one rate per mix from the measured
        service time: ``utilisation x max(replicas) / mean_service_s`` — a
        load that stresses the largest pool of the sweep at the target
        utilisation, held constant across the grid so scenarios stay
        comparable.
    utilisation:
        Target utilisation used when deriving the rate.
    duration_s:
        Simulated traffic horizon per scenario.
    seed:
        Load-generator master seed (scenarios are bit-reproducible).
    mode:
        ``"exact"`` (array-backed reports, the oracle) or ``"sketch"``
        (streaming load generation + online accumulators; scenario rows
        carry percentile estimates within the sketches' documented error
        but counts/drops/utilisation stay exact).  See
        :meth:`~repro.serve.Cluster.serve_stream`.
    """

    mixes: Tuple[TenantMix, ...]
    backend: str = "flowgnn"
    replicas: Tuple[int, ...] = (1, 2, 4)
    policies: Tuple[str, ...] = ("round_robin", "edf")
    max_batch_sizes: Tuple[int, ...] = (1,)
    batch_timeouts_s: Tuple[float, ...] = (0.0,)
    queue_capacities: Tuple[Optional[int], ...] = (None,)
    arrivals: Tuple[str, ...] = ("poisson",)
    autoscalers: Tuple[Optional[str], ...] = (None,)
    faults: Tuple[Optional[str], ...] = (None,)
    admissions: Tuple[Optional[str], ...] = (None,)
    carbon_traces: Tuple[Optional[str], ...] = (None,)
    power_caps: Tuple[Optional[float], ...] = (None,)
    power: Optional[str] = None
    rate_rps: Optional[float] = None
    utilisation: float = 0.7
    duration_s: float = 0.05
    seed: int = 0
    mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mixes", tuple(self.mixes))
        for name in _GRIDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.mixes:
            raise ValueError("PlanSpec needs at least one tenant mix")
        names = [mix.name for mix in self.mixes]
        if len(set(names)) != len(names):
            raise ValueError(f"mix names must be unique; got {names}")
        object.__setattr__(self, "backend", str(self.backend).lower())
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: {BACKEND_NAMES}"
            )
        for grid_name in _GRIDS:
            if not getattr(self, grid_name):
                raise ValueError(f"grid {grid_name!r} is empty")
        if any(count < 1 for count in self.replicas):
            raise ValueError("every replicas value must be >= 1")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ValueError(
                    f"unknown policy {policy!r}; registered: {POLICY_NAMES}"
                )
        if any(size < 1 for size in self.max_batch_sizes):
            raise ValueError("every max_batch_size must be >= 1")
        for timeout in self.batch_timeouts_s:
            finite_nonnegative(timeout, "every batch timeout")
        if any(
            capacity is not None and capacity < 1
            for capacity in self.queue_capacities
        ):
            raise ValueError("queue capacities must be >= 1 or None (unbounded)")
        for arrival in self.arrivals:
            if (
                arrival not in ARRIVAL_NAMES
                and not arrival.startswith("diurnal:")
                and not arrival.startswith("trace:")
            ):
                raise ValueError(
                    f"unknown arrival process {arrival!r}; use one of "
                    f"{ARRIVAL_NAMES}, diurnal:low=,high=,period= or trace:PATH"
                )
        if self.rate_rps is not None and not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive (or None to derive it)")
        if not 0 < self.utilisation <= 2.0:
            raise ValueError("utilisation must be in (0, 2]")
        if not self.duration_s > 0:
            raise ValueError("duration_s must be positive")
        # Eager dynamic-grid validation: a typo'd autoscaler key or a fault
        # event naming a replica the *smallest* pool of the sweep lacks
        # fails at construction, before any simulation starts.
        for text in self.autoscalers:
            if text is not None:
                parse_autoscaler(text)
        for text in self.faults:
            if text is not None:
                FaultSchedule.parse(
                    text,
                    num_replicas=min(self.replicas),
                    horizon_s=self.duration_s,
                )
        for text in self.admissions:
            if text is not None:
                parse_admission(text)
        for text in self.carbon_traces:
            if text is not None:
                CarbonIntensity.parse(text)
        for cap in self.power_caps:
            if cap is not None:
                finite_positive(cap, "power cap")
        for grid_name in _GRIDS:
            reject_repeats(f"grid {grid_name!r}", getattr(self, grid_name))
        if self.power is not None:
            PowerModel.parse(self.power)
        if self.mode not in ("exact", "sketch"):
            raise ValueError(
                f"unknown mode {self.mode!r}; use 'exact' or 'sketch'"
            )

    # -- enumeration ----------------------------------------------------------
    def scenarios(self) -> Iterator[Scenario]:
        """Every grid point, in deterministic nested-loop order."""
        index = 0
        for mix in self.mixes:
            for arrival in self.arrivals:
                for num_replicas in self.replicas:
                    for policy in self.policies:
                        for max_batch_size in self.max_batch_sizes:
                            for batch_timeout_s in self.batch_timeouts_s:
                                for queue_capacity in self.queue_capacities:
                                    for autoscale in self.autoscalers:
                                        for fault in self.faults:
                                            for admission in self.admissions:
                                                for carbon in self.carbon_traces:
                                                    for cap in self.power_caps:
                                                        yield Scenario(
                                                            index=index,
                                                            mix=mix.name,
                                                            arrival=arrival,
                                                            num_replicas=num_replicas,
                                                            policy=policy,
                                                            max_batch_size=max_batch_size,
                                                            batch_timeout_s=batch_timeout_s,
                                                            queue_capacity=queue_capacity,
                                                            autoscale=autoscale,
                                                            fault=fault,
                                                            admission=admission,
                                                            carbon_trace=carbon,
                                                            power_cap_w=cap,
                                                        )
                                                        index += 1

    def num_scenarios(self) -> int:
        return (
            len(self.mixes)
            * len(self.arrivals)
            * len(self.replicas)
            * len(self.policies)
            * len(self.max_batch_sizes)
            * len(self.batch_timeouts_s)
            * len(self.queue_capacities)
            * len(self.autoscalers)
            * len(self.faults)
            * len(self.admissions)
            * len(self.carbon_traces)
            * len(self.power_caps)
        )

    @property
    def has_dynamics(self) -> bool:
        """Whether any grid point runs the dynamic (lifecycle-aware) loop.

        Spec-level on purpose: the flag decides the row schema for the
        *whole* sweep (CSV headers come from the first row), so static and
        dynamic scenarios in one sweep share one column set.
        """
        return (
            any(a is not None for a in self.autoscalers)
            or any(f is not None for f in self.faults)
            or any(a is not None for a in self.admissions)
            or self.has_carbon
        )

    @property
    def has_carbon(self) -> bool:
        """Whether any grid point carries power/carbon accounting.

        Spec-level for the same schema reason as :attr:`has_dynamics` —
        power/carbon runs are always dynamic clusters, so ``has_carbon``
        implies ``has_dynamics``.
        """
        return (
            self.power is not None
            or any(c is not None for c in self.carbon_traces)
            or any(p is not None for p in self.power_caps)
        )

    def mix_by_name(self, name: str) -> TenantMix:
        for mix in self.mixes:
            if mix.name == name:
                return mix
        raise KeyError(f"no tenant mix named {name!r}")

    def describe(self) -> str:
        return (
            f"PlanSpec(backend={self.backend!r}, "
            f"mixes={[mix.name for mix in self.mixes]}, "
            f"arrivals={list(self.arrivals)}, replicas={list(self.replicas)}, "
            f"policies={list(self.policies)}, "
            f"max_batch={list(self.max_batch_sizes)}, "
            f"timeouts_us={[round(t * 1e6, 1) for t in self.batch_timeouts_s]}, "
            f"queues={list(self.queue_capacities)}, "
            + (
                f"autoscalers={list(self.autoscalers)}, "
                f"faults={list(self.faults)}, "
                if self.has_dynamics
                else ""
            )
            + (
                f"admissions={list(self.admissions)}, "
                f"carbon={list(self.carbon_traces)}, "
                f"power_caps={list(self.power_caps)}, "
                f"power={self.power!r}, "
                if self.has_carbon or any(a is not None for a in self.admissions)
                else ""
            )
            + f"{self.num_scenarios()} scenarios)"
        )
