"""Autoscaling policies and adaptive admission for the dynamic cluster.

An :class:`Autoscaler` is consulted by :meth:`Cluster.serve` at fixed
``interval_s`` ticks on the event heap.  At each tick it sees an
:class:`AutoscalerMetrics` snapshot (queue depth, active/provisioning/busy
replica counts, arrivals and batch completions since the previous tick) and
answers one question: how many replicas *should* be rented.  The cluster
turns the answer into lifecycle transitions:

* scaling **up** appends fresh replicas in the ``provisioning`` state; they
  become dispatchable only ``provision_delay_s`` later (capacity is never
  free or instant);
* scaling **down** first cancels still-provisioning replicas, then drains
  active ones (newest first) — a draining replica finishes its in-flight
  batch, hands queued work back to the dispatch policy, and retires.  A
  scale-down decision is suppressed entirely until
  ``scale_down_hysteresis_s`` has passed since the last scale-up, so a
  flapping metric cannot thrash the pool.

Two built-in policies:

* :class:`ReactiveAutoscaler` — queue-depth watermarks plus an
  all-replicas-busy trigger; scales to whatever the backlog demands, shrinks
  one replica at a time.
* :class:`PredictiveAutoscaler` — EWMA arrival-rate estimation sized by
  ``rate x mean_service / target_utilisation`` (an M/M/k-style capacity
  rule); smooth under bursty arrivals at the cost of reacting a tick late.

Both are pure functions of the metrics sequence (the predictive policy's
EWMA state is reset at the start of every simulation), which is what lets
the dynamic-path oracle in :mod:`repro.serve.reference` replay a run
bit-identically.

:class:`AdmissionControl` is the load-shedding counterpart: consulted at
every arrival, it sheds requests when the queue is too deep or when the
backlog says the request cannot meet its deadline anyway (shed requests are
counted separately from capacity drops, and conservation —
``submitted == completed + dropped + shed`` — is a pinned invariant).

Carbon-aware extensions (both bound to the cluster's
:class:`~repro.serve.carbon.CarbonIntensity` trace at simulation start):

* :class:`CarbonWaitingAdmission` — holds *deferrable* tenants' requests
  while grid intensity is above ``carbon_threshold``, releasing them in
  earliest-due-date order when the grid gets clean or their deadline
  approaches (real-time tenants pass straight through, and held work is
  still counted as submitted — conservation is unchanged);
* :class:`CarbonSuspendAutoscaler` — a reactive autoscaler that parks the
  pool at ``min_replicas`` whenever intensity is above its threshold and
  resumes normal reactive scaling once the window passes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..checks import finite_nonnegative, finite_positive, integral, number

__all__ = [
    "AutoscalerMetrics",
    "Autoscaler",
    "ReactiveAutoscaler",
    "PredictiveAutoscaler",
    "CarbonSuspendAutoscaler",
    "AdmissionControl",
    "CarbonWaitingAdmission",
    "AUTOSCALER_NAMES",
    "parse_autoscaler",
    "parse_admission",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .carbon import CarbonIntensity
    from .cluster import _QueueItem, _SimState

#: Registered autoscaler spec names (CLI choices and sweep grids).
AUTOSCALER_NAMES = ("reactive", "predictive", "carbon")


@dataclass(frozen=True)
class AutoscalerMetrics:
    """What an autoscaler sees at one tick."""

    now_s: float
    queue_depth: int                  # pending requests across all lanes
    active_replicas: int              # dispatchable now
    provisioning_replicas: int        # requested, not yet dispatchable
    busy_replicas: int                # active and mid-batch at the tick
    arrivals_since_last: int          # offered load (admitted, dropped, shed)
    batch_completions_since_last: int
    interval_s: float
    mean_service_s: float             # cluster mean batch-1 service time

    @property
    def target_replicas(self) -> int:
        """What is currently rented: active plus still-provisioning."""
        return self.active_replicas + self.provisioning_replicas


class Autoscaler(ABC):
    """Decide the rented replica count from per-tick metrics.

    Subclasses implement :meth:`desired_replicas`; the cluster clamps the
    answer into ``[min_replicas, max_replicas]`` and applies provisioning
    latency and scale-down hysteresis, so a policy only ever reasons about
    the metrics, never about actuation.
    """

    name: str = "abstract"

    def __init__(
        self,
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval_s: float = 2e-3,
        provision_delay_s: float = 4e-3,
        scale_down_hysteresis_s: float = 10e-3,
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        finite_positive(interval_s, "interval_s")
        finite_nonnegative(provision_delay_s, "provision_delay_s")
        finite_nonnegative(scale_down_hysteresis_s, "scale_down_hysteresis_s")
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.interval_s = float(interval_s)
        self.provision_delay_s = float(provision_delay_s)
        self.scale_down_hysteresis_s = float(scale_down_hysteresis_s)

    def reset(self) -> None:
        """Called at the start of every simulation (clear estimator state)."""

    def bind_carbon(self, trace: "Optional[CarbonIntensity]") -> None:
        """Receive the cluster's carbon trace at simulation start (no-op here)."""

    @abstractmethod
    def desired_replicas(self, metrics: AutoscalerMetrics) -> int:
        """How many replicas should be rented, given ``metrics``."""

    def describe(self) -> str:
        return (
            f"{self.name}(min={self.min_replicas}, max={self.max_replicas}, "
            f"interval={self.interval_s:g}s, delay={self.provision_delay_s:g}s, "
            f"hysteresis={self.scale_down_hysteresis_s:g}s)"
        )


class ReactiveAutoscaler(Autoscaler):
    """Queue-depth watermarks plus an all-busy trigger.

    Scale up to ``ceil(queue / high_queue_per_replica)`` when the backlog
    per rented replica crosses the high watermark (or by one replica when
    every active replica is busy and work is still queued); scale down one
    replica when the backlog per replica falls below the low watermark and
    at least one active replica is idle.
    """

    name = "reactive"

    def __init__(
        self,
        high_queue_per_replica: float = 4.0,
        low_queue_per_replica: float = 1.0,
        busy_fraction: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        finite_positive(high_queue_per_replica, "high_queue_per_replica")
        if not 0 <= low_queue_per_replica <= high_queue_per_replica:
            raise ValueError(
                "low_queue_per_replica must be in [0, high_queue_per_replica]"
            )
        if not 0 < busy_fraction <= 1:
            raise ValueError("busy_fraction must be in (0, 1]")
        self.high_queue_per_replica = float(high_queue_per_replica)
        self.low_queue_per_replica = float(low_queue_per_replica)
        self.busy_fraction = float(busy_fraction)

    def desired_replicas(self, metrics: AutoscalerMetrics) -> int:
        target = metrics.target_replicas
        if target <= 0:
            # Nothing rented at all (e.g. every replica crashed): size the
            # pool straight from the backlog.
            return max(
                self.min_replicas,
                int(math.ceil(metrics.queue_depth / self.high_queue_per_replica)),
            )
        per_replica = metrics.queue_depth / target
        if per_replica > self.high_queue_per_replica:
            return int(math.ceil(metrics.queue_depth / self.high_queue_per_replica))
        busy = (
            metrics.busy_replicas / metrics.active_replicas
            if metrics.active_replicas
            else 1.0
        )
        if metrics.queue_depth > 0 and busy >= self.busy_fraction:
            return target + 1
        if (
            per_replica < self.low_queue_per_replica
            and metrics.busy_replicas < metrics.active_replicas
        ):
            return target - 1
        return target


class PredictiveAutoscaler(Autoscaler):
    """EWMA arrival-rate estimation sized by a utilisation target.

    The estimator smooths the observed per-tick arrival rate with factor
    ``smoothing`` and demands ``ceil(rate x mean_service /
    target_utilisation)`` replicas.  State lives only inside one simulation:
    :meth:`reset` clears the EWMA, so replays are bit-identical.
    """

    name = "predictive"

    def __init__(
        self,
        target_utilisation: float = 0.7,
        smoothing: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 < target_utilisation <= 1:
            raise ValueError("target_utilisation must be in (0, 1]")
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")
        self.target_utilisation = float(target_utilisation)
        self.smoothing = float(smoothing)
        self._rate_rps: Optional[float] = None

    def reset(self) -> None:
        self._rate_rps = None

    def desired_replicas(self, metrics: AutoscalerMetrics) -> int:
        observed = metrics.arrivals_since_last / metrics.interval_s
        if self._rate_rps is None:
            rate = observed
        else:
            rate = self.smoothing * observed + (1.0 - self.smoothing) * self._rate_rps
        self._rate_rps = rate
        if metrics.mean_service_s <= 0.0:
            return metrics.target_replicas
        return int(math.ceil(rate * metrics.mean_service_s / self.target_utilisation))


class CarbonSuspendAutoscaler(ReactiveAutoscaler):
    """Suspend/resume scaling around high-carbon windows.

    While grid intensity is above ``carbon_threshold`` the pool is parked at
    ``min_replicas`` (replicas drain and retire through the normal lifecycle,
    so in-flight batches still finish); once the window passes the policy
    resumes plain reactive scaling.  Without a bound carbon trace it behaves
    exactly like :class:`ReactiveAutoscaler`.
    """

    name = "carbon"

    def __init__(self, carbon_threshold: float = 400.0, **kwargs) -> None:
        super().__init__(**kwargs)
        finite_nonnegative(carbon_threshold, "carbon_threshold")
        self.carbon_threshold = float(carbon_threshold)
        self._trace: "Optional[CarbonIntensity]" = None

    def bind_carbon(self, trace: "Optional[CarbonIntensity]") -> None:
        self._trace = trace

    def desired_replicas(self, metrics: AutoscalerMetrics) -> int:
        if (
            self._trace is not None
            and self._trace.intensity_at(metrics.now_s) > self.carbon_threshold
        ):
            return self.min_replicas
        return super().desired_replicas(metrics)

    def describe(self) -> str:
        return super().describe()[:-1] + f", threshold={self.carbon_threshold:g})"


@dataclass(frozen=True)
class AdmissionControl:
    """Load-shedding thresholds applied to every arrival.

    ``max_queue_depth`` sheds when the cluster backlog is already that
    deep (a cheaper, adaptive cousin of the hard ``queue_capacity`` drop).
    ``deadline_headroom`` sheds a deadline-carrying request whose predicted
    completion — mean outstanding work per live replica plus its own
    service time — exceeds ``headroom x deadline``; best-effort requests
    are never deadline-shed.  Shedding happens before the queue-capacity
    check, and shed requests are counted separately from drops.
    """

    max_queue_depth: Optional[int] = None
    deadline_headroom: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is None and self.deadline_headroom is None:
            raise ValueError(
                "AdmissionControl needs max_queue_depth and/or deadline_headroom"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.deadline_headroom is not None:
            finite_positive(self.deadline_headroom, "deadline_headroom")

    def should_shed(self, item: "_QueueItem", pending: int, state: "_SimState") -> bool:
        """Whether to shed ``item`` given ``pending`` queued requests."""
        if self.max_queue_depth is not None and pending >= self.max_queue_depth:
            return True
        if self.deadline_headroom is not None:
            deadline = item.request.absolute_deadline_s
            if deadline != math.inf:
                live = state.live
                if not live:
                    return True
                busy_until, queued_work, now = state.busy_until, state.queued_work, state.now
                backlog = 0.0
                for replica in live:
                    # max(wait, 0.0), the same float for -0.0 and NaN.
                    wait = busy_until[replica] - now
                    backlog += (0.0 if 0.0 > wait else wait) + queued_work[replica]
                predicted = item.service_s + backlog / len(live)
                budget = self.deadline_headroom * (deadline - item.request.arrival_s)
                if predicted > budget:
                    return True
        return False

    def describe(self) -> str:
        parts = []
        if self.max_queue_depth is not None:
            parts.append(f"queue={self.max_queue_depth}")
        if self.deadline_headroom is not None:
            parts.append(f"headroom={self.deadline_headroom:g}")
        return "admission(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class CarbonWaitingAdmission(AdmissionControl):
    """Hold deferrable work for clean-grid windows (carbon_waiting policy).

    At every arrival from a ``deferrable`` tenant, if grid intensity is
    above ``carbon_threshold`` the request is *held* instead of queued.
    Held requests are released in earliest-due-date order as soon as the
    grid is clean again — or unconditionally once the release point
    ``deadline - release_headroom × service_time`` arrives, so a clean
    window never has to show up for a deadline to be met.  Best-effort
    deferrable requests (no deadline) wait for the next clean window.

    Real-time tenants are never held, and the inherited shedding knobs
    (``max_queue_depth`` / ``deadline_headroom``) still apply to whatever
    is actually queued — both may be ``None`` here, unlike the base class.
    """

    carbon_threshold: float = 400.0
    release_headroom: float = 2.0

    def __post_init__(self) -> None:
        # Unlike the base class, pure carbon-holding with no shedding knobs
        # is a valid configuration, so the base "needs max_queue_depth
        # and/or deadline_headroom" check is deliberately not inherited.
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.deadline_headroom is not None:
            finite_positive(self.deadline_headroom, "deadline_headroom")
        finite_nonnegative(self.carbon_threshold, "carbon_threshold")
        finite_nonnegative(self.release_headroom, "release_headroom")

    def release_at_s(self, deadline_s: float, service_s: float) -> float:
        """Latest time a held request may wait before it must be queued."""
        if deadline_s == math.inf:
            return math.inf
        return deadline_s - self.release_headroom * service_s

    def describe(self) -> str:
        parts = [
            f"threshold={self.carbon_threshold:g}",
            f"release={self.release_headroom:g}",
        ]
        if self.max_queue_depth is not None:
            parts.append(f"queue={self.max_queue_depth}")
        if self.deadline_headroom is not None:
            parts.append(f"headroom={self.deadline_headroom:g}")
        return "carbon_waiting(" + ",".join(parts) + ")"


_COMMON_KEYS = {
    "min": ("min_replicas", int),
    "max": ("max_replicas", int),
    "interval": ("interval_s", float),
    "delay": ("provision_delay_s", float),
    "hysteresis": ("scale_down_hysteresis_s", float),
}

_REACTIVE_KEYS = {
    "high": ("high_queue_per_replica", float),
    "low": ("low_queue_per_replica", float),
    "busy": ("busy_fraction", float),
}

_PREDICTIVE_KEYS = {
    "util": ("target_utilisation", float),
    "smooth": ("smoothing", float),
}

_CARBON_KEYS = {
    **_REACTIVE_KEYS,
    "threshold": ("carbon_threshold", float),
}


def parse_autoscaler(text: str) -> Autoscaler:
    """Parse ``NAME[:k=v,...]`` into an autoscaler instance.

    Shared keys: ``min``, ``max``, ``interval``, ``delay``, ``hysteresis``.
    ``reactive`` adds ``high``/``low`` (queue-per-replica watermarks) and
    ``busy`` (all-busy trigger fraction); ``predictive`` adds ``util``
    (target utilisation) and ``smooth`` (EWMA factor); ``carbon`` takes the
    reactive keys plus ``threshold`` (gCO2/kWh above which the pool parks
    at ``min``).  Examples::

        reactive
        reactive:min=1,max=8,interval=0.002,delay=0.004,high=4,low=1
        predictive:util=0.7,smooth=0.5,hysteresis=0.01
        carbon:threshold=400,min=1,max=8
    """
    text = text.strip()
    name, _, params_text = text.partition(":")
    name = name.strip().lower()
    if name == "reactive":
        keys = {**_COMMON_KEYS, **_REACTIVE_KEYS}
        factory = ReactiveAutoscaler
    elif name == "predictive":
        keys = {**_COMMON_KEYS, **_PREDICTIVE_KEYS}
        factory = PredictiveAutoscaler
    elif name == "carbon":
        keys = {**_COMMON_KEYS, **_CARBON_KEYS}
        factory = CarbonSuspendAutoscaler
    else:
        raise ValueError(
            f"unknown autoscaler {name!r}; expected one of {AUTOSCALER_NAMES}"
        )
    kwargs = {}
    for pair in params_text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise ValueError(
                f"unknown {name} autoscaler parameter {pair!r}; "
                f"expected one of {sorted(keys)}"
            )
        attr, cast = keys[key]
        parsed = number(value, attr)
        kwargs[attr] = integral(parsed, attr) if cast is int else parsed
    return factory(**kwargs)


def parse_admission(text: str) -> AdmissionControl:
    """Parse an admission spec.

    Two forms::

        queue=64,headroom=2.5                       -> AdmissionControl
        carbon_waiting:threshold=400,release=2       -> CarbonWaitingAdmission

    The ``carbon_waiting`` form also accepts the shedding keys ``queue``
    and ``headroom``, applied to whatever is actually queued.
    """
    text = text.strip()
    if text == "carbon_waiting" or text.startswith("carbon_waiting:"):
        params_text = text.partition(":")[2]
        kwargs: dict = {}
        for pair in params_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(
                    f"cannot parse admission parameter {pair!r}; expected k=v"
                )
            if key == "threshold":
                kwargs["carbon_threshold"] = number(value, "carbon_threshold")
            elif key == "release":
                kwargs["release_headroom"] = number(value, "release_headroom")
            elif key == "queue":
                kwargs["max_queue_depth"] = _queue_depth(value)
            elif key == "headroom":
                kwargs["deadline_headroom"] = number(value, "deadline_headroom")
            else:
                raise ValueError(
                    f"unknown carbon_waiting parameter {key!r}; "
                    f"expected threshold/release/queue/headroom"
                )
        return CarbonWaitingAdmission(**kwargs)
    max_queue_depth: Optional[int] = None
    deadline_headroom: Optional[float] = None
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"cannot parse admission parameter {pair!r}; expected k=v")
        if key == "queue":
            max_queue_depth = _queue_depth(value)
        elif key == "headroom":
            deadline_headroom = number(value, "deadline_headroom")
        else:
            raise ValueError(
                f"unknown admission parameter {key!r}; expected queue/headroom"
            )
    return AdmissionControl(
        max_queue_depth=max_queue_depth, deadline_headroom=deadline_headroom
    )


def _queue_depth(text: str) -> int:
    """The ``queue=`` slot of an admission spec."""
    return integral(number(text, "max_queue_depth"), "max_queue_depth")
