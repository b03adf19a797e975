"""Deterministic fault schedules for the dynamic serving cluster.

A :class:`FaultSchedule` is a fixed list of :class:`FaultEvent` control
events — replica crashes, recoveries, slowdowns and restorations at known
simulation times — that :meth:`Cluster.serve` interleaves with arrivals and
completions on the event heap.  Schedules are plain data: building one
never touches a random generator unless you ask for the seeded
:meth:`FaultSchedule.crashes` form, and the same schedule replayed against
the same cluster and trace produces a bit-identical
:class:`~repro.serve.ServingReport` (the dynamic-path oracle in
:mod:`repro.serve.reference` pins this).

Semantics of each action against the replica lifecycle:

* ``fail``     — an ``active`` (or still-``provisioning``) replica dies.
  The batch already on the replica completes (records are emitted at
  dispatch time, and the streaming sketches cannot retract an observation),
  but queued requests pinned to it are re-routed through the dispatch
  policy and the replica takes no further work until recovered.  Failing a
  draining or dead replica is a no-op.
* ``recover``  — a ``dead`` replica rejoins the pool, healthy (any
  slowdown factor is cleared).  Recovering a live replica is a no-op.
* ``degrade``  — an ``active`` replica's service times are multiplied by
  ``factor`` (> 1 is slower) for subsequent dispatches.
* ``restore``  — clears a ``degrade`` (factor back to 1).

Two textual forms, both accepted by :meth:`FaultSchedule.parse` (and the
``repro serve --fault`` / ``repro plan --faults`` flags):

* an explicit event list, ``;``-separated::

      fail@0.010:r0;recover@0.020:r0;degrade@0.005:r1x2.5;restore@0.015:r1

  (``ACTION@TIME:rREPLICA`` with an optional ``xFACTOR`` for ``degrade``;
  ``crash`` is an alias for ``fail``);
* a seeded crash/recover process, ``random:mtbf=0.02,mttr=0.005,seed=1``
  (optionally ``horizon=...``), which draws per-replica exponential
  time-between-failure / time-to-repair sequences from
  ``np.random.default_rng([seed, replica])`` — deterministic for a given
  (seed, replica count, horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..checks import finite_nonnegative, finite_positive

__all__ = ["FaultEvent", "FaultSchedule", "parse_fault_schedule", "FAULT_ACTIONS"]

#: Recognised fault actions (``crash`` parses as an alias for ``fail``).
FAULT_ACTIONS = ("fail", "recover", "degrade", "restore")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled control event against one replica."""

    time_s: float
    action: str
    replica: int
    factor: float = 1.0

    def __post_init__(self) -> None:
        finite_nonnegative(self.time_s, "fault time")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.replica < 0:
            raise ValueError(f"fault replica must be >= 0, got {self.replica}")
        finite_positive(self.factor, "slowdown factor")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, validated sequence of fault events."""

    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ValueError(f"expected FaultEvent, got {type(event).__name__}")

    def validate_replicas(self, num_replicas: int) -> None:
        """Reject events naming replicas the initial pool does not have.

        Only meaningful for explicit schedules swept against a known pool
        size; events against autoscaler-added replicas are impossible to
        name statically, so the event loop itself treats an out-of-range
        replica as a no-op rather than an error.
        """
        for event in self.events:
            if event.replica >= num_replicas:
                raise ValueError(
                    f"fault event {event.action}@{event.time_s}:r{event.replica} "
                    f"names a replica outside the initial pool of {num_replicas}"
                )

    def describe(self) -> str:
        """Canonical textual form (round-trips through :meth:`parse`)."""
        parts = []
        for event in self.events:
            text = f"{event.action}@{event.time_s:g}:r{event.replica}"
            if event.action == "degrade":
                text += f"x{event.factor:g}"
            parts.append(text)
        return ";".join(parts)

    @classmethod
    def crashes(
        cls,
        num_replicas: int,
        horizon_s: float,
        mtbf_s: float,
        mttr_s: float,
        seed: int = 0,
    ) -> "FaultSchedule":
        """A seeded per-replica crash/recover process over ``horizon_s``.

        Each replica draws alternating exponential time-between-failure and
        time-to-repair intervals from its own ``default_rng([seed, r])``
        stream.  Crashes beyond the horizon are discarded; the matching
        recovery of an in-horizon crash is always kept (replicas never stay
        dead forever just because the horizon cut the schedule short).
        """
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        finite_positive(horizon_s, "horizon_s of a random fault schedule")
        finite_positive(mtbf_s, "mtbf_s")
        finite_positive(mttr_s, "mttr_s")
        events = []
        for replica in range(num_replicas):
            rng = np.random.default_rng([int(seed), replica])
            t = float(rng.exponential(mtbf_s))
            while t < horizon_s:
                events.append(FaultEvent(time_s=t, action="fail", replica=replica))
                t += float(rng.exponential(mttr_s))
                events.append(FaultEvent(time_s=t, action="recover", replica=replica))
                t += float(rng.exponential(mtbf_s))
        events.sort(key=lambda e: (e.time_s, e.replica))
        return cls(events=tuple(events))

    @classmethod
    def parse(
        cls,
        text: str,
        num_replicas: Optional[int] = None,
        horizon_s: Optional[float] = None,
    ) -> "FaultSchedule":
        """Parse the textual schedule forms (see the module docstring).

        ``num_replicas``/``horizon_s`` supply the context the ``random:``
        form needs (and, when ``num_replicas`` is given, explicit events are
        validated against the pool size).
        """
        text = text.strip()
        if not text:
            raise ValueError("empty fault schedule")
        if text.startswith("random:") or text == "random":
            params = _parse_kv(text.partition(":")[2], "fault schedule")
            known = {"mtbf", "mttr", "seed", "horizon"}
            unknown = set(params) - known
            if unknown:
                raise ValueError(
                    f"unknown random fault parameter(s) {sorted(unknown)}; "
                    f"expected {sorted(known)}"
                )
            if "mtbf" not in params or "mttr" not in params:
                raise ValueError("random fault schedule needs mtbf=... and mttr=...")
            horizon = params.get("horizon", horizon_s)
            if horizon is None:
                raise ValueError(
                    "random fault schedule needs horizon=... (or a serve duration)"
                )
            if num_replicas is None:
                raise ValueError("random fault schedule needs the replica count")
            return cls.crashes(
                num_replicas=num_replicas,
                horizon_s=float(horizon),
                mtbf_s=float(params["mtbf"]),
                mttr_s=float(params["mttr"]),
                seed=int(params.get("seed", 0)),
            )
        events = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            events.append(_parse_event(part))
        schedule = cls(events=tuple(events))
        if num_replicas is not None:
            schedule.validate_replicas(num_replicas)
        return schedule


def _parse_event(part: str) -> FaultEvent:
    """One ``ACTION@TIME:rREPLICA[xFACTOR]`` clause."""
    action, at, rest = part.partition("@")
    action = action.strip().lower()
    if action == "crash":
        action = "fail"
    if not at or not rest:
        raise ValueError(
            f"cannot parse fault event {part!r}; expected ACTION@TIME:rREPLICA"
        )
    time_text, colon, replica_text = rest.partition(":")
    if not colon:
        raise ValueError(
            f"cannot parse fault event {part!r}; expected ACTION@TIME:rREPLICA"
        )
    replica_text = replica_text.strip()
    factor = 1.0
    if "x" in replica_text:
        replica_text, _, factor_text = replica_text.partition("x")
        factor = float(factor_text)
    if not replica_text.startswith("r"):
        raise ValueError(
            f"cannot parse fault event {part!r}; replica must be written rN"
        )
    return FaultEvent(
        time_s=float(time_text),
        action=action,
        replica=int(replica_text[1:]),
        factor=factor,
    )


def _parse_kv(text: str, what: str) -> dict:
    """``k=v,k=v`` pairs as a str->float dict (shared mini-grammar)."""
    params = {}
    for pair in text.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        if not eq:
            raise ValueError(f"cannot parse {what} parameter {pair!r}; expected k=v")
        params[key.strip()] = float(value)
    return params


def parse_fault_schedule(
    text: str,
    num_replicas: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> FaultSchedule:
    """Module-level alias for :meth:`FaultSchedule.parse` (CLI entry point)."""
    return FaultSchedule.parse(text, num_replicas=num_replicas, horizon_s=horizon_s)
