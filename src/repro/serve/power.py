"""Per-replica power models for the serving cluster.

A :class:`PowerModel` assigns a constant electrical draw (watts) to each
state a replica passes through in the PR-8 lifecycle: ``provisioning_w``
while a replica warms up, ``idle_w`` while it is active (or draining) with
no batch on it, and ``busy_w`` while a batch is in flight.  A degraded
replica draws ``busy_w × degraded_factor`` while busy (slower silicon
rarely gets cheaper).  Dead replicas draw nothing.

Because replicas only change state at event instants, cluster power is
piecewise constant between events and the energy integral
``energy_j = ∫ power dt`` is an exact segment sum — the same house pattern
as ``replica_seconds``, and pinned bit-identical by the naive integrator in
:mod:`repro.serve.reference`.

Models come from three places:

* explicitly, ``PowerModel(idle_w=.., busy_w=.., provisioning_w=..)``;
* the textual form ``busy=2.0`` / ``idle=0.5,busy=2.0,provision=1.0,degraded=1.2``
  (``repro serve --power``), unset knobs defaulting off ``busy_w``;
* derived from measurements: :meth:`PowerModel.from_energy` divides the
  premeasured per-request energy (``Backend.measure`` joules) by the
  premeasured service seconds, so the busy draw matches the energy
  accounting the report already does per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..checks import finite_nonnegative, finite_positive

__all__ = ["PowerModel", "parse_power_model"]

#: Fractions of the busy draw used when idle/provisioning watts are not
#: given explicitly (textual form and measurement-derived models).
IDLE_FRACTION = 0.3
PROVISIONING_FRACTION = 0.5


@dataclass(frozen=True)
class PowerModel:
    """Constant per-state replica power draw, in watts."""

    idle_w: float
    busy_w: float
    provisioning_w: float
    degraded_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("idle_w", "busy_w", "provisioning_w"):
            finite_nonnegative(getattr(self, name), name)
        finite_positive(self.degraded_factor, "degraded_factor")

    @classmethod
    def from_busy(cls, busy_w: float, degraded_factor: float = 1.0) -> "PowerModel":
        """Idle/provisioning watts as fixed fractions of the busy draw."""
        return cls(
            idle_w=IDLE_FRACTION * busy_w,
            busy_w=busy_w,
            provisioning_w=PROVISIONING_FRACTION * busy_w,
            degraded_factor=degraded_factor,
        )

    @classmethod
    def from_energy(cls, energy_j: float, busy_s: float) -> "PowerModel":
        """Derive the busy draw from measured energy over measured service time.

        ``energy_j / busy_s`` is the average power the backend's energy
        accounting already implies per in-flight request; idle and
        provisioning draws fall out as the standard fractions.
        """
        if busy_s <= 0:
            raise ValueError("from_energy needs busy_s > 0")
        if energy_j < 0:
            raise ValueError("from_energy needs energy_j >= 0")
        return cls.from_busy(energy_j / busy_s)

    @classmethod
    def parse(cls, text: str) -> "PowerModel":
        """Parse ``k=v,...`` with keys idle/busy/provision/degraded (busy required)."""
        text = text.strip()
        if not text:
            raise ValueError("empty power model")
        params = {}
        known = {"idle", "busy", "provision", "degraded"}
        for pair in text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq or key not in known:
                raise ValueError(
                    f"cannot parse power parameter {pair!r}; "
                    f"expected one of {sorted(known)} as k=v"
                )
            params[key] = float(value)
        if "busy" not in params:
            raise ValueError("power model needs busy=... watts")
        busy = params["busy"]
        return cls(
            idle_w=params.get("idle", IDLE_FRACTION * busy),
            busy_w=busy,
            provisioning_w=params.get("provision", PROVISIONING_FRACTION * busy),
            degraded_factor=params.get("degraded", 1.0),
        )

    def busy_watts(self, factor: float) -> float:
        """Draw of a busy replica with slowdown ``factor`` (1.0 = healthy)."""
        if factor != 1.0:
            return self.busy_w * self.degraded_factor
        return self.busy_w

    def describe(self) -> str:
        degraded = (
            f", degraded=x{self.degraded_factor:g}"
            if self.degraded_factor != 1.0
            else ""
        )
        return (
            f"PowerModel(idle={self.idle_w:g}W, busy={self.busy_w:g}W, "
            f"provision={self.provisioning_w:g}W{degraded})"
        )


def parse_power_model(text: str) -> PowerModel:
    """Module-level alias for :meth:`PowerModel.parse` (CLI entry point)."""
    return PowerModel.parse(text)
