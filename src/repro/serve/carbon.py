"""Piecewise-constant carbon-intensity traces for the serving cluster.

A :class:`CarbonIntensity` maps simulation time to grid carbon intensity in
grams of CO2 per kWh.  The trace is piecewise constant — segment ``i`` holds
``intensities[i]`` from ``times_s[i]`` until ``times_s[i + 1]`` (the last
segment holds forever, or the whole trace repeats every ``period_s`` seconds
when a period is given).  Traces are plain frozen data, mirroring
:class:`~repro.serve.arrivals.TraceArrivals`: building one never touches a
random generator, and the same trace replayed against the same cluster
produces a bit-identical :class:`~repro.serve.ServingReport`.  The
integral visits only the segments an interval overlaps, and returns a
one-segment interval's single term directly; ``tests/test_serve_carbon.py::
test_overlap_only_integral_is_bit_identical_to_full_scan`` pins both against
a scan over every segment.

The cluster charges carbon as ``gco2 = ∫ power(t) × intensity(t) dt``; since
replica power is itself piecewise constant between event instants, the
integral reduces to exact segment sums — no quadrature, no tolerance.

Three textual forms, accepted by :meth:`CarbonIntensity.parse` (and the
``repro serve --carbon-trace`` / ``repro plan --carbon-traces`` flags):

* ``diurnal`` or ``diurnal:low=100,high=700,period=0.02,steps=24`` — a
  half-cosine day/night cycle sampled at segment midpoints (dirty at the
  start of each period, cleanest half-way through);
* ``constant:420`` — a flat intensity;
* ``trace:PATH`` — CSV replay with ``time_s`` and ``intensity`` columns,
  mirroring the arrival-trace CSV idiom.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..checks import finite, finite_nonnegative, finite_positive

__all__ = ["CarbonIntensity", "parse_carbon_trace", "J_PER_KWH"]

#: Joules per kilowatt-hour — converts ``∫ intensity dt`` (g·s/kWh) into
#: grams per joule of energy drawn.
J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class CarbonIntensity:
    """An immutable piecewise-constant carbon-intensity trace (gCO2/kWh)."""

    times_s: Tuple[float, ...]
    intensities: Tuple[float, ...]
    period_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times_s", tuple(float(t) for t in self.times_s))
        object.__setattr__(
            self, "intensities", tuple(float(v) for v in self.intensities)
        )
        if not self.times_s:
            raise ValueError("carbon trace needs at least one segment")
        if len(self.times_s) != len(self.intensities):
            raise ValueError(
                f"carbon trace has {len(self.times_s)} times but "
                f"{len(self.intensities)} intensities"
            )
        for time_s in self.times_s:
            finite_nonnegative(time_s, "carbon trace time")
        if self.times_s[0] != 0.0:
            raise ValueError("carbon trace must start at time 0.0")
        for earlier, later in zip(self.times_s, self.times_s[1:]):
            if not later > earlier:
                raise ValueError("carbon trace times must be strictly ascending")
        for value in self.intensities:
            finite_nonnegative(value, "carbon intensity")
        if self.period_s is not None:
            finite_positive(self.period_s, "carbon trace period_s")
            if self.period_s <= self.times_s[-1]:
                raise ValueError(
                    f"period_s {self.period_s} must exceed the last segment start "
                    f"{self.times_s[-1]}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "CarbonIntensity":
        """A flat trace at ``value`` gCO2/kWh."""
        return cls(times_s=(0.0,), intensities=(float(value),))

    @classmethod
    def diurnal(
        cls,
        low: float = 100.0,
        high: float = 700.0,
        period_s: float = 0.02,
        steps: int = 24,
    ) -> "CarbonIntensity":
        """A repeating half-cosine day/night profile.

        Intensity starts at ``high`` (dirty grid at the period boundary),
        dips to ``low`` half-way through the period (solar noon) and climbs
        back — each of the ``steps`` equal segments holds the cosine value
        sampled at its midpoint.  The defaults are scaled to the simulator's
        millisecond-horizon scenarios; pass ``period_s=86400`` for wall-clock
        day traces.
        """
        if steps < 1:
            raise ValueError("diurnal trace needs steps >= 1")
        if period_s <= 0:
            raise ValueError("diurnal trace needs period_s > 0")
        if low < 0 or high < low:
            raise ValueError("diurnal trace needs 0 <= low <= high")
        times: List[float] = []
        values: List[float] = []
        for i in range(steps):
            times.append(period_s * i / steps)
            mid = (i + 0.5) / steps
            values.append(low + (high - low) * 0.5 * (1.0 + math.cos(2.0 * math.pi * mid)))
        return cls(times_s=tuple(times), intensities=tuple(values), period_s=period_s)

    @classmethod
    def from_csv(
        cls,
        path: str,
        time_column: str = "time_s",
        intensity_column: str = "intensity",
        period_s: Optional[float] = None,
    ) -> "CarbonIntensity":
        """Load a trace from a CSV with ``time_s`` and ``intensity`` columns."""
        times: List[float] = []
        values: List[float] = []
        try:
            handle = open(path, newline="")
        except OSError as error:
            raise ValueError(f"cannot read carbon CSV {path!r}: {error.strerror or error}") from None
        with handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or time_column not in reader.fieldnames:
                raise ValueError(f"carbon CSV {path!r} has no {time_column!r} column")
            if intensity_column not in reader.fieldnames:
                raise ValueError(
                    f"carbon CSV {path!r} has no {intensity_column!r} column"
                )
            for row in reader:
                times.append(float(row[time_column]))
                values.append(float(row[intensity_column]))
        if not times:
            raise ValueError(f"carbon CSV {path!r} has no rows")
        return cls(times_s=tuple(times), intensities=tuple(values), period_s=period_s)

    @classmethod
    def parse(cls, text: str) -> "CarbonIntensity":
        """Parse the textual trace forms (see the module docstring)."""
        text = text.strip()
        if not text:
            raise ValueError("empty carbon trace")
        name, _, rest = text.partition(":")
        name = name.strip().lower()
        if name == "diurnal":
            known = {"low": 100.0, "high": 700.0, "period": 0.02, "steps": 24.0}
            for pair in rest.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, eq, value = pair.partition("=")
                key = key.strip()
                if not eq or key not in known:
                    raise ValueError(
                        f"cannot parse diurnal parameter {pair!r}; "
                        f"expected one of {sorted(known)} as k=v"
                    )
                known[key] = float(value)
            return cls.diurnal(
                low=known["low"],
                high=known["high"],
                period_s=known["period"],
                steps=int(finite(known["steps"], "diurnal steps")),
            )
        if name == "constant":
            if not rest:
                raise ValueError("constant carbon trace needs a value, e.g. constant:420")
            return cls.constant(float(rest))
        if name == "trace":
            if not rest:
                raise ValueError("carbon trace replay needs a path, e.g. trace:grid.csv")
            return cls.from_csv(rest)
        raise ValueError(
            f"unknown carbon trace {text!r}; expected diurnal[:k=v,...], "
            f"constant:VALUE or trace:PATH"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _phase(self, t: float) -> float:
        """Fold ``t`` into the trace's fundamental period (identity when aperiodic)."""
        if self.period_s is None:
            return t
        return t % self.period_s

    def intensity_at(self, t: float) -> float:
        """Intensity (gCO2/kWh) in force at time ``t`` (t >= 0)."""
        phase = self._phase(t)
        index = bisect.bisect_right(self.times_s, phase) - 1
        if index < 0:
            index = 0
        return self.intensities[index]

    def integral(self, t0: float, t1: float) -> float:
        """``∫ intensity dt`` over ``[t0, t1]`` in g·s/kWh (exact segment sums)."""
        if t1 <= t0:
            return 0.0
        period = self.period_s
        if period is None:
            a, b = t0, t1
        else:
            n0 = math.floor(t0 / period)
            n1 = math.floor(t1 / period)
            if n0 != n1:
                total = self._integral_aperiodic(t0 - n0 * period, period)
                if n1 - n0 > 1:
                    # Skipped when no whole period lies between: it would add +0.0.
                    total += self._integral_aperiodic(0.0, period) * (n1 - n0 - 1)
                total += self._integral_aperiodic(0.0, t1 - n1 * period)
                return total
            a, b = t0 - n0 * period, t1 - n0 * period
        # Most intervals lie inside one segment, whose term is the only one
        # the scan would add (NaN fails both bounds and takes the scan).
        times = self.times_s
        i = bisect.bisect_right(times, a) - 1
        if i >= 0 and times[i] <= a and b <= (times[i + 1] if i + 1 < len(times) else math.inf):
            return 0.0 + self.intensities[i] * (b - a)
        return self._integral_aperiodic(a, b)

    def _integral_aperiodic(self, t0: float, t1: float) -> float:
        """Segment-sum integral treating the trace as non-repeating.

        Only the segments overlapping ``[t0, t1]`` are visited: the scan
        starts at the segment holding ``t0`` and stops at the first one
        starting at or after ``t1``.  Every segment outside that range has
        an empty overlap and would add nothing, so the sum is the same as a
        scan over all of them, bit for bit.
        """
        if t1 <= t0:
            return 0.0
        total = 0.0
        times = self.times_s
        values = self.intensities
        last = len(times) - 1
        first = bisect.bisect_right(times, t0) - 1
        for i in range(first if first > 0 else 0, last + 1):
            start = times[i]
            if start >= t1:
                break
            end = times[i + 1] if i < last else math.inf
            lo = t0 if t0 > start else start
            hi = t1 if t1 < end else end
            if hi > lo:
                total += values[i] * (hi - lo)
        return total

    def integral_g_per_j(self, t0: float, t1: float) -> float:
        """``∫ intensity dt`` converted to grams of CO2 per watt of draw.

        Multiplying by a constant power (W = J/s) over ``[t0, t1]`` yields
        grams: ``g = P × ∫ intensity dt / J_PER_KWH``.
        """
        return self.integral(t0, t1) / J_PER_KWH

    def next_below_s(self, threshold: float, after: float) -> float:
        """Earliest time >= ``after`` with intensity <= ``threshold`` (inf if never).

        The returned time satisfies ``intensity_at(returned) <= threshold``
        *as evaluated* — reconstructing a segment boundary through ``after +
        (start - phase)`` can land an ulp short of where ``t % period`` puts
        the boundary, so the candidate is nudged up by ulps until the lookup
        agrees.  Callers schedule wake-ups at this time and re-check the
        intensity then; without the nudge a wake-up could observe the dirty
        segment it was meant to escape.
        """
        phase = self._phase(after)
        times = self.times_s
        values = self.intensities
        index = bisect.bisect_right(times, phase) - 1
        if index < 0:
            index = 0
        if values[index] <= threshold:
            return after
        count = len(values)
        candidate: Optional[float] = None
        if self.period_s is None:
            for i in range(index + 1, count):
                if values[i] <= threshold:
                    candidate = after + (times[i] - phase)
                    break
        else:
            for step in range(1, count + 1):
                i = (index + step) % count
                start = times[i] if i > index else times[i] + self.period_s
                if values[i] <= threshold:
                    candidate = after + (start - phase)
                    break
        if candidate is None:
            return math.inf
        while self.intensity_at(candidate) > threshold:
            candidate = math.nextafter(candidate, math.inf)
        return candidate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def min_intensity(self) -> float:
        return min(self.intensities)

    @property
    def max_intensity(self) -> float:
        return max(self.intensities)

    def describe(self) -> str:
        period = f", period={self.period_s:g}s" if self.period_s is not None else ""
        return (
            f"CarbonIntensity({len(self.intensities)} segments, "
            f"{self.min_intensity:g}-{self.max_intensity:g} gCO2/kWh{period})"
        )


def parse_carbon_trace(text: str) -> CarbonIntensity:
    """Module-level alias for :meth:`CarbonIntensity.parse` (CLI entry point)."""
    return CarbonIntensity.parse(text)
