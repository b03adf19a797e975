"""Arrival processes and the seeded multi-tenant load generator.

The serving simulator consumes a time-ordered list of
:class:`ServingRequest` events.  ``LoadGenerator`` produces that list from
per-tenant :class:`Workload` specs and pluggable :class:`ArrivalProcess`
implementations:

* :class:`ConstantArrivals` — fixed inter-arrival time (the
  :class:`~repro.graph.GraphStream` model; interval 0 is a burst);
* :class:`PoissonArrivals` — exponential inter-arrival times;
* :class:`OnOffArrivals` — bursty MMPP-style traffic: exponentially
  distributed ON/OFF phases with a high in-burst rate and a (default zero)
  background rate;
* :class:`DiurnalArrivals` — rate-modulated (non-homogeneous) Poisson
  traffic following a day/night cosine: overnight lull at ``low`` times the
  mean, midday peak at ``high`` times, one cycle per ``period_s`` — the
  arrival-side twin of the carbon grid's diurnal intensity trace;
* :class:`TraceArrivals` — replay of recorded timestamps, loadable from CSV.

Everything is seeded: a ``LoadGenerator`` derives one independent
``numpy`` generator per tenant from ``(seed, tenant index)``, so the same
seed always yields the bit-identical request sequence regardless of how
many tenants share the cluster.

There is one path from rng to request.  Each process implements only
``iter_times``, which yields sorted timestamp chunks of at most
:data:`STREAM_CHUNK` values; ``times()`` is their concatenation.
:meth:`LoadGenerator.iter_request_blocks` merges the per-tenant streams on
the ``(arrival, tenant index, index)`` key into numpy blocks;
:meth:`LoadGenerator.iter_requests` turns the blocks into
:class:`ServingRequest` tuples lazily, and :meth:`LoadGenerator.generate`
is the list of them, each a tuple row that C code builds from the block's
columns.  Memory is O(tenants x chunk), not O(requests), until a caller
materialises the list.
"""

from __future__ import annotations

import csv
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from itertools import chain, repeat
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..arch.pipeline import dataclass_fields
from ..checks import number
from .workload import Workload

#: Largest timestamp chunk a per-tenant stream yields, and the rows per step
#: of :meth:`RequestBlock.requests`.  Any value yields bit-identical
#: sequences: draws are split across ``Generator`` calls, which reproduce the
#: same variates, and cumsums carry the running total, which replays the same
#: float additions.  It only tunes memory and speed.
STREAM_CHUNK = 8192

#: Candidates per :class:`DiurnalArrivals` draw.  Each draw takes this many
#: gaps and then this many acceptance uniforms from one rng, so the size is
#: part of the sampling definition, not a tuning knob like STREAM_CHUNK.
_DIURNAL_DRAW = 8192

__all__ = [
    "ServingRequest",
    "REQUEST_ORDER",
    "RequestBlock",
    "ArrivalProcess",
    "ConstantArrivals",
    "DiurnalArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "TraceArrivals",
    "LoadGenerator",
    "STREAM_CHUNK",
]


@dataclass_fields
class ServingRequest(NamedTuple):
    """One request in flight: a tenant asking for one graph at one instant.

    A tuple that reads as the frozen dataclass it was, except that it equals
    a plain tuple of its fields, iterates and orders, and ``index`` shadows
    ``tuple.index``.
    """

    tenant: str
    tenant_index: int
    index: int                      # per-tenant sequence number
    arrival_s: float
    graph_index: int                # into the tenant's graph pool
    deadline_s: Optional[float]     # relative to arrival; None = best effort
    priority: int = 0

    @property
    def absolute_deadline_s(self) -> float:
        """Wall-clock deadline; +inf for best-effort requests."""
        if self.deadline_s is None:
            return math.inf
        return self.arrival_s + self.deadline_s


#: The ``(arrival_s, tenant_index, index)`` key every serving path orders requests by.
REQUEST_ORDER = operator.attrgetter("arrival_s", "tenant_index", "index")


@dataclass(frozen=True)
class RequestBlock:
    """A struct-of-arrays slice of the merged request stream.

    Yielded by :meth:`LoadGenerator.iter_request_blocks`: entries are sorted
    by ``(arrival_s, tenant_index, index)`` within the block, and every entry
    of block ``k`` sorts before every entry of block ``k + 1``.

    A block holds one or more whole merge windows, in order.  ``windows[w]``
    is the row where window ``w`` starts (``windows[0] == 0``); every arrival
    of a window is strictly earlier than every arrival of the next.  The
    windows depend only on the streams and :data:`STREAM_CHUNK`, not on how
    they are grouped into blocks, so a consumer whose floats must not depend
    on the grouping sums per window.
    """

    arrival_s: np.ndarray    # float64, sorted
    tenant_index: np.ndarray  # int64, into LoadGenerator.workloads
    index: np.ndarray        # int64, per-tenant sequence numbers
    graph_index: np.ndarray  # int64, into each tenant's graph pool
    windows: np.ndarray      # int64, the row where each merge window starts

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    def requests(self, workloads: Sequence[Workload]) -> Iterator[ServingRequest]:
        """The block as :class:`ServingRequest` tuples, in order.

        Rows are converted :data:`STREAM_CHUNK` at a time, so a block spanning
        many tenants never exists as one list of objects, and each chunk is
        one ``map`` of ``tuple.__new__`` over zipped columns.
        """
        names = [w.tenant for w in workloads]
        deadlines = [w.deadline_s for w in workloads]
        priorities = [w.priority for w in workloads]

        def chunk(lo: int) -> Iterator[ServingRequest]:
            hi = lo + STREAM_CHUNK
            tenants = self.tenant_index[lo:hi].tolist()
            rows = zip(
                map(names.__getitem__, tenants),
                tenants,
                self.index[lo:hi].tolist(),
                self.arrival_s[lo:hi].tolist(),
                self.graph_index[lo:hi].tolist(),
                map(deadlines.__getitem__, tenants),
                map(priorities.__getitem__, tenants),
            )
            return map(tuple.__new__, repeat(ServingRequest), rows)

        return chain.from_iterable(map(chunk, range(0, len(self), STREAM_CHUNK)))


def _sorted_block(
    parts: List[Tuple[np.ndarray, int, int]],
    windows: List[int],
    pools: np.ndarray,
) -> RequestBlock:
    """The block of merge-window parts, sorted on ``(arrival, tenant, index)``.

    A part ``(arrivals, tenant, first)`` holds consecutive arrivals of one
    tenant from its index ``first`` on, and the parts come window by
    window, tenant by tenant, so a stable argsort of arrival alone is that
    order.
    """
    arrivals, tenants, firsts = zip(*parts)
    sizes = np.array([part.size for part in arrivals], dtype=np.int64)
    arrival = np.concatenate(arrivals)
    tenant = np.repeat(np.array(tenants, dtype=np.int64), sizes)
    # Row j of part k is index firsts[k] + (j - the part's first row).
    shift = np.cumsum(sizes) - sizes - np.array(firsts, dtype=np.int64)
    index = np.arange(arrival.size, dtype=np.int64) - np.repeat(shift, sizes)
    order = np.argsort(arrival, kind="stable")
    arrival, tenant, index = arrival[order], tenant[order], index[order]
    del order
    return RequestBlock(
        arrival_s=arrival,
        tenant_index=tenant,
        index=index,
        graph_index=index % pools[tenant],
        windows=np.array(windows, dtype=np.int64),
    )


def _check_sizing(num_requests: Optional[int], duration_s: Optional[float]) -> None:
    if num_requests is None and duration_s is None:
        raise ValueError("pass num_requests and/or duration_s")
    if num_requests is not None:
        try:
            operator.index(num_requests)  # numpy integers pass; NaN, inf and 2.5 do not
        except TypeError:
            raise ValueError(f"num_requests must be an integer, got {num_requests!r}") from None
        if num_requests < 0:
            raise ValueError("num_requests must be >= 0")
    if duration_s is not None and duration_s < 0:
        raise ValueError("duration_s must be >= 0")
    if duration_s is not None and not math.isfinite(duration_s):
        raise ValueError(f"duration_s must be finite, got {duration_s}")


def _finite_count(count: float, rate_rps: float, duration_s: float) -> float:
    """A horizon-sized request count, rejected when it overflows to inf."""
    if not math.isfinite(count):
        raise ValueError(
            f"rate {rate_rps:g} req/s over duration {duration_s:g} s is too "
            f"many requests to count"
        )
    return count


def _check_finite(process: "ArrivalProcess") -> None:
    """Reject NaN and infinite float parameters of a built-in process."""
    for field in fields(process):
        value = getattr(process, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


class ArrivalProcess(ABC):
    """Generates sorted, non-negative arrival timestamps.

    Deterministic given the ``rng``: the same generator state yields the
    same timestamps.  Stochastic processes require an ``rng``; deterministic
    ones (constant, trace) ignore it.  A process implements
    :meth:`iter_times`; :meth:`times` is derived from it.
    """

    name: str = "abstract"

    @abstractmethod
    def iter_times(
        self,
        num_requests: Optional[int] = None,
        duration_s: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Iterator[np.ndarray]:
        """Yield the first ``num_requests`` arrivals and/or those within
        ``duration_s``, as sorted, non-empty float64 chunks.

        The built-ins yield at most :data:`STREAM_CHUNK` values per chunk,
        and the values they yield do not depend on that size.
        """

    def times(
        self,
        num_requests: Optional[int] = None,
        duration_s: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """All of :meth:`iter_times` as one array."""
        chunks = list(
            self.iter_times(num_requests=num_requests, duration_s=duration_s, rng=rng)
        )
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class ConstantArrivals(ArrivalProcess):
    """Fixed-rate arrivals: request ``i`` at ``i * interval_s``.

    ``interval_s == 0`` is a burst (everything at t=0), matching
    :meth:`GraphStream.arrival_times` exactly — bit-for-bit, which the
    single-replica serving equivalence tests rely on.
    """

    interval_s: float

    name = "constant"

    def __post_init__(self) -> None:
        if self.interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        _check_finite(self)

    def iter_times(self, num_requests=None, duration_s=None, rng=None):
        _check_sizing(num_requests, duration_s)
        total = num_requests
        if total is None:
            if self.interval_s == 0:
                raise ValueError(
                    "a zero-interval burst is unbounded; pass num_requests"
                )
            spans = _finite_count(
                duration_s / self.interval_s, 1.0 / self.interval_s, duration_s
            )
            total = int(math.ceil(spans)) + 1
        interval = float(self.interval_s)
        for lo in range(0, total, STREAM_CHUNK):
            hi = min(lo + STREAM_CHUNK, total)
            # Element i is always the int64 i times the float interval, so
            # chunking is invisible.
            chunk = np.arange(lo, hi) * interval
            if duration_s is not None:
                chunk = chunk[chunk < duration_s]
            if chunk.size:
                yield chunk
            if chunk.size < hi - lo:
                return  # horizon crossed; everything later is even larger


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson process: independent exponential inter-arrival times."""

    rate_rps: float

    name = "poisson"

    def __post_init__(self) -> None:
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        _check_finite(self)

    def iter_times(self, num_requests=None, duration_s=None, rng=None):
        _check_sizing(num_requests, duration_s)
        if rng is None:
            raise ValueError("PoissonArrivals needs an rng (it is stochastic)")
        mean_gap = 1.0 / self.rate_rps
        # The sampling definition: sized by count, one draw of that many
        # gaps; sized by a horizon alone, draws of 1.5x the expected count,
        # each draw's cumsum offset by the previous draw's last arrival, until
        # an arrival reaches the horizon.  Each draw is consumed STREAM_CHUNK
        # gaps at a time: split Generator calls reproduce the same variates,
        # and carrying the running total replays the same float additions.
        if num_requests is not None:
            draw = num_requests
        else:
            expected = _finite_count(
                1.5 * self.rate_rps * duration_s, self.rate_rps, duration_s
            )
            draw = max(16, int(expected) + 1)
        offset: Optional[float] = None
        while True:
            carry: Optional[float] = None
            for lo in range(0, draw, STREAM_CHUNK):
                gaps = rng.exponential(mean_gap, size=min(STREAM_CHUNK, draw - lo))
                if carry is None:
                    chunk = np.cumsum(gaps)
                else:
                    chunk = np.cumsum(np.concatenate(([carry], gaps)))[1:]
                carry = float(chunk[-1])
                if offset is not None:
                    chunk = chunk + offset
                if duration_s is None:
                    yield chunk
                    continue
                kept = chunk[chunk < duration_s]
                if kept.size:
                    yield kept
                if kept.size < chunk.size:
                    return  # horizon reached; every later arrival is larger
            if num_requests is not None:
                return
            offset = float(chunk[-1])


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Rate-modulated Poisson arrivals on a day/night cosine.

    The instantaneous rate follows one cosine cycle per ``period_s``:
    trough at ``t = 0`` (the overnight lull), peak at half period.  ``low``
    and ``high`` are rate multipliers relative to the process's **mean** —
    intensities are normalised so the long-run average rate is exactly
    ``rate_rps`` whatever the swing, which keeps capacity planning
    comparable across arrival shapes.

    Sampling is exact thinning of a homogeneous Poisson process at the peak
    rate: candidates are drawn at the peak rate and kept with probability
    ``intensity(t) / peak``.  Candidates come in draws of a fixed 8,192
    gaps followed by 8,192 acceptance uniforms; the kept arrivals are then
    yielded in chunks of at most :data:`STREAM_CHUNK`.
    """

    rate_rps: float
    low: float = 0.25
    high: float = 1.75
    period_s: float = 0.02

    name = "diurnal"

    def __post_init__(self) -> None:
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        if not self.period_s > 0:
            raise ValueError("period_s must be positive")
        if self.low < 0 or not self.high > 0 or self.low > self.high:
            raise ValueError("need 0 <= low <= high with high > 0")
        _check_finite(self)

    @property
    def mean_rate_rps(self) -> float:
        return self.rate_rps

    @staticmethod
    def parse_options(spec: str) -> Dict[str, float]:
        """Options of a ``diurnal[:low=L,high=H,period=P]`` arrival string.

        Mirrors the ``CarbonIntensity.parse`` grammar: comma-separated
        ``key=value`` pairs after the colon, unknown keys rejected.  Returns
        keyword arguments for :class:`DiurnalArrivals` /
        :meth:`LoadGenerator.diurnal` (``period`` maps to ``period_s``).
        """
        if spec == "diurnal":
            return {}
        if not spec.startswith("diurnal:"):
            raise ValueError(f"not a diurnal arrival spec: {spec!r}")
        keys = {"low": "low", "high": "high", "period": "period_s"}
        options: Dict[str, float] = {}
        for part in spec[len("diurnal:") :].split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"diurnal option {part!r} is not key=value")
            key = key.strip()
            if key not in keys:
                raise ValueError(
                    f"unknown diurnal option {key!r}; use low=, high=, period="
                )
            options[keys[key]] = number(value, f"diurnal {key}")
        return options

    def _intensity_multiplier(self, times: np.ndarray) -> np.ndarray:
        """The un-normalised rate multiplier ``low..high`` at each time."""
        phase = times * (2.0 * math.pi / self.period_s)
        return self.low + (self.high - self.low) * 0.5 * (1.0 - np.cos(phase))

    def iter_times(self, num_requests=None, duration_s=None, rng=None):
        _check_sizing(num_requests, duration_s)
        if rng is None:
            raise ValueError("DiurnalArrivals needs an rng (it is stochastic)")
        if num_requests is None:
            _finite_count(self.rate_rps * duration_s, self.rate_rps, duration_s)
        # Normalise so the time-averaged rate is rate_rps: the cosine's mean
        # multiplier is (low + high) / 2, so candidates run at
        # rate_rps * high / mean and survive with probability mult / high.
        mean_multiplier = 0.5 * (self.low + self.high)
        peak_gap = mean_multiplier / (self.rate_rps * self.high)
        horizon = math.inf if duration_s is None else float(duration_s)
        target = math.inf if num_requests is None else int(num_requests)
        emitted = 0
        carry: Optional[float] = None
        while emitted < target:
            gaps = rng.exponential(peak_gap, size=_DIURNAL_DRAW)
            if carry is None:
                candidates = np.cumsum(gaps)
            else:
                candidates = np.cumsum(np.concatenate(([carry], gaps)))[1:]
            carry = float(candidates[-1])
            # One uniform per candidate, drawn unconditionally, so rng
            # consumption is independent of the horizon/target cut below.
            accept = rng.random(size=_DIURNAL_DRAW)
            kept = candidates[
                accept * self.high < self._intensity_multiplier(candidates)
            ]
            if duration_s is not None:
                kept = kept[kept < duration_s]
            if num_requests is not None and emitted + kept.size > target:
                kept = kept[: int(target) - emitted]
            emitted += int(kept.size)
            for lo in range(0, kept.size, STREAM_CHUNK):
                yield kept[lo : lo + STREAM_CHUNK]
            if carry >= horizon:
                return  # horizon crossed; every later candidate is larger


@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty on-off (two-state MMPP) traffic.

    The source alternates between exponentially distributed ON phases (mean
    ``mean_on_s``, Poisson arrivals at ``on_rate_rps``) and OFF phases (mean
    ``mean_off_s``, Poisson arrivals at ``off_rate_rps``, default silent).
    The long-run average rate is
    ``(on_rate * mean_on + off_rate * mean_off) / (mean_on + mean_off)``.
    """

    on_rate_rps: float
    mean_on_s: float
    mean_off_s: float
    off_rate_rps: float = 0.0

    name = "bursty"

    def __post_init__(self) -> None:
        if not self.on_rate_rps > 0:
            raise ValueError("on_rate_rps must be positive")
        if self.off_rate_rps < 0:
            raise ValueError("off_rate_rps must be >= 0")
        if not self.mean_on_s > 0 or not self.mean_off_s > 0:
            raise ValueError("mean_on_s and mean_off_s must be positive")
        _check_finite(self)

    @property
    def mean_rate_rps(self) -> float:
        total = self.mean_on_s + self.mean_off_s
        return (self.on_rate_rps * self.mean_on_s + self.off_rate_rps * self.mean_off_s) / total

    def iter_times(self, num_requests=None, duration_s=None, rng=None):
        _check_sizing(num_requests, duration_s)
        if rng is None:
            raise ValueError("OnOffArrivals needs an rng (it is stochastic)")
        if num_requests is None:
            mean_rate = self.mean_rate_rps
            _finite_count(mean_rate * duration_s, mean_rate, duration_s)
        # A scalar loop: one variate per phase length, then one per gap;
        # buffered timestamps flush every STREAM_CHUNK.  numpy's exponential(s)
        # is s * standard_exponential(), so scaled block draws are the same
        # floats; only the rng's leftover state moves further on.
        variate = chain.from_iterable(iter(lambda: rng.standard_exponential(256).tolist(), None)).__next__
        horizon = math.inf if duration_s is None else duration_s
        target = math.inf if num_requests is None else num_requests
        buf: List[float] = []
        emitted = 0
        phase_start, on = 0.0, True
        while phase_start < horizon and emitted + len(buf) < target:
            length = (self.mean_on_s if on else self.mean_off_s) * variate()
            rate = self.on_rate_rps if on else self.off_rate_rps
            if rate > 0:
                gap = 1.0 / rate
                t = phase_start + gap * variate()
                while t < phase_start + length and t < horizon and emitted + len(buf) < target:
                    buf.append(t)
                    if len(buf) >= STREAM_CHUNK:
                        emitted += len(buf)
                        yield np.array(buf, dtype=np.float64)
                        buf = []
                    t += gap * variate()
            phase_start += length
            on = not on
        if buf:
            yield np.array(buf, dtype=np.float64)


def _read_trace_csv(
    path: str, time_column: str = "arrival_s", tenant_column: str = "tenant"
) -> Tuple[List[float], Optional[List[str]]]:
    """Timestamps (and tenant labels, when the column exists) of a trace CSV."""
    times: List[float] = []
    tenants: Optional[List[str]] = None
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or time_column not in reader.fieldnames:
            raise ValueError(f"trace CSV {path!r} has no {time_column!r} column")
        if tenant_column in reader.fieldnames:
            tenants = []
        for row in reader:
            at = f"trace CSV {path!r} line {reader.line_num} column {time_column!r}"
            times.append(number(row[time_column], at))
            if tenants is not None:
                tenants.append(row[tenant_column])
    return times, tenants


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay of recorded arrival timestamps (seconds, sorted)."""

    timestamps: Sequence[float]

    name = "trace"

    def __post_init__(self) -> None:
        times = np.asarray(list(self.timestamps), dtype=np.float64)
        if not np.all(np.isfinite(times)):
            raise ValueError("trace timestamps must be finite")
        if times.size and (np.any(times < 0) or np.any(np.diff(times) < 0)):
            raise ValueError("trace timestamps must be sorted and non-negative")
        object.__setattr__(self, "timestamps", tuple(float(t) for t in times))

    @staticmethod
    def from_csv(
        path: str,
        time_column: str = "arrival_s",
        tenant: Optional[str] = None,
        tenant_column: str = "tenant",
    ) -> "TraceArrivals":
        """Load a trace from a CSV file with an ``arrival_s`` column.

        When ``tenant`` is given and the file has a ``tenant`` column, only
        that tenant's rows are replayed — one trace file can drive a whole
        multi-tenant scenario.
        """
        times, tenants = _read_trace_csv(path, time_column, tenant_column)
        if tenant is not None and tenants is not None:
            times = [t for t, name in zip(times, tenants) if name == tenant]
        return TraceArrivals(timestamps=sorted(times))

    def iter_times(self, num_requests=None, duration_s=None, rng=None):
        # A recorded trace is already finite: with no sizing at all, replay
        # the whole thing (stochastic processes require a bound instead).
        if num_requests is not None or duration_s is not None:
            _check_sizing(num_requests, duration_s)
        emitted = 0
        for lo in range(0, len(self.timestamps), STREAM_CHUNK):
            chunk = np.array(self.timestamps[lo : lo + STREAM_CHUNK], dtype=np.float64)
            full = chunk.size
            if duration_s is not None:
                chunk = chunk[chunk < duration_s]
            done = chunk.size < full
            if num_requests is not None and emitted + chunk.size >= num_requests:
                chunk = chunk[: num_requests - emitted]
                done = True
            emitted += chunk.size
            if chunk.size:
                yield chunk
            if done:
                return


class LoadGenerator:
    """Seeded generator of the merged multi-tenant request sequence.

    Parameters
    ----------
    workloads:
        The tenants.  Tenant names must be unique.
    arrivals:
        Either one :class:`ArrivalProcess` shared by every tenant or a
        mapping ``tenant name -> process``.
    seed:
        Master seed.  Tenant ``i`` draws from
        ``numpy.random.default_rng([seed, i])``, so adding a tenant never
        perturbs the arrival times of the others.
    """

    def __init__(
        self,
        workloads: Sequence[Workload],
        arrivals: Union[ArrivalProcess, Mapping[str, ArrivalProcess]],
        seed: int = 0,
    ) -> None:
        self.workloads = list(workloads)
        if not self.workloads:
            raise ValueError("LoadGenerator needs at least one workload")
        names = [w.tenant for w in self.workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique; got {names}")
        if isinstance(arrivals, ArrivalProcess):
            self._arrivals: Dict[str, ArrivalProcess] = {n: arrivals for n in names}
        else:
            missing = [n for n in names if n not in arrivals]
            if missing:
                raise ValueError(f"no arrival process for tenants {missing}")
            self._arrivals = {n: arrivals[n] for n in names}
        self.seed = int(seed)

    def arrival_process(self, tenant: str) -> ArrivalProcess:
        return self._arrivals[tenant]

    def rng_for(self, tenant_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tenant_index])

    def generate(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> List[ServingRequest]:
        """The merged request sequence, sorted by arrival time: the list of
        :meth:`iter_requests`.

        ``num_requests`` is per tenant (each tenant submits at most that
        many); ``duration_s`` bounds the arrival horizon.  With neither,
        finite processes (trace replay) emit everything they recorded and
        stochastic ones raise.  Ties are broken by tenant order then
        per-tenant sequence, so generation is fully deterministic.
        """
        return list(self.iter_requests(duration_s=duration_s, num_requests=num_requests))

    def iter_requests(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> Iterator[ServingRequest]:
        """Lazily yield the :meth:`generate` sequence, in order.

        The requests of :meth:`iter_request_blocks`, built block by block, so
        memory stays O(tenants x chunk), and chained in C with no Python
        frame per request.
        """
        blocks = self.iter_request_blocks(duration_s=duration_s, num_requests=num_requests)
        return chain.from_iterable(block.requests(self.workloads) for block in blocks)

    def iter_request_blocks(
        self,
        duration_s: Optional[float] = None,
        num_requests: Optional[int] = None,
    ) -> Iterator[RequestBlock]:
        """The merged stream as numpy :class:`RequestBlock` slices.

        This is the one merge of the per-tenant ``iter_times`` streams.  It
        takes the streams a window at a time.  The window boundary is the
        smallest buffered-last timestamp over the non-exhausted tenants, each
        tenant is refilled until its buffer passes the boundary, and every
        buffered entry at or below it joins the window.  No later entry can
        sort into a window, and every entry of the next window arrives
        strictly later.

        Windows are gathered until they hold at least :data:`STREAM_CHUNK`
        rows, or the streams end, and then sorted as one block by a stable
        argsort of arrival.  The rows are gathered window by window, and
        within a window tenant by tenant in index order, so the stable sort
        breaks arrival ties as the ``(arrival, tenant, index)`` key does.
        The concatenated blocks are the union of the streams sorted on that
        key, and each block's ``windows`` records where its windows start.
        """
        num_tenants = len(self.workloads)
        pools = np.array([w.num_pool_graphs for w in self.workloads], dtype=np.int64)
        iters = [
            self._arrivals[w.tenant].iter_times(
                num_requests=num_requests,
                duration_s=duration_s,
                rng=self.rng_for(i),
            )
            for i, w in enumerate(self.workloads)
        ]
        bufs: List[np.ndarray] = [np.empty(0, dtype=np.float64) for _ in range(num_tenants)]
        first = [0] * num_tenants  # per-tenant index of bufs[i][0]
        exhausted = [False] * num_tenants

        def refill(i: int) -> None:
            try:
                chunk = next(iters[i])
            except StopIteration:
                exhausted[i] = True
                return
            bufs[i] = chunk if not bufs[i].size else np.concatenate([bufs[i], chunk])

        # The pending block: one (arrivals, tenant, first index) part per
        # (window, tenant), and the row where each window starts.
        parts: List[Tuple[np.ndarray, int, int]] = []
        windows: List[int] = []
        rows = 0
        while True:
            for i in range(num_tenants):
                while not exhausted[i] and not bufs[i].size:
                    refill(i)
            if not any(b.size for b in bufs):
                break
            active = [i for i in range(num_tenants) if not exhausted[i]]
            if active:
                boundary = min(float(bufs[i][-1]) for i in active)
                for i in active:
                    while not exhausted[i] and bufs[i][-1] <= boundary:
                        refill(i)
            else:
                boundary = math.inf
            windows.append(rows)
            for i in range(num_tenants):
                b = bufs[i]
                if not b.size or b[0] > boundary:
                    continue
                cut = int(b.searchsorted(boundary, side="right"))
                parts.append((b[:cut], i, first[i]))
                bufs[i] = b[cut:]
                first[i] += cut
                rows += cut
            if rows >= STREAM_CHUNK:
                block = _sorted_block(parts, windows, pools)
                # Hold nothing but the block's own arrays across the yield.
                parts, windows, rows = [], [], 0
                yield block
        if rows:
            yield _sorted_block(parts, windows, pools)

    # -- conveniences: split a cluster-wide rate by tenant share --------------
    @staticmethod
    def _share_rates(workloads: Sequence[Workload], total_rate_rps: float) -> Dict[str, float]:
        if not 0 < total_rate_rps < math.inf:
            raise ValueError("total_rate_rps must be positive and finite")
        total_share = sum(w.share for w in workloads)
        return {w.tenant: total_rate_rps * w.share / total_share for w in workloads}

    @classmethod
    def poisson(
        cls, workloads: Sequence[Workload], total_rate_rps: float, seed: int = 0
    ) -> "LoadGenerator":
        """Poisson tenants whose rates split ``total_rate_rps`` by share."""
        rates = cls._share_rates(workloads, total_rate_rps)
        return cls(
            workloads,
            {name: PoissonArrivals(rate) for name, rate in rates.items()},
            seed=seed,
        )

    @classmethod
    def bursty(
        cls,
        workloads: Sequence[Workload],
        total_rate_rps: float,
        seed: int = 0,
        duty_cycle: float = 0.25,
        mean_on_s: Optional[float] = None,
    ) -> "LoadGenerator":
        """On-off tenants averaging ``total_rate_rps`` split by share.

        Each tenant is ON a ``duty_cycle`` fraction of the time; during a
        burst it fires at ``share_rate / duty_cycle`` so the long-run mean
        matches the share.  ``mean_on_s`` defaults to the time a burst takes
        to deliver ~8 requests.
        """
        if not 0 < duty_cycle < 1:
            raise ValueError("duty_cycle must be in (0, 1)")
        rates = cls._share_rates(workloads, total_rate_rps)
        processes = {}
        for name, rate in rates.items():
            on_rate = rate / duty_cycle
            on_s = mean_on_s if mean_on_s is not None else 8.0 / on_rate
            off_s = on_s * (1.0 - duty_cycle) / duty_cycle
            processes[name] = OnOffArrivals(
                on_rate_rps=on_rate, mean_on_s=on_s, mean_off_s=off_s
            )
        return cls(workloads, processes, seed=seed)

    @classmethod
    def diurnal(
        cls,
        workloads: Sequence[Workload],
        total_rate_rps: float,
        seed: int = 0,
        low: float = 0.25,
        high: float = 1.75,
        period_s: float = 0.02,
    ) -> "LoadGenerator":
        """Day/night rate-modulated Poisson tenants split by share.

        Every tenant follows the same ``low``/``high``/``period_s`` cosine
        (they share the clock — a real diurnal cycle is cluster-wide), with
        per-tenant mean rates splitting ``total_rate_rps`` by share; the
        cluster's long-run mean rate is exactly ``total_rate_rps``.
        """
        rates = cls._share_rates(workloads, total_rate_rps)
        return cls(
            workloads,
            {
                name: DiurnalArrivals(rate, low=low, high=high, period_s=period_s)
                for name, rate in rates.items()
            },
            seed=seed,
        )

    @classmethod
    def constant(
        cls, workloads: Sequence[Workload], total_rate_rps: float, seed: int = 0
    ) -> "LoadGenerator":
        """Deterministic fixed-interval tenants splitting ``total_rate_rps``."""
        rates = cls._share_rates(workloads, total_rate_rps)
        return cls(
            workloads,
            {name: ConstantArrivals(1.0 / rate) for name, rate in rates.items()},
            seed=seed,
        )

    @classmethod
    def trace(
        cls, workloads: Sequence[Workload], path: str, seed: int = 0
    ) -> "LoadGenerator":
        """Replay a CSV trace across the tenants.

        A ``tenant`` column routes each row to the named tenant.  Without
        one, rows are dealt round-robin across the workloads in time order —
        never replayed once per tenant, which would multiply the recorded
        load by the tenant count.
        """
        times, tenants = _read_trace_csv(path)
        per_tenant: Dict[str, List[float]] = {w.tenant: [] for w in workloads}
        if tenants is not None:
            for t, name in zip(times, tenants):
                if name in per_tenant:
                    per_tenant[name].append(t)
            if times and not any(per_tenant.values()):
                raise ValueError(
                    f"no trace row matches any workload tenant: trace labels "
                    f"{sorted(set(tenants))} vs workloads {sorted(per_tenant)}"
                )
        else:
            for i, t in enumerate(sorted(times)):
                per_tenant[workloads[i % len(workloads)].tenant].append(t)
        processes = {
            name: TraceArrivals(timestamps=sorted(stamps))
            for name, stamps in per_tenant.items()
        }
        return cls(workloads, processes, seed=seed)
