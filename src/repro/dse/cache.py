"""Schedule memoisation for design-space sweeps.

Layer scheduling (:func:`repro.arch.schedule_layer`) is a pure function of

1. the *structure* of the graph (node count and edge list — never features),
2. the layer's :class:`~repro.nn.models.base.LayerSpec`, and
3. the timing-relevant fields of the :class:`~repro.arch.ArchitectureConfig`.

A sweep evaluates the same graphs under many configurations, and a model's
layer stack usually repeats the same spec (a 5-layer GCN has five identical
hidden-layer specs), so the same schedule is recomputed over and over.
:class:`ScheduleCache` keys each result on the triple above and computes it
once.

Keys are cheap: the graph signature is a SHA-1 over the raw edge list,
computed once per graph and stashed on the graph's private cache dict, and
a ``LayerSpec`` hashes its fields once.  Entries are grouped by the reduced
config key, so a lookup bound to one configuration keys on ``(signature,
spec)`` alone.  A model's layers repeat their spec, so a call that repeats
the previous one's graph and spec objects needs no key at all.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import Callable, Dict, Tuple

from ..arch.config import ArchitectureConfig
from ..arch.pipeline import LayerTiming, schedule_layer
from ..graph import Graph
from ..nn.models.base import LayerSpec
from .fastpath import fast_schedule_layer

__all__ = ["graph_signature", "schedule_cache_key", "ScheduleCache"]

_SIGNATURE_SLOT = "_dse_signature"

# ArchitectureConfig fields that influence schedule_layer.  Clock frequency
# and the loading model affect latency conversion and graph/weight streaming,
# not layer schedules, so configs differing only in those share cache entries.
_SCHEDULE_FIELDS = (
    "pipeline",
    "num_nt_units",
    "num_mp_units",
    "apply_parallelism",
    "scatter_parallelism",
    "node_queue_depth",
    "edge_overhead_cycles",
    "nt_overhead_cycles",
    "layer_barrier_cycles",
)
_config_key = attrgetter(*_SCHEDULE_FIELDS)

#: The previous bound call, ``(entries, graph, spec, timing)``; none yet.
_NO_CALL = (None, None, None, None)


def graph_signature(graph: Graph) -> str:
    """Structural signature of a graph: node count plus the exact edge list.

    Features, labels and names are deliberately excluded — layer timing never
    reads them.  The signature is memoised on the graph's internal cache dict
    so repeated lookups cost a dictionary hit, not a hash of the edge list.
    """
    cached = graph._degree_cache.get(_SIGNATURE_SLOT)
    if cached is not None:
        return cached
    digest = hashlib.sha1()
    digest.update(str(graph.num_nodes).encode())
    digest.update(b"|")
    # The row-major edge list's raw bytes (a byte view of an empty array
    # cannot be cast, but hashlib reads any contiguous buffer).
    digest.update(graph.edge_index)
    signature = digest.hexdigest()
    graph._degree_cache[_SIGNATURE_SLOT] = signature
    return signature


def schedule_cache_key(
    graph: Graph, spec: LayerSpec, config: ArchitectureConfig
) -> Tuple:
    """Full memoisation key for one ``schedule_layer`` call."""
    return (graph_signature(graph), spec, _config_key(config))


class ScheduleCache:
    """Memoises layer schedules across the points of a sweep.

    ``schedule`` is a drop-in replacement for
    :func:`repro.arch.schedule_layer` (same signature, same results) and is
    what :class:`~repro.dse.SweepRunner` plugs into the simulator via the
    ``schedule_fn`` hook.

    Parameters
    ----------
    use_fast_path:
        When ``True`` (default), cache misses are computed with
        :func:`~repro.dse.fast_schedule_layer`, the closed-form scheduler
        that is verified bit-identical to the reference implementation.  Set to
        ``False`` to fall back to the reference scheduler on misses.
    """

    def __init__(self, use_fast_path: bool = True) -> None:
        # reduced config key -> {(graph signature, spec): timing}
        self._entries: Dict[Tuple, Dict[Tuple[str, LayerSpec], LayerTiming]] = {}
        self._use_fast_path = use_fast_path
        self._compute: Callable[..., LayerTiming] = (
            fast_schedule_layer if use_fast_path else schedule_layer
        )
        self._last = _NO_CALL
        self.hits = 0
        self.misses = 0

    def schedule(
        self, graph: Graph, spec: LayerSpec, config: ArchitectureConfig
    ) -> LayerTiming:
        """Cached equivalent of ``schedule_layer(graph, spec, config)``."""
        return self.bind(config)(graph, spec, config)

    # Allow the cache object itself to be used as a ``schedule_fn``.
    __call__ = schedule

    def bind(self, config: ArchitectureConfig) -> Callable:
        """A ``schedule_fn`` specialised for one configuration.

        Sweeps evaluate many layers under the same config; binding hoists
        the reduced config key out of the per-layer lookup and, on the fast
        path, keeps one :class:`~repro.dse.fastpath.LayerPlan` per spec for
        as long as the callable lives (one sweep point, or one
        accelerator), so a plan is built once, not once per graph.  A plan
        adds only the point's unit counts, barrier and layout key to
        constants kept on the spec per ``P_apply``, ``P_scatter`` and
        overheads (:func:`~repro.dse.fastpath.layer_plan`).  Every miss, its
        plan included, runs inside the captured scheduler.  A call that
        repeats the cache's previous call — same graph and spec objects,
        same entries — returns its timing and counts a hit with no key.

        The callable keeps the ``(graph, spec, config)`` signature expected
        by ``simulate_inference`` but schedules against the *bound* config —
        the passed one is ignored, so a mismatched caller cannot poison the
        cache with entries computed under a different configuration.
        """
        config_key = _config_key(config)
        entries = self._entries.get(config_key)
        if entries is None:
            entries = self._entries[config_key] = {}
        compute = self._compute
        plans = {} if self._use_fast_path else None

        def bound_schedule(
            graph: Graph, spec: LayerSpec, _cfg: ArchitectureConfig
        ) -> LayerTiming:
            last_entries, last_graph, last_spec, timing = self._last
            if last_graph is graph and last_spec is spec and last_entries is entries:
                self.hits += 1
                return timing
            signature = graph._degree_cache.get(_SIGNATURE_SLOT) or graph_signature(graph)
            key = (signature, spec)
            timing = entries.get(key)
            if timing is None:
                self.misses += 1
                timing = compute(graph, spec, config) if plans is None else compute(graph, spec, config, plans)
                entries[key] = timing
            else:
                self.hits += 1
            self._last = (entries, graph, spec, timing)
            return timing

        return bound_schedule

    def __len__(self) -> int:
        return sum(map(len, self._entries.values()))

    def clear(self) -> None:
        # In place: a function bound before the clear keeps its config's dict.
        for entries in self._entries.values():
            entries.clear()
        self._last = _NO_CALL
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def info(self) -> Dict[str, float]:
        """Cache statistics for reports and benchmarks."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }
