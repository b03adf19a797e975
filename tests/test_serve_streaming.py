"""Streaming load generation and serving vs. their references.

Seven contracts:

* **arrival streams** — every built-in process's ``times()`` matches golden
  digests recorded from the eager implementation
  (``tests/fixtures/arrival_digests.json``), and so does ``iter_times()`` at
  a tiny ``STREAM_CHUNK``, with no chunk larger than ``STREAM_CHUNK``; long
  and generated bursty streams, whose variates are drawn in blocks, match a
  loop of one ``rng.exponential(scale)`` call per variate by ``.hex()``;
  ``generate()`` matches its recorded digests, and ``generate()``,
  ``iter_requests()`` and ``iter_request_blocks()`` all equal a naive merge
  (each tenant's ``times()``, sorted by ``(arrival, tenant, index)``);
* **the streaming fast path** — ``serve_stream``'s vectorised FIFO path at
  7-, 64- and 8,192-row chunks matches digests of its report and of every
  tenant sketch's floats (``.hex()``), counts and replica sets;
* **the busy-period fold** — on generated streams the fast path's report
  and sketch floats equal those of the per-row FIFO recurrence written in
  the test, and so do the finishes of hand-built queues (exact ties,
  backlogs, padding, period lengths either side of powers of two); the
  segmented fold is the left fold of every period for generated heads;
  chains of near-ties that defeat the fold's first proposal are settled by
  re-proposing, or fall back to the per-row loop;
* **merge windows** — on generated scenarios, the blocks regroup exactly
  the windows of a naive merge that yields one window at a time, and each
  tenant's fast-path service, latency and energy totals add one ``.sum()``
  per window of its exact-mode rows;
* **sketch-mode reports** — on the full policy x options contract matrix,
  counts, drops, utilisation, max queue depth, deadline misses and maxima
  are identical to exact mode; means match to float-sum reassociation
  (1e-9); p50/p99 sit within the log-histogram's documented ~3.5% band;
* **the scalar loop's sketch sink** — on generated dynamic clusters, the
  sink that buffers rows and flushes them every 1-64 rows gives the report
  and every tenant sketch float (``.hex()``) that a per-row copy of it,
  folding each completion through ``LatencySketch.observe``, gives;
* **O(tenants + replicas) memory** — a 50k-request sketch report occupies
  exactly as many bytes as a 5k-request one, and a million-request,
  100-tenant replay's report exactly as many as its 1%-sized run.

The golden digests pin the sampling definition and the fast path's
arithmetic.  Regenerate them only when either changes on purpose, from the
repo root::

    PYTHONPATH=src python tests/test_serve_streaming.py
"""

import bisect
import functools
import hashlib
import heapq
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.cluster as cluster_module
from repro.datasets import make_hep_like, make_molhiv_like
from repro.serve import (
    CarbonIntensity,
    Cluster,
    ConstantArrivals,
    DiurnalArrivals,
    FaultSchedule,
    LoadGenerator,
    OnOffArrivals,
    PoissonArrivals,
    PowerModel,
    ReactiveAutoscaler,
    TraceArrivals,
    Workload,
    sketch_nbytes,
)
from repro.serve.arrivals import REQUEST_ORDER, ServingRequest

SEEDS = [0, 1, 2]

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "arrival_digests.json"


@pytest.fixture
def two_tenants(molhiv_sample, hep_sample):
    return [
        Workload(
            "trigger",
            model="GIN",
            dataset=hep_sample,
            deadline_s=1e-3,
            priority=1,
            share=2.0,
        ),
        Workload("screening", model="GCN", dataset=molhiv_sample, deadline_s=5e-3),
    ]


# ---------------------------------------------------------------------------
# The golden cases: processes x sizings x seeds, and the five factories
# ---------------------------------------------------------------------------
#: Recorded stamps for the trace cases; some lie past every horizon below.
TRACE_STAMPS = tuple(np.sort(np.random.default_rng(4).uniform(0.0, 0.06, 300)).tolist())

PROCESSES = {
    "poisson": lambda: PoissonArrivals(5000.0),
    "bursty": lambda: OnOffArrivals(
        on_rate_rps=9000.0, mean_on_s=2e-3, mean_off_s=3e-3, off_rate_rps=500.0
    ),
    "constant": lambda: ConstantArrivals(2.1e-4),
    "diurnal": lambda: DiurnalArrivals(8000.0, low=0.5, high=1.5, period_s=0.01),
    "trace": lambda: TraceArrivals(TRACE_STAMPS),
}
SIZINGS = {
    "unsized": {},
    "n0": {"num_requests": 0},
    "n1": {"num_requests": 1},
    "n257": {"num_requests": 257},
    "d0": {"duration_s": 0.0},
    "d50ms": {"duration_s": 0.05},
    "n300-d30ms": {"num_requests": 300, "duration_s": 0.03},
}
TIMES_CASES = {
    f"{name}-{label}-s{seed}": (factory, sizing, seed)
    for name, factory in PROCESSES.items()
    for label, sizing in SIZINGS.items()
    for seed in SEEDS
}
TIMES_CASES.update(
    {
        # More values than one 8,192-candidate diurnal draw.
        "diurnal-long-s5": (
            lambda: DiurnalArrivals(40000.0, low=0.5, high=1.5, period_s=0.01),
            {"duration_s": 0.25},
            5,
        ),
        # Horizons whose arrivals overrun the first Poisson draw.
        "poisson-multidraw-s17": (lambda: PoissonArrivals(210.0), {"duration_s": 0.05}, 17),
        "poisson-multidraw-s20": (lambda: PoissonArrivals(210.0), {"duration_s": 0.05}, 20),
        "constant-burst-n5": (lambda: ConstantArrivals(0.0), {"num_requests": 5}, None),
        "constant-burst-d10ms": (lambda: ConstantArrivals(0.0), {"duration_s": 0.01}, None),
        "poisson-no-rng": (lambda: PoissonArrivals(5000.0), {"num_requests": 5}, None),
        "bursty-no-rng": (PROCESSES["bursty"], {"num_requests": 5}, None),
        "diurnal-no-rng": (PROCESSES["diurnal"], {"num_requests": 5}, None),
        "poisson-negative-n": (lambda: PoissonArrivals(5000.0), {"num_requests": -1}, 0),
        "trace-negative-d": (PROCESSES["trace"], {"duration_s": -1.0}, None),
    }
)

FACTORIES = {
    "poisson": lambda w, seed, trace: LoadGenerator.poisson(w, 30_000.0, seed=seed),
    "bursty": lambda w, seed, trace: LoadGenerator.bursty(w, 30_000.0, seed=seed),
    "constant": lambda w, seed, trace: LoadGenerator.constant(w, 30_000.0, seed=seed),
    "diurnal": lambda w, seed, trace: LoadGenerator.diurnal(
        w, 30_000.0, seed=seed, period_s=0.01
    ),
    "trace": lambda w, seed, trace: LoadGenerator.trace(w, trace, seed=seed),
}
GENERATE_SIZINGS = {
    "d20ms": {"duration_s": 0.02},
    "n50": {"num_requests": 50},
    "n40-d10ms": {"num_requests": 40, "duration_s": 0.01},
}
GENERATE_CASES = {
    f"{kind}-{label}-s{seed}": (kind, sizing, seed)
    for kind in FACTORIES
    for label, sizing in GENERATE_SIZINGS.items()
    for seed in (0, 1)
}


@functools.lru_cache(maxsize=None)
def _golden_workloads():
    """Three tenants: unequal shares and pools, one of them best effort."""
    return (
        Workload(
            "trigger",
            model="GIN",
            dataset=make_hep_like(num_graphs=4, seed=9),
            deadline_s=1e-3,
            priority=1,
            share=2.0,
        ),
        Workload(
            "screening",
            model="GCN",
            dataset=make_molhiv_like(num_graphs=8, seed=7),
            deadline_s=5e-3,
        ),
        Workload(
            "batch", model="GCN", dataset=make_molhiv_like(num_graphs=3, seed=11), share=0.5
        ),
    )


@functools.lru_cache(maxsize=None)
def _fast_path_cluster():
    """30 tenants with pools of 2-4 graphs; every third one is best effort."""
    pools = [make_molhiv_like(num_graphs=n, seed=s) for n, s in ((2, 1), (3, 2), (4, 3))]
    return Cluster(
        [
            Workload(
                f"t{i:02d}",
                model=("GIN" if i % 2 else "GCN"),
                dataset=pools[i % 3],
                deadline_s=None if i % 3 == 0 else (4e-3, 8e-3, 16e-3)[i % 4 % 3],
                share=1.0 + (i % 4) * 0.5,
            )
            for i in range(30)
        ],
        backend="cpu",
    )


#: (tenants, replicas, arrivals, sizing, load, chunk): the generator serves
#: the listed tenants of :func:`_fast_path_cluster` at ``load`` x pool
#: capacity, in ``STREAM_CHUNK = chunk`` pieces.  Seven-row chunks give many
#: blocks, with tenants absent from some of them; the larger chunks give
#: tenant slices long enough for numpy's pairwise sums to differ from
#: sequential ones.
SERVE_STREAM_CASES = {
    "t1-r1-poisson-n300": ((0,), 1, "poisson", {"num_requests": 300}, 0.9, 7),
    "t1-r2-bursty-d": ((1,), 2, "bursty", {"duration_s": 0.4}, 1.2, 7),
    "t2-r1-diurnal-n150": ((1, 2), 1, "diurnal", {"num_requests": 150}, 1.1, 7),
    "t3-r3-poisson-d": ((0, 1, 2), 3, "poisson", {"duration_s": 0.2}, 0.95, 7),
    "t5-r4-bursty-n60-besteffort": ((0, 3, 6, 9, 12), 4, "bursty", {"num_requests": 60}, 1.0, 7),
    "t7-r8-diurnal-n40-d": (tuple(range(7)), 8, "diurnal", {"num_requests": 40, "duration_s": 0.05}, 0.9, 7),
    "t12-r2-poisson-n30-overload": (tuple(range(12)), 2, "poisson", {"num_requests": 30}, 1.4, 7),
    "t12-r5-bursty-d": (tuple(range(0, 24, 2)), 5, "bursty", {"duration_s": 0.06}, 0.8, 7),
    "t30-r8-poisson-n40": (tuple(range(30)), 8, "poisson", {"num_requests": 40}, 0.9, 7),
    "t30-r7-bursty-n30": (tuple(range(30)), 7, "bursty", {"num_requests": 30}, 1.05, 7),
    "t30-r6-diurnal-d": (tuple(range(30)), 6, "diurnal", {"duration_s": 0.04}, 1.0, 7),
    "t30-r1-poisson-d-light": (tuple(range(30)), 1, "poisson", {"duration_s": 0.3}, 0.3, 7),
    "t3-r2-poisson-n2000-chunk8192": ((0, 1, 2), 2, "poisson", {"num_requests": 2000}, 0.95, 8192),
    "t12-r5-diurnal-d-chunk8192": (tuple(range(12)), 5, "diurnal", {"duration_s": 0.5}, 1.0, 8192),
    "t30-r8-bursty-n150-chunk64": (tuple(range(30)), 8, "bursty", {"num_requests": 150}, 1.1, 64),
    "t1-r3-poisson-d-chunk64": ((2,), 3, "poisson", {"duration_s": 1.0}, 0.8, 64),
}


def _moments_fingerprint(moments) -> tuple:
    return (moments.count, moments.total.hex(), moments.min.hex(), moments.max.hex())


def _sketch_fingerprint(sketch) -> tuple:
    """Every float of a tenant's sketch as ``.hex()``, plus its counters."""
    return (
        _moments_fingerprint(sketch.service),
        _moments_fingerprint(sketch.latency),
        _moments_fingerprint(sketch.quantiles.moments),
        sketch.quantiles.counts.tolist(),
        sketch.energy_j_total.hex(),
        sketch.deadline_misses,
        sorted(sketch.replicas),
        _moments_fingerprint(sketch.batch),
        _moments_fingerprint(sketch.queue),
    )


def _digest_serve_stream(case) -> str:
    """Digest of one fast-path run: its report and every tenant sketch."""
    tenants, replicas, kind, sizing, load, chunk = SERVE_STREAM_CASES[case]
    cluster = _fast_path_cluster().with_options(num_replicas=replicas)
    assert cluster._fast_path_eligible()
    workloads = [cluster.workloads[i] for i in tenants]
    rate = load * replicas / cluster.mean_service_s()
    seed = list(SERVE_STREAM_CASES).index(case)
    generator = getattr(LoadGenerator, kind)(workloads, rate, seed=seed)
    with mock.patch("repro.serve.arrivals.STREAM_CHUNK", chunk):
        report = cluster.serve_stream(generator, **sizing)
    payload = {
        "report": report.to_dict(),
        "sketches": {
            name: _sketch_fingerprint(outcome.report.sketch)
            for name, outcome in report.tenants.items()
        },
    }
    data = json.dumps(payload, sort_keys=True).encode()
    return f"submitted={report.submitted} sha256={hashlib.sha256(data).hexdigest()}"


def _write_trace_csv(directory) -> str:
    """The trace stamps, written out of order (``LoadGenerator.trace`` sorts)."""
    path = Path(directory) / "trace.csv"
    path.write_text("arrival_s\n" + "".join(f"{t!r}\n" for t in reversed(TRACE_STAMPS)))
    return str(path)


def _outcome(compute) -> str:
    """``compute()``, or the ``ValueError`` it raises as one line."""
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _digest_times(times: np.ndarray) -> str:
    data = np.ascontiguousarray(times, dtype="<f8").tobytes()
    return f"{times.dtype} n={times.size} sha256={hashlib.sha256(data).hexdigest()}"


def _digest_requests(requests) -> str:
    rows = [
        (r.tenant, r.tenant_index, r.index, r.arrival_s.hex(), r.graph_index,
         r.deadline_s, r.priority)
        for r in requests
    ]
    return f"n={len(rows)} sha256={hashlib.sha256(repr(rows).encode()).hexdigest()}"


def _times_case(case):
    factory, sizing, seed = TIMES_CASES[case]
    rng = None if seed is None else np.random.default_rng(seed)
    return factory(), dict(sizing, rng=rng)


def _generate_case(case, trace_csv):
    kind, sizing, seed = GENERATE_CASES[case]
    return FACTORIES[kind](list(_golden_workloads()), seed, trace_csv), sizing


def _concat(chunks) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def golden_digests(trace_csv: str) -> dict:
    """The digest (or error) of every ``times()`` and ``generate()`` case."""
    times = {}
    for case in TIMES_CASES:
        process, kwargs = _times_case(case)
        times[case] = _outcome(lambda: _digest_times(process.times(**kwargs)))
    generate = {}
    for case in GENERATE_CASES:
        generator, sizing = _generate_case(case, trace_csv)
        generate[case] = _outcome(lambda: _digest_requests(generator.generate(**sizing)))
    serve_stream = {case: _digest_serve_stream(case) for case in SERVE_STREAM_CASES}
    return {"times": times, "generate": generate, "serve_stream": serve_stream}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    return _write_trace_csv(tmp_path_factory.mktemp("trace"))


# ---------------------------------------------------------------------------
# Arrival timestamps: one path, pinned by the recorded digests
# ---------------------------------------------------------------------------
class TestArrivalStreams:
    TINY_CHUNK = 7

    @pytest.mark.parametrize("case", sorted(TIMES_CASES))
    def test_times_match_golden_digest(self, golden, case):
        process, kwargs = _times_case(case)
        outcome = _outcome(lambda: _digest_times(process.times(**kwargs)))
        assert outcome == golden["times"][case]

    @pytest.mark.parametrize("case", sorted(TIMES_CASES))
    def test_iter_times_identical_across_chunk_sizes(self, golden, case, monkeypatch):
        """Chunk boundaries must not leak into the values (carry replay)."""
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", self.TINY_CHUNK)
        process, kwargs = _times_case(case)
        outcome = _outcome(lambda: _digest_times(_concat(list(process.iter_times(**kwargs)))))
        assert outcome == golden["times"][case]

    @pytest.mark.parametrize("case", sorted(TIMES_CASES))
    def test_iter_times_chunks_never_exceed_stream_chunk(self, golden, case, monkeypatch):
        """Memory per tenant stream is bounded by STREAM_CHUNK, whatever the sizing."""
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", self.TINY_CHUNK)
        process, kwargs = _times_case(case)
        if golden["times"][case].startswith("ValueError"):
            with pytest.raises(ValueError):
                next(process.iter_times(**kwargs))
            return
        sizes = [chunk.size for chunk in process.iter_times(**kwargs)]
        assert all(0 < size <= self.TINY_CHUNK for size in sizes), max(sizes)

    def test_trace_iter_times(self, tmp_path, monkeypatch):
        stamps = np.array(TRACE_STAMPS)
        process = TraceArrivals.from_csv(_write_trace_csv(tmp_path))
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", self.TINY_CHUNK)
        for sizing, expected in (
            ({}, stamps),
            ({"num_requests": 13}, stamps[:13]),
            ({"duration_s": 5e-3}, stamps[stamps < 5e-3]),
            ({"num_requests": 13, "duration_s": 1e-3}, stamps[stamps < 1e-3][:13]),
            ({"num_requests": 500, "duration_s": 0.05}, stamps[stamps < 0.05]),
        ):
            np.testing.assert_array_equal(
                _concat(list(process.iter_times(**sizing))), expected
            )


def differential_settings() -> settings:
    """Tier-1 runs a derandomised sample bounded to a few seconds.  The
    nightly CI run passes ``--hypothesis-profile=nightly`` (tests/conftest.py)
    and the loaded profile decides instead."""
    if settings.get_current_profile_name() == "nightly":
        return settings()
    return settings(max_examples=300, derandomize=True, deadline=None)


def _bursty_per_variate(process, num_requests, duration_s, rng):
    """``OnOffArrivals`` sampled with one ``rng.exponential(scale)`` call per variate."""
    horizon = math.inf if duration_s is None else duration_s
    target = math.inf if num_requests is None else num_requests
    times = []
    phase_start, on = 0.0, True
    while phase_start < horizon and len(times) < target:
        length = rng.exponential(process.mean_on_s if on else process.mean_off_s)
        rate = process.on_rate_rps if on else process.off_rate_rps
        if rate > 0:
            t = phase_start + rng.exponential(1.0 / rate)
            while t < phase_start + length and t < horizon and len(times) < target:
                times.append(t)
                t += rng.exponential(1.0 / rate)
        phase_start += length
        on = not on
    return times


class TestBurstyVariateBlocks:
    """Bursty streams draw their variates in blocks, and every timestamp is
    the float that one scalar draw per variate gives."""

    LONG = OnOffArrivals(on_rate_rps=9000.0, mean_on_s=2e-3, mean_off_s=3e-3, off_rate_rps=500.0)

    @staticmethod
    def _assert_matches_per_variate(process, sizing, seed, chunk):
        chunks = list(process.iter_times(rng=np.random.default_rng(seed), **sizing))
        assert all(0 < c.size <= chunk for c in chunks)
        expected = _bursty_per_variate(process, rng=np.random.default_rng(seed), **sizing)
        assert [t.hex() for t in _concat(chunks).tolist()] == [t.hex() for t in expected]
        return chunks

    @pytest.mark.parametrize("chunk", [8192, 97])
    @pytest.mark.parametrize(
        "sizing",
        [
            {"num_requests": 2 * 8192 + 1234, "duration_s": None},
            {"num_requests": None, "duration_s": 5.0},
            {"num_requests": 17_000, "duration_s": 6.0},
        ],
        ids=["count", "horizon", "count-and-horizon"],
    )
    def test_long_bursty_streams_match_per_variate_draws(self, sizing, chunk, monkeypatch):
        """About 20k arrivals: many variate blocks, and at least two full
        STREAM_CHUNK yields at the default chunk."""
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", chunk)
        chunks = self._assert_matches_per_variate(self.LONG, sizing, 11, chunk)
        assert sum(c.size == chunk for c in chunks) >= 2

    @differential_settings()
    @given(
        on_rate=st.floats(100.0, 1e5),
        burst=st.floats(1.0, 50.0),
        off_rate=st.one_of(st.just(0.0), st.floats(1.0, 2e4)),
        mean_off=st.floats(1e-4, 1e-2),
        sizing=st.sampled_from(["count", "horizon", "both"]),
        count=st.integers(0, 1500),
        chunk=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_bursty_streams_match_per_variate_draws(
        self, on_rate, burst, off_rate, mean_off, sizing, count, chunk, seed
    ):
        """A burst holds ``burst`` arrivals on average, so a stream of
        ``count`` arrivals has at most about ``2 * count`` phases."""
        process = OnOffArrivals(
            on_rate_rps=on_rate, mean_on_s=burst / on_rate, mean_off_s=mean_off, off_rate_rps=off_rate
        )
        horizon = count / process.mean_rate_rps  # about ``count`` arrivals
        kwargs = {
            "count": {"num_requests": count, "duration_s": None},
            "horizon": {"num_requests": None, "duration_s": horizon},
            "both": {"num_requests": count // 2, "duration_s": horizon},
        }[sizing]
        with mock.patch("repro.serve.arrivals.STREAM_CHUNK", chunk):
            self._assert_matches_per_variate(process, kwargs, seed, chunk)


# ---------------------------------------------------------------------------
# The request merge: generate / iter_requests / blocks == the naive merge
# ---------------------------------------------------------------------------
def _key(block, j):
    return (block.arrival_s[j], block.tenant_index[j], block.index[j])


class TestRequestMerge:
    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_generate_matches_golden_digest(self, golden, trace_csv, case):
        generator, sizing = _generate_case(case, trace_csv)
        outcome = _outcome(lambda: _digest_requests(generator.generate(**sizing)))
        assert outcome == golden["generate"][case]

    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_generate_equals_naive_merge(self, naive_merge, trace_csv, case):
        generator, sizing = _generate_case(case, trace_csv)
        assert generator.generate(**sizing) == naive_merge(generator, **sizing)

    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_iter_requests_equals_naive_merge(self, naive_merge, trace_csv, case):
        generator, sizing = _generate_case(case, trace_csv)
        # ServingRequest equality is field-exact, order included.
        assert list(generator.iter_requests(**sizing)) == naive_merge(generator, **sizing)

    @pytest.mark.parametrize("case", sorted(GENERATE_CASES))
    def test_request_blocks_equal_naive_merge(
        self, naive_merge, trace_csv, case, monkeypatch
    ):
        generator, sizing = _generate_case(case, trace_csv)
        expected = naive_merge(generator, **sizing)
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", 11)
        blocks = list(generator.iter_request_blocks(**sizing))
        assert sum(len(block) for block in blocks) == len(expected)
        flat = 0
        for k, block in enumerate(blocks):
            assert len(block)
            part = expected[flat : flat + len(block)]
            assert block.arrival_s.tolist() == [r.arrival_s for r in part]
            assert block.tenant_index.tolist() == [r.tenant_index for r in part]
            assert block.index.tolist() == [r.index for r in part]
            assert block.graph_index.tolist() == [r.graph_index for r in part]
            assert list(block.requests(generator.workloads)) == part
            # Blocks are windows of the global order: each one starts after
            # the previous one ends.
            if k:
                assert _key(block, 0) > _key(blocks[k - 1], -1)
            flat += len(block)

    def test_request_blocks_hold_no_merge_temporaries_across_yield(self):
        """While a consumer holds a block, the merge keeps only its arrival
        buffers (about four float64 per row on a Poisson stream), not the
        tenant/index pieces and sort order it built the block from (three
        int64 per row more)."""
        workloads = [Workload("solo", model="GCN", dataset=make_molhiv_like(num_graphs=3, seed=1))]
        generator = LoadGenerator(workloads, PoissonArrivals(1000.0), seed=0)
        chunk = 8192
        sizing = {"num_requests": 4 * chunk}
        with mock.patch("repro.serve.arrivals.STREAM_CHUNK", chunk):
            for _ in generator.iter_request_blocks(**sizing):  # warm-up pass
                pass
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                held = []
                for block in generator.iter_request_blocks(**sizing):
                    assert len(block) == chunk
                    own = sum(
                        column.nbytes
                        for column in (
                            block.arrival_s, block.tenant_index, block.index, block.graph_index
                        )
                    )
                    held.append(tracemalloc.get_traced_memory()[0] - base - own)
            finally:
                tracemalloc.stop()
        assert max(held) < 5 * 8 * chunk, held


class TestFastPathDigests:
    @pytest.mark.parametrize("case", sorted(SERVE_STREAM_CASES))
    def test_serve_stream_matches_golden_digest(self, golden, case):
        """The vectorised FIFO fast path, bit for bit: report, every sketch
        float, histogram counts, queue moments and replica sets."""
        assert _digest_serve_stream(case) == golden["serve_stream"][case]


# ---------------------------------------------------------------------------
# The busy-period fold vs the per-row FIFO recurrence
# ---------------------------------------------------------------------------
def _per_row_finishes(arrival, service):
    """Each queue's finishes by the per-row FIFO recurrence, the reference
    ``cluster._fifo_finishes`` must reproduce bit for bit."""
    finish = np.empty_like(arrival)
    for q in range(arrival.shape[0]):
        prev = -math.inf
        for k, (a, s) in enumerate(zip(arrival[q].tolist(), service[q].tolist())):
            start = a if a >= prev else prev
            prev = start + s
            finish[q, k] = prev
    return finish


@functools.lru_cache(maxsize=None)
def _fold_cluster():
    """The first six tenants of :func:`_fast_path_cluster`, measured once."""
    return Cluster(_fast_path_cluster().workloads[:6], backend="cpu")


def _fold_generator(kind, workloads, rate, seed):
    """Poisson, bursty, constant or trace arrivals at ``rate`` in total.  The
    constant and trace tenants share one process, so every instant is a tie
    across tenants."""
    if kind in ("poisson", "bursty"):
        return getattr(LoadGenerator, kind)(workloads, rate, seed=seed)
    per_tenant = rate / len(workloads)
    if kind == "constant":
        return LoadGenerator(workloads, ConstantArrivals(1.0 / per_tenant), seed=seed)
    stamps = np.cumsum(np.random.default_rng(seed).exponential(1.0 / per_tenant, 100))
    return LoadGenerator(workloads, TraceArrivals(stamps), seed=seed)


def _tie_chain(seed, rows=2000):
    """One replica's queue in the fold's layout (its carried finish, then its
    rows) where every service is the next gap give or take 3 ulps: a chain of
    near-ties whose busy periods are hard to propose."""
    rng = np.random.default_rng(seed)
    arrival = np.cumsum(np.full(rows, 1e-4))
    gaps = np.diff(arrival, append=arrival[-1] + 1e-4)
    service = gaps + rng.integers(-3, 4, rows) * np.spacing(gaps)
    return np.concatenate(([0.0], arrival))[None], np.concatenate(([0.0], service))[None]


def _queues(carries, arrivals, services):
    """Queues in the fold's layout: each carried finish as an arrival with
    zero service in column 0, then its rows; equal-length rows only."""
    arrival = np.column_stack((carries, arrivals)).astype(np.float64)
    service = np.column_stack((np.zeros(len(carries)), services)).astype(np.float64)
    return arrival, service


def _period_runs(lengths, service=1.0):
    """One queue whose busy periods have ``lengths`` rows: each period's rows
    arrive together, one idle unit after the previous period ends."""
    arrivals, clock = [], 0.0
    for length in lengths:
        arrivals += [clock] * length
        clock += length * service + 1.0
    return _queues([-1.0], [arrivals], [[service] * len(arrivals)])


def _grid_queues(rng, replicas, offset, rows):
    """A block laid out as ``Cluster._serve_stream_fast`` lays it out: rows
    from cell ``replicas + offset`` of a ``(columns, replicas)`` grid whose
    gaps arrive at -inf with zero service, one queue per column."""
    columns = 2 + (offset + rows - 1) // replicas
    cells = slice(replicas + offset, replicas + offset + rows)
    grids = np.zeros((2, columns, replicas))
    grids[0] = -np.inf
    grids[0, 0] = rng.uniform(0.0, 0.01, replicas)
    grids[0].reshape(-1)[cells] = np.sort(rng.uniform(0.0, 0.05, rows))
    grids[1].reshape(-1)[cells] = rng.exponential(replicas * 0.05 / rows, rows)
    arrival, service = grids.transpose(0, 2, 1).copy()
    return arrival, service


def _fifo_case(kind):
    """Queues in the fold's layout that stress one part of it."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    if kind == "idle":  # every row opens its own period
        return _queues([0.0], [np.arange(1.0, 201.0)], [np.full(200, 0.5)])
    if kind == "one-period":  # 1,501 rows, one period from the carry
        return _queues([0.0], [np.zeros(1500)], [rng.uniform(1e-4, 1e-3, 1500)])
    if kind == "exact-ties":  # every arrival is the previous finish exactly
        return _queues([0.25], [0.25 * np.arange(1, 301)], [np.full(300, 0.25)])
    if kind == "backlog":  # the carried finish is after every arrival
        return _queues([1e3], [np.sort(rng.uniform(0.0, 1.0, 400))], [np.full(400, 1e-3)])
    if kind == "zero-service":  # repeated arrivals, nothing to serve
        return _queues([0.0], [np.sort(rng.integers(0, 50, 300)) * 1e-3], [np.zeros(300)])
    if kind == "period-classes":  # lengths on both sides of powers of two
        return _period_runs([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1, 1, 128, 129, 2])
    if kind == "coarse-floats":  # floats 0.25 apart: most services round away or up
        return _queues([2.0**50], [2.0**50 + np.sort(rng.integers(0, 400, 500)) * 0.25], [rng.uniform(0.0, 0.3, 500)])
    if kind == "unsorted":  # the recurrence does not need sorted arrivals
        return _queues(rng.uniform(0, 1, 3), rng.uniform(0, 1, (3, 300)), rng.exponential(3e-3, (3, 300)))
    if kind == "many-queues":  # loads from light to overloaded
        arrivals = np.cumsum(rng.exponential(1e-3, (8, 600)), axis=1)
        services = rng.exponential(1e-3, (8, 600)) * np.linspace(0.3, 1.5, 8)[:, None]
        return _queues(np.zeros(8), arrivals, services)
    if kind == "grid":  # a stream block's layout, gaps at -inf front and back
        return _grid_queues(rng, replicas=5, offset=3, rows=1000)
    assert kind == "carries-only"
    return _queues([0.5, -1.0, 2.0], np.empty((3, 0)), np.empty((3, 0)))


FIFO_CASES = [
    "idle",
    "one-period",
    "exact-ties",
    "backlog",
    "zero-service",
    "period-classes",
    "coarse-floats",
    "unsorted",
    "many-queues",
    "grid",
    "carries-only",
]


def _hex_rows(finish):
    return [[f.hex() for f in row] for row in finish.tolist()]


class TestBusyPeriodFold:
    @pytest.mark.parametrize("kind", FIFO_CASES)
    def test_finishes_equal_the_per_row_recurrence(self, kind):
        """``_fifo_finishes`` on hand-built queues gives every finish of the
        per-row recurrence by ``.hex()``."""
        arrival, service = _fifo_case(kind)
        finish = cluster_module._fifo_finishes(arrival, service)
        assert _hex_rows(finish) == _hex_rows(_per_row_finishes(arrival, service))

    @differential_settings()
    @given(
        queues=st.integers(1, 6),
        depth=st.integers(1, 300),
        head_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fold_periods_is_the_left_fold_of_each_period(self, queues, depth, head_share, seed):
        """Given any heads (the first cell always one), every period's
        finishes are ``a + s`` at its head, then the previous finish plus
        ``s``, added in row-major order, whatever mix of period lengths."""
        rng = np.random.default_rng(seed)
        arrival = rng.uniform(-1.0, 1.0, (queues, depth))
        service = rng.exponential(1.0, (queues, depth))
        heads = rng.random((queues, depth)) < head_share
        heads.flat[0] = True
        expected = []
        for a, s, head in zip(arrival.ravel().tolist(), service.ravel().tolist(), heads.ravel().tolist()):
            expected.append((a if head else expected[-1]) + s)
        folded = cluster_module._fold_periods(arrival, service, heads)
        assert [f.hex() for f in folded.ravel().tolist()] == [f.hex() for f in expected]

    @differential_settings()
    @given(
        replicas=st.integers(1, 8),
        tenants=st.integers(1, 6),
        arrivals=st.sampled_from(["poisson", "bursty", "constant", "trace"]),
        load=st.floats(0.3, 1.5),
        per_tenant=st.integers(1, 60),
        chunk=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    def test_generated_streams_match_per_row_recurrence(
        self, replicas, tenants, arrivals, load, per_tenant, chunk, seed
    ):
        """The fast path folding busy periods gives the report, and every
        tenant sketch float by ``.hex()``, that the per-row recurrence gives,
        with periods and carries crossing blocks of ``chunk`` rows."""
        cluster = _fold_cluster().with_options(num_replicas=replicas)
        rate = load * replicas / cluster.mean_service_s()
        generator = _fold_generator(arrivals, cluster.workloads[:tenants], rate, seed)
        with mock.patch("repro.serve.arrivals.STREAM_CHUNK", chunk):
            folded = cluster.serve_stream(generator, num_requests=per_tenant)
            with mock.patch.object(cluster_module, "_fifo_finishes", _per_row_finishes):
                per_row = cluster.serve_stream(generator, num_requests=per_tenant)
        assert folded.to_dict() == per_row.to_dict()
        for tenant, outcome in per_row.tenants.items():
            expected = _sketch_fingerprint(outcome.report.sketch)
            assert _sketch_fingerprint(folded.tenants[tenant].report.sketch) == expected, tenant

    def test_tie_chains_fall_back_to_the_per_row_loop(self):
        """Some near-tie chains still misplace a busy period after every
        re-proposal round; the rows from the first failing one then run the
        per-row loop, and every finish is the recurrence's."""
        needed_fallback = 0
        for seed in range(60):
            arrival, service = _tie_chain(seed)
            folds = []

            def recording_fold(*args, fold=cluster_module._fold_periods):
                folds.append(fold(*args))
                return folds[-1]

            with mock.patch.object(cluster_module, "_fold_periods", recording_fold):
                finish = cluster_module._fifo_finishes(arrival, service)
            expected = _per_row_finishes(arrival, service)
            assert [f.hex() for f in finish[0].tolist()] == [f.hex() for f in expected[0].tolist()], seed
            needed_fallback += not np.array_equal(folds[-1], expected)
        assert needed_fallback > 0

    def test_re_proposed_heads_settle_some_chains_before_the_fallback(self):
        """A near-tie chain whose first proposal fails can be settled by
        proposing its heads again from the folded finishes: its last fold
        is then already the recurrence's, and no row runs the per-row loop."""
        settled = []
        for seed in range(60):
            arrival, service = _tie_chain(seed)
            folds = []

            def recording_fold(*args, fold=cluster_module._fold_periods):
                folds.append(fold(*args))
                return folds[-1]

            with mock.patch.object(cluster_module, "_fold_periods", recording_fold):
                cluster_module._fifo_finishes(arrival, service)
            if 1 < len(folds) and np.array_equal(folds[-1], _per_row_finishes(arrival, service)):
                settled.append((seed, len(folds) - 1))
        assert settled and all(rounds <= cluster_module._FOLD_ROUNDS for _, rounds in settled)


# ---------------------------------------------------------------------------
# The window contract: blocks are whole merge windows, and the fast path's
# float totals add one .sum() per (window, tenant)
# ---------------------------------------------------------------------------
def _naive_windows(generator, **sizing):
    """The merge windows of a merge that yields every window on its own.

    Each window is its ``(arrival, tenant, index)`` rows, sorted: every
    buffered arrival at or below the smallest buffered-last arrival of the
    tenants still streaming, after each of those tenants has been refilled
    past it.
    """
    streams = [
        generator.arrival_process(w.tenant).iter_times(rng=generator.rng_for(i), **sizing)
        for i, w in enumerate(generator.workloads)
    ]
    count = len(streams)
    bufs = [[] for _ in range(count)]
    first = [0] * count
    done = [False] * count

    def refill(i):
        chunk = next(streams[i], None)
        if chunk is None:
            done[i] = True
        else:
            bufs[i].extend(chunk.tolist())

    windows = []
    while True:
        for i in range(count):
            while not done[i] and not bufs[i]:
                refill(i)
        if not any(bufs):
            return windows
        streaming = [i for i in range(count) if not done[i]]
        boundary = min(bufs[i][-1] for i in streaming) if streaming else float("inf")
        for i in streaming:
            while not done[i] and bufs[i][-1] <= boundary:
                refill(i)
        rows = []
        for i in range(count):
            cut = bisect.bisect_right(bufs[i], boundary)
            rows.extend((t, i, first[i] + k) for k, t in enumerate(bufs[i][:cut]))
            del bufs[i][:cut]
            first[i] += cut
        windows.append(sorted(rows))


#: How a generated case sizes its stream: a per-tenant count, a horizon that
#: holds about this many arrivals across the tenants, or both.
WINDOW_SIZINGS = st.one_of(
    st.builds(lambda n: {"num_requests": n}, st.integers(0, 60)),
    st.builds(lambda h: {"horizon": h}, st.floats(0.0, 150.0)),
    st.builds(
        lambda n, h: {"num_requests": n, "horizon": h}, st.integers(0, 60), st.floats(0.0, 150.0)
    ),
)


class TestWindowContract:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        tenants=st.integers(1, 6),
        replicas=st.integers(1, 4),
        kind=st.sampled_from(["poisson", "bursty", "constant", "diurnal", "trace"]),
        sizing=WINDOW_SIZINGS,
        chunk=st.one_of(st.integers(1, 16), st.integers(17, 400)),
        load=st.sampled_from([0.6, 1.0, 1.4]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_hold_whole_windows_and_totals_add_per_window(
        self, tenants, replicas, kind, sizing, chunk, load, seed
    ):
        """Blocks regroup exactly the naive merge's windows, each yielded as
        soon as it holds ``STREAM_CHUNK`` rows; and each tenant's
        ``serve_stream`` service, latency and energy totals are, by
        ``.hex()``, a running total of one ``.sum()`` per window of its
        exact-mode rows."""
        cluster = _fast_path_cluster().with_options(num_replicas=replicas)
        workloads = cluster.workloads[:tenants]
        rate = load * replicas / cluster.mean_service_s()
        if kind == "trace":
            # Every tenant replays the same stamps: arrival ties across tenants.
            generator = LoadGenerator(workloads, TraceArrivals(TRACE_STAMPS[::3]), seed=seed)
        else:
            generator = getattr(LoadGenerator, kind)(workloads, rate, seed=seed)
        sizing = dict(sizing)
        if "horizon" in sizing:
            sizing["duration_s"] = sizing.pop("horizon") / rate

        with mock.patch("repro.serve.arrivals.STREAM_CHUNK", chunk):
            windows = _naive_windows(generator, **sizing)
            blocks = list(generator.iter_request_blocks(**sizing))
            fast = cluster.serve_stream(generator, **sizing)
        expected = [row for window in windows for row in window]
        expected_starts = np.cumsum([0] + [len(window) for window in windows])[:-1].tolist()
        starts, offset = [], 0
        for k, block in enumerate(blocks):
            rows = zip(block.arrival_s.tolist(), block.tenant_index.tolist(), block.index.tolist())
            assert list(rows) == expected[offset : offset + len(block)]
            assert block.windows[0] == 0 and block.windows[-1] < chunk
            if k + 1 < len(blocks):
                assert len(block) >= chunk
            starts.extend((block.windows + offset).tolist())
            offset += len(block)
        assert offset == len(expected)
        assert starts == expected_starts

        window_of = {(t, i): w for w, window in enumerate(windows) for _, t, i in window}
        exact = cluster.serve_stream(generator, mode="exact", **sizing)
        by_tenant_window = {}
        for record in sorted(exact.records, key=lambda r: REQUEST_ORDER(r.request)):
            request = record.request
            key = (request.tenant, window_of[(request.tenant_index, request.index)])
            by_tenant_window.setdefault(key, []).append(record)
        for workload in workloads:
            service = latency = energy = 0.0
            for w in range(len(windows)):
                rows = by_tenant_window.get((workload.tenant, w), [])
                if rows:
                    service += float(np.array([r.service_s for r in rows]).sum())
                    latency += float(np.array([r.latency_s for r in rows]).sum())
                    energy += float(np.array([r.energy_j for r in rows]).sum())
            sketch = fast.tenants[workload.tenant].report.sketch
            assert sketch.service.total.hex() == service.hex()
            assert sketch.latency.total.hex() == latency.hex()
            assert sketch.energy_j_total.hex() == energy.hex()


# ---------------------------------------------------------------------------
# Sketch mode vs the exact oracle: the full contract matrix
# ---------------------------------------------------------------------------
MATRIX_OPTIONS = [
    {},
    {"num_replicas": 3},
    {"max_batch_size": 4},
    {"max_batch_size": 4, "batch_timeout_s": 2e-4},
    {"max_batch_size": 3, "batch_timeout_s": 5e-5, "queue_capacity": 12},
]


def _assert_sketch_matches_exact(sketch, exact):
    assert sketch.mode == "sketch" and exact.mode == "exact"
    # Integer bookkeeping is bit-identical.
    assert sketch.submitted == exact.submitted
    assert sketch.completed == exact.completed
    assert sketch.dropped == exact.dropped
    assert sketch.max_queue_depth == exact.max_queue_depth
    assert sketch.horizon_s == exact.horizon_s
    # Utilisation replays the exact path's float operations one by one.
    np.testing.assert_array_equal(
        sketch.per_replica_utilisation, exact.per_replica_utilisation
    )
    assert sketch.mean_batch_size == pytest.approx(
        exact.mean_batch_size, rel=1e-12
    )
    for name, exact_outcome in exact.tenants.items():
        sketch_outcome = sketch.tenants[name]
        assert sketch_outcome.submitted == exact_outcome.submitted
        assert sketch_outcome.completed == exact_outcome.completed
        assert sketch_outcome.dropped == exact_outcome.dropped
        sk, ex = sketch_outcome.report, exact_outcome.report
        assert sk.deadline_miss_count == ex.deadline_miss_count
        assert sk.max_queue_depth == ex.max_queue_depth
        assert sk.num_graphs == ex.num_graphs
        if not ex.num_graphs:
            continue
        assert sk.max_latency_ms == pytest.approx(ex.max_latency_ms, rel=1e-12)
        # Mean differs only by float-sum reassociation (chunked np.sum).
        assert sk.mean_latency_ms == pytest.approx(ex.mean_latency_ms, rel=1e-9)
        assert sk.total_energy_mj == pytest.approx(ex.total_energy_mj, rel=1e-9)
        # Percentiles carry the log-histogram's documented error band
        # (2% bucket width + interpolation slack).
        assert sk.p50_latency_ms == pytest.approx(ex.p50_latency_ms, rel=0.035)
        assert sk.p99_latency_ms == pytest.approx(ex.p99_latency_ms, rel=0.035)


class TestSketchOracleCrossCheck:
    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded", "edf"])
    @pytest.mark.parametrize("options", MATRIX_OPTIONS)
    def test_matrix_sketch_matches_exact(self, two_tenants, policy, options):
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=2, policy=policy
        ).with_options(**options)
        rate = 1.3 * cluster.num_replicas / cluster.mean_service_s()
        requests = LoadGenerator.bursty(two_tenants, rate, seed=7).generate(
            num_requests=120
        )
        exact = cluster.serve(requests, duration_s=0.05)
        sketch = cluster.serve(requests, duration_s=0.05, mode="sketch")
        _assert_sketch_matches_exact(sketch, exact)

    @pytest.mark.parametrize("policy", ["round_robin", "least_loaded", "edf"])
    @pytest.mark.parametrize("options", MATRIX_OPTIONS)
    def test_matrix_serve_stream_matches_exact(self, two_tenants, policy, options):
        """End-to-end streaming (lazy generation + sketches) vs the oracle."""
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=2, policy=policy
        ).with_options(**options)
        rate = 1.3 * cluster.num_replicas / cluster.mean_service_s()
        generator = LoadGenerator.bursty(two_tenants, rate, seed=7)
        # num_requests bounds generation in both paths; the horizon is then
        # the last completion, so the two reports see identical traffic.
        exact = cluster.serve(generator.generate(num_requests=120))
        sketch = cluster.serve_stream(generator, num_requests=120)
        _assert_sketch_matches_exact(sketch, exact)

    def test_fast_path_matches_scalar_sketch_path(self, two_tenants):
        """The vectorised FIFO lane and the event loop agree exactly."""
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=2, policy="round_robin"
        )
        assert cluster._fast_path_eligible()
        rate = 1.1 * cluster.num_replicas / cluster.mean_service_s()
        generator = LoadGenerator.poisson(two_tenants, rate, seed=5)
        fast = cluster.serve_stream(generator, num_requests=400)
        scalar = cluster.serve(generator.iter_requests(num_requests=400), mode="sketch")
        np.testing.assert_array_equal(
            fast.per_replica_utilisation, scalar.per_replica_utilisation
        )
        np.testing.assert_array_equal(
            fast.queue_depth_hist.counts, scalar.queue_depth_hist.counts
        )
        np.testing.assert_array_equal(
            fast.batch_size_hist.counts, scalar.batch_size_hist.counts
        )
        for name in fast.tenants:
            a = fast.tenants[name].report.sketch
            b = scalar.tenants[name].report.sketch
            assert a.completed == b.completed
            assert a.latency.max == b.latency.max
            assert a.deadline_misses == b.deadline_misses
            assert a.replicas == b.replicas
            np.testing.assert_array_equal(a.quantiles.counts, b.quantiles.counts)
            np.testing.assert_array_equal(a.queue.count, b.queue.count)
            assert a.queue.max == b.queue.max

    def test_non_fifo_policies_take_the_scalar_path(self, two_tenants):
        for options in (
            {"policy": "edf"},
            {"policy": "least_loaded"},
            {"max_batch_size": 2},
            {"queue_capacity": 8},
        ):
            cluster = Cluster(
                two_tenants, backend="cpu", num_replicas=2, policy="round_robin"
            ).with_options(**options)
            assert not cluster._fast_path_eligible()

    def test_sketch_report_exports(self, two_tenants):
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=2)
        generator = LoadGenerator.poisson(two_tenants, 20_000.0, seed=1)
        report = cluster.serve_stream(generator, duration_s=0.01)
        payload = report.to_dict()
        assert payload["mode"] == "sketch"
        assert report.to_json()  # JSON-serialisable without default=str help
        assert report.to_csv()
        assert report.summary()
        rows = report.tenant_rows()
        assert {row["tenant"] for row in rows} == {"trigger", "screening"}

    def test_serve_mode_validation(self, two_tenants):
        cluster = Cluster(two_tenants, backend="cpu")
        with pytest.raises(ValueError, match="mode"):
            cluster.serve([], mode="approximate")

    def test_serve_stream_exact_mode_equals_serve(self, two_tenants):
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=2)
        generator = LoadGenerator.poisson(two_tenants, 15_000.0, seed=2)
        via_stream = cluster.serve_stream(
            generator, duration_s=0.01, mode="exact"
        )
        via_serve = cluster.serve(
            generator.generate(duration_s=0.01), duration_s=0.01
        )
        assert via_stream.to_json() == via_serve.to_json()

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_sketch_serve_rejects_unsorted_requests(self, two_tenants, dynamic):
        """Sketch mode streams its input, so it never sorts it; exact mode does."""
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=2, policy="edf")
        if dynamic:
            cluster = cluster.with_options(admission="queue=64")
        assert cluster.dynamic == dynamic
        requests = LoadGenerator.poisson(two_tenants, 15_000.0, seed=3).generate(num_requests=20)
        shuffled = list(reversed(requests))
        with pytest.raises(ValueError, match="sorted"):
            cluster.serve(shuffled, mode="sketch")
        assert cluster.serve(shuffled).to_json() == cluster.serve(requests).to_json()

    def test_sketch_serve_equals_serve_stream_on_dynamic_cluster(self, two_tenants):
        """Off the fast path, serve_stream is sketch-mode serve over iter_requests."""
        cluster = Cluster(two_tenants, backend="cpu", num_replicas=2, policy="least_loaded")
        mean = cluster.mean_service_s()
        cluster = cluster.with_options(
            autoscaler=f"reactive:min=1,max=4,interval={4 * mean},delay={2 * mean}",
            faults=f"fail@{20 * mean}:r0;recover@{60 * mean}:r0",
            admission="queue=32,headroom=2",
        )
        generator = LoadGenerator.bursty(two_tenants, 1.5 * 2 / mean, seed=4)
        n = 150
        via_serve = cluster.serve(generator.iter_requests(num_requests=n), mode="sketch")
        via_stream = cluster.serve_stream(generator, num_requests=n)
        assert via_serve.is_dynamic
        assert via_serve.to_json() == via_stream.to_json()


# ---------------------------------------------------------------------------
# The scalar loop's buffered sketch sink vs folding each row as it completes
# ---------------------------------------------------------------------------
class _RowSink(cluster_module._SketchSink):
    """The per-row reference for the buffered sink: every completion goes
    through :meth:`LatencySketch.observe` when its batch is dispatched, and
    every queue sample straight into its moments."""

    def on_batch(self, batch, services, energies, start_s, end_s, replica):
        size = len(batch)
        self.batch_hist.update(float(size))
        tenant = batch[0].request.tenant
        sketch = self.sketches[tenant]
        for item, service_s, energy_j in zip(batch, services, energies):
            sketch.observe(end_s - item.request.arrival_s, service_s, energy_j, replica, size)
        heapq.heappush(self._qd_heaps[tenant], (end_s, size))
        if end_s > self.max_completion_s:
            self.max_completion_s = end_s

    def on_admit(self, request):
        tenant = request.tenant
        heap = self._qd_heaps[tenant]
        popped = self._qd_popped[tenant]
        while heap and heap[0][0] <= request.arrival_s:
            popped += heapq.heappop(heap)[1]
        self._qd_popped[tenant] = popped
        arrived = self._qd_arrived[tenant]
        self.sketches[tenant].queue.update(float(arrived - popped))
        self._qd_arrived[tenant] = arrived + 1

    def on_instant_sample(self, depth):
        self.queue_hist.update(float(depth))

    def flush(self):
        pass


@functools.lru_cache(maxsize=None)
def _sink_cluster():
    """Three tenants: a deferrable one, a best-effort one, unequal shares."""
    trigger, screening, batch = _golden_workloads()
    deferrable = Workload(
        "deferrable",
        model="GCN",
        dataset=screening.dataset,
        deadline_s=4e-3,
        tenant_class="deferrable",
    )
    return Cluster([trigger, deferrable, batch], backend="cpu")


class TestSketchSinkDifferential:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        policy=st.sampled_from(["round_robin", "least_loaded", "edf"]),
        replicas=st.integers(1, 4),
        max_batch=st.integers(1, 4),
        timeout=st.sampled_from([0.0, 0.5, 3.0]),
        capacity=st.one_of(st.none(), st.integers(2, 24)),
        autoscale=st.booleans(),
        faults=st.booleans(),
        admission=st.sampled_from([None, "queue=12", "queue=24,headroom=1.5", "carbon_waiting:threshold=400,queue=16"]),
        power=st.booleans(),
        carbon=st.sampled_from([None, "diurnal", "constant"]),
        arrivals=st.sampled_from(["poisson", "bursty"]),
        load=st.sampled_from([0.5, 1.0, 1.6]),
        per_tenant=st.integers(1, 80),
        flush_rows=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    def test_buffered_sink_matches_per_row_sink(
        self,
        policy,
        replicas,
        max_batch,
        timeout,
        capacity,
        autoscale,
        faults,
        admission,
        power,
        carbon,
        arrivals,
        load,
        per_tenant,
        flush_rows,
        seed,
    ):
        """Flushing every ``flush_rows`` rows gives the report, and every
        tenant sketch float by ``.hex()``, that folding each row as it
        completes gives."""
        base = _sink_cluster()
        service = base.mean_service_s()
        rate = load * replicas / service
        horizon = 3 * per_tenant / rate
        options = {
            "num_replicas": replicas,
            "policy": policy,
            "max_batch_size": max_batch,
            "batch_timeout_s": timeout * service,
            "queue_capacity": capacity,
            "admission": admission,
        }
        if autoscale:
            options["autoscaler"] = ReactiveAutoscaler(
                min_replicas=1,
                max_replicas=4,
                interval_s=horizon / 16,
                provision_delay_s=horizon / 32,
                scale_down_hysteresis_s=horizon / 8,
            )
        if faults:
            options["faults"] = FaultSchedule.crashes(
                replicas, horizon, mtbf_s=horizon / 2, mttr_s=horizon / 10, seed=seed
            )
        if power:
            options["power"] = PowerModel.parse("busy=2.0,idle=0.5")
        if carbon == "diurnal":
            options["carbon"] = CarbonIntensity.diurnal(period_s=horizon / 2)
        elif carbon == "constant":
            options["carbon"] = CarbonIntensity.constant(300.0)
        cluster = base.with_options(**options)
        generator = getattr(LoadGenerator, arrivals)(cluster.workloads, rate, seed=seed)
        requests = list(generator.iter_requests(num_requests=per_tenant))

        with mock.patch.object(cluster_module, "SKETCH_FLUSH_ROWS", flush_rows):
            buffered = cluster.serve(requests, mode="sketch")
        with mock.patch.object(cluster_module, "_SketchSink", _RowSink):
            per_row = cluster.serve(requests, mode="sketch")
        assert buffered.to_dict() == per_row.to_dict()
        for tenant, outcome in per_row.tenants.items():
            expected = _sketch_fingerprint(outcome.report.sketch)
            assert _sketch_fingerprint(buffered.tenants[tenant].report.sketch) == expected, tenant

    def test_nan_latency_is_skipped_by_extrema_like_the_per_row_sink(self):
        """An arrival at +inf completes at +inf, a NaN latency.  Comparisons
        skip it in the per-row minimum and maximum, and so must the flush."""
        cluster = _sink_cluster()
        requests = [
            ServingRequest("trigger", 0, 0, 0.0, 0, 1e-3),
            ServingRequest("trigger", 0, 1, math.inf, 1, 1e-3),
        ]
        buffered = cluster.serve(requests, mode="sketch")
        with mock.patch.object(cluster_module, "_SketchSink", _RowSink):
            per_row = cluster.serve(requests, mode="sketch")
        assert json.dumps(buffered.to_dict(), sort_keys=True) == json.dumps(per_row.to_dict(), sort_keys=True)
        sketch = buffered.tenants["trigger"].report.sketch
        assert _sketch_fingerprint(sketch) == _sketch_fingerprint(per_row.tenants["trigger"].report.sketch)
        assert math.isnan(sketch.latency.total) and math.isfinite(sketch.latency.max)


# ---------------------------------------------------------------------------
# Tier-1 memory smoke: report size independent of request count
# ---------------------------------------------------------------------------
class TestSketchMemorySmoke:
    def test_report_memory_does_not_scale_with_requests(self, two_tenants):
        """50k requests must cost exactly the bytes 5k requests cost."""
        cluster = Cluster(
            two_tenants, backend="cpu", num_replicas=2, policy="round_robin"
        )
        rate = 0.9 * cluster.num_replicas / cluster.mean_service_s()
        generator = LoadGenerator.poisson(two_tenants, rate, seed=0)
        small = cluster.serve_stream(generator, num_requests=2_500)
        large = cluster.serve_stream(generator, num_requests=25_000)
        assert large.completed == 10 * small.completed
        small_nbytes = sketch_nbytes(small)
        assert sketch_nbytes(large) == small_nbytes
        # O(tenants + replicas): dominated by the two fixed-size per-tenant
        # log histograms, far below what 50k records would occupy.
        assert small_nbytes < 200_000

    def test_streaming_serve_million_requests_bounded_memory(self):
        """A million-request, 100-tenant replay conserves every request and
        its report is not a single byte larger than the 1%-sized run's."""
        num_tenants, per_tenant = 100, 10_000
        tenants = [
            Workload(
                f"tenant{i:03d}",
                model=("GIN" if i % 2 else "GCN"),
                dataset="MolHIV",
                num_graphs=4,
                seed=i,
                deadline_s=(2e-3 if i % 3 else None),
                priority=i % 3,
                share=1.0 + (i % 5) * 0.5,
            )
            for i in range(num_tenants)
        ]
        cluster = Cluster(tenants, backend="cpu", num_replicas=8)
        # ~90% of pool capacity: heavily loaded but stable, so queues form
        # and drain and the latency distribution has both fast and queued
        # modes.
        rate = 0.9 * cluster.num_replicas / cluster.mean_service_s()
        generator = LoadGenerator.poisson(tenants, rate, seed=0)
        small = cluster.serve_stream(generator, num_requests=per_tenant // 100)
        report = cluster.serve_stream(generator, num_requests=per_tenant)

        assert report.mode == "sketch"
        assert report.submitted == num_tenants * per_tenant
        assert report.submitted == report.completed + report.dropped
        assert len(report.tenants) == num_tenants
        for outcome in report.tenants.values():
            assert outcome.submitted == outcome.completed + outcome.dropped
            assert outcome.report.p50_latency_ms <= outcome.report.p99_latency_ms
            assert outcome.report.p99_latency_ms <= outcome.report.max_latency_ms
        assert sketch_nbytes(report) == sketch_nbytes(small), (
            "report state grew with request count: per-request state is "
            "leaking into the sketch report"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        digests = golden_digests(_write_trace_csv(directory))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
