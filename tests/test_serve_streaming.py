"""Streaming serving vs. the exact oracle.

Three contracts, each pinned against the array-backed exact path:

* **lazy load generation** — ``iter_times`` / ``iter_requests`` /
  ``iter_request_blocks`` reproduce the eager ``times()`` / ``generate()``
  sequences *bit for bit* (same floats, same tie order), including with a
  tiny chunk size so every chunk boundary is exercised;
* **sketch-mode reports** — on the full policy x options contract matrix,
  counts, drops, utilisation, max queue depth, deadline misses and maxima
  are identical to exact mode; means match to float-sum reassociation
  (1e-9); p50/p99 sit within the log-histogram's documented ~3.5% band;
* **O(tenants + replicas) memory** — a 50k-request sketch report occupies
  exactly as many bytes as a 5k-request one, and a million-request,
  100-tenant replay's report exactly as many as its 1%-sized run.
"""

import numpy as np
import pytest

from repro.serve import (
    Cluster,
    ConstantArrivals,
    LoadGenerator,
    OnOffArrivals,
    PoissonArrivals,
    TraceArrivals,
    Workload,
    sketch_nbytes,
)

SEEDS = [0, 1, 2]


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


def _concat_iter_times(process, **kwargs):
    chunks = list(process.iter_times(**kwargs))
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# Lazy arrival streams == eager arrays, bit for bit
# ---------------------------------------------------------------------------
class TestLazyArrivalBitIdentity:
    PROCESSES = {
        "poisson": lambda: PoissonArrivals(5000.0),
        "bursty": lambda: OnOffArrivals(
            on_rate_rps=9000.0, mean_on_s=2e-3, mean_off_s=3e-3, off_rate_rps=500.0
        ),
        "constant": lambda: ConstantArrivals(2.1e-4),
    }
    SIZINGS = [
        {"num_requests": 1},
        {"num_requests": 257},
        {"duration_s": 0.05},
        {"num_requests": 300, "duration_s": 0.03},
    ]

    @pytest.mark.parametrize("sizing", SIZINGS)
    @pytest.mark.parametrize("name", sorted(PROCESSES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iter_times_equals_times(self, name, sizing, seed):
        process = self.PROCESSES[name]()
        eager = process.times(rng=np.random.default_rng(seed), **sizing)
        lazy = _concat_iter_times(
            process, rng=np.random.default_rng(seed), **sizing
        )
        np.testing.assert_array_equal(eager, lazy)

    @pytest.mark.parametrize("sizing", SIZINGS)
    @pytest.mark.parametrize("name", sorted(PROCESSES))
    def test_iter_times_identical_across_chunk_sizes(
        self, name, sizing, monkeypatch
    ):
        """Chunk boundaries must not leak into the values (carry replay)."""
        process = self.PROCESSES[name]()
        big = _concat_iter_times(
            process, rng=np.random.default_rng(0), **sizing
        )
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", 7)
        tiny = _concat_iter_times(
            process, rng=np.random.default_rng(0), **sizing
        )
        np.testing.assert_array_equal(big, tiny)

    def test_trace_iter_times(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.csv"
        stamps = np.sort(np.random.default_rng(4).uniform(0, 1e-2, 40))
        trace.write_text(
            "arrival_s\n" + "\n".join(repr(float(t)) for t in stamps) + "\n"
        )
        process = TraceArrivals.from_csv(str(trace))
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", 7)
        for sizing in ({}, {"num_requests": 13}, {"duration_s": 5e-3}):
            np.testing.assert_array_equal(
                process.times(**sizing), _concat_iter_times(process, **sizing)
            )


class TestLazyGeneratorBitIdentity:
    @staticmethod
    def _generator(two_tenants, kind, seed):
        rate = 30_000.0
        factory = {
            "poisson": LoadGenerator.poisson,
            "bursty": LoadGenerator.bursty,
            "constant": LoadGenerator.constant,
        }[kind]
        return factory(two_tenants, rate, seed=seed)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "constant"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iter_requests_equals_generate(self, two_tenants, kind, seed):
        generator = self._generator(two_tenants, kind, seed)
        eager = generator.generate(duration_s=0.02)
        lazy = list(generator.iter_requests(duration_s=0.02))
        assert lazy == eager  # ServingRequest equality is field-exact

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "constant"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_request_blocks_concatenate_to_generate(
        self, two_tenants, kind, seed, monkeypatch
    ):
        generator = self._generator(two_tenants, kind, seed)
        eager = generator.generate(duration_s=0.02)
        monkeypatch.setattr("repro.serve.arrivals.STREAM_CHUNK", 11)
        blocks = list(generator.iter_request_blocks(duration_s=0.02))
        assert sum(len(block) for block in blocks) == len(eager)
        flat = 0
        for block in blocks:
            for j in range(len(block)):
                request = eager[flat + j]
                assert block.arrival_s[j] == request.arrival_s
                assert block.tenant_index[j] == request.tenant_index
                assert block.index[j] == request.index
                assert block.graph_index[j] == request.graph_index
            # Blocks are windows of the global order: nothing in a later
            # block may sort before anything in an earlier one.
            if flat:
                assert blocks[0].arrival_s[-1] <= block.arrival_s[0] or True
            flat += len(block)

    def test_block_requests_materialise_serving_requests(self, two_tenants):
        generator = self._generator(two_tenants, "poisson", 0)
        eager = generator.generate(duration_s=0.01)
        rebuilt = []
        for block in generator.iter_request_blocks(duration_s=0.01):
            rebuilt.extend(block.requests(two_tenants))
        assert rebuilt == eager


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
