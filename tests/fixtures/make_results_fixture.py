"""Regenerate ``tests/fixtures/results_store.db``.

The fixture is a small, committed results database with known contents so
``tests/test_results.py`` can pin the reporting layer's behaviour —
deterministic HTML, byte-identical payload islands, and the
significant / not-significant verdicts of ``repro report --compare``:

* ``dse-1`` — 8 sweep points with latencies near 10 ms;
* ``dse-2`` — 8 sweep points near 20 ms (clearly *significant* vs dse-1);
* ``dse-3`` — 8 sweep points near 10 ms again (*not significant* vs dse-1);
* ``plan-4`` — 4 capacity-planning scenarios (exercises the plan Pareto
  section);
* two benchmark trajectory points.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/make_results_fixture.py

The absolute timestamps baked in at generation time are part of the
fixture; regenerating changes them (and the recorded git SHA), so only
regenerate when the schema itself changes.
"""

import json
import os
import sqlite3
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.results import ResultStore  # noqa: E402

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "results_store.db")

#: Seeded samples with a known Mann-Whitney outcome (see module docstring).
DSE_LATENCIES = {
    "dse-1": [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7],
    "dse-2": [20.0, 20.1, 20.2, 20.3, 20.4, 20.5, 20.6, 20.7],
    "dse-3": [10.05, 10.15, 10.25, 10.35, 10.45, 10.55, 10.65, 10.75],
}


def _dse_rows(latencies):
    return [
        {
            "model": "GIN",
            "dataset": "MolHIV",
            "num_node_units": 1 + index % 4,
            "latency_ms": latency,
            "power_w": round(5.0 + 0.5 * index, 2),
        }
        for index, latency in enumerate(latencies)
    ]


def _plan_rows():
    return [
        {
            "scenario": f"s{index}",
            "replicas": 1 + index,
            "replica_seconds": round(0.5 * (1 + index), 2),
            "worst_p99_latency_ms": round(40.0 / (1 + index), 2),
            "deadline_miss_rate": round(0.2 / (1 + index), 3),
        }
        for index in range(4)
    ]


def _payload(kind, rows):
    return json.dumps({"kind": kind, "rows": rows}, indent=2, default=str)


def main():
    if os.path.exists(FIXTURE_PATH):
        os.remove(FIXTURE_PATH)
    store = ResultStore(FIXTURE_PATH)
    for name, latencies in DSE_LATENCIES.items():
        rows = _dse_rows(latencies)
        with store.record("dse", f"fixture-{name}", argv=["dse", "--record"]) as rec:
            rec.add_payload(rows, _payload("dse", rows))
            rec.duration_s = 1.5
    rows = _plan_rows()
    with store.record("plan", "fixture-plan", argv=["plan", "--record"], workers=2) as rec:
        rec.add_payload(rows, _payload("plan", rows))
        rec.duration_s = 2.5
    bench = "benchmarks/test_experiments_speedup.py::test_experiment_harness"
    store._connection.executemany(
        "INSERT OR REPLACE INTO benchmarks (fullname, recorded_utc, commit_sha,"
        " commit_time, mean_s, stddev_s, min_s, max_s, rounds, speedup, cpus,"
        " gate_floor, machine, source) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        [
            (bench, "2026-08-01T00:00:00Z", "aaaa111", "2026-08-01T00:00:00Z",
             1.20, 0.01, 1.18, 1.22, 3, 2.1, 4, 2.0, "ci", "BENCH_experiments.json"),
            (bench, "2026-08-02T00:00:00Z", "bbbb222", "2026-08-02T00:00:00Z",
             1.05, 0.01, 1.03, 1.07, 3, 2.4, 4, 2.0, "ci", "BENCH_experiments.json"),
        ],
    )
    # Fold the WAL back into the main file so the committed fixture is a
    # single self-contained .db with no -wal/-shm sidecars.
    store._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    store._connection.execute("PRAGMA journal_mode=DELETE")
    store.close()
    with sqlite3.connect(FIXTURE_PATH) as probe:
        runs = probe.execute("SELECT run_id FROM runs ORDER BY id").fetchall()
    print(f"wrote {FIXTURE_PATH}: runs {[r[0] for r in runs]}")


if __name__ == "__main__":
    main()
