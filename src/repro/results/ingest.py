"""Ingest pytest-benchmark artifacts into the results store.

The paper-figure benchmarks (``pytest benchmarks/ --benchmark-json=...``)
produce ``BENCH_*.json`` files — one measured point per benchmark (mean and
stddev wall clock, plus any ``extra_info`` fields such as ``speedup`` and
``cpus``).  Ingesting them turns disconnected per-build artifacts into one
longitudinal trajectory (the fuzzbench model: measurements land in the
store; reports are generated from the store).  Ingestion is **idempotent**:
a benchmark point is keyed on ``(fullname, recorded_utc)``, both taken from
the artifact itself — re-ingesting the same files replaces identical rows
instead of duplicating the trajectory.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .store import ResultStore, StoreError

__all__ = ["ingest_benchmark_file", "ingest_benchmark_files"]


def _load_json(path: str) -> Dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as error:
        raise StoreError(f"cannot read {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise StoreError(f"{path!r} is not valid JSON: {error}")


def ingest_benchmark_file(store: ResultStore, path: str) -> int:
    """Ingest one pytest-benchmark JSON file; returns benchmarks ingested."""
    payload = _load_json(path)
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise StoreError(f"{path!r} is not a pytest-benchmark JSON (no 'benchmarks')")
    recorded = payload.get("datetime") or ""
    commit_info = payload.get("commit_info") or {}
    machine = (payload.get("machine_info") or {}).get("node")
    ingested = 0
    connection = store._connection
    connection.execute("BEGIN IMMEDIATE")
    try:
        for bench in benchmarks:
            stats = bench.get("stats") or {}
            extra = bench.get("extra_info") or {}
            connection.execute(
                "INSERT OR REPLACE INTO benchmarks (fullname, recorded_utc,"
                " commit_sha, commit_time, mean_s, stddev_s, min_s, max_s,"
                " rounds, speedup, cpus, gate_floor, machine, source)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    bench.get("fullname") or bench.get("name"),
                    recorded,
                    commit_info.get("id"),
                    commit_info.get("time"),
                    stats.get("mean"),
                    stats.get("stddev"),
                    stats.get("min"),
                    stats.get("max"),
                    stats.get("rounds"),
                    extra.get("speedup"),
                    extra.get("cpus"),
                    extra.get("gate_floor"),
                    machine,
                    path,
                ),
            )
            ingested += 1
        connection.commit()
    except BaseException:
        connection.rollback()
        raise
    return ingested


def ingest_benchmark_files(store: ResultStore, paths: List[str]) -> int:
    """Ingest several ``BENCH_*.json`` files; returns total benchmarks."""
    return sum(ingest_benchmark_file(store, path) for path in paths)

