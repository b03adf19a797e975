"""The longitudinal results store and reporting service.

Turns one-shot run outputs into an operated record, fuzzbench-style: runs
recorded with provenance into SQLite (:mod:`~repro.results.store`),
pytest-benchmark artifacts accumulated into trajectories
(:mod:`~repro.results.ingest`), and self-contained static HTML reports with
statistical run-vs-run comparisons generated offline from the store
(:mod:`~repro.results.report`, :mod:`~repro.results.stats`).

Entry points:

* ``repro dse|plan|serve|experiments --record [DB]`` — record the run;
* ``repro runs list|show`` — inspect the store from the CLI;
* ``repro report [--db PATH] [--out DIR] [--compare A B]`` — generate HTML.
"""

from .ingest import ingest_benchmark_file, ingest_benchmark_files
from .report import (
    DEFAULT_COMPARE_METRICS,
    compare_runs,
    generate_report,
    payloads_in_report,
    render_comparison_text,
)
from .stats import MannWhitneyResult, bootstrap_ci, compare_samples, mann_whitney_u
from .store import (
    DEFAULT_DB_PATH,
    ResultStore,
    RunRecorder,
    StoreCheckpoint,
    StoredRun,
    StoreError,
    config_signature,
)

__all__ = [
    "DEFAULT_DB_PATH",
    "DEFAULT_COMPARE_METRICS",
    "ResultStore",
    "RunRecorder",
    "StoreCheckpoint",
    "StoredRun",
    "StoreError",
    "config_signature",
    "ingest_benchmark_file",
    "ingest_benchmark_files",
    "generate_report",
    "compare_runs",
    "render_comparison_text",
    "payloads_in_report",
    "MannWhitneyResult",
    "mann_whitney_u",
    "bootstrap_ci",
    "compare_samples",
]
