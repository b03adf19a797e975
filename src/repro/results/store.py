"""The longitudinal results store: every recorded run, in one SQLite file.

Every Job family (dse, plan, serve, experiments) used to emit one-shot
CSV/JSON that vanished the moment the terminal scrolled.  :class:`ResultStore`
is the persistence half of the fuzzbench-style experiment service the ROADMAP
calls for: runs are recorded **with provenance** (UTC timestamp, git SHA and
dirty flag, repro version, CLI argv, worker count, wall-clock duration, host
CPU count) and reports are generated offline from the store
(:mod:`repro.results.report`), never from the live run.

Two tables carry run data:

* ``runs``  — one row per recorded run: provenance plus the run's complete
  ``to_json()`` payload **verbatim**, so the round trip is lossless by
  construction (``load_run().payload`` is byte-identical to what the result
  serialised at record time);
* ``rows``  — the run's ``ResultTable.rows``, one JSON document per row, so
  reports and comparisons can query individual columns without parsing the
  nested payload.

One more accumulates benchmark artifacts (:mod:`repro.results.ingest`):
``benchmarks`` (pytest-benchmark ``BENCH_*.json``).

Two carry resumable-run journals (:class:`StoreCheckpoint`, the durable
:class:`~repro.engine.Checkpoint`): ``checkpoint_runs`` — one row per
checkpointed run, keyed by run id with the config signature, git SHA,
executor and a ``finished`` flag — and ``checkpoints`` — one **pickled**
row payload per completed item index (pickle, not JSON, so the replayed
rows are the original objects and a resumed run is byte-identical to an
uninterrupted one).  Each journal append is a single autocommitted INSERT:
a kill at any instant loses at most in-flight items, never tears a row.
A checkpointed run reserves its run id up front; the final ``record()``
claims that id and flips ``finished``, so interrupted runs are exactly the
``checkpoint_runs`` rows with no final payload — what ``repro runs list``
surfaces as ``resumable``.

Concurrency: the store opens SQLite in WAL mode with a generous busy
timeout, and run insertion takes an immediate transaction, so two processes
recording into the same database interleave safely (run ids stay unique and
sequential per kind).
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from typing import Dict, Iterator, List, Optional

__all__ = [
    "DEFAULT_DB_PATH",
    "ResultStore",
    "StoreCheckpoint",
    "StoreError",
    "StoredRun",
    "RunRecorder",
    "config_signature",
]

#: Where ``--record`` (with no argument) and ``repro report`` look by default.
DEFAULT_DB_PATH = os.path.join("results", "repro.db")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id        TEXT UNIQUE NOT NULL,
    kind          TEXT NOT NULL,
    signature     TEXT NOT NULL,
    timestamp_utc TEXT NOT NULL,
    git_sha       TEXT,
    git_dirty     INTEGER,
    repro_version TEXT NOT NULL,
    argv          TEXT,
    workers       INTEGER,
    duration_s    REAL NOT NULL,
    host_cpus     INTEGER NOT NULL,
    num_rows      INTEGER NOT NULL,
    payload       TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS rows (
    run_id    TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    row_index INTEGER NOT NULL,
    payload   TEXT NOT NULL,
    PRIMARY KEY (run_id, row_index)
);
CREATE TABLE IF NOT EXISTS benchmarks (
    fullname     TEXT NOT NULL,
    recorded_utc TEXT NOT NULL,
    commit_sha   TEXT,
    commit_time  TEXT,
    mean_s       REAL NOT NULL,
    stddev_s     REAL,
    min_s        REAL,
    max_s        REAL,
    rounds       INTEGER,
    speedup      REAL,
    cpus         INTEGER,
    gate_floor   REAL,
    machine      TEXT,
    source       TEXT,
    PRIMARY KEY (fullname, recorded_utc)
);
CREATE TABLE IF NOT EXISTS checkpoint_runs (
    run_id      TEXT PRIMARY KEY,
    seq         INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    signature   TEXT NOT NULL,
    git_sha     TEXT,
    executor    TEXT,
    workers     INTEGER,
    started_utc TEXT NOT NULL,
    finished    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run_id     TEXT NOT NULL REFERENCES checkpoint_runs(run_id) ON DELETE CASCADE,
    item_index INTEGER NOT NULL,
    payload    BLOB NOT NULL,
    PRIMARY KEY (run_id, item_index)
);
"""


class StoreError(Exception):
    """A results database is missing, corrupt, or was misused."""


def config_signature(payload: Dict) -> str:
    """A short stable signature for a run's configuration.

    Canonical JSON (sorted keys) hashed with SHA-256, truncated to 12 hex
    characters — enough to tell two sweeps apart in a run-history table,
    stable across processes and Python versions.
    """
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _git_info(cwd: Optional[str] = None) -> tuple:
    """``(sha, dirty)`` of the enclosing git checkout, or ``(None, None)``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class StoredRun:
    """One run loaded back out of the store."""

    run_id: str
    kind: str
    signature: str
    timestamp_utc: str
    git_sha: Optional[str]
    git_dirty: Optional[bool]
    repro_version: str
    argv: Optional[List[str]]
    workers: Optional[int]
    duration_s: float
    host_cpus: int
    #: The run's ``ResultTable.rows``, decoded from the ``rows`` table.
    rows: List[Dict]
    #: The run's complete ``to_json()`` text, verbatim as recorded.
    payload: str

    def meta_row(self) -> Dict:
        """The flat dict the ``repro runs list`` table and reports render."""
        sha = (self.git_sha or "")[:10]
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "timestamp_utc": self.timestamp_utc,
            "git": sha + ("+dirty" if self.git_dirty else "") if sha else "?",
            "version": self.repro_version,
            "signature": self.signature[:12],
            "rows": len(self.rows),
            "workers": self.workers,
            "duration_s": round(self.duration_s, 3),
            "host_cpus": self.host_cpus,
            "status": "complete",
        }


@dataclass
class RunRecorder:
    """The handle ``ResultStore.record`` yields; callers attach one result.

    Either :meth:`add_table` (anything with ``rows`` and ``to_json()`` —
    every :class:`~repro.engine.ResultTable`) or :meth:`add_payload`
    (explicit rows plus serialised payload, used for
    :class:`~repro.serve.ServingReport` whose per-tenant rows are not a
    ``rows`` attribute).
    """

    kind: str
    signature: str
    argv: Optional[List[str]] = None
    workers: Optional[int] = None
    rows: Optional[List[Dict]] = None
    payload: Optional[str] = None
    #: Optional override for the recorded wall-clock duration.  The store
    #: measures the ``with`` block by default; callers that already timed
    #: the work elsewhere (the experiments CLI records several results from
    #: one suite run) set this instead.
    duration_s: Optional[float] = None
    #: Set by the store once the context manager commits.
    run_id: Optional[str] = field(default=None, init=False)

    def add_table(self, table) -> None:
        self.add_payload([dict(row) for row in table.rows], table.to_json())

    def add_payload(self, rows: List[Dict], payload: str) -> None:
        if self.payload is not None:
            raise StoreError("record() already holds a result for this run")
        self.rows = rows
        self.payload = payload


@dataclass
class StoreCheckpoint:
    """A durable run journal: the :class:`~repro.engine.Checkpoint` protocol
    backed by the store's ``checkpoints`` table.

    Rows are pickled (not JSON), so :meth:`completed_rows` replays the
    original row objects and a resumed run's output is byte-identical to an
    uninterrupted one.  Each :meth:`append` is one autocommitted INSERT —
    atomic per item, so a crash or kill never leaves a torn row behind.
    """

    store: "ResultStore"
    run_id: str
    kind: str
    signature: str

    def completed_rows(self) -> Dict[int, object]:
        cursor = self.store._connection.execute(
            "SELECT item_index, payload FROM checkpoints WHERE run_id = ?",
            (self.run_id,),
        )
        return {index: pickle.loads(payload) for index, payload in cursor}

    def append(self, index: int, row) -> None:
        self.store._connection.execute(
            "INSERT OR REPLACE INTO checkpoints (run_id, item_index, payload)"
            " VALUES (?, ?, ?)",
            (self.run_id, index, pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL)),
        )

    def completed_count(self) -> int:
        return self.store._connection.execute(
            "SELECT COUNT(*) FROM checkpoints WHERE run_id = ?", (self.run_id,)
        ).fetchone()[0]


class ResultStore:
    """SQLite-backed store of runs, benchmark points and run checkpoints.

    Parameters
    ----------
    path:
        Database file (default ``results/repro.db``).  ``":memory:"`` is
        accepted for tests.
    create:
        When true (the default for recording paths), the parent directory
        and schema are created as needed.  When false (reporting paths), a
        missing file raises :class:`StoreError` instead of silently creating
        an empty database.
    """

    def __init__(self, path: str = DEFAULT_DB_PATH, create: bool = True) -> None:
        self.path = path
        if not create and path != ":memory:" and not os.path.exists(path):
            raise StoreError(f"no results database at {path!r}; record a run first")
        if create and path != ":memory:":
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
        try:
            # Autocommit mode: transactions are managed explicitly (the
            # recorder's BEGIN IMMEDIATE), never implicitly by the driver.
            self._connection = sqlite3.connect(path, timeout=30.0, isolation_level=None)
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA busy_timeout=30000")
            self._connection.execute("PRAGMA foreign_keys=ON")
            if create:
                with self._connection:
                    self._connection.executescript(_SCHEMA)
            # A probe query surfaces corrupt files and wrong schemas now,
            # with a uniform error, rather than mid-report.
            self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()
        except sqlite3.DatabaseError as error:
            raise StoreError(f"cannot open results database {path!r}: {error}")

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recording ----------------------------------------------------------
    @contextmanager
    def record(
        self,
        kind: str,
        signature: str,
        argv: Optional[List[str]] = None,
        workers: Optional[int] = None,
        run_id: Optional[str] = None,
    ) -> Iterator[RunRecorder]:
        """Record one run: provenance captured here, result attached by the caller.

        Usage::

            with store.record("dse", signature, argv=sys.argv[1:]) as rec:
                result = SweepRunner(spec).run()
                rec.add_table(result)
            print(rec.run_id)

        The wall-clock duration is the time spent inside the ``with`` block.
        Nothing is written if the block raises — a crashed run leaves no
        partial row behind.

        ``run_id`` claims an id reserved by :meth:`begin_checkpoint`: the
        final payload lands under the id announced when the run started, and
        the checkpoint is marked finished in the same transaction.
        """
        recorder = RunRecorder(kind=kind, signature=signature, argv=argv, workers=workers)
        started = time.perf_counter()
        yield recorder
        duration_s = (
            recorder.duration_s
            if recorder.duration_s is not None
            else time.perf_counter() - started
        )
        if recorder.payload is None or recorder.rows is None:
            raise StoreError(
                "record() block finished without attaching a result "
                "(call add_table or add_payload on the recorder)"
            )
        from .. import __version__

        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        git_sha, git_dirty = _git_info()
        connection = self._connection
        # BEGIN IMMEDIATE takes the write lock before reading MAX(id), so
        # concurrent recorders cannot mint the same run id.
        connection.execute("BEGIN IMMEDIATE")
        try:
            if run_id is None:
                next_id = self._next_seq()
                run_id = f"{kind}-{next_id}"
            else:
                reserved = connection.execute(
                    "SELECT seq FROM checkpoint_runs WHERE run_id = ?", (run_id,)
                ).fetchone()
                if reserved is None:
                    raise StoreError(
                        f"run id {run_id!r} was not reserved by begin_checkpoint"
                    )
                next_id = reserved[0]
            connection.execute(
                "INSERT INTO runs (id, run_id, kind, signature, timestamp_utc,"
                " git_sha, git_dirty, repro_version, argv, workers, duration_s,"
                " host_cpus, num_rows, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    next_id,
                    run_id,
                    kind,
                    signature,
                    timestamp,
                    git_sha,
                    None if git_dirty is None else int(git_dirty),
                    __version__,
                    None if argv is None else json.dumps(list(argv)),
                    workers,
                    duration_s,
                    _host_cpus(),
                    len(recorder.rows),
                    recorder.payload,
                ),
            )
            connection.executemany(
                "INSERT INTO rows (run_id, row_index, payload) VALUES (?, ?, ?)",
                [
                    (run_id, index, json.dumps(row, default=str))
                    for index, row in enumerate(recorder.rows)
                ],
            )
            connection.execute(
                "UPDATE checkpoint_runs SET finished = 1 WHERE run_id = ?",
                (run_id,),
            )
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        recorder.run_id = run_id

    def _next_seq(self) -> int:
        """The next global run sequence number (call inside a transaction).

        Considers both recorded runs *and* reserved-but-unfinished
        checkpoints, so a concurrent plain ``record()`` can never mint an id
        a resumable run is still holding.
        """
        max_run = self._connection.execute(
            "SELECT COALESCE(MAX(id), 0) FROM runs"
        ).fetchone()[0]
        try:
            max_seq = self._connection.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM checkpoint_runs"
            ).fetchone()[0]
        except sqlite3.OperationalError:  # pre-checkpoint schema, create=False
            max_seq = 0
        return max(max_run, max_seq) + 1

    # -- checkpointed (resumable) runs --------------------------------------
    def begin_checkpoint(
        self,
        kind: str,
        signature: str,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> StoreCheckpoint:
        """Reserve a run id and open its journal.

        The returned :class:`StoreCheckpoint` plugs straight into
        ``Engine.run(job, checkpoint=...)``; pass its ``run_id`` to
        :meth:`record` once the run completes so the final payload claims
        the reserved id and the checkpoint is marked finished.
        """
        timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        git_sha, _ = _git_info()
        connection = self._connection
        connection.execute("BEGIN IMMEDIATE")
        try:
            seq = self._next_seq()
            run_id = f"{kind}-{seq}"
            connection.execute(
                "INSERT INTO checkpoint_runs (run_id, seq, kind, signature,"
                " git_sha, executor, workers, started_utc, finished)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (run_id, seq, kind, signature, git_sha, executor, workers, timestamp),
            )
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        return StoreCheckpoint(store=self, run_id=run_id, kind=kind, signature=signature)

    def checkpoint_state(self, run_id: str) -> Optional[Dict]:
        """The checkpoint's metadata (plus completed-item count), or ``None``."""
        try:
            record = self._connection.execute(
                "SELECT run_id, seq, kind, signature, git_sha, executor, workers,"
                " started_utc, finished FROM checkpoint_runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        except sqlite3.OperationalError:  # pre-checkpoint schema, create=False
            return None
        if record is None:
            return None
        completed = self._connection.execute(
            "SELECT COUNT(*) FROM checkpoints WHERE run_id = ?", (run_id,)
        ).fetchone()[0]
        return {
            "run_id": record[0],
            "seq": record[1],
            "kind": record[2],
            "signature": record[3],
            "git_sha": record[4],
            "executor": record[5],
            "workers": record[6],
            "started_utc": record[7],
            "finished": bool(record[8]),
            "completed_items": completed,
        }

    def resume_checkpoint(self, run_id: str) -> StoreCheckpoint:
        """Reopen an existing checkpoint journal by run id."""
        state = self.checkpoint_state(run_id)
        if state is None:
            raise StoreError(f"no checkpointed run {run_id!r} in {self.path}")
        return StoreCheckpoint(
            store=self,
            run_id=run_id,
            kind=state["kind"],
            signature=state["signature"],
        )

    def finish_checkpoint(self, run_id: str) -> None:
        """Mark a checkpoint finished without claiming its id via record()."""
        self._connection.execute(
            "UPDATE checkpoint_runs SET finished = 1 WHERE run_id = ?", (run_id,)
        )

    def resumable_runs(self, kind: Optional[str] = None) -> List[Dict]:
        """Interrupted runs (journal present, no final payload), oldest first.

        Rows are shaped like :meth:`StoredRun.meta_row` so ``repro runs
        list`` renders complete and resumable runs in one table.
        """
        try:
            cursor = self._connection.execute(
                "SELECT run_id, kind, signature, git_sha, executor, workers,"
                " started_utc FROM checkpoint_runs WHERE finished = 0"
                + ("" if kind is None else " AND kind = ?")
                + " ORDER BY seq",
                () if kind is None else (kind,),
            )
        except sqlite3.OperationalError:  # pre-checkpoint schema, create=False
            return []
        rows = []
        for run_id, run_kind, signature, git_sha, executor, workers, started in cursor:
            completed = self._connection.execute(
                "SELECT COUNT(*) FROM checkpoints WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
            rows.append(
                {
                    "run_id": run_id,
                    "kind": run_kind,
                    "timestamp_utc": started,
                    "git": (git_sha or "")[:10] or "?",
                    "version": "?",
                    "signature": signature[:12],
                    "rows": completed,
                    "workers": workers,
                    "duration_s": None,
                    "host_cpus": None,
                    "status": "resumable",
                }
            )
        return rows

    # -- loading ------------------------------------------------------------
    def load_run(self, run_id: str) -> StoredRun:
        """The recorded run, rows decoded, payload verbatim."""
        cursor = self._connection.execute(
            "SELECT run_id, kind, signature, timestamp_utc, git_sha, git_dirty,"
            " repro_version, argv, workers, duration_s, host_cpus, payload"
            " FROM runs WHERE run_id = ?",
            (run_id,),
        )
        record = cursor.fetchone()
        if record is None:
            raise StoreError(f"no run {run_id!r} in {self.path}")
        rows = [
            json.loads(payload)
            for (payload,) in self._connection.execute(
                "SELECT payload FROM rows WHERE run_id = ? ORDER BY row_index",
                (run_id,),
            )
        ]
        return StoredRun(
            run_id=record[0],
            kind=record[1],
            signature=record[2],
            timestamp_utc=record[3],
            git_sha=record[4],
            git_dirty=None if record[5] is None else bool(record[5]),
            repro_version=record[6],
            argv=None if record[7] is None else json.loads(record[7]),
            workers=record[8],
            duration_s=record[9],
            host_cpus=record[10],
            rows=rows,
            payload=record[11],
        )

    def run_ids(self, kind: Optional[str] = None) -> List[str]:
        """Recorded run ids in insertion order, optionally one kind only."""
        if kind is None:
            cursor = self._connection.execute("SELECT run_id FROM runs ORDER BY id")
        else:
            cursor = self._connection.execute(
                "SELECT run_id FROM runs WHERE kind = ? ORDER BY id", (kind,)
            )
        return [run_id for (run_id,) in cursor]

    def kinds(self) -> List[str]:
        """Distinct run kinds, alphabetical (deterministic report order)."""
        cursor = self._connection.execute("SELECT DISTINCT kind FROM runs ORDER BY kind")
        return [kind for (kind,) in cursor]

    def runs(self, kind: Optional[str] = None) -> List[StoredRun]:
        """Every recorded run (optionally one kind), in insertion order."""
        return [self.load_run(run_id) for run_id in self.run_ids(kind)]

    # -- benchmark queries (populated by repro.results.ingest) -------------
    def benchmark_names(self) -> List[str]:
        cursor = self._connection.execute(
            "SELECT DISTINCT fullname FROM benchmarks ORDER BY fullname"
        )
        return [name for (name,) in cursor]

    def benchmark_trajectory(self, fullname: str) -> List[Dict]:
        """One benchmark's points ordered by recording time (the trajectory)."""
        cursor = self._connection.execute(
            "SELECT recorded_utc, commit_sha, mean_s, stddev_s, speedup, cpus,"
            " gate_floor, machine FROM benchmarks WHERE fullname = ?"
            " ORDER BY recorded_utc",
            (fullname,),
        )
        return [
            {
                "recorded_utc": recorded,
                "commit_sha": commit,
                "mean_s": mean_s,
                "stddev_s": stddev_s,
                "speedup": speedup,
                "cpus": cpus,
                "gate_floor": gate_floor,
                "machine": machine,
            }
            for recorded, commit, mean_s, stddev_s, speedup, cpus, gate_floor, machine in cursor
        ]
