"""Tests for the pluggable executor subsystem and checkpointed resume.

Covers the two transports' byte-identity contract (serial and pool, in
contiguous and unit chunks, reproduce the committed pre-refactor fixtures),
the engine's in-process fallback below two workers, the checkpoint journal
(kill-mid-run then resume is byte-identical to an uninterrupted run, and
resumed items are never re-evaluated), the :class:`CheckpointSlice` window
the dse runner threads through its per-group jobs, the durable
:class:`repro.results.StoreCheckpoint`, the pool's crashed-worker
detection (the run raises and its journal stays resumable), and the CLI
resume surface (``--executor`` / ``--resume`` / the
``runs list`` resumable marker), including a real SIGTERM kill of a
recording subprocess.
"""

import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.cli import main
from repro.dse import SweepRunner, SweepSpec
from repro.engine import (
    EXECUTOR_NAMES,
    CheckpointSlice,
    Engine,
    Job,
    MemoryCheckpoint,
    PoolExecutor,
    make_executor,
)
from repro.eval import run_all_experiments
from repro.plan import PlanRunner, PlanSpec, TenantMix
from repro.results import ResultStore, StoreError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_text(name: str) -> str:
    with open(os.path.join(FIXTURES, name)) as handle:
        return handle.read()


def _fixture_sweep_spec() -> SweepSpec:
    return SweepSpec.parallelism_grid(
        models=("GCN", "GIN"),
        datasets=("MolHIV",),
        node_values=(1, 2),
        edge_values=(1, 4),
        apply_values=(2,),
        scatter_values=(4,),
        num_graphs=6,
        board=None,
    )


def _fixture_plan_spec() -> PlanSpec:
    mix = TenantMix(
        "prod",
        (
            {
                "tenant": "trigger",
                "model": "GIN",
                "dataset": "MolHIV",
                "num_graphs": 3,
                "seed": 1,
                "deadline_s": 15e-3,
                "priority": 1,
                "share": 2.0,
            },
            {
                "tenant": "screening",
                "model": "GCN",
                "dataset": "MolHIV",
                "num_graphs": 3,
                "seed": 2,
                "deadline_s": 25e-3,
            },
        ),
    )
    return PlanSpec(
        mixes=[mix],
        backend="cpu",
        replicas=(1, 2),
        policies=("round_robin", "edf"),
        max_batch_sizes=(1, 2),
        arrivals=("poisson",),
        duration_s=0.02,
        seed=0,
    )


# ---------------------------------------------------------------------------
# Byte-identity: every transport reproduces the committed fixtures
# ---------------------------------------------------------------------------
class TestExecutorByteIdentity:
    """Both transports must move zero bytes of sweep output."""

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_dse_fixture_identical_under_every_executor(self, executor):
        result = SweepRunner(
            _fixture_sweep_spec(), workers=2, executor=executor
        ).run()
        assert result.to_csv() == _fixture_text("dse_sweep.csv")

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_plan_fixture_identical_under_every_executor(self, executor):
        result = PlanRunner(
            _fixture_plan_spec(), workers=2, executor=executor
        ).run()
        assert result.to_json() == _fixture_text("plan_sweep.json")

    def test_experiment_subset_identical_across_executors(self):
        names = ["table3", "fig9"]
        reference = run_all_experiments(
            fast=True, names=names, workers=0, executor="serial"
        )
        ref_rows = {name: reference[name].rows for name in names}
        results = run_all_experiments(
            fast=True, names=names, workers=2, executor="pool"
        )
        assert list(results) == names
        assert {name: results[name].rows for name in names} == ref_rows


# ---------------------------------------------------------------------------
# Engine executor selection
# ---------------------------------------------------------------------------
@dataclass
class SquaresJob(Job):
    count: int = 12
    offset: int = 100

    def enumerate(self) -> List[int]:
        return list(range(self.count))

    def prepare(self) -> int:
        return self.offset

    def setup(self, context: int) -> None:
        self._offset = context
        self._evaluated = 0

    def evaluate(self, item: int) -> dict:
        self._evaluated += 1
        return {"item": item, "value": self._offset + item * item}

    def collect(self) -> dict:
        return {"evaluated": self._evaluated}


@dataclass
class PidJob(SquaresJob):
    """Each row is the pid of the process that evaluated the item."""

    def evaluate(self, item: int) -> int:
        return os.getpid()


class TestExecutorSelection:
    def test_unknown_executor_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            Engine(workers=2, executor="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon", workers=2)

    def test_factory_builds_the_named_transport(self):
        for name in EXECUTOR_NAMES:
            assert make_executor(name, workers=2).name == name

    def test_executor_instance_is_used_as_given(self):
        serial = Engine(workers=0, executor="serial").run(SquaresJob())
        custom = Engine(workers=4, executor=PoolExecutor(2)).run(
            SquaresJob()
        )
        assert custom.rows == serial.rows

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_single_worker_runs_every_transport(self, executor):
        """``workers=0`` must work for every name (pool degrades to
        in-process)."""
        run = Engine(workers=0, executor=executor).run(SquaresJob(count=4))
        assert [row["value"] for row in run.rows] == [100, 101, 104, 109]

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_collect_totals_cover_every_item_once(self, executor):
        run = Engine(workers=2, executor=executor).run(SquaresJob(count=6))
        assert sum(info["evaluated"] for info in run.infos) == 6

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_fewer_than_two_workers_stay_in_process(self, executor):
        for workers in (0, 1):
            run = Engine(workers=workers, executor=executor).run(PidJob(count=4))
            assert run.rows == [os.getpid()] * 4

    def test_single_pending_item_stays_in_process(self):
        run = Engine(workers=2, executor="pool").run(PidJob(count=1))
        assert run.rows == [os.getpid()]

    def test_pool_evaluates_in_worker_processes(self):
        run = Engine(workers=2, executor="pool").run(PidJob(count=6))
        assert os.getpid() not in run.rows
        assert 1 <= len(set(run.rows)) <= 2

    @pytest.mark.parametrize("name", ["steal", "dispatcher"])
    def test_removed_transport_names_rejected(self, name):
        assert EXECUTOR_NAMES == ("serial", "pool")
        with pytest.raises(ValueError, match="expected one of serial, pool"):
            Engine(workers=2, executor=name)
        with pytest.raises(ValueError, match="expected one of serial, pool"):
            make_executor(name, workers=2)


# ---------------------------------------------------------------------------
# Checkpointed resume: the engine-level contract
# ---------------------------------------------------------------------------
@dataclass
class FlakyJob(SquaresJob):
    """Raises on one item until ``heal()`` — simulates a mid-run crash."""

    fail_on: int = -1
    evaluated_items: List[int] = field(default_factory=list)

    def evaluate(self, item: int) -> dict:
        if item == self.fail_on:
            raise RuntimeError(f"injected crash on item {item}")
        self.evaluated_items.append(item)
        return super().evaluate(item)


class TestCheckpointResume:
    def test_crash_then_resume_is_byte_identical(self):
        clean = Engine(workers=0).run(SquaresJob(count=8))

        journal = MemoryCheckpoint()
        with pytest.raises(RuntimeError, match="injected crash"):
            Engine(workers=0).run(
                FlakyJob(count=8, fail_on=5), checkpoint=journal
            )
        # The journal holds exactly the rows completed before the crash.
        assert sorted(journal.rows) == [0, 1, 2, 3, 4]

        healed = FlakyJob(count=8, fail_on=-1)
        resumed = Engine(workers=0).run(healed, checkpoint=journal)
        assert resumed.rows == clean.rows
        assert resumed.resumed_items == 5
        # Only the pending items were re-evaluated.
        assert healed.evaluated_items == [5, 6, 7]

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_resume_identical_under_every_executor(self, executor):
        clean = Engine(workers=0).run(SquaresJob(count=10))
        journal = MemoryCheckpoint()
        for index in (0, 3, 4, 7):
            journal.append(index, clean.rows[index])
        resumed = Engine(workers=2, executor=executor).run(
            SquaresJob(count=10), checkpoint=journal
        )
        assert resumed.rows == clean.rows
        assert resumed.resumed_items == 4
        assert sorted(journal.rows) == list(range(10))

    def test_fully_journaled_run_does_no_work(self):
        clean = Engine(workers=0).run(SquaresJob(count=4))
        journal = MemoryCheckpoint()
        for index, row in enumerate(clean.rows):
            journal.append(index, row)

        class ExplodingPrepare(SquaresJob):
            def prepare(self) -> int:
                raise AssertionError("prepare must not run with no pending items")

        resumed = Engine(workers=0).run(
            ExplodingPrepare(count=4), checkpoint=journal
        )
        assert resumed.rows == clean.rows
        assert resumed.resumed_items == 4
        assert resumed.infos == []

    def test_progress_starts_at_journaled_count(self):
        clean = Engine(workers=0).run(SquaresJob(count=6))
        journal = MemoryCheckpoint()
        for index in range(3):
            journal.append(index, clean.rows[index])
        seen = []
        Engine(workers=0).run(
            SquaresJob(count=6),
            progress=lambda d, t: seen.append((d, t)),
            checkpoint=journal,
        )
        assert seen == [(4, 6), (5, 6), (6, 6)]


class TestCheckpointSlice:
    def test_window_translation(self):
        inner = MemoryCheckpoint()
        inner.append(1, "outside-low")
        inner.append(3, "inside-a")
        inner.append(4, "inside-b")
        inner.append(7, "outside-high")
        window = CheckpointSlice(inner, offset=3, length=3)
        assert window.completed_rows() == {0: "inside-a", 1: "inside-b"}
        window.append(2, "new")
        assert inner.rows[5] == "new"

    def test_out_of_range_append_rejected(self):
        window = CheckpointSlice(MemoryCheckpoint(), offset=2, length=3)
        with pytest.raises(IndexError):
            window.append(3, "row")
        with pytest.raises(IndexError):
            window.append(-1, "row")
        with pytest.raises(ValueError):
            CheckpointSlice(MemoryCheckpoint(), offset=-1, length=2)

    def test_sweep_resume_spans_model_groups(self):
        """One journal covers both (model, dataset) group jobs of a sweep:
        a resumed sweep replays every journaled config and re-evaluates
        nothing."""
        spec = _fixture_sweep_spec()  # two groups: GCN and GIN on MolHIV
        journal = MemoryCheckpoint()
        first = SweepRunner(spec, workers=0).run(checkpoint=journal)
        total = len(first.rows) + len(first.skipped)
        assert sorted(journal.rows) == list(range(total))

        # Second run with the same journal: everything replays.
        replayed = SweepRunner(spec, workers=0).run(checkpoint=journal)
        assert replayed.to_csv() == first.to_csv()
        assert replayed.to_csv() == _fixture_text("dse_sweep.csv")

    def test_partial_sweep_journal_resumes_across_groups(self):
        spec = _fixture_sweep_spec()
        journal = MemoryCheckpoint()
        SweepRunner(spec, workers=0).run(checkpoint=journal)
        # Drop entries from both group windows, then resume.
        full = dict(journal.rows)
        for index in (0, len(full) - 1):
            del journal.rows[index]
        resumed = SweepRunner(spec, workers=0).run(checkpoint=journal)
        assert resumed.to_csv() == _fixture_text("dse_sweep.csv")
        assert journal.rows == full


# ---------------------------------------------------------------------------
# StoreCheckpoint: the durable journal in the results store
# ---------------------------------------------------------------------------
class TestStoreCheckpoint:
    def test_rows_round_trip_losslessly(self, tmp_path):
        with ResultStore(str(tmp_path / "ckpt.db")) as store:
            checkpoint = store.begin_checkpoint(
                "dse", "cafebabe", executor="pool", workers=2
            )
            rows = {
                0: {"latency_ms": 0.123456789012345, "model": "GCN"},
                2: {"nested": {"values": [1, 2.5, None, "text"]}},
            }
            for index, row in rows.items():
                checkpoint.append(index, row)
            assert checkpoint.completed_rows() == rows
            assert checkpoint.completed_count() == 2
            # Re-appending an index overwrites, never duplicates.
            checkpoint.append(0, {"latency_ms": 1.0})
            assert checkpoint.completed_count() == 2

    def test_unfinished_run_is_resumable_then_claimed(self, tmp_path):
        with ResultStore(str(tmp_path / "ckpt.db")) as store:
            checkpoint = store.begin_checkpoint("dse", "cafebabe")
            checkpoint.append(0, {"a": 1})

            listed = store.resumable_runs()
            assert [run["run_id"] for run in listed] == [checkpoint.run_id]
            assert listed[0]["status"] == "resumable"
            assert listed[0]["rows"] == 1

            state = store.checkpoint_state(checkpoint.run_id)
            assert state["kind"] == "dse"
            assert state["signature"] == "cafebabe"
            assert not state["finished"]

            reopened = store.resume_checkpoint(checkpoint.run_id)
            assert reopened.completed_rows() == {0: {"a": 1}}

            with store.record(
                "dse", "cafebabe", run_id=checkpoint.run_id
            ) as recorder:
                recorder.add_payload([{"a": 1}], "done")
            # Claiming the reserved id flips the checkpoint to finished and
            # the run surfaces as a normal recorded run under the same id.
            assert recorder.run_id == checkpoint.run_id
            assert store.resumable_runs() == []
            assert store.checkpoint_state(checkpoint.run_id)["finished"]

    def test_unknown_ids_are_errors(self, tmp_path):
        with ResultStore(str(tmp_path / "ckpt.db")) as store:
            assert store.checkpoint_state("dse-99") is None
            with pytest.raises(StoreError):
                store.resume_checkpoint("dse-99")
            with pytest.raises(StoreError):
                with store.record("dse", "sig", run_id="dse-99") as recorder:
                    recorder.add_payload([], "x")

    def test_reserved_seq_never_collides_with_plain_records(self, tmp_path):
        with ResultStore(str(tmp_path / "ckpt.db")) as store:
            reserved = store.begin_checkpoint("dse", "sig-a")
            with store.record("dse", "sig-b") as recorder:
                recorder.add_payload([], "independent")
            # The plain record minted a fresh id past the reservation.
            assert recorder.run_id != reserved.run_id
            ids = {reserved.run_id, recorder.run_id}
            assert len(ids) == 2


# ---------------------------------------------------------------------------
# Pool: a crashed worker must raise, not hang or truncate silently
# ---------------------------------------------------------------------------
@dataclass
class DyingJob(SquaresJob):
    """One item hard-kills its worker (no exception, no result)."""

    die_on: int = 2

    def evaluate(self, item: int) -> dict:
        if item == self.die_on:
            os._exit(3)
        return super().evaluate(item)


class TestPoolExecutor:
    @pytest.mark.parametrize(
        "die_on, chunk_items",
        [(2, None), (0, None), (5, None), (0, 1), (2, 1), (5, 1)],
        ids=[
            "middle-contiguous",
            "first-contiguous",
            "last-contiguous",
            "first-unit",
            "middle-unit",
            "last-unit",
        ],
    )
    def test_crashed_worker_raises_instead_of_truncating(self, die_on, chunk_items):
        engine = Engine(workers=2, chunk_items=chunk_items, executor="pool")
        with pytest.raises(BrokenProcessPool):
            engine.run(DyingJob(count=6, die_on=die_on))

    @pytest.mark.parametrize("chunk_items", [None, 1], ids=["contiguous", "unit"])
    def test_crash_leaves_a_clean_journal_that_resumes(self, chunk_items):
        """Rows drained before the crash are journaled intact; a healthy
        rerun on the same journal is byte-identical to a clean run."""
        clean = Engine(workers=0).run(SquaresJob(count=6))
        journal = MemoryCheckpoint()
        engine = Engine(workers=2, chunk_items=chunk_items, executor="pool")
        with pytest.raises(BrokenProcessPool):
            engine.run(DyingJob(count=6, die_on=3), checkpoint=journal)
        assert 3 not in journal.rows
        for index, row in journal.rows.items():
            assert row == clean.rows[index]
        journaled = len(journal.rows)

        resumed = engine.run(SquaresJob(count=6), checkpoint=journal)
        assert resumed.rows == clean.rows
        assert resumed.resumed_items == journaled

    def test_engine_runs_again_after_a_crash(self):
        engine = Engine(workers=2, executor="pool")
        with pytest.raises(BrokenProcessPool):
            engine.run(DyingJob(count=6))
        serial = Engine(workers=0).run(SquaresJob(count=6))
        assert engine.run(SquaresJob(count=6)).rows == serial.rows

    def test_more_workers_than_items(self):
        serial = Engine(workers=0).run(SquaresJob(count=3))
        run = Engine(workers=8, executor="pool").run(SquaresJob(count=3))
        assert run.rows == serial.rows
        assert sum(info["evaluated"] for info in run.infos) == 3


class TestPoolUnitChunks:
    """``chunk_items=1``, the mode the experiment harness runs: one item per
    task, many tasks per worker, rows still drained in enumeration order."""

    def test_dse_fixture_identical(self):
        result = SweepRunner(
            _fixture_sweep_spec(),
            workers=2,
            executor=PoolExecutor(2, chunk_items=1),
        ).run()
        assert result.to_csv() == _fixture_text("dse_sweep.csv")

    def test_plan_fixture_identical(self):
        result = PlanRunner(
            _fixture_plan_spec(),
            workers=2,
            executor=PoolExecutor(2, chunk_items=1),
        ).run()
        assert result.to_json() == _fixture_text("plan_sweep.json")

    def test_resume_identical(self):
        clean = Engine(workers=0).run(SquaresJob(count=10))
        journal = MemoryCheckpoint()
        for index in (1, 2, 8):
            journal.append(index, clean.rows[index])
        resumed = Engine(workers=2, chunk_items=1, executor="pool").run(
            SquaresJob(count=10), checkpoint=journal
        )
        assert resumed.rows == clean.rows
        assert resumed.resumed_items == 3
        assert sorted(journal.rows) == list(range(10))

    def test_collect_keeps_each_workers_latest_report(self):
        """Each worker reports a cumulative count after every chunk; only
        its last report may count, or items would be double counted."""
        run = Engine(workers=2, chunk_items=1, executor="pool").run(
            SquaresJob(count=8)
        )
        assert 1 <= len(run.infos) <= 2
        assert sum(info["evaluated"] for info in run.infos) == 8


# ---------------------------------------------------------------------------
# CLI: --executor / --resume / runs list resumable marker
# ---------------------------------------------------------------------------
_DSE_ARGS = [
    "dse",
    "--models",
    "GCN",
    "--datasets",
    "MolHIV",
    "--p-node",
    "1,2",
    "--p-edge",
    "1,2",
    "--p-apply",
    "1",
    "--p-scatter",
    "1",
    "--num-graphs",
    "4",
    "--workers",
    "0",
]


class TestCliResume:
    def test_resume_without_record_exits_2(self, capsys):
        assert main(_DSE_ARGS + ["--resume", "dse-1"]) == 2
        assert "--resume requires --record" in capsys.readouterr().err

    def test_resume_unknown_run_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(_DSE_ARGS + ["--record", db, "--resume", "dse-9"]) == 2
        assert "no checkpointed run" in capsys.readouterr().err

    def test_resume_of_completed_run_is_a_noop(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(_DSE_ARGS + ["--record", db]) == 0
        capsys.readouterr()
        assert main(_DSE_ARGS + ["--record", db, "--resume", "dse-1"]) == 0
        assert "already complete; nothing to resume" in capsys.readouterr().err

    def test_resume_with_changed_configuration_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        with ResultStore(db) as store:
            run_id = store.begin_checkpoint("dse", "not-this-signature").run_id
        assert main(_DSE_ARGS + ["--record", db, "--resume", run_id]) == 2
        assert "different configuration" in capsys.readouterr().err

    def test_resume_with_wrong_kind_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        with ResultStore(db) as store:
            run_id = store.begin_checkpoint("plan", "whatever").run_id
        assert main(_DSE_ARGS + ["--record", db, "--resume", run_id]) == 2
        assert "not 'dse'" in capsys.readouterr().err

    def test_runs_list_marks_resumable_runs(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(_DSE_ARGS + ["--record", db]) == 0
        with ResultStore(db) as store:
            store.begin_checkpoint("dse", "deadbeef")
        capsys.readouterr()
        assert main(["runs", "list", "--db", db, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        statuses = {row["run_id"]: row["status"] for row in rows}
        assert statuses["dse-1"] == "complete"
        assert "resumable" in set(statuses.values())

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_executor_flag_accepted_end_to_end(self, tmp_path, executor, capsys):
        csv_path = str(tmp_path / f"{executor}.csv")
        assert main(_DSE_ARGS + ["--executor", executor, "--csv", csv_path]) == 0
        capsys.readouterr()
        with open(csv_path) as handle:
            assert len(handle.read().splitlines()) == 5  # header + 4 points

    @pytest.mark.parametrize("executor", ["steal", "dispatcher"])
    def test_removed_executor_flag_exits_2(self, executor, capsys):
        with pytest.raises(SystemExit) as exited:
            main(_DSE_ARGS + ["--executor", executor])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid choice: '{executor}'" in captured.err


class TestCliKillResume:
    def test_sigterm_mid_run_then_resume_is_byte_identical(self, tmp_path):
        """The ISSUE's pinned contract: SIGTERM a recording run once the
        first progress line lands, resume it, and the final CSV must be
        byte-identical to an uninterrupted run."""
        args = [
            "dse",
            "--models",
            "GCN,GIN",
            "--datasets",
            "MolHIV",
            "--p-node",
            "1,2,4",
            "--p-edge",
            "1,2,4",
            "--p-apply",
            "1",
            "--p-scatter",
            "1",
            "--num-graphs",
            "6",
            "--workers",
            "0",
        ]
        full_csv = str(tmp_path / "full.csv")
        assert main(args + ["--csv", full_csv]) == 0

        db = str(tmp_path / "kill.db")
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"]
            + args
            + ["--record", db, "--progress"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        stderr_lines = []
        for line in proc.stderr:
            stderr_lines.append(line)
            if line.startswith("dse: "):
                proc.send_signal(signal.SIGTERM)
                break
        proc.stderr.read()
        returncode = proc.wait(timeout=60)
        if returncode == 0:  # pragma: no cover - tiny-grid race
            pytest.skip("run finished before SIGTERM landed")

        run_ids = [
            word
            for line in stderr_lines
            for word in line.split()
            if word.startswith("dse-")
        ]
        assert run_ids, f"no run id announced in: {stderr_lines}"
        run_id = run_ids[0]

        with ResultStore(db, create=False) as store:
            listed = store.resumable_runs()
            assert [run["run_id"] for run in listed] == [run_id]

        resumed_csv = str(tmp_path / "resumed.csv")
        code = main(
            args
            + [
                "--record",
                db,
                "--resume",
                run_id,
                "--csv",
                resumed_csv,
            ]
        )
        assert code == 0
        with open(full_csv) as a, open(resumed_csv) as b:
            assert a.read() == b.read()
        with ResultStore(db, create=False) as store:
            assert store.resumable_runs() == []
