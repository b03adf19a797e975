"""Tests for the longitudinal results store and reporting service.

Pins the subsystem's contracts:

* **lossless round-trip** — a recorded run's payload is byte-identical to
  the source table's ``to_json()``, for every ``ResultTable`` kind;
* **provenance** — runs carry timestamp, git state, version, argv, workers;
* **concurrency** — two processes recording into the same store (WAL mode)
  both commit, with distinct sequential run ids and no corruption;
* **ingest idempotency** — re-ingesting a ``BENCH_*.json`` file does not
  duplicate trajectory points;
* **deterministic reporting** — the committed fixture store
  (``tests/fixtures/results_store.db``, see ``make_results_fixture.py``)
  renders to byte-identical HTML on every run, its payload islands match
  the stored payloads verbatim, and ``--compare`` reports the pinned
  significant / not-significant verdicts.
"""

import json
import os
import shutil
import sqlite3
import subprocess
import sys

import pytest

from repro.cli import main
from repro.dse import SweepRunner, SweepSpec
from repro.eval import run_experiment
from repro.plan import PlanRunner, PlanSpec, TenantMix
from repro.results import (
    DEFAULT_DB_PATH,
    ResultStore,
    StoreError,
    bootstrap_ci,
    compare_runs,
    compare_samples,
    config_signature,
    generate_report,
    ingest_benchmark_file,
    ingest_benchmark_files,
    mann_whitney_u,
    payloads_in_report,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "repro.db")) as opened:
        yield opened


@pytest.fixture()
def fixture_store(tmp_path):
    """The committed fixture store, copied out of the repo tree first.

    Opening a store switches the file to WAL journal mode and creates
    ``-wal``/``-shm`` sidecars; copying keeps the committed fixture
    byte-stable.
    """
    path = tmp_path / "fixture.db"
    shutil.copy(os.path.join(FIXTURES, "results_store.db"), path)
    with ResultStore(str(path), create=False) as opened:
        yield opened


def _tiny_sweep_result():
    spec = SweepSpec.parallelism_grid(
        models=("GCN",),
        datasets=("MolHIV",),
        node_values=(1, 2),
        edge_values=(1,),
        apply_values=(2,),
        scatter_values=(4,),
        num_graphs=4,
        board=None,
    )
    return SweepRunner(spec, workers=0).run()


def _tiny_plan_result():
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
            },
        ),
    )
    spec = PlanSpec(
        mixes=[mix],
        backend="cpu",
        replicas=(1,),
        policies=("round_robin",),
        max_batch_sizes=(1,),
        arrivals=("poisson",),
        duration_s=0.02,
        seed=0,
    )
    return PlanRunner(spec, workers=1).run()


# ---------------------------------------------------------------------------
# Store: schema, round-trip, provenance
# ---------------------------------------------------------------------------
class TestStore:
    def test_fresh_db_creates_schema(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "repro.db"
        with ResultStore(str(path)) as fresh:
            assert fresh.run_ids() == []
        with sqlite3.connect(path) as raw:
            names = {
                row[0]
                for row in raw.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        assert {"runs", "rows", "benchmarks"} <= names

    def test_store_with_legacy_verdicts_table_still_works(self, tmp_path):
        """A store written while regression-gate verdicts were still
        ingested keeps that table as an orphan; it opens, records and
        reports as before, and the report has no verdict section."""
        path = str(tmp_path / "legacy.db")
        with ResultStore(path):
            pass
        with sqlite3.connect(path) as raw:
            raw.execute(
                "CREATE TABLE verdicts (name TEXT NOT NULL, recorded_utc TEXT"
                " NOT NULL, verdict TEXT NOT NULL, mode TEXT, ratio REAL, bound"
                " REAL, skipped_reason TEXT, source TEXT,"
                " PRIMARY KEY (name, recorded_utc))"
            )
            raw.execute(
                "INSERT INTO verdicts (name, recorded_utc, verdict)"
                " VALUES ('test_fig10_dse', '2026-08-08T13:28:03+00:00', 'pass')"
            )
        with ResultStore(path, create=False) as legacy:
            with legacy.record("dse", "sig") as rec:
                rec.add_payload([{"a": 1}], '{"a": 1}')
            assert legacy.run_ids() == ["dse-1"]
            report = generate_report(legacy, str(tmp_path / "report"))
        with open(report) as handle:
            html = handle.read()
        assert "dse-1" in html
        assert "Regression-gate" not in html

    def test_missing_db_without_create_raises(self, tmp_path):
        with pytest.raises(StoreError):
            ResultStore(str(tmp_path / "absent.db"), create=False)

    def test_corrupt_db_raises_store_error(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_text("this is not a sqlite database, not even close")
        with pytest.raises(StoreError):
            ResultStore(str(path), create=False)

    @pytest.mark.parametrize(
        "kind,make",
        [
            ("dse", _tiny_sweep_result),
            ("plan", _tiny_plan_result),
            ("experiments", lambda: run_experiment("table3", fast=True)),
        ],
    )
    def test_round_trip_payload_byte_identical(self, store, kind, make):
        table = make()
        with store.record(kind, "sig", argv=[kind, "--record"], workers=2) as rec:
            rec.add_table(table)
        loaded = store.load_run(rec.run_id)
        assert loaded.payload == table.to_json()
        assert loaded.rows == json.loads(json.dumps(
            [dict(row) for row in table.rows], default=str
        ))

    def test_provenance_recorded(self, store):
        with store.record("dse", "sig", argv=["dse"], workers=3) as rec:
            rec.add_payload([{"a": 1}], '{"a": 1}')
        run = store.load_run(rec.run_id)
        assert run.run_id == "dse-1"
        assert run.kind == "dse"
        assert run.signature == "sig"
        assert run.argv == ["dse"]
        assert run.workers == 3
        assert run.duration_s >= 0
        assert run.host_cpus >= 1
        assert run.timestamp_utc.endswith("Z")
        from repro import __version__

        assert run.repro_version == __version__

    def test_run_ids_are_sequential_across_kinds(self, store):
        for kind in ("dse", "plan", "dse"):
            with store.record(kind, "sig") as rec:
                rec.add_payload([], "{}")
        assert store.run_ids() == ["dse-1", "plan-2", "dse-3"]
        assert store.run_ids(kind="dse") == ["dse-1", "dse-3"]
        assert store.kinds() == ["dse", "plan"]

    def test_crashed_block_leaves_no_partial_run(self, store):
        with pytest.raises(RuntimeError):
            with store.record("dse", "sig") as rec:
                rec.add_payload([{"a": 1}], "{}")
                raise RuntimeError("runner blew up")
        assert store.run_ids() == []

    def test_empty_block_raises(self, store):
        with pytest.raises(StoreError):
            with store.record("dse", "sig"):
                pass

    def test_unknown_run_id_raises(self, store):
        with pytest.raises(StoreError):
            store.load_run("dse-99")

    def test_config_signature_is_order_insensitive(self):
        a = config_signature({"x": 1, "y": [2, 3]})
        b = config_signature({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 12
        assert a != config_signature({"x": 1, "y": [2, 4]})


# ---------------------------------------------------------------------------
# Concurrency: two processes recording into one WAL store
# ---------------------------------------------------------------------------
_RECORDER_SCRIPT = """
import sys, time
from repro.results import ResultStore
store = ResultStore(sys.argv[1])
with store.record("dse", "concurrent-" + sys.argv[2]) as rec:
    time.sleep(0.2)  # overlap the two record() blocks
    rec.add_payload([{"worker": sys.argv[2]}], '{"worker": "%s"}' % sys.argv[2])
print(rec.run_id)
"""


class TestConcurrentRecording:
    def test_two_processes_record_without_corruption(self, tmp_path):
        db = str(tmp_path / "shared.db")
        ResultStore(db).close()  # schema up front, as the CLI would have it
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RECORDER_SCRIPT, db, tag],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in ("a", "b")
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outs
        minted = sorted(out.strip() for out, _ in outs)
        assert minted == ["dse-1", "dse-2"]
        with ResultStore(db, create=False) as store:
            assert store.run_ids() == ["dse-1", "dse-2"]
            payloads = {store.load_run(rid).rows[0]["worker"] for rid in minted}
        assert payloads == {"a", "b"}


# ---------------------------------------------------------------------------
# Ingest: benchmark artifacts
# ---------------------------------------------------------------------------
class TestIngest:
    def test_bench_ingest_and_idempotency(self, store, tmp_path):
        bench = tmp_path / "BENCH_fig10.json"
        bench.write_text(
            json.dumps(
                {
                    "datetime": "2026-08-08T13:28:03+00:00",
                    "commit_info": {"id": "f220b74", "time": "2026-08-08T13:00:00+00:00"},
                    "machine_info": {"node": "vm"},
                    "benchmarks": [
                        {
                            "fullname": "benchmarks/test_fig10_dse.py::test_fig10_dse",
                            "stats": {"mean": 1.03, "stddev": 0, "min": 1.03, "max": 1.03, "rounds": 1},
                            "extra_info": {"speedup": 0.69, "cpus": 1},
                        }
                    ],
                }
            )
        )
        assert ingest_benchmark_file(store, str(bench)) == 1
        assert ingest_benchmark_file(store, str(bench)) == 1  # re-ingest
        names = store.benchmark_names()
        assert len(names) == 1
        trajectory = store.benchmark_trajectory(names[0])
        assert len(trajectory) == 1  # no duplicate point
        point = trajectory[0]
        assert point["mean_s"] > 0
        assert point["speedup"] is not None
        assert point["cpus"] >= 1

    def test_bench_with_wall_clock_only_charts_mean_seconds(self, store, tmp_path):
        """The paper-figure benchmarks record only wall-clock stats: the
        point carries no speedup or cpus and the report charts mean seconds."""
        bench = tmp_path / "BENCH_figures.json"
        bench.write_text(
            json.dumps(
                {
                    "datetime": "2026-10-01T09:00:00+00:00",
                    "commit_info": {"id": "abc1234"},
                    "benchmarks": [
                        {
                            "fullname": "benchmarks/test_table3_resources.py::test_table3_resources",
                            "stats": {"mean": 0.0067, "stddev": 0.0, "rounds": 1},
                        }
                    ],
                }
            )
        )
        assert ingest_benchmark_file(store, str(bench)) == 1
        (point,) = store.benchmark_trajectory(store.benchmark_names()[0])
        assert point["mean_s"] == 0.0067
        assert point["speedup"] is None
        assert point["cpus"] is None
        assert point["machine"] is None
        report = generate_report(store, str(tmp_path / "report"))
        with open(report) as handle:
            html = handle.read()
        assert "Benchmark trajectory (1 benchmarks)" in html
        assert "mean (s) over 1 recordings" in html

    def test_later_recording_extends_the_trajectory(self, store, tmp_path):
        def write(name, recorded, mean):
            path = tmp_path / name
            path.write_text(
                json.dumps(
                    {
                        "datetime": recorded,
                        "benchmarks": [
                            {"fullname": "b::fig10", "stats": {"mean": mean}}
                        ],
                    }
                )
            )
            return str(path)

        first = write("BENCH_1.json", "2026-10-01T09:00:00+00:00", 1.5)
        second = write("BENCH_2.json", "2026-10-02T09:00:00+00:00", 1.25)
        assert ingest_benchmark_files(store, [first, second]) == 2
        assert store.benchmark_names() == ["b::fig10"]
        trajectory = store.benchmark_trajectory("b::fig10")
        assert [point["mean_s"] for point in trajectory] == [1.5, 1.25]

    def test_bad_bench_file_raises(self, store, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(StoreError):
            ingest_benchmark_file(store, str(bad))
        bad.write_text('{"no": "benchmarks key"}')
        with pytest.raises(StoreError):
            ingest_benchmark_file(store, str(bad))


# ---------------------------------------------------------------------------
# Statistics: hand-rolled Mann-Whitney U and bootstrap CIs
# ---------------------------------------------------------------------------
class TestStats:
    def test_mann_whitney_separated_samples_significant(self):
        result = mann_whitney_u([1.0, 1.1, 1.2, 1.3], [9.0, 9.1, 9.2, 9.3])
        assert result.p_value < 0.05
        assert result.significant()

    def test_mann_whitney_identical_samples_not_significant(self):
        result = mann_whitney_u([5.0, 6.0, 7.0], [5.0, 6.0, 7.0])
        assert result.p_value > 0.9
        assert not result.significant()

    def test_bootstrap_ci_brackets_mean_and_is_seeded(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        ci = bootstrap_ci(values, seed=0)
        assert ci["ci_low"] <= ci["mean"] <= ci["ci_high"]
        assert ci["mean"] == pytest.approx(12.0)
        assert bootstrap_ci(values, seed=0) == ci  # deterministic

    def test_compare_samples_undersized_is_inconclusive(self):
        verdict = compare_samples([1.0], [2.0, 3.0])
        assert verdict["significant"] is None


# ---------------------------------------------------------------------------
# Reporting: deterministic HTML from the committed fixture store
# ---------------------------------------------------------------------------
class TestReport:
    def test_html_is_deterministic(self, fixture_store, tmp_path):
        first = generate_report(fixture_store, str(tmp_path / "r1"))
        second = generate_report(fixture_store, str(tmp_path / "r2"))
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_payload_islands_byte_identical(self, fixture_store, tmp_path):
        path = generate_report(fixture_store, str(tmp_path / "report"))
        with open(path) as handle:
            islands = payloads_in_report(handle.read())
        run_ids = fixture_store.run_ids()
        assert sorted(islands) == sorted(run_ids)
        for run_id in run_ids:
            assert islands[run_id] == fixture_store.load_run(run_id).payload

    def test_report_covers_every_section(self, fixture_store, tmp_path):
        path = generate_report(fixture_store, str(tmp_path / "report"))
        with open(path) as handle:
            html = handle.read()
        for needle in (
            "Run history",  # per-kind tables
            "Pareto frontier",  # dse + plan scatter
            "Benchmark trajectory",
            "<svg",  # charts are inline, self-contained
        ):
            assert needle in html, f"missing section: {needle}"

    def test_compare_pinned_significant_verdict(self, fixture_store):
        verdict = compare_runs(fixture_store, "dse-1", "dse-2")
        assert verdict["metric"] == "latency_ms"
        assert verdict["significant"] is True
        assert verdict["p_value"] < 0.05

    def test_compare_pinned_not_significant_verdict(self, fixture_store):
        verdict = compare_runs(fixture_store, "dse-1", "dse-3")
        assert verdict["significant"] is False
        assert verdict["p_value"] > 0.05

    def test_compare_mismatched_kinds_rejected(self, fixture_store):
        with pytest.raises(StoreError):
            compare_runs(fixture_store, "dse-1", "plan-4")


# ---------------------------------------------------------------------------
# CLI: --record, runs list/show, report, exit codes
# ---------------------------------------------------------------------------
class TestCLI:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_record_report_round_trip(self, tmp_path, capsys):
        """repro dse --record → runs list → report: payloads byte-identical."""
        db = str(tmp_path / "repro.db")
        code = main(
            [
                "dse",
                "--models",
                "GCN",
                "--datasets",
                "MolHIV",
                "--p-node",
                "1",
                "--p-edge",
                "1",
                "--num-graphs",
                "4",
                "--record",
                db,
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "recorded run dse-1" in err

        assert main(["runs", "list", "--db", db, "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [run["run_id"] for run in listed] == ["dse-1"]

        assert main(["runs", "show", "dse-1", "--db", db, "--json"]) == 0
        shown = capsys.readouterr().out
        out_dir = str(tmp_path / "report")
        assert main(["report", "--db", db, "--out", out_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "index.html")) as handle:
            islands = payloads_in_report(handle.read())
        assert islands["dse-1"] == shown.rstrip("\n")

    def test_runs_list_missing_db_exits_2(self, tmp_path, capsys):
        code = main(["runs", "list", "--db", str(tmp_path / "absent.db")])
        assert code == 2
        assert "results store error" in capsys.readouterr().err

    def test_report_missing_db_exits_2(self, tmp_path, capsys):
        code = main(["report", "--db", str(tmp_path / "absent.db")])
        assert code == 2
        assert "results store error" in capsys.readouterr().err

    @pytest.fixture
    def one_run_db(self, tmp_path):
        db = str(tmp_path / "repro.db")
        with ResultStore(db) as store:
            with store.record("dse", "sig", argv=["dse"]) as rec:
                rec.add_payload([{"a": 1}], '{"a": 1}')
        return db

    def test_runs_show_unknown_id_exits_2_one_line(self, one_run_db, capsys):
        code = main(["runs", "show", "dse-99", "--db", one_run_db])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # One clean diagnostic line on stderr — no traceback.
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "results store error" in lines[0]
        assert "dse-99" in lines[0]

    def test_report_compare_unknown_id_exits_2_one_line(
        self, one_run_db, tmp_path, capsys
    ):
        code = main(
            [
                "report",
                "--db",
                one_run_db,
                "--out",
                str(tmp_path / "report"),
                "--compare",
                "dse-1",
                "dse-99",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "results store error" in lines[0]
        assert "dse-99" in lines[0]

    def test_runs_show_unknown_run_exits_2(self, tmp_path, capsys):
        db = str(tmp_path / "repro.db")
        ResultStore(db).close()
        code = main(["runs", "show", "dse-99", "--db", db])
        assert code == 2
        assert "results store error" in capsys.readouterr().err

    def test_report_compare_on_fixture_store(self, tmp_path, capsys):
        path = tmp_path / "fixture.db"
        shutil.copy(os.path.join(FIXTURES, "results_store.db"), path)
        code = main(
            [
                "report",
                "--db",
                str(path),
                "--out",
                str(tmp_path / "out"),
                "--compare",
                "dse-1",
                "dse-2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SIGNIFICANT at alpha" in out
        assert "NOT SIGNIFICANT" not in out

    def test_record_default_db_path_is_results_dir(self):
        assert DEFAULT_DB_PATH == os.path.join("results", "repro.db")
