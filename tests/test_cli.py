"""Tests for the command-line interface (``python -m repro``)."""

import json
import math
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.plan import PlanSpec, TenantMix
from repro.serve import CarbonIntensity, Cluster, Workload


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.model == "GIN"
        assert args.dataset == "MolHIV"
        assert args.backend == "flowgnn"
        assert args.nt_units == 2 and args.mp_units == 4

    def test_invalid_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--model", "Transformer"])

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backend", "tpu"])

    def test_parallelism_flags_shared_with_dse(self):
        """The four knobs exist on both subparsers (scalar vs. grid form)."""
        simulate = build_parser().parse_args(["simulate", "--scatter", "8"])
        assert simulate.scatter == 8
        dse = build_parser().parse_args(["dse", "--p-scatter", "2,8"])
        assert dse.p_scatter == [2, 8]


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "MolHIV", "HEP"]) == 0
        out = capsys.readouterr().out
        assert "MolHIV" in out and "HEP" in out

    def test_simulate_command_with_baselines(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "GCN",
                "--dataset",
                "MolHIV",
                "--num-graphs",
                "4",
                "--compare-baselines",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FlowGNN simulation" in out
        assert "backend comparison" in out
        assert "A6000" in out

    def test_simulate_on_cpu_backend(self, capsys):
        code = main(
            ["simulate", "--backend", "cpu", "--dataset", "MolHIV", "--num-graphs", "4"]
        )
        assert code == 0
        assert "Xeon" in capsys.readouterr().out

    def test_simulate_json_output_parses(self, capsys):
        code = main(
            ["simulate", "--backend", "flowgnn", "--num-graphs", "4", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "flowgnn"
        assert payload["num_graphs"] == 4
        assert payload["mean_latency_ms"] > 0

    def test_simulate_json_with_baselines(self, capsys):
        code = main(
            ["simulate", "--num-graphs", "2", "--json", "--compare-baselines"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {other["backend"] for other in payload["baselines"]} == {
            "cpu",
            "gpu",
            "roofline",
        }

    def test_dse_on_platform_backend(self, capsys):
        code = main(
            ["dse", "--backend", "cpu", "--models", "GCN", "--num-graphs", "2", "--workers", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend 'cpu'" in out
        assert "Xeon" in out

    def test_simulate_custom_parallelism(self, capsys):
        code = main(
            [
                "simulate",
                "--model",
                "GAT",
                "--dataset",
                "HEP",
                "--num-graphs",
                "2",
                "--nt-units",
                "1",
                "--mp-units",
                "2",
                "--apply",
                "1",
                "--scatter",
                "2",
            ]
        )
        assert code == 0
        assert "P_node=1" in capsys.readouterr().out

    def test_experiments_command_subset(self, capsys):
        assert main(["experiments", "table3"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "dsp" in out


class TestSimulateAndDatasetsErrorPaths:
    """Bad input exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "flag",
        ["--num-graphs", "--batch-size", "--nt-units", "--mp-units", "--apply", "--scatter"],
    )
    def test_simulate_value_below_one_exits_with_error(self, flag, value, capsys):
        assert main(["simulate", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid simulation request:")
        assert "must be >= 1" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--nt-units", "--mp-units"])
    def test_simulate_unit_count_beyond_int64_exits_with_error(self, flag, capsys):
        assert main(["simulate", "--num-graphs", "2", flag, str(2**63)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid simulation request:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "names, unknown",
        [
            (["nope"], "'nope'"),
            (["MolHIV", "nope"], "'nope'"),
            (["nope", "MolHIV", "nada"], "'nope', 'nada'"),
        ],
        ids=["alone", "after-a-known-name", "every-unknown-in-order"],
    )
    def test_unknown_dataset_exits_before_loading(self, names, unknown, monkeypatch, capsys):
        loaded = []
        monkeypatch.setattr("repro.cli.load_dataset", lambda *a, **k: loaded.append(a))
        assert main(["datasets"] + names) == 2
        captured = capsys.readouterr()
        assert loaded == []
        assert captured.out == ""
        assert captured.err.startswith(f"unknown dataset(s) {unknown}; available: MolHIV,")
        assert len(captured.err.splitlines()) == 1


class TestDseErrorPaths:
    """Error paths of ``repro dse --backend`` (and friends)."""

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--backend", "tpu"])

    def test_unknown_backend_rejected_by_spec(self):
        from repro.dse import SweepSpec

        with pytest.raises(ValueError, match="unknown backend"):
            SweepSpec(backend="tpu")

    def test_unknown_model_exits_with_error(self, capsys):
        assert main(["dse", "--models", "Transformer", "--workers", "0"]) == 2
        assert "invalid sweep" in capsys.readouterr().err

    def test_invalid_grid_value_exits_with_error(self, capsys):
        # Zero parallelism units are rejected by ArchitectureConfig, which
        # SweepSpec surfaces eagerly before any simulation starts.
        assert main(["dse", "--p-node", "0", "--workers", "0"]) == 2
        assert "invalid sweep" in capsys.readouterr().err

    def test_unit_count_beyond_int64_exits_with_error(self, capsys):
        code = main(
            [
                "dse", "--workers", "0", "--models", "GCN", "--datasets", "MolHIV",
                "--num-graphs", "2", "--no-board-filter", "--p-node", str(2**63),
                "--p-edge", "1", "--p-apply", "1", "--p-scatter", "1",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid sweep:")
        assert len(captured.err.splitlines()) == 1

    def test_infeasible_grid_reports_skips_without_crashing(self, capsys):
        # Every configuration blows past the Alveo U50: the sweep must
        # finish cleanly with zero simulated rows and a skip table.
        code = main(
            [
                "dse",
                "--models", "GCN",
                "--num-graphs", "2",
                "--p-node", "64",
                "--p-edge", "64",
                "--p-apply", "64",
                "--p-scatter", "64",
                "--workers", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "do not fit" in out
        assert "fastest feasible design" not in out

    def test_unwritable_csv_path_exits_with_error(self, capsys):
        code = main(
            [
                "dse",
                "--num-graphs", "2",
                "--p-node", "2", "--p-edge", "4", "--p-apply", "2", "--p-scatter", "4",
                "--workers", "0",
                "--csv", "/nonexistent-dir/sweep.csv",
            ]
        )
        assert code == 2
        assert "cannot write CSV" in capsys.readouterr().err

    def test_platform_backend_ignores_pareto(self, capsys):
        code = main(
            ["dse", "--backend", "roofline", "--num-graphs", "2", "--workers", "0", "--pareto"]
        )
        assert code == 0
        assert "only meaningful for the flowgnn backend" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenants == 2
        assert args.replicas == 1
        assert args.policy == "round_robin"
        assert args.backend == "flowgnn"
        assert args.arrival == "poisson"

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "lifo"])

    def test_serve_table_output(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--replicas", "2",
                "--backend", "cpu",
                "--duration", "0.05",
                "--num-graphs", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-tenant serving report" in out
        assert "tenant0" in out and "tenant1" in out
        assert "utilisation" in out

    def test_serve_json_output_parses(self, capsys):
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--replicas", "2",
                "--policy", "edf",
                "--backend", "cpu",
                "--arrival", "bursty",
                "--duration", "0.05",
                "--num-graphs", "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "edf"
        assert payload["replicas"] == 2
        assert payload["submitted"] == payload["completed"] + payload["dropped"]
        assert set(payload["tenants"]) == {"tenant0", "tenant1"}

    def test_serve_carbon_json_output_parses(self, capsys):
        """The full carbon surface in one run: explicit power model, diurnal
        trace, binding power cap and carbon-holding admission."""
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--replicas", "2",
                "--backend", "cpu",
                "--duration", "0.02",
                "--num-graphs", "3",
                "--rate", "3000",
                "--seed", "0",
                "--power", "busy=2.0,idle=0.5",
                "--carbon-trace", "diurnal",
                "--power-cap", "3.5",
                "--tenant-classes", "realtime,deferrable",
                "--admission", "carbon_waiting:threshold=350",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == (
            payload["completed"] + payload["dropped"] + payload["shed"]
        )
        assert payload["energy_j"] > 0.0
        assert payload["carbon_gco2"] > 0.0
        assert len(payload["replica_energy_j"]) >= 2

    def test_serve_bad_power_spec_exits_with_error(self, capsys):
        code = main(
            ["serve", "--backend", "cpu", "--num-graphs", "2", "--power", "watts=2"]
        )
        assert code == 2
        assert "power" in capsys.readouterr().err

    def test_serve_trace_arrivals(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "tenant,arrival_s\n"
            + "".join(f"tenant{i % 2},{i * 1e-3}\n" for i in range(10))
        )
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--backend", "cpu",
                "--arrival", f"trace:{trace}",
                "--duration", "0.02",
                "--num-graphs", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 10

    def test_serve_missing_trace_file_exits_with_error(self, capsys):
        code = main(["serve", "--arrival", "trace:/nonexistent.csv", "--num-graphs", "2"])
        assert code == 2
        assert "cannot generate load" in capsys.readouterr().err

    def test_serve_unknown_arrival_exits_with_error(self, capsys):
        code = main(["serve", "--backend", "cpu", "--arrival", "fractal", "--num-graphs", "2"])
        assert code == 2
        assert "unknown arrival process" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--rate", "inf"], "total_rate_rps must be positive and finite"),
            (["--duration", "inf", "--sketch"], "duration_s must be finite"),
        ],
        ids=["rate-inf", "duration-inf-sketch"],
    )
    def test_serve_non_finite_load_exits_with_one_line(self, flags, needle, capsys):
        """Bad load input exits 2 with one line, never a traceback."""
        code = main(["serve", "--backend", "cpu", "--num-graphs", "2"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot generate load:") and needle in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("arrival", ["poisson", "constant", "bursty", "diurnal"])
    def test_serve_horizon_sized_overflow_exits_with_one_line(self, arrival, capsys):
        """A rate x duration whose request count overflows exits 2, no traceback."""
        code = main(
            ["serve", "--backend", "cpu", "--num-graphs", "2", "--arrival", arrival,
             "--rate", "1e300", "--duration", "1e10", "--sketch"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot generate load:") and "1e+10 s" in err
        assert err.count("\n") == 1

    def test_serve_bad_tenant_count_exits_with_error(self, capsys):
        assert main(["serve", "--tenants", "0"]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_serve_empty_model_list_exits_with_error(self, capsys):
        assert main(["serve", "--models", ""]) == 2
        assert "--models" in capsys.readouterr().err
        assert main(["serve", "--datasets", ""]) == 2
        assert "--datasets" in capsys.readouterr().err

    def test_serve_trace_defaults_to_replaying_the_whole_trace(self, tmp_path, capsys):
        """Regression: a trace longer than the generic 50 ms default horizon
        used to be silently truncated when --duration was omitted."""
        trace = tmp_path / "long.csv"
        trace.write_text(
            "arrival_s\n" + "".join(f"{i * 0.01}\n" for i in range(100))  # spans 1 s
        )
        code = main(
            [
                "serve",
                "--tenants", "2",
                "--backend", "cpu",
                "--arrival", f"trace:{trace}",
                "--num-graphs", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 100
        assert payload["horizon_s"] >= 0.99


class TestPlanCommand:
    _BASE = [
        "plan",
        "--backend", "cpu",
        "--tenants", "2",
        "--num-graphs", "3",
        "--duration", "0.02",
        "--workers", "0",
    ]

    def test_plan_defaults_parse(self):
        args = build_parser().parse_args(["plan"])
        assert args.replicas == [1, 2, 4]
        assert args.policies == ["round_robin", "edf"]
        assert args.max_batch == [1]
        assert args.queue_capacity == [None]
        assert args.arrivals == ["poisson"]

    def test_queue_capacity_list_parses_none(self):
        args = build_parser().parse_args(["plan", "--queue-capacity", "none,64"])
        assert args.queue_capacity == [None, 64]

    def test_plan_table_output(self, capsys):
        code = main(self._BASE + ["--replicas", "1,2", "--pareto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving-scenario sweep" in out
        assert "Pareto frontier" in out
        assert "measurement cache" in out

    def test_plan_json_round_trip(self, capsys, tmp_path):
        """--json parses, covers every scenario, and the Pareto set is
        non-dominated; --csv writes the same rows."""
        csv_path = tmp_path / "plan.csv"
        code = main(
            self._BASE
            + [
                "--replicas", "1,2",
                "--policies", "round_robin,edf",
                "--arrivals", "poisson,bursty",
                "--json",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["scenarios"]
        assert payload["num_scenarios"] == len(rows) == 8
        assert [row["scenario"] for row in rows] == list(range(8))

        objectives = ("replica_seconds", "worst_p99_latency_ms", "deadline_miss_rate")

        def dominates(a, b):
            return all(a[k] <= b[k] for k in objectives) and any(
                a[k] < b[k] for k in objectives
            )

        frontier = [rows[i] for i in payload["pareto"]]
        assert frontier
        for row in frontier:
            assert not any(
                dominates(other, row) for other in rows if other is not row
            )

        csv_lines = csv_path.read_text().strip().splitlines()
        assert len(csv_lines) == 1 + len(rows)  # header + one line per scenario
        assert csv_lines[0].startswith("scenario,")

    def test_plan_solve_result_is_feasible(self, capsys):
        code = main(
            self._BASE
            + [
                "--replicas", "1,2,4",
                "--deadline-us", "15000",
                "--rate", "400",
                "--solve",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        solver = payload["solver"]
        assert solver["feasible"] is True
        chosen = solver["replicas"]
        evaluations = {e["replicas"]: e for e in solver["evaluations"]}
        assert evaluations[chosen]["slo_ok"] is True
        # Minimality: every smaller pool fails.
        assert all(
            not evaluations[r]["slo_ok"] for r in range(1, chosen)
        )

    def test_plan_carbon_flags_parse(self):
        args = build_parser().parse_args(
            [
                "plan",
                "--carbon-trace", "diurnal",
                "--carbon-trace", "none",
                "--power-cap", "3.0",
                "--admission", "carbon_waiting",
            ]
        )
        assert args.carbon_traces == ["diurnal", "none"]
        assert args.power_caps == ["3.0"]
        assert args.admissions == ["carbon_waiting"]

    def test_plan_carbon_grid_and_budget_solve(self, capsys):
        """A carbon/admission grid sweeps, carries the carbon columns, and
        the solver honours the carbon/power budgets (the first grid point —
        diurnal, no admission — is the one the solver evaluates)."""
        code = main(
            self._BASE
            + [
                "--replicas", "1,2",
                "--policies", "round_robin",
                "--power", "busy=2.0,idle=0.5",
                "--carbon-trace", "diurnal",
                "--carbon-trace", "none",
                "--admission", "none",
                "--admission", "carbon_waiting:threshold=350",
                "--tenant-classes", "realtime,deferrable",
                "--solve",
                "--carbon-budget", "1.0",
                "--power-budget", "50.0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["scenarios"]
        assert payload["num_scenarios"] == len(rows) == 8
        for row in rows:
            assert row["grid_energy_j"] > 0.0
            if row["carbon_trace"] is not None:
                assert row["carbon_gco2"] > 0.0
            else:
                assert row["carbon_gco2"] is None
        solver = payload["solver"]
        assert solver["feasible"] is True
        assert solver["carbon_budget_gco2"] == 1.0
        assert solver["power_budget_w"] == 50.0
        assert all("carbon_gco2" in e for e in solver["evaluations"])

    def test_plan_infeasible_slo_exits_nonzero(self, capsys):
        code = main(
            self._BASE + ["--replicas", "1,2", "--deadline-us", "0.001", "--solve"]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().err

    def test_plan_empty_grid_exits_with_error(self, capsys):
        assert main(self._BASE + ["--replicas", ""]) == 2
        assert "invalid plan sweep" in capsys.readouterr().err
        assert main(self._BASE + ["--policies", ""]) == 2
        assert "invalid plan sweep" in capsys.readouterr().err

    def test_plan_bad_policy_and_arrival_exit_with_error(self, capsys):
        assert main(self._BASE + ["--policies", "lifo"]) == 2
        assert "unknown policy" in capsys.readouterr().err
        assert main(self._BASE + ["--arrivals", "fractal"]) == 2
        assert "unknown arrival" in capsys.readouterr().err

    def test_plan_unwritable_csv_exits_with_error(self, capsys, tmp_path):
        code = main(
            self._BASE + ["--replicas", "1", "--csv", str(tmp_path / "no" / "dir.csv")]
        )
        assert code == 2
        assert "cannot write CSV" in capsys.readouterr().err


class TestExperimentsCommand:
    """The engine-backed ``repro experiments`` front-end."""

    def test_new_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "table3", "--workers", "4", "--json", "--progress"]
        )
        assert args.names == ["table3"]
        assert args.workers == 4 and args.json and args.progress
        assert build_parser().parse_args(["experiments"]).workers is None

    def test_json_output_parses(self, capsys):
        assert main(["experiments", "table3", "fig9", "--workers", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["table3", "fig9"]
        assert payload["table3"]["rows"][0]["model"] == "GIN"
        assert payload["fig9"]["notes"]

    def test_csv_directory_export(self, capsys, tmp_path):
        out_dir = tmp_path / "csvs"
        code = main(
            ["experiments", "table3", "--workers", "0", "--csv", str(out_dir)]
        )
        assert code == 0
        text = (out_dir / "table3.csv").read_text()
        assert text.splitlines()[0].startswith("model,dsp,lut")
        assert "wrote 1 CSV files" in capsys.readouterr().out

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["experiments", "table3", "--workers", "0", "--progress", "--json"]) == 0
        captured = capsys.readouterr()
        assert "experiments: 5/5" in captured.err
        json.loads(captured.out)  # stdout stays pure JSON

    def test_unknown_experiment_exits_with_error(self, capsys):
        assert main(["experiments", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unwritable_csv_dir_exits_with_error(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        code = main(["experiments", "table3", "--workers", "0", "--csv", str(blocker)])
        assert code == 2
        assert "cannot write CSVs" in capsys.readouterr().err


class TestProgressFlag:
    """``--progress`` streams engine counts on dse and plan too."""

    def test_dse_progress_on_stderr(self, capsys):
        code = main(
            [
                "dse", "--models", "GCN", "--datasets", "MolHIV",
                "--num-graphs", "4", "--p-node", "1,2", "--p-edge", "1",
                "--p-apply", "2", "--p-scatter", "4", "--workers", "0",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "dse: 2/2" in captured.err
        assert "dse:" not in captured.out

    def test_plan_progress_on_stderr(self, capsys):
        code = main(
            [
                "plan", "--backend", "cpu", "--tenants", "1", "--num-graphs", "3",
                "--replicas", "1,2", "--policies", "round_robin",
                "--arrivals", "poisson", "--duration", "0.02",
                "--workers", "0", "--progress", "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "plan: 2/2" in captured.err
        json.loads(captured.out)


class TestDynamicClusterFlags:
    """repro serve --autoscale/--fault/--admission and the plan grids."""

    _SERVE = [
        "serve",
        "--tenants", "2",
        "--replicas", "2",
        "--backend", "cpu",
        "--duration", "0.02",
        "--num-graphs", "3",
    ]

    def test_serve_dynamic_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--autoscale", "reactive:min=1,max=4",
                "--fault", "fail@0.01:r0;recover@0.015:r0",
                "--admission", "queue=32,headroom=1.5",
            ]
        )
        assert args.autoscale == "reactive:min=1,max=4"
        assert args.fault == "fail@0.01:r0;recover@0.015:r0"
        assert args.admission == "queue=32,headroom=1.5"

    def test_serve_autoscale_json_reports_dynamics(self, capsys):
        code = main(
            self._SERVE
            + [
                "--autoscale", "reactive:min=1,max=4,interval=0.004,delay=0.004",
                "--fault", "fail@0.005:r0;recover@0.012:r0",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == (
            payload["completed"] + payload["dropped"] + payload["shed"]
        )
        assert payload["replica_seconds"] > 0
        assert payload["event_counts"]["failures"] == 1
        assert payload["replica_count"]["count"][0] == 2

    def test_serve_invalid_autoscaler_exits_with_error(self, capsys):
        code = main(self._SERVE + ["--autoscale", "sigmoid"])
        assert code == 2
        assert "invalid serving scenario" in capsys.readouterr().err

    def test_serve_invalid_fault_exits_with_error(self, capsys):
        code = main(self._SERVE + ["--fault", "explode@0.01:r0"])
        assert code == 2
        assert "invalid fault schedule" in capsys.readouterr().err

    def test_serve_fault_replica_out_of_range_exits_with_error(self, capsys):
        code = main(self._SERVE + ["--fault", "fail@0.01:r7"])
        assert code == 2
        assert "invalid fault schedule" in capsys.readouterr().err

    def test_plan_dynamic_flags_are_repeatable(self):
        # The specs embed both ',' and ';', so the grids are built by
        # repeating the flag rather than splitting one delimited string.
        args = build_parser().parse_args(
            [
                "plan",
                "--autoscale", "none",
                "--autoscale", "reactive:min=1,max=4",
                "--fault", "none",
                "--fault", "fail@0.005:r0;recover@0.01:r0",
            ]
        )
        assert args.autoscalers == ["none", "reactive:min=1,max=4"]
        assert args.faults == ["none", "fail@0.005:r0;recover@0.01:r0"]

    def test_plan_dynamic_sweep_emits_dynamic_columns(self, capsys):
        code = main(
            [
                "plan",
                "--backend", "cpu",
                "--tenants", "2",
                "--num-graphs", "3",
                "--duration", "0.02",
                "--workers", "0",
                "--replicas", "2",
                "--policies", "edf",
                "--autoscale", "none",
                "--autoscale", "reactive:min=1,max=4,interval=0.004",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["scenarios"]
        assert len(rows) == 2
        assert {row["autoscale"] for row in rows} == {
            None,
            "reactive:min=1,max=4,interval=0.004",
        }
        for row in rows:
            assert row["submitted"] == (
                row["completed"] + row["dropped"] + row["shed"]
            )

    def test_plan_invalid_autoscaler_exits_with_error(self, capsys):
        code = main(
            [
                "plan",
                "--backend", "cpu",
                "--tenants", "2",
                "--num-graphs", "3",
                "--workers", "0",
                "--autoscale", "sigmoid",
            ]
        )
        assert code == 2
        assert "sigmoid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Non-finite serving inputs exit 2 with one stderr line
# ---------------------------------------------------------------------------
def _repro_in_subprocess(*args):
    """``python -m repro ARGS`` in its own process under a 60 s budget, so a
    run that spins fails on the timeout instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


_TINY_SERVE = ["serve", "--tenants", "1", "--backend", "cpu", "--num-requests", "10"]


class TestNonFiniteServingInputs:
    def test_nan_batch_timeout_serve_exits_2_instead_of_hanging(self):
        proc = _repro_in_subprocess(
            *_TINY_SERVE, "--max-batch", "4", "--batch-timeout-us", "nan", "--arrival", "bursty"
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "batch_timeout_s must be finite and >= 0" in proc.stderr

    def test_nan_batch_timeout_plan_exits_2_instead_of_hanging(self):
        proc = _repro_in_subprocess(
            "plan", "--max-batch", "4", "--batch-timeout-us", "nan", "--replicas", "1"
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "every batch timeout must be finite and >= 0" in proc.stderr

    def test_infinite_batch_timeout_is_rejected(self, capsys):
        code = main(_TINY_SERVE + ["--max-batch", "4", "--batch-timeout-us", "inf", "--arrival", "bursty"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "batch_timeout_s must be finite" in err
        cluster = Cluster([Workload("t", model="GIN", num_graphs=2)], backend="cpu")
        mix = TenantMix("mix", [{"tenant": "t", "model": "GIN", "num_graphs": 2}])
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="batch_timeout_s must be finite"):
                Cluster([Workload("t", model="GIN", num_graphs=2)], backend="cpu", batch_timeout_s=value)
            with pytest.raises(ValueError, match="batch_timeout_s must be finite"):
                cluster.with_options(batch_timeout_s=value)
            with pytest.raises(ValueError, match="every batch timeout must be finite"):
                PlanSpec(mixes=[mix], batch_timeouts_s=[value])

    def test_non_finite_deadline_is_rejected(self, capsys):
        code = main(_TINY_SERVE + ["--deadline-us", "nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "deadline_s must be finite and positive" in err
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="deadline_s must be finite and positive"):
                Workload("t", model="GIN", num_graphs=2, deadline_s=value)

    def test_missing_carbon_trace_exits_2_with_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code = main(_TINY_SERVE + ["--carbon-trace", f"trace:{missing}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read carbon CSV" in err
        for path in (missing, str(tmp_path)):  # missing, and a directory
            with pytest.raises(ValueError, match="cannot read carbon CSV"):
                CarbonIntensity.from_csv(path)


class TestNonFiniteControlInputs:
    """NaN event times, intervals and thresholds, and a negative worker
    count, exit 2 with one stderr line instead of hanging or running."""

    def _assert_one_line(self, proc, text):
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert text in proc.stderr

    def test_nan_fail_time_exits_2_instead_of_hanging(self):
        proc = _repro_in_subprocess(*_TINY_SERVE, "--fault", "fail@nan:r0")
        self._assert_one_line(proc, "fault time must be finite and >= 0")

    def test_nan_recover_time_exits_2_instead_of_hanging(self):
        proc = _repro_in_subprocess(*_TINY_SERVE, "--fault", "recover@nan:r0")
        self._assert_one_line(proc, "fault time must be finite and >= 0")

    def test_nan_autoscale_interval_exits_2_instead_of_hanging(self):
        proc = _repro_in_subprocess(*_TINY_SERVE, "--autoscale", "reactive:min=1,max=4,interval=nan")
        self._assert_one_line(proc, "interval_s must be finite and > 0")

    def test_nan_power_cap_is_rejected(self, capsys):
        code = main(_TINY_SERVE + ["--power-cap", "nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "power_cap_w must be finite and > 0" in err
        cluster = Cluster([Workload("t", model="GIN", num_graphs=2)], backend="cpu")
        mix = TenantMix("mix", [{"tenant": "t", "model": "GIN", "num_graphs": 2}])
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="power_cap_w must be finite"):
                cluster.with_options(power_cap_w=value)
            with pytest.raises(ValueError, match="power cap must be finite"):
                PlanSpec(mixes=[mix], power_caps=[value])

    def test_nan_admission_headroom_is_rejected(self, capsys):
        from repro.serve import AdmissionControl

        code = main(_TINY_SERVE + ["--admission", "headroom=nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "deadline_headroom must be finite and > 0" in err
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="deadline_headroom must be finite"):
                AdmissionControl(deadline_headroom=value)

    def test_nan_carbon_waiting_threshold_is_rejected(self, capsys):
        from repro.serve import CarbonWaitingAdmission

        code = main(_TINY_SERVE + ["--admission", "carbon_waiting:threshold=nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "carbon_threshold must be finite and >= 0" in err
        for field in ("carbon_threshold", "release_headroom"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                CarbonWaitingAdmission(**{field: math.nan})

    def test_negative_dse_workers_is_rejected(self, capsys):
        from repro.engine import Engine

        one_point = ["dse", "--models", "GCN", "--p-node", "1", "--p-edge", "1", "--p-apply", "1"]
        code = main(one_point + ["--p-scatter", "1", "--num-graphs", "2", "--workers", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers must be finite and >= 0, got -1" in err
        with pytest.raises(ValueError, match="workers must be finite and >= 0"):
            Engine(workers=-1)
        assert Engine(workers=0).workers == 0


class TestNonFiniteCarbonTraces:
    """A carbon trace whose times or period are not finite is rejected when
    it is built, instead of integrating to 0.0 or raising mid-run."""

    def test_nan_time_row_exits_2_with_one_line(self, tmp_path):
        trace = tmp_path / "carbon.csv"
        trace.write_text("time_s,intensity\n0,300\nnan,200\n")
        proc = _repro_in_subprocess(*_TINY_SERVE, "--carbon-trace", f"trace:{trace}")
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "carbon trace time must be finite and >= 0, got nan" in proc.stderr

    @pytest.mark.parametrize("times_s", [(0.0, math.nan), (0.0, math.inf), (math.nan,)])
    def test_non_finite_time_is_rejected(self, times_s):
        with pytest.raises(ValueError, match="carbon trace time must be finite and >= 0"):
            CarbonIntensity(times_s=times_s, intensities=(300.0,) * len(times_s))

    @pytest.mark.parametrize("period_s", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_period_is_rejected(self, period_s):
        with pytest.raises(ValueError, match="carbon trace period_s must be finite and > 0"):
            CarbonIntensity(times_s=(0.0,), intensities=(300.0,), period_s=period_s)


class TestInfiniteIntegerSpecs:
    """An integer slot of an autoscaler, admission or carbon-trace spec
    given ±inf (``1e400`` parses as inf) exits 2 with one stderr line
    instead of an ``OverflowError`` traceback."""

    _CASES = {
        "autoscale-min": (["--autoscale", "reactive:min=inf"], "min_replicas must be finite, got inf"),
        "autoscale-max": (["--autoscale", "reactive:max=inf"], "max_replicas must be finite, got inf"),
        "admission-queue": (["--admission", "queue=inf"], "max_queue_depth must be finite, got inf"),
        "admission-queue-1e400": (["--admission", "queue=1e400"], "max_queue_depth must be finite, got inf"),
        "carbon-waiting-queue": (
            ["--admission", "carbon_waiting:queue=inf"],
            "max_queue_depth must be finite, got inf",
        ),
        "diurnal-steps": (["--carbon-trace", "diurnal:steps=inf"], "diurnal steps must be finite, got inf"),
        "autoscale-min-negative": (["--autoscale", "reactive:min=-inf"], "min_replicas must be finite, got -inf"),
    }

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_serve_exits_2_with_one_line(self, capsys, case):
        flags, text = self._CASES[case]
        assert main(_TINY_SERVE + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("invalid serving scenario: ") and text in err

    @pytest.mark.parametrize("case", ["autoscale-min", "admission-queue", "carbon-waiting-queue", "diurnal-steps"])
    def test_plan_exits_2_with_one_line(self, capsys, case):
        flags, text = self._CASES[case]
        assert main(["plan", "--replicas", "1"] + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("invalid plan sweep: ") and text in err

    def test_nan_integer_slot_names_the_slot(self, capsys):
        assert main(_TINY_SERVE + ["--admission", "queue=nan"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_queue_depth must be finite, got nan" in err


class TestFractionalIntegerSpecs:
    """An integer slot of a spec string takes only an integral number: 2.5
    used to be truncated to 2 without a word, and a NaN seed or a
    fractional replica printed a raw ``int()`` message naming no slot."""

    _CASES = {
        "autoscale-min": (
            ["--autoscale", "reactive:min=2.5"],
            "invalid serving scenario: min_replicas must be an integer, got 2.5",
        ),
        "admission-queue": (
            ["--admission", "queue=2.5"],
            "invalid serving scenario: max_queue_depth must be an integer, got 2.5",
        ),
        "carbon-waiting-queue": (
            ["--admission", "carbon_waiting:queue=2.5"],
            "invalid serving scenario: max_queue_depth must be an integer, got 2.5",
        ),
        "diurnal-steps": (
            ["--carbon-trace", "diurnal:steps=2.5"],
            "invalid serving scenario: diurnal steps must be an integer, got 2.5",
        ),
        "fault-seed": (
            ["--fault", "random:mtbf=0.01,mttr=0.001,horizon=1,seed=2.5"],
            "invalid fault schedule: seed must be an integer, got 2.5",
        ),
        "fault-seed-nan": (
            ["--fault", "random:mtbf=0.01,mttr=0.001,horizon=1,seed=nan"],
            "invalid fault schedule: seed must be finite, got nan",
        ),
        "fault-replica": (
            ["--fault", "fail@0.001:r0.5"],
            "invalid fault schedule: fault replica must be an integer, got 0.5",
        ),
    }

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_serve_exits_2_with_one_line_naming_the_slot(self, capsys, case):
        flags, line = self._CASES[case]
        assert main(_TINY_SERVE + flags) == 2
        assert capsys.readouterr().err == line + "\n"


class TestNonNumericSpecValues:
    """A spec slot given text that is no number used to exit 2 with Python's
    own ``could not convert string to float: '...'``, naming neither the
    slot nor, for a CSV, the row and column."""

    _CASES = {
        "autoscale-min": (
            ["--autoscale", "reactive:min=abc"],
            "invalid serving scenario: min_replicas must be a number, got 'abc'",
        ),
        "admission-queue": (
            ["--admission", "queue=abc"],
            "invalid serving scenario: max_queue_depth must be a number, got 'abc'",
        ),
        "admission-headroom": (
            ["--admission", "headroom=x"],
            "invalid serving scenario: deadline_headroom must be a number, got 'x'",
        ),
        "carbon-waiting-threshold": (
            ["--admission", "carbon_waiting:threshold=x"],
            "invalid serving scenario: carbon_threshold must be a number, got 'x'",
        ),
        "power-busy": (
            ["--power", "busy=abc"],
            "invalid serving scenario: power busy must be a number, got 'abc'",
        ),
        "diurnal-steps": (
            ["--carbon-trace", "diurnal:steps=x"],
            "invalid serving scenario: diurnal steps must be a number, got 'x'",
        ),
        "constant-carbon": (
            ["--carbon-trace", "constant:abc"],
            "invalid serving scenario: constant carbon intensity must be a number, got 'abc'",
        ),
        "fault-time": (
            ["--fault", "fail@abc:r0"],
            "invalid fault schedule: fault time must be a number, got 'abc'",
        ),
        "fault-replica": (
            ["--fault", "fail@0.001:rabc"],
            "invalid fault schedule: fault replica must be a number, got 'abc'",
        ),
        "fault-factor": (
            ["--fault", "degrade@0.001:r0x0.5y"],
            "invalid fault schedule: fault factor must be a number, got '0.5y'",
        ),
        "random-fault-mtbf": (
            ["--fault", "random:mtbf=x,mttr=1,horizon=1"],
            "invalid fault schedule: fault schedule mtbf must be a number, got 'x'",
        ),
        "diurnal-arrival-low": (
            ["--arrival", "diurnal:low=abc"],
            "cannot generate load: diurnal low must be a number, got 'abc'",
        ),
    }

    #: (flag, file name, CSV text, expected line with {path} for the file).
    _CSV_CASES = {
        "carbon-csv-cell": (
            "--carbon-trace",
            "carbon.csv",
            "time_s,intensity\n0,100\n1,abc\n",
            "invalid serving scenario: carbon CSV {path!r} line 3 column 'intensity' "
            "must be a number, got 'abc'",
        ),
        "carbon-csv-missing-cell": (
            "--carbon-trace",
            "carbon.csv",
            "time_s,intensity\n0,100\n1\n",
            "invalid serving scenario: carbon CSV {path!r} line 3 column 'intensity' "
            "must be a number, got None",
        ),
        "arrival-csv-cell": (
            "--arrival",
            "arrivals.csv",
            "arrival_s\n0.0\nabc\n",
            "cannot generate load: trace CSV {path!r} line 3 column 'arrival_s' "
            "must be a number, got 'abc'",
        ),
    }

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_spec_slot_is_named(self, capsys, case):
        flags, line = self._CASES[case]
        assert main(_TINY_SERVE + flags) == 2
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("case", sorted(_CSV_CASES))
    def test_csv_cell_is_named_by_line_and_column(self, capsys, tmp_path, case):
        flag, name, text, line = self._CSV_CASES[case]
        path = tmp_path / name
        path.write_text(text)
        assert main(_TINY_SERVE + [flag, f"trace:{path}"]) == 2
        assert capsys.readouterr().err == line.format(path=str(path)) + "\n"


def test_plan_repeated_grid_value_exits_2_with_one_line(capsys):
    """Repeating a grid value used to sweep its scenarios twice and exit 0."""
    argv = ["plan", "--backend", "cpu", "--tenants", "1", "--num-graphs", "2", "--replicas", "1,1"]
    argv += ["--policies", "round_robin", "--duration", "0.005", "--workers", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "invalid plan sweep: grid 'replicas' repeats 1: [1, 1]\n"
