"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the common workflows without writing any Python:

* ``experiments`` — regenerate the paper's tables and figures, fanning the
  experiments' work items out over ``--workers`` engine processes, with
  ``--csv DIR``/``--json`` machine-readable export;
* ``simulate``    — run one model on one dataset on a chosen inference
  backend (``--backend flowgnn|cpu|gpu|roofline``) and report latency,
  throughput and energy via the unified :mod:`repro.api` layer; ``--json``
  emits the machine-readable :meth:`~repro.api.InferenceReport.to_json`;
* ``datasets``    — print the synthetic dataset statistics (Table IV);
* ``dse``         — sweep parallelism grids over models and datasets with
  the design-space exploration engine (:mod:`repro.dse`), with Pareto
  extraction, CSV export, and baseline-platform sweeps via ``--backend``;
* ``serve``       — multi-tenant serving simulation (:mod:`repro.serve`):
  many request streams multiplexed over a pool of backend replicas with a
  chosen dispatch policy and arrival process;
* ``plan``        — serving-scenario sweep (:mod:`repro.plan`): grids over
  replicas x policy x batching x queue capacity x arrival process, run in
  parallel workers sharing one measurement per (backend, model, dataset,
  batch size), with cost/Pareto extraction, CSV/JSON export and a
  ``--solve`` mode answering "how many replicas hold every SLO?";
* ``runs``        — inspect the longitudinal results store
  (:mod:`repro.results`) that ``--record`` on dse/serve/plan/experiments
  populates: ``runs list`` and ``runs show RUN_ID``;
* ``report``      — generate the self-contained static HTML report from the
  results store (run histories, benchmark trajectories, Pareto frontiers,
  and ``--compare RUN_A RUN_B`` statistical run comparisons).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from . import __version__
from .api import BACKEND_NAMES, InferenceRequest, MeasurementCache, get_backend
from .arch import ALVEO_U50
from .checks import finite_nonnegative
from .datasets import DATASET_NAMES, load_dataset
from .dse import SweepRunner, SweepSpec
from .engine import EXECUTOR_NAMES
from .eval import EXPERIMENT_NAMES, render_dict_table, run_all_experiments
from .nn import MODEL_NAMES
from .plan import PlanRunner, PlanSpec, TenantMix, min_replicas_for_slo
from .plan.runner import build_generator
from .results import (
    DEFAULT_DB_PATH,
    ResultStore,
    StoreError,
    compare_runs,
    config_signature,
    generate_report,
    render_comparison_text,
)
from .serve import POLICY_NAMES, Cluster, FaultSchedule, Workload

__all__ = ["build_parser", "main"]


# The four paper parallelism knobs, shared between the ``simulate`` (scalar)
# and ``dse`` (grid) subparsers: (dest, scalar flag, grid flag, paper name,
# scalar default, grid default).
_PARALLELISM_KNOBS = [
    ("nt_units", "--nt-units", "--p-node", "P_node", 2, [1, 2, 4]),
    ("mp_units", "--mp-units", "--p-edge", "P_edge", 4, [1, 2, 4]),
    ("apply", "--apply", "--p-apply", "P_apply", 2, [1, 2, 4]),
    ("scatter", "--scatter", "--p-scatter", "P_scatter", 4, [1, 2, 4, 8]),
]


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> List[str]:
    return [part for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _capacity_list(text: str) -> List[Optional[int]]:
    """Comma list of queue capacities; ``none``/``inf`` means unbounded."""
    values: List[Optional[int]] = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        values.append(None if part in ("none", "inf", "unbounded") else int(part))
    return values


def _add_progress_flag(parser: argparse.ArgumentParser) -> None:
    """Install the shared ``--progress`` flag (experiments, dse, plan)."""
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream completed/total counts to stderr as the engine evaluates "
        "(off by default so stdout stays clean for --csv/--json)",
    )


def _progress_printer(label: str):
    """A ``(completed, total)`` engine callback printing to stderr."""

    def callback(completed: int, total: int) -> None:
        print(f"{label}: {completed}/{total}", file=sys.stderr, flush=True)

    return callback


def _add_record_flag(parser: argparse.ArgumentParser) -> None:
    """Install the uniform ``--record [DB]`` flag (experiments/dse/serve/plan)."""
    parser.add_argument(
        "--record",
        nargs="?",
        const=DEFAULT_DB_PATH,
        default=None,
        metavar="DB",
        help="record this run (rows + provenance: git SHA, argv, timings) "
        f"into the results store at DB (default {DEFAULT_DB_PATH}); "
        "browse it with 'repro runs' and 'repro report'",
    )


#: Namespace keys that select *how* a run executes or is exported, not *what*
#: it computes — excluded from the recorded config signature so a re-run of
#: the same workload matches regardless of worker count or output flags.
#: ``executor`` and ``resume`` are operational too: both executors produce
#: byte-identical rows, so a serial-executor resume of a pool-executor run is
#: legitimate and must signature-match.
_NON_SIGNATURE_KEYS = {
    "command",
    "workers",
    "progress",
    "json",
    "csv",
    "record",
    "executor",
    "resume",
}


def _signature_from_args(args: argparse.Namespace, **extra) -> str:
    payload = {
        key: value
        for key, value in vars(args).items()
        if key not in _NON_SIGNATURE_KEYS and not key.startswith("_")
    }
    payload.update(extra)
    return config_signature(payload)


@contextmanager
def _maybe_record(args: argparse.Namespace, kind: str, workers: Optional[int] = None):
    """Yield a :class:`~repro.results.RunRecorder` when ``--record`` was given.

    Yields ``None`` when recording is off, so call sites wrap their run in
    one ``with`` block either way.  The run id is announced on stderr —
    stdout stays clean for ``--json``/``--csv``.
    """
    if getattr(args, "record", None) is None:
        yield None
        return
    with ResultStore(args.record) as store:
        with store.record(
            kind,
            _signature_from_args(args),
            argv=getattr(args, "_argv", None),
            workers=workers,
        ) as recorder:
            yield recorder
        print(f"recorded run {recorder.run_id} in {store.path}", file=sys.stderr)


class _RunComplete(Exception):
    """``--resume`` named a finished run: the command is a successful no-op."""

    def __init__(self, run_id: str) -> None:
        super().__init__(run_id)
        self.run_id = run_id


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Install ``--executor``/``--resume`` (experiments, dse, plan)."""
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default="pool",
        help="engine transport: serial (in-process) | pool (chunked "
        "process pool, the default); both produce byte-identical results",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="resume an interrupted --record run from its checkpoint "
        "journal (pass the same workload flags; 'repro runs list' marks "
        "resumable runs)",
    )


def _open_checkpoint(
    store: ResultStore,
    args: argparse.Namespace,
    kind: str,
    signature: str,
    workers: Optional[int],
):
    """The run's :class:`~repro.results.StoreCheckpoint` — fresh or resumed.

    Announces the run id on stderr either way (so an interrupted invocation
    is resumable from what it printed).  Raises :class:`StoreError` for a
    bad ``--resume`` target and :class:`_RunComplete` when the named run
    already finished.
    """
    resume = getattr(args, "resume", None)
    if resume:
        state = store.checkpoint_state(resume)
        if state is None:
            raise StoreError(f"no checkpointed run {resume!r} in {store.path}")
        if state["finished"]:
            raise _RunComplete(resume)
        if state["kind"] != kind:
            raise StoreError(
                f"run {resume!r} is a {state['kind']!r} run, not {kind!r}"
            )
        if state["signature"] != signature:
            raise StoreError(
                f"run {resume!r} was started with a different configuration "
                f"(signature {state['signature'][:12]}, this invocation "
                f"{signature[:12]}); resume with the original workload flags"
            )
        print(
            f"resuming run {resume}: {state['completed_items']} items already "
            "journaled",
            file=sys.stderr,
        )
        return store.resume_checkpoint(resume)
    checkpoint = store.begin_checkpoint(
        kind,
        signature,
        executor=getattr(args, "executor", None),
        workers=workers,
    )
    print(
        f"checkpointing run {checkpoint.run_id} in {store.path} "
        f"(resume an interrupted run with --resume {checkpoint.run_id})",
        file=sys.stderr,
    )
    return checkpoint


@contextmanager
def _record_with_checkpoint(
    args: argparse.Namespace, kind: str, workers: Optional[int] = None
):
    """Yield ``(recorder, checkpoint)`` for the checkpoint-capable commands.

    Without ``--record``: ``(None, None)`` (and ``--resume`` is an error —
    the journal lives in the results store).  With ``--record``: reserves a
    run id (or reopens one with ``--resume``), journals completed items into
    it during the block, and claims the id with the final payload when the
    block finishes, flipping the checkpoint to finished in the same
    transaction.  A kill anywhere in between leaves a resumable journal.
    """
    record = getattr(args, "record", None)
    if record is None:
        if getattr(args, "resume", None):
            raise StoreError(
                "--resume requires --record (the checkpoint journal lives in "
                "the results store)"
            )
        yield None, None
        return
    signature = _signature_from_args(args)
    with ResultStore(record) as store:
        checkpoint = _open_checkpoint(store, args, kind, signature, workers)
        with store.record(
            kind,
            signature,
            argv=getattr(args, "_argv", None),
            workers=workers,
            run_id=checkpoint.run_id,
        ) as recorder:
            yield recorder, checkpoint
        print(f"recorded run {recorder.run_id} in {store.path}", file=sys.stderr)


def _add_parallelism_flags(parser: argparse.ArgumentParser, grid: bool = False) -> None:
    """Install the four parallelism knobs as scalars (simulate) or grids (dse)."""
    for dest, scalar_flag, grid_flag, paper_name, scalar_default, grid_default in _PARALLELISM_KNOBS:
        if grid:
            parser.add_argument(
                grid_flag,
                dest=f"p_{grid_flag.split('-')[-1]}",
                type=_int_list,
                default=list(grid_default),
                help=f"{paper_name} grid, e.g. {','.join(map(str, grid_default))}",
            )
        else:
            parser.add_argument(
                scalar_flag, dest=dest, type=int, default=scalar_default, help=paper_name
            )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowGNN reproduction: dataflow-architecture GNN inference simulator",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "names",
        nargs="*",
        default=None,
        help=f"experiments to run (default: all of {', '.join(EXPERIMENT_NAMES)})",
    )
    experiments.add_argument(
        "--full", action="store_true", help="use full-size synthetic datasets"
    )
    experiments.add_argument(
        "--workers",
        type=int,
        default=None,
        help="multiprocessing workers fanning experiment work items out "
        "(default: CPU count; 0 runs in-process)",
    )
    experiments.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's rows as DIR/<name>.csv",
    )
    experiments.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object mapping experiment name to its payload "
        "instead of text tables",
    )
    _add_progress_flag(experiments)
    _add_record_flag(experiments)
    _add_executor_flags(experiments)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one model on one dataset on a chosen backend"
    )
    simulate.add_argument("--model", choices=MODEL_NAMES, default="GIN")
    simulate.add_argument("--dataset", choices=DATASET_NAMES, default="MolHIV")
    simulate.add_argument("--num-graphs", type=int, default=32)
    simulate.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="flowgnn",
        help="inference backend from the repro.api registry",
    )
    simulate.add_argument(
        "--batch-size", type=int, default=1, help="mini-batch size for platform backends"
    )
    _add_parallelism_flags(simulate)
    simulate.add_argument(
        "--compare-baselines",
        action="store_true",
        help="also report every other registered backend on the same request",
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        help="print the InferenceReport as JSON instead of tables",
    )

    datasets = subparsers.add_parser(
        "datasets", help="print synthetic dataset statistics (Table IV)"
    )
    datasets.add_argument("names", nargs="*", default=None)

    dse = subparsers.add_parser(
        "dse",
        help="design-space exploration: sweep parallelism grids over models/datasets",
    )
    dse.add_argument(
        "--models",
        type=_str_list,
        default=["GCN"],
        help=f"comma-separated model names from: {', '.join(MODEL_NAMES)}",
    )
    dse.add_argument(
        "--datasets",
        type=_str_list,
        default=["MolHIV"],
        help=f"comma-separated dataset names from: {', '.join(DATASET_NAMES)}",
    )
    dse.add_argument("--num-graphs", type=int, default=12, help="graphs per multi-graph dataset")
    dse.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="flowgnn",
        help="inference backend to sweep (non-flowgnn backends ignore the grid)",
    )
    _add_parallelism_flags(dse, grid=True)
    dse.add_argument(
        "--workers",
        type=int,
        default=None,
        help="multiprocessing workers (default: CPU count; 0 runs in-process)",
    )
    dse.add_argument(
        "--no-board-filter",
        action="store_true",
        help="also simulate configurations that do not fit the Alveo U50",
    )
    dse.add_argument(
        "--pareto",
        action="store_true",
        help="print the latency/DSP/BRAM/power Pareto frontier",
    )
    dse.add_argument("--csv", metavar="PATH", default=None, help="write the sweep rows as CSV")
    _add_progress_flag(dse)
    _add_record_flag(dse)
    _add_executor_flags(dse)

    serve = subparsers.add_parser(
        "serve",
        help="multi-tenant serving simulation over a pool of backend replicas",
    )
    serve.add_argument("--tenants", type=int, default=2, help="number of tenants")
    serve.add_argument("--replicas", type=int, default=1, help="backend replicas in the pool")
    serve.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        default="round_robin",
        help="dispatch policy (edf is the SLO-aware earliest-deadline-first)",
    )
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="flowgnn",
        help="backend every replica instantiates",
    )
    serve.add_argument(
        "--arrival",
        default="poisson",
        help="arrival process: poisson | bursty | constant | "
        "diurnal[:low=,high=,period=] | trace:PATH "
        "(CSV with an arrival_s column; a tenant column routes rows)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated traffic horizon in seconds "
        "(default: 0.05, or the whole trace when replaying one)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="total request rate (req/s) split by tenant share; "
        "default: ~70%% of the measured pool capacity",
    )
    serve.add_argument(
        "--models",
        type=_str_list,
        default=["GIN", "GCN"],
        help="comma-separated model names, cycled across tenants",
    )
    serve.add_argument(
        "--datasets",
        type=_str_list,
        default=["MolHIV"],
        help="comma-separated dataset names, cycled across tenants",
    )
    serve.add_argument(
        "--num-graphs", type=int, default=6, help="distinct graphs per tenant's request pool"
    )
    serve.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        help="per-request deadline in microseconds "
        "(default: 4x the measured mean service time)",
    )
    serve.add_argument("--max-batch", type=int, default=1, help="dynamic batching: batch size cap")
    serve.add_argument(
        "--batch-timeout-us",
        type=float,
        default=0.0,
        help="dynamic batching: how long a replica waits for a batch to fill",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="bound on queued requests; beyond it arrivals are dropped",
    )
    serve.add_argument(
        "--autoscale",
        metavar="SPEC",
        default=None,
        help="dynamic cluster: autoscaler spec, reactive[:k=v,...] or "
        "predictive[:k=v,...] — common keys min,max,interval,delay,"
        "hysteresis; e.g. reactive:min=1,max=8,delay=2e-3",
    )
    serve.add_argument(
        "--fault",
        metavar="SPEC",
        default=None,
        help="dynamic cluster: fault schedule, either explicit events "
        "'fail@0.01:r0;recover@0.02:r0;degrade@0.005:r1x2.5' or a seeded "
        "crash/recover process 'random:mtbf=0.02,mttr=0.005,seed=1'",
    )
    serve.add_argument(
        "--admission",
        metavar="SPEC",
        default=None,
        help="dynamic cluster: adaptive admission 'queue=N[,headroom=X]' — "
        "shed arrivals beyond a queue depth, or whose predicted latency "
        "exceeds X times their deadline budget; or "
        "'carbon_waiting[:threshold=G,headroom=X]' holding deferrable "
        "tenants' work until the grid is cleaner (needs --carbon-trace)",
    )
    serve.add_argument(
        "--power",
        metavar="SPEC",
        default=None,
        help="per-replica power model 'busy=W[,idle=W,provision=W,"
        "degraded=X]' — integrates the replica lifecycle into "
        "ServingReport.energy_j (default when --carbon-trace/--power-cap "
        "need one: derived from the backend's measured energy)",
    )
    serve.add_argument(
        "--carbon-trace",
        metavar="SPEC",
        default=None,
        help="grid carbon intensity: diurnal[:low=G,high=G,period=S,steps=N]"
        " | constant:GCO2_PER_KWH | trace:PATH — the report then charges "
        "carbon_gco2 = integral of power x intensity",
    )
    serve.add_argument(
        "--power-cap",
        metavar="WATTS",
        type=float,
        default=None,
        help="cluster-wide watt budget: dispatch that would push total draw "
        "above it waits (or is shed by the usual admission rules)",
    )
    serve.add_argument(
        "--tenant-classes",
        type=_str_list,
        default=["realtime"],
        help="comma-separated tenant classes (realtime|deferrable), cycled "
        "across tenants; deferrable work may be held by the "
        "carbon_waiting admission",
    )
    serve.add_argument("--seed", type=int, default=0, help="load-generator seed")
    serve.add_argument(
        "--num-requests",
        type=int,
        default=None,
        help="generate exactly this many requests per tenant instead of "
        "(or combined with) a --duration horizon",
    )
    serve_mode = serve.add_mutually_exclusive_group()
    serve_mode.add_argument(
        "--exact",
        dest="mode",
        action="store_const",
        const="exact",
        help="array-backed report (the oracle; the default)",
    )
    serve_mode.add_argument(
        "--sketch",
        dest="mode",
        action="store_const",
        const="sketch",
        help="streaming simulation with O(tenants+replicas) report memory: "
        "lazy load generation + online accumulators (counts, drops and "
        "utilisation exact; percentiles within the sketches' documented "
        "error) — use for millions of requests",
    )
    serve.set_defaults(mode="exact")
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the ServingReport as JSON instead of tables",
    )
    _add_record_flag(serve)

    plan = subparsers.add_parser(
        "plan",
        help="serving-scenario sweep: grids over replicas/policy/batching/"
        "queue/arrival, in parallel workers sharing measurements",
    )
    plan.add_argument("--tenants", type=int, default=2, help="number of tenants in the mix")
    plan.add_argument(
        "--models",
        type=_str_list,
        default=["GIN", "GCN"],
        help="comma-separated model names, cycled across tenants",
    )
    plan.add_argument(
        "--datasets",
        type=_str_list,
        default=["MolHIV"],
        help="comma-separated dataset names, cycled across tenants",
    )
    plan.add_argument(
        "--num-graphs", type=int, default=6, help="distinct graphs per tenant's request pool"
    )
    plan.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        help="per-request deadline in microseconds "
        "(default: 4x the measured mean service time)",
    )
    plan.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="flowgnn",
        help="backend every replica instantiates",
    )
    plan.add_argument(
        "--replicas",
        type=_int_list,
        default=[1, 2, 4],
        help="replica-count grid, e.g. 1,2,4,8",
    )
    plan.add_argument(
        "--policies",
        type=_str_list,
        default=["round_robin", "edf"],
        help=f"dispatch-policy grid from: {', '.join(POLICY_NAMES)}",
    )
    plan.add_argument(
        "--max-batch",
        type=_int_list,
        default=[1],
        help="dynamic-batching batch-size-cap grid, e.g. 1,4",
    )
    plan.add_argument(
        "--batch-timeout-us",
        type=_float_list,
        default=[0.0],
        help="dynamic-batching timeout grid in microseconds, e.g. 0,200",
    )
    plan.add_argument(
        "--queue-capacity",
        type=_capacity_list,
        default=[None],
        help="queue-capacity grid; 'none' means unbounded, e.g. none,64",
    )
    plan.add_argument(
        "--arrivals",
        type=_str_list,
        default=["poisson"],
        help="arrival-process grid: poisson | bursty | constant | "
        "diurnal[:low=,high=,period=] | trace:PATH",
    )
    # The dynamic grids are repeatable flags rather than comma-separated
    # lists: autoscaler specs contain commas and fault schedules contain
    # semicolons, so no in-flag delimiter survives both.
    plan.add_argument(
        "--autoscale",
        metavar="SPEC",
        action="append",
        dest="autoscalers",
        default=None,
        help="autoscaler grid entry (repeat the flag for a grid; 'none' is "
        "the static point) — e.g. --autoscale none --autoscale "
        "reactive:max=8,delay=2e-3",
    )
    plan.add_argument(
        "--fault",
        metavar="SPEC",
        action="append",
        dest="faults",
        default=None,
        help="fault-schedule grid entry (repeat the flag for a grid; 'none' "
        "for no faults) — e.g. --fault none --fault "
        "random:mtbf=0.02,mttr=0.005",
    )
    plan.add_argument(
        "--admission",
        metavar="SPEC",
        action="append",
        dest="admissions",
        default=None,
        help="admission-control grid entry (repeat the flag for a grid; "
        "'none' for no admission) — e.g. --admission none --admission "
        "queue=64 --admission carbon_waiting:threshold=300",
    )
    plan.add_argument(
        "--carbon-trace",
        metavar="SPEC",
        action="append",
        dest="carbon_traces",
        default=None,
        help="carbon-intensity grid entry (repeat the flag for a grid; "
        "'none' for no carbon accounting) — e.g. --carbon-trace none "
        "--carbon-trace diurnal:low=100,high=700",
    )
    plan.add_argument(
        "--power-cap",
        metavar="WATTS",
        action="append",
        dest="power_caps",
        default=None,
        help="cluster watt-budget grid entry (repeat the flag for a grid; "
        "'none' for uncapped) — e.g. --power-cap none --power-cap 4.0",
    )
    plan.add_argument(
        "--power",
        metavar="SPEC",
        default=None,
        help="per-replica power model shared by every scenario, "
        "'busy=W[,idle=W,provision=W,degraded=X]' (when omitted, carbon/"
        "cap scenarios derive one from the backend's measured energy)",
    )
    plan.add_argument(
        "--tenant-classes",
        type=_str_list,
        default=["realtime"],
        help="comma-separated tenant classes (realtime|deferrable), cycled "
        "across tenants",
    )
    plan.add_argument(
        "--carbon-budget",
        metavar="GCO2",
        type=float,
        default=None,
        help="with --solve: a pool is only feasible if its carbon_gco2 "
        "fits this budget (solved under the first carbon-trace grid point)",
    )
    plan.add_argument(
        "--power-budget",
        metavar="WATTS",
        type=float,
        default=None,
        help="with --solve: a pool is only feasible if its mean draw "
        "(grid energy over the horizon) fits this watt budget",
    )
    plan.add_argument(
        "--rate",
        type=float,
        default=None,
        help="total request rate (req/s) split by tenant share "
        "(default: utilisation x max(replicas) / measured service time)",
    )
    plan.add_argument(
        "--utilisation",
        type=float,
        default=0.7,
        help="target utilisation used when deriving the default rate",
    )
    plan.add_argument(
        "--duration", type=float, default=0.05, help="traffic horizon per scenario (s)"
    )
    plan.add_argument("--seed", type=int, default=0, help="load-generator seed")
    plan.add_argument(
        "--sketch",
        dest="mode",
        action="store_const",
        const="sketch",
        default="exact",
        help="evaluate scenarios with the streaming (sketch-mode) simulator "
        "instead of exact array-backed reports — same counts/drops/"
        "utilisation, percentile estimates, far less memory per scenario",
    )
    plan.add_argument(
        "--workers",
        type=int,
        default=None,
        help="multiprocessing workers (default: CPU count; 0 runs in-process)",
    )
    plan.add_argument(
        "--pareto",
        action="store_true",
        help="print the replica-time / p99 / miss-rate Pareto frontier",
    )
    plan.add_argument(
        "--solve",
        action="store_true",
        help="also solve min-replicas-for-SLO under the first grid point's "
        "policy/arrival/batching, searching up to max(--replicas)",
    )
    plan.add_argument("--csv", metavar="PATH", default=None, help="write scenario rows as CSV")
    plan.add_argument(
        "--json",
        action="store_true",
        help="print the sweep (and solver, with --solve) as JSON",
    )
    _add_progress_flag(plan)
    _add_record_flag(plan)
    _add_executor_flags(plan)

    runs = subparsers.add_parser(
        "runs", help="inspect the results store that --record populates"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument(
        "--db", default=DEFAULT_DB_PATH, help=f"store path (default {DEFAULT_DB_PATH})"
    )
    runs_list.add_argument("--kind", default=None, help="only runs of this kind")
    runs_list.add_argument(
        "--json", action="store_true", help="print run metadata as JSON"
    )
    runs_show = runs_sub.add_parser(
        "show", help="show one recorded run (metadata + payload)"
    )
    runs_show.add_argument("run_id", help="run id from 'repro runs list'")
    runs_show.add_argument(
        "--db", default=DEFAULT_DB_PATH, help=f"store path (default {DEFAULT_DB_PATH})"
    )
    runs_show.add_argument(
        "--json",
        action="store_true",
        help="print only the run's recorded payload, verbatim",
    )

    report = subparsers.add_parser(
        "report",
        help="generate the static HTML report (run histories, benchmark "
        "trajectories, Pareto frontiers, statistical comparisons) from "
        "the results store",
    )
    report.add_argument(
        "--db", default=DEFAULT_DB_PATH, help=f"store path (default {DEFAULT_DB_PATH})"
    )
    report.add_argument(
        "--out",
        default=os.path.join("results", "report"),
        metavar="DIR",
        help="output directory for index.html (default results/report)",
    )
    report.add_argument(
        "--compare",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        default=None,
        help="append a run-vs-run section: Mann-Whitney U + bootstrap CIs "
        "on a shared metric, and print the verdict",
    )
    report.add_argument(
        "--metric",
        default=None,
        help="row column --compare tests (default: per-kind, e.g. "
        "latency_ms for dse)",
    )
    report.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="significance level for the comparison verdict (default 0.05)",
    )

    return parser


def _run_experiments(args: argparse.Namespace) -> int:
    names = args.names or EXPERIMENT_NAMES
    unknown = [name for name in names if name not in EXPERIMENT_NAMES]
    if unknown:
        # Validated up front so a KeyError raised *inside* an experiment is
        # never mistaken for a bad selection.
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENT_NAMES)}",
            file=sys.stderr,
        )
        return 2
    progress = _progress_printer("experiments") if args.progress else None
    if args.record is None and args.resume:
        print(
            "--resume requires --record (the checkpoint journal lives in "
            "the results store)",
            file=sys.stderr,
        )
        return 2

    store = None
    checkpoint = None
    try:
        if args.record is not None:
            # One suite-level checkpoint journals the union of every
            # experiment's work items (the suite runs as one engine job),
            # so a kill mid-suite resumes without redoing finished items.
            store = ResultStore(args.record)
            try:
                checkpoint = _open_checkpoint(
                    store, args, "experiments", _signature_from_args(args), args.workers
                )
            except _RunComplete as done:
                print(
                    f"run {done.run_id} is already complete; nothing to resume",
                    file=sys.stderr,
                )
                return 0

        started = time.perf_counter()
        results = run_all_experiments(
            fast=not args.full,
            names=names,
            workers=args.workers,
            progress=progress,
            executor=args.executor,
            checkpoint=checkpoint,
        )
        suite_elapsed = time.perf_counter() - started

        if store is not None:
            # One recorded run per experiment (they are distinct result
            # tables); each carries the whole suite's wall clock —
            # experiments share one engine pool, so a per-name split does
            # not exist.  The suite checkpoint is marked finished once
            # every per-experiment run has landed (its reserved sequence
            # number is left unclaimed, which is fine: ids stay unique).
            run_ids = []
            for name in names:
                signature = _signature_from_args(args, names=None, experiment=name)
                with store.record(
                    "experiments",
                    signature,
                    argv=getattr(args, "_argv", None),
                    workers=args.workers,
                ) as recorder:
                    recorder.add_table(results[name])
                    recorder.duration_s = suite_elapsed
                run_ids.append(recorder.run_id)
            store.finish_checkpoint(checkpoint.run_id)
            print(
                f"recorded runs {', '.join(run_ids)} in {store.path}",
                file=sys.stderr,
            )
    except StoreError as error:
        print(f"cannot record runs: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()

    if args.json:
        payload = {name: results[name].to_dict() for name in names}
        print(json.dumps(payload, indent=2, default=str))
    else:
        for name in names:
            print(results[name].render())
            print()

    if args.csv:
        try:
            os.makedirs(args.csv, exist_ok=True)
            for name in names:
                results[name].to_csv(os.path.join(args.csv, f"{name}.csv"))
        except OSError as error:
            print(f"cannot write CSVs to {args.csv}: {error}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"wrote {len(names)} CSV files to {args.csv}")
    return 0


def _report_row(report) -> dict:
    """The table row the ``simulate`` command prints for one report."""
    row = {
        "platform": report.extras.get("platform", report.backend),
        "latency_ms": round(report.mean_latency_ms, 4),
        "p99_ms": round(report.p99_latency_ms, 4),
        "graphs_per_s": round(report.throughput_graphs_per_s, 1),
        "energy_mj": round(report.energy_mj_per_graph, 3),
        "graphs_per_kj": round(report.graphs_per_kilojoule, 1),
    }
    if "dsp" in report.extras:
        row.update(
            dsp=report.extras["dsp"],
            bram=report.extras["bram"],
            fits_u50=report.extras["fits_u50"],
            power_w=report.extras["power_w"],
        )
    return row


def _run_simulate(args: argparse.Namespace) -> int:
    try:
        request = InferenceRequest(
            model=args.model,
            dataset=args.dataset,
            num_graphs=args.num_graphs,
            batch_size=args.batch_size,
            config={
                "p_node": args.nt_units,
                "p_edge": args.mp_units,
                "p_apply": args.apply,
                "p_scatter": args.scatter,
            },
        )
    except ValueError as error:
        print(f"invalid simulation request: {error}", file=sys.stderr)
        return 2
    report = get_backend(args.backend).run(request)

    other_reports = []
    if args.compare_baselines:
        other_reports = [
            get_backend(name).run(request)
            for name in BACKEND_NAMES
            if name != args.backend
        ]

    if args.json:
        payload = report.to_dict()
        if other_reports:
            payload["baselines"] = [other.to_dict() for other in other_reports]
        print(json.dumps(payload, indent=2, default=str))
        return 0

    title = (
        "FlowGNN simulation"
        if args.backend == "flowgnn"
        else f"{args.backend} inference ({report.extras.get('platform', args.backend)})"
    )
    rows = [
        {
            "model": report.model,
            "dataset": report.dataset,
            "graphs": report.num_graphs,
            "config": report.config_description,
        }
    ]
    rows[0].update(_report_row(report))
    print(render_dict_table(rows, title=title))

    if other_reports:
        reference_ms = report.mean_latency_ms
        comparison = []
        for other in [report] + other_reports:
            comparison.append(
                {
                    **_report_row(other),
                    "speedup": round(reference_ms / other.mean_latency_ms, 4)
                    if other.mean_latency_ms
                    else None,
                }
            )
        print()
        print(
            render_dict_table(
                comparison,
                title=f"backend comparison (batch size {args.batch_size}, "
                f"speedup relative to {args.backend})",
            )
        )
    return 0


def _run_datasets(args: argparse.Namespace) -> int:
    names = args.names or DATASET_NAMES
    unknown = [name for name in names if name not in DATASET_NAMES]
    if unknown:
        print(
            f"unknown dataset(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(DATASET_NAMES)}",
            file=sys.stderr,
        )
        return 2
    rows = []
    for name in names:
        if name in ("PubMed", "Reddit"):
            dataset = load_dataset(name, scale=0.05)
        elif name in ("Cora", "CiteSeer"):
            dataset = load_dataset(name, scale=0.5)
        else:
            dataset = load_dataset(name, num_graphs=128)
        stats = dataset.statistics()
        rows.append(
            {
                "dataset": stats.name,
                "graphs": stats.num_graphs,
                "mean_nodes": round(stats.mean_nodes, 1),
                "mean_edges": round(stats.mean_edges, 1),
                "edge_features": stats.has_edge_features,
            }
        )
    print(render_dict_table(rows, title="synthetic dataset statistics"))
    return 0


def _run_dse(args: argparse.Namespace) -> int:
    try:
        spec = SweepSpec.parallelism_grid(
            models=args.models,
            datasets=args.datasets,
            node_values=args.p_node,
            edge_values=args.p_edge,
            apply_values=args.p_apply,
            scatter_values=args.p_scatter,
            num_graphs=args.num_graphs,
            board=None if args.no_board_filter else ALVEO_U50,
            backend=args.backend,
        )
    except ValueError as error:
        print(f"invalid sweep: {error}", file=sys.stderr)
        return 2
    print(spec.describe())
    try:
        with _record_with_checkpoint(args, "dse", workers=args.workers) as (
            recorder,
            checkpoint,
        ):
            result = SweepRunner(
                spec, workers=args.workers, executor=args.executor
            ).run(
                progress=_progress_printer("dse") if args.progress else None,
                checkpoint=checkpoint,
            )
            if recorder is not None:
                recorder.add_table(result)
    except _RunComplete as done:
        print(
            f"run {done.run_id} is already complete; nothing to resume",
            file=sys.stderr,
        )
        return 0
    except StoreError as error:
        print(f"cannot record run: {error}", file=sys.stderr)
        return 2
    print(result.render(title="design-space sweep (per-graph latency, amortised weights)"))
    if result.skipped:
        print()
        print(
            render_dict_table(
                result.skipped, title=f"skipped: {len(result.skipped)} configurations do not fit"
            )
        )
    if result.rows:
        best = result.best("latency_ms")
        print()
        if spec.backend == "flowgnn":
            print(
                f"fastest feasible design: P_node={best['p_node']}, P_edge={best['p_edge']}, "
                f"P_apply={best['p_apply']}, P_scatter={best['p_scatter']} "
                f"({best['latency_ms']:.4f} ms, {best['dsp']} DSPs) for {best['model']} on {best['dataset']}"
            )
        else:
            print(
                f"fastest point: {best['model']} on {best['dataset']} "
                f"({best['latency_ms']:.4f} ms on {best['platform']})"
            )
    if args.pareto:
        if spec.backend == "flowgnn":
            print()
            print(render_dict_table(result.pareto(), title="Pareto frontier (latency / dsp / bram / power)"))
        else:
            print("\n--pareto is only meaningful for the flowgnn backend; skipped")
    if args.csv:
        try:
            result.to_csv(args.csv)
        except OSError as error:
            print(f"cannot write CSV to {args.csv}: {error}", file=sys.stderr)
            return 2
        print(f"\nwrote {len(result.rows)} rows to {args.csv}")
    if spec.backend == "flowgnn":
        cache = result.cache_info
        print(
            f"\n{result.num_points} points in {result.elapsed_s:.2f}s; "
            f"schedule cache: {cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses "
            f"({cache.get('hit_rate', 0.0):.0%} hit rate)"
        )
    else:
        print(f"\n{result.num_points} points in {result.elapsed_s:.2f}s via backend {spec.backend!r}")
    return 0


def _tenant_dicts(args: argparse.Namespace) -> tuple:
    """Declarative tenant specs from the shared serve/plan CLI flags.

    One mapping for both subcommands — ``repro serve`` and ``repro plan``
    must build identical mixes for identical arguments, so a sweep row can
    be cross-checked against the equivalent single ``serve`` run.
    """
    return tuple(
        {
            "tenant": f"tenant{i}",
            "model": args.models[i % len(args.models)],
            "dataset": args.datasets[i % len(args.datasets)],
            "num_graphs": args.num_graphs,
            "seed": args.seed + i,
            "deadline_s": (
                args.deadline_us * 1e-6 if args.deadline_us is not None else None
            ),
            "tenant_class": args.tenant_classes[i % len(args.tenant_classes)],
        }
        for i in range(args.tenants)
    )


def _build_serve_workloads(args: argparse.Namespace) -> List[Workload]:
    """One workload per tenant, cycling models/datasets across the list."""
    return [Workload(**tenant) for tenant in _tenant_dicts(args)]


def _run_serve(args: argparse.Namespace) -> int:
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    if not args.models or not args.datasets:
        print("--models and --datasets need at least one name", file=sys.stderr)
        return 2
    try:
        workloads = _build_serve_workloads(args)
        cluster = Cluster(
            workloads,
            backend=args.backend,
            num_replicas=args.replicas,
            policy=args.policy,
            max_batch_size=args.max_batch,
            batch_timeout_s=args.batch_timeout_us * 1e-6,
            queue_capacity=args.queue_capacity,
            autoscaler=args.autoscale,
            admission=args.admission,
            power=args.power,
            carbon=args.carbon_trace,
            power_cap_w=args.power_cap,
        )
    except (ValueError, KeyError) as error:
        print(f"invalid serving scenario: {error}", file=sys.stderr)
        return 2

    # Size the default rate and deadline from the measured service time, so
    # the command produces interesting (loaded but not doomed) traffic on any
    # backend without manual tuning.  Trace replay has its own rate: the
    # recorded timestamps.
    is_trace = args.arrival.startswith("trace:")
    mean_service = cluster.mean_service_s()
    rate = args.rate if args.rate is not None else 0.7 * args.replicas / mean_service
    if args.deadline_us is None:
        for workload in workloads:
            workload.deadline_s = 4.0 * mean_service

    # Trace replay with no explicit horizon runs the whole recorded trace
    # (generate() with no bounds); everything else defaults to 50 ms unless
    # the scenario is sized by an explicit per-tenant request count.
    duration = args.duration
    if duration is None and not is_trace and args.num_requests is None:
        duration = 0.05
    if args.fault is not None:
        # Parsed here, not in the Cluster constructor, because the seeded
        # 'random:' form needs the traffic horizon to bound its crash draws.
        try:
            cluster = cluster.with_options(
                faults=FaultSchedule.parse(
                    args.fault, num_replicas=args.replicas, horizon_s=duration
                )
            )
        except ValueError as error:
            print(f"invalid fault schedule: {error}", file=sys.stderr)
            return 2
    try:
        with _maybe_record(args, "serve") as recorder:
            generator = build_generator(workloads, args.arrival, rate, seed=args.seed)
            if args.mode == "sketch":
                # Streaming end to end: arrivals are generated lazily and folded
                # into O(tenants + replicas) accumulators, never materialised.
                report = cluster.serve_stream(
                    generator, duration_s=duration, num_requests=args.num_requests
                )
            else:
                requests = generator.generate(
                    duration_s=duration, num_requests=args.num_requests
                )
                report = cluster.serve(requests, duration_s=duration)
            if recorder is not None:
                # ServingReport is not a ResultTable; its per-tenant rows and
                # its full JSON payload are recorded explicitly.
                recorder.add_payload(report.tenant_rows(), report.to_json())
    except StoreError as error:
        print(f"cannot record run: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"cannot generate load: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(report.to_json())
        return 0

    offered = (
        "replayed trace" if is_trace else f"{args.arrival} arrivals, {rate:,.0f} req/s"
    )
    horizon_s = duration if duration is not None else report.horizon_s
    print(
        f"serving {report.submitted} requests from {args.tenants} tenants over "
        f"{args.replicas}x {report.backend} ({offered}, "
        f"{horizon_s * 1e3:.0f} ms horizon, {report.mode} mode)"
    )
    print()
    print(render_dict_table(report.tenant_rows(), title=f"per-tenant serving report ({report.policy})"))
    print()
    print(report.summary())
    if report.max_batch_size > 1:
        print(f"mean dispatch batch size: {report.mean_batch_size:.2f}")
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    if not args.models or not args.datasets:
        print("--models and --datasets need at least one name", file=sys.stderr)
        return 2

    cache = MeasurementCache()
    try:
        tenants = _tenant_dicts(args)
        if args.deadline_us is None:
            # Derive the default deadline from the measured service time (the
            # probe's measurements land in the cache the sweep reuses).
            probe = Cluster(
                [Workload(**tenant) for tenant in tenants],
                backend=args.backend,
                num_replicas=1,
                measurement_cache=cache,
            )
            derived = 4.0 * probe.mean_service_s()
            tenants = tuple({**tenant, "deadline_s": derived} for tenant in tenants)
        spec = PlanSpec(
            mixes=[TenantMix("mix", tenants)],
            backend=args.backend,
            replicas=args.replicas,
            policies=args.policies,
            max_batch_sizes=args.max_batch,
            batch_timeouts_s=[t * 1e-6 for t in args.batch_timeout_us],
            queue_capacities=args.queue_capacity,
            arrivals=args.arrivals,
            autoscalers=tuple(
                None if text.lower() == "none" else text
                for text in (args.autoscalers or ["none"])
            ),
            faults=tuple(
                None if text.lower() == "none" else text
                for text in (args.faults or ["none"])
            ),
            admissions=tuple(
                None if text.lower() == "none" else text
                for text in (args.admissions or ["none"])
            ),
            carbon_traces=tuple(
                None if text.lower() == "none" else text
                for text in (args.carbon_traces or ["none"])
            ),
            power_caps=tuple(
                None if text.lower() == "none" else float(text)
                for text in (args.power_caps or ["none"])
            ),
            power=args.power,
            rate_rps=args.rate,
            utilisation=args.utilisation,
            duration_s=args.duration,
            seed=args.seed,
            mode=args.mode,
        )
    except (ValueError, KeyError) as error:
        print(f"invalid plan sweep: {error}", file=sys.stderr)
        return 2

    try:
        with _record_with_checkpoint(args, "plan", workers=args.workers) as (
            recorder,
            checkpoint,
        ):
            result = PlanRunner(
                spec, workers=args.workers, cache=cache, executor=args.executor
            ).run(
                progress=_progress_printer("plan") if args.progress else None,
                checkpoint=checkpoint,
            )
            if recorder is not None:
                recorder.add_table(result)
    except _RunComplete as done:
        print(
            f"run {done.run_id} is already complete; nothing to resume",
            file=sys.stderr,
        )
        return 0
    except StoreError as error:
        print(f"cannot record run: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"plan sweep failed: {error}", file=sys.stderr)
        return 2

    solution = None
    if args.solve:
        workloads = spec.mixes[0].workloads()
        cluster = Cluster(
            workloads,
            backend=spec.backend,
            num_replicas=1,
            policy=spec.policies[0],
            max_batch_size=spec.max_batch_sizes[0],
            batch_timeout_s=spec.batch_timeouts_s[0],
            queue_capacity=spec.queue_capacities[0],
            power=spec.power,
            carbon=spec.carbon_traces[0],
            power_cap_w=spec.power_caps[0],
            measurement_cache=cache,
        )
        requests = build_generator(
            workloads, spec.arrivals[0], result.rates[spec.mixes[0].name], spec.seed
        ).generate(duration_s=spec.duration_s)
        solution = min_replicas_for_slo(
            cluster,
            requests,
            max_replicas=max(spec.replicas),
            duration_s=spec.duration_s,
            carbon_budget_gco2=args.carbon_budget,
            power_budget_w=args.power_budget,
        )

    if args.json:
        payload = result.to_dict()
        if solution is not None:
            payload["solver"] = {
                "replicas": solution.replicas,
                "max_replicas": solution.max_replicas,
                "feasible": solution.feasible,
                "carbon_budget_gco2": args.carbon_budget,
                "power_budget_w": args.power_budget,
                "evaluations": solution.evaluations,
            }
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(spec.describe())
        print()
        print(result.render(title="serving-scenario sweep (one row per scenario)"))
        cheapest = result.cheapest_feasible()
        print()
        if cheapest is None:
            print(
                "no scenario holds every tenant's SLO — add replicas, relax "
                "deadlines or lower the rate"
            )
        else:
            print(
                f"cheapest feasible scenario: #{cheapest['scenario']} "
                f"({cheapest['replicas']}x {cheapest['policy']}, "
                f"{cheapest['arrival']} arrivals, "
                f"batch<= {cheapest['max_batch_size']}, "
                f"{cheapest['replica_seconds']:.3f} replica-seconds)"
            )
        if args.pareto:
            print()
            print(
                render_dict_table(
                    result.pareto(),
                    title="Pareto frontier (replica-time / worst p99 / miss rate)",
                )
            )
        if solution is not None:
            print()
            print(render_dict_table(solution.evaluations, title="min-replicas-for-SLO search"))
            print(solution.summary())
        cache_info = result.cache_info
        print(
            f"\n{result.num_scenarios} scenarios in {result.elapsed_s:.2f}s; "
            f"measurement cache: {cache_info.get('entries', 0)} profiles, "
            f"{cache_info.get('misses', 0)} measured"
        )

    if args.csv:
        try:
            result.to_csv(args.csv)
        except OSError as error:
            print(f"cannot write CSV to {args.csv}: {error}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"wrote {result.num_scenarios} rows to {args.csv}")

    if args.solve and solution is not None and not solution.feasible:
        print(solution.summary(), file=sys.stderr)
        return 1
    return 0


def _run_runs(args: argparse.Namespace) -> int:
    try:
        with ResultStore(args.db, create=False) as store:
            if args.runs_command == "list":
                runs = store.runs(kind=args.kind)
                # Interrupted --record runs surface alongside finished ones
                # with status "resumable", so the run id to hand to
                # --resume is discoverable after the fact.
                rows = [run.meta_row() for run in runs]
                rows.extend(store.resumable_runs(kind=args.kind))
                if args.json:
                    print(json.dumps(rows, indent=2))
                elif not rows:
                    print(f"no recorded runs in {store.path}")
                else:
                    print(
                        render_dict_table(
                            rows, title=f"recorded runs in {store.path}"
                        )
                    )
                return 0
            run = store.load_run(args.run_id)
            if args.json:
                print(run.payload)
                return 0
            print(render_dict_table([run.meta_row()], title=f"run {run.run_id}"))
            if run.argv:
                print(f"argv: {' '.join(run.argv)}")
            print()
            print(run.payload)
            return 0
    except StoreError as error:
        print(f"results store error: {error}", file=sys.stderr)
        return 2


def _run_report(args: argparse.Namespace) -> int:
    compare = tuple(args.compare) if args.compare else None
    try:
        with ResultStore(args.db, create=False) as store:
            path = generate_report(
                store, args.out, compare=compare, metric=args.metric, alpha=args.alpha
            )
            if compare is not None:
                verdict = compare_runs(
                    store, compare[0], compare[1], metric=args.metric, alpha=args.alpha
                )
                print(render_comparison_text(verdict))
    except StoreError as error:
        print(f"results store error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot write report to {args.out}: {error}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The exact invocation, recorded as provenance by --record.
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    if getattr(args, "workers", None) is not None:
        try:
            finite_nonnegative(args.workers, "--workers")
        except ValueError as error:
            print(f"invalid option: {error}", file=sys.stderr)
            return 2
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "datasets":
        return _run_datasets(args)
    if args.command == "dse":
        return _run_dse(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "runs":
        return _run_runs(args)
    if args.command == "report":
        return _run_report(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
