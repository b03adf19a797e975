"""FlowGNN reproduction: a dataflow-architecture simulator for real-time GNN inference.

The package mirrors the system described in *FlowGNN: A Dataflow Architecture
for Real-Time Workload-Agnostic Graph Neural Network Inference* (HPCA 2023):

* :mod:`repro.graph`     — the COO graph structure, generators, partitioning, streams;
* :mod:`repro.datasets`  — synthetic datasets matched to the paper's workloads;
* :mod:`repro.nn`        — numpy reference GNN library (GCN, GIN, GIN+VN, GAT, PNA, DGN);
* :mod:`repro.arch`      — the FlowGNN dataflow architecture: cycle-level simulator,
  resource and energy models;
* :mod:`repro.baselines` — CPU / GPU / I-GCN / AWB-GCN baseline models;
* :mod:`repro.api`      — the unified inference API: ``Backend`` registry,
  ``InferenceRequest`` → ``InferenceReport`` across flowgnn/cpu/gpu/roofline;
* :mod:`repro.serve`     — the multi-tenant serving simulator: load
  generation, replicated backend pools, dispatch policies, dynamic batching;
* :mod:`repro.engine`    — the shared execution engine: the declarative
  ``Job`` protocol, the pooled ``Engine`` and the ``ResultTable`` base class
  that every sweep/experiment result subclasses;
* :mod:`repro.eval`      — the experiment harness reproducing every table and
  figure, each as an engine job, with a parallel suite runner;
* :mod:`repro.dse`       — the parallel design-space exploration engine with
  schedule caching (sweeps, Pareto frontiers, CSV export);
* :mod:`repro.results`   — the longitudinal results store and reporting
  service: runs recorded with provenance into SQLite (``--record``), CI
  benchmark artifacts ingested into trajectories, and self-contained static
  HTML reports with statistical run comparisons (``repro report``).

Quickstart::

    from repro import build_model, load_dataset, FlowGNNAccelerator

    dataset = load_dataset("MolHIV", num_graphs=32)
    model = build_model("GIN", input_dim=dataset.node_feature_dim,
                        edge_input_dim=dataset.edge_feature_dim)
    accelerator = FlowGNNAccelerator(model)
    print(accelerator.run_stream(dataset).mean_latency_ms, "ms per graph")
"""

from .graph import Graph, GraphStream
from .datasets import GraphDataset, load_dataset
from .nn import MODEL_NAMES, build_model, build_all_models
from .arch import ArchitectureConfig, FlowGNNAccelerator, PipelineStrategy
from .baselines import CPUBaseline, GPUBaseline
from .api import (
    BACKEND_NAMES,
    InferenceReport,
    InferenceRequest,
    get_backend,
    register_backend,
)
from .engine import Engine, Job, ResultTable
from .eval import run_experiment, run_all_experiments
from .dse import SweepRunner, SweepSpec
from .serve import Cluster, LoadGenerator, ServingReport, Workload
from .plan import PlanRunner, PlanSpec, TenantMix, min_replicas_for_slo
from .results import ResultStore, StoredRun, generate_report

#: The single source of truth for the package version — ``setup.py`` parses
#: this assignment and ``repro --version`` prints it.
__version__ = "1.8.0"

__all__ = [
    "Graph",
    "GraphStream",
    "BACKEND_NAMES",
    "InferenceReport",
    "InferenceRequest",
    "get_backend",
    "register_backend",
    "GraphDataset",
    "load_dataset",
    "MODEL_NAMES",
    "build_model",
    "build_all_models",
    "ArchitectureConfig",
    "FlowGNNAccelerator",
    "PipelineStrategy",
    "CPUBaseline",
    "GPUBaseline",
    "Engine",
    "Job",
    "ResultTable",
    "run_experiment",
    "run_all_experiments",
    "SweepRunner",
    "SweepSpec",
    "Cluster",
    "LoadGenerator",
    "ServingReport",
    "Workload",
    "PlanRunner",
    "PlanSpec",
    "TenantMix",
    "min_replicas_for_slo",
    "ResultStore",
    "StoredRun",
    "generate_report",
    "__version__",
]
