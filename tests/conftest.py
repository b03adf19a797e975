"""Shared fixtures for the FlowGNN reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import make_hep_like, make_molhiv_like
from repro.graph import Graph, erdos_renyi_graph, molecule_like_graph
from repro.nn import build_model
from repro.serve import ServingRequest


# The nightly CI run selects this with ``--hypothesis-profile=nightly`` for
# the generated scheduler differential (tests/test_dse.py): fresh random
# examples, and far more of them than tier-1's derandomised sample.
settings.register_profile("nightly", max_examples=20_000, deadline=None, print_blob=True)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_graph() -> Graph:
    """The 4-node example graph of Fig. 2: n1 connected to n2, n3, n4."""
    edges = [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]
    features = np.arange(4 * 3, dtype=float).reshape(4, 3)
    edge_features = np.ones((len(edges), 2))
    return Graph(
        num_nodes=4,
        edge_index=np.array(edges),
        node_features=features,
        edge_features=edge_features,
        name="fig2",
    )


@pytest.fixture
def molecule_graph(rng) -> Graph:
    """A 20-atom molecule-like graph with node and edge features."""
    return molecule_like_graph(20, rng, node_feature_dim=9, edge_feature_dim=3)


@pytest.fixture
def random_graph(rng) -> Graph:
    """A 30-node Erdős–Rényi graph with features, used for generic checks."""
    return erdos_renyi_graph(
        30, 0.15, rng, node_feature_dim=8, edge_feature_dim=4, name="er30"
    )


@pytest.fixture(scope="session")
def molhiv_sample():
    """A small MolHIV-like dataset shared across tests (session-scoped: generation cost)."""
    return make_molhiv_like(num_graphs=8, seed=7)


@pytest.fixture(scope="session")
def hep_sample():
    """A small HEP-like dataset shared across tests."""
    return make_hep_like(num_graphs=4, seed=9)


@pytest.fixture
def gin_model(molhiv_sample):
    """A small GIN built for the MolHIV feature dimensions (3 layers, dim 32)."""
    return build_model(
        "GIN",
        input_dim=molhiv_sample.node_feature_dim,
        edge_input_dim=molhiv_sample.edge_feature_dim,
        num_layers=3,
        hidden_dim=32,
        seed=5,
    )


@pytest.fixture
def gcn_model(molhiv_sample):
    """A small GCN built for the MolHIV feature dimensions (3 layers, dim 32)."""
    return build_model(
        "GCN", input_dim=molhiv_sample.node_feature_dim, num_layers=3, hidden_dim=32, seed=5
    )


def _naive_merge(generator, **sizing):
    """Each tenant's ``times()`` as requests, sorted by the order key."""
    requests = []
    for tenant_index, workload in enumerate(generator.workloads):
        times = generator.arrival_process(workload.tenant).times(
            rng=generator.rng_for(tenant_index), **sizing
        )
        pool = workload.num_pool_graphs
        requests.extend(
            ServingRequest(
                tenant=workload.tenant,
                tenant_index=tenant_index,
                index=i,
                arrival_s=arrival,
                graph_index=i % pool,
                deadline_s=workload.deadline_s,
                priority=workload.priority,
            )
            for i, arrival in enumerate(times.tolist())
        )
    return sorted(requests, key=lambda r: (r.arrival_s, r.tenant_index, r.index))


@pytest.fixture(scope="session")
def naive_merge():
    """The reference merge ``LoadGenerator`` must reproduce, request for request.

    ``naive_merge(generator, duration_s=..., num_requests=...)`` materialises
    every tenant's ``times()`` and sorts the union by
    ``(arrival_s, tenant_index, index)``: no streaming, no windows, no heap.
    """
    return _naive_merge
