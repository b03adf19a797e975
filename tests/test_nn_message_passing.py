"""Tests for global pooling and the prediction heads."""

import numpy as np
import pytest

from repro.nn import (
    LinearHead,
    MLPHead,
    global_max_pool,
    global_mean_pool,
    global_sum_pool,
)


class TestPooling:
    def test_single_graph_pooling(self):
        embeddings = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(global_mean_pool(embeddings), [[3.0, 4.0]])
        np.testing.assert_allclose(global_sum_pool(embeddings), [[9.0, 12.0]])
        np.testing.assert_allclose(global_max_pool(embeddings), [[5.0, 6.0]])

    def test_multi_graph_pooling(self):
        embeddings = np.array([[1.0], [3.0], [10.0], [20.0]])
        node_to_graph = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(
            global_mean_pool(embeddings, node_to_graph), [[2.0], [15.0]]
        )
        np.testing.assert_allclose(
            global_max_pool(embeddings, node_to_graph), [[3.0], [20.0]]
        )

    def test_wrong_assignment_length_rejected(self):
        with pytest.raises(ValueError):
            global_mean_pool(np.zeros((3, 2)), np.array([0, 1]))


class TestHeads:
    def test_linear_head(self, rng):
        head = LinearHead(8, 3, rng=rng)
        assert head(np.zeros((2, 8))).shape == (2, 3)
        assert head.in_dim == 8 and head.out_dim == 3
        assert head.parameter_count() == 8 * 3 + 3

    def test_mlp_head_matches_paper_pna_shape(self, rng):
        head = MLPHead(80, (40, 20, 1), rng=rng)
        assert head(np.zeros((1, 80))).shape == (1, 1)
        assert head.parameter_count() == (80 * 40 + 40) + (40 * 20 + 20) + (20 * 1 + 1)

    def test_mlp_head_requires_dims(self, rng):
        with pytest.raises(ValueError):
            MLPHead(10, (), rng=rng)
