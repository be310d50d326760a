"""Phase I: cost-space construction and live maintenance."""

import numpy as np
import pytest

from repro.common.errors import EmbeddingError, UnknownNodeError
from repro.core.config import (
    EMBEDDING_CLASSICAL_MDS,
    EMBEDDING_SMACOF,
    NovaConfig,
)
from repro.core.cost_space import CostSpace
from repro.topology.latency import CoordinateLatencyModel, DenseLatencyMatrix


def euclidean_matrix(n=40, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100, (n, 2))
    return DenseLatencyMatrix.from_coordinates([f"n{i}" for i in range(n)], coords)


class TestBuild:
    def test_vivaldi_build(self):
        space = CostSpace.build(euclidean_matrix(), NovaConfig(seed=0))
        assert len(space) == 40
        assert space.dimensions == 2

    def test_classical_mds_build_is_near_exact(self):
        matrix = euclidean_matrix(25, seed=1)
        space = CostSpace.build(matrix, NovaConfig(embedding=EMBEDDING_CLASSICAL_MDS))
        assert space.distance("n0", "n1") == pytest.approx(matrix.latency("n0", "n1"), rel=1e-4)

    def test_smacof_build(self):
        matrix = euclidean_matrix(15, seed=2)
        space = CostSpace.build(matrix, NovaConfig(embedding=EMBEDDING_SMACOF))
        assert space.distance("n0", "n1") == pytest.approx(matrix.latency("n0", "n1"), rel=0.05)

    def test_mds_requires_dense_matrix(self):
        model = CoordinateLatencyModel(["a", "b"], np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(EmbeddingError):
            CostSpace.build(model, NovaConfig(embedding=EMBEDDING_CLASSICAL_MDS))

    def test_vivaldi_accepts_coordinate_provider(self):
        rng = np.random.default_rng(3)
        model = CoordinateLatencyModel(
            [f"n{i}" for i in range(30)], rng.uniform(0, 50, (30, 2))
        )
        space = CostSpace.build(model, NovaConfig(seed=0))
        assert len(space) == 30

    def test_empty_coordinates_rejected(self):
        with pytest.raises(EmbeddingError):
            CostSpace({})

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(EmbeddingError):
            CostSpace({"a": np.zeros(2), "b": np.zeros(3)})


class TestQueries:
    def test_distance_symmetry(self):
        space = CostSpace.build(euclidean_matrix(20), NovaConfig(seed=0))
        assert space.distance("n1", "n2") == pytest.approx(space.distance("n2", "n1"))

    def test_knn_returns_nearest(self):
        space = CostSpace({"a": np.array([0.0, 0.0]), "b": np.array([10.0, 0.0])})
        results = space.knn([1.0, 0.0], k=1)
        assert results[0][0] == "a"

    def test_distance_to_point(self):
        space = CostSpace({"a": np.array([0.0, 0.0])})
        assert space.distance_to_point("a", [3.0, 4.0]) == pytest.approx(5.0)

    def test_as_matrix(self):
        space = CostSpace({"a": np.array([0.0, 1.0]), "b": np.array([2.0, 3.0])})
        ids, coords = space.as_matrix()
        assert ids == ["a", "b"]
        assert coords.shape == (2, 2)


class TestLiveMaintenance:
    def test_add_node_lands_near_neighbors(self):
        matrix = euclidean_matrix(50, seed=4)
        space = CostSpace.build(matrix, NovaConfig(seed=0))
        # New node with the same latencies as n0 should land near n0.
        neighbor_latencies = {
            f"n{i}": matrix.latency("n0", f"n{i}") for i in range(1, 20)
        }
        position = space.add_node("newcomer", neighbor_latencies)
        assert "newcomer" in space
        assert np.linalg.norm(position - space.position("n0")) < 40.0

    def test_add_existing_rejected(self):
        space = CostSpace({"a": np.zeros(2), "b": np.ones(2)})
        with pytest.raises(EmbeddingError):
            space.add_node("a", {"b": 1.0})

    def test_add_without_known_neighbors_rejected(self):
        space = CostSpace({"a": np.zeros(2)})
        with pytest.raises(EmbeddingError):
            space.add_node("x", {"ghost": 5.0})
        with pytest.raises(EmbeddingError):
            space.add_node("x", {})

    def test_remove_node(self):
        space = CostSpace({"a": np.zeros(2), "b": np.ones(2)})
        space.remove_node("a")
        assert "a" not in space
        assert len(space) == 1
        with pytest.raises(UnknownNodeError):
            space.remove_node("a")

    def test_update_node_moves_coordinates(self):
        space = CostSpace(
            {"a": np.array([0.0, 0.0]), "b": np.array([10.0, 0.0]), "c": np.array([0.0, 10.0])}
        )
        before = space.position("c").copy()
        space.update_node("c", {"a": 1.0, "b": 1.0})
        after = space.position("c")
        assert not np.allclose(before, after)

    def test_knn_skips_removed(self):
        space = CostSpace({"a": np.zeros(2), "b": np.array([1.0, 0.0]), "c": np.array([5.0, 0.0])})
        space.remove_node("a")
        results = space.knn([0.0, 0.0], k=1)
        assert results[0][0] == "b"


class TestMutationEpoch:
    def make_space(self, n=20):
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(n)}
        return CostSpace(coords)

    def test_decreases_do_not_bump(self):
        space = self.make_space()
        space.set_available("n0", 50.0)
        epoch = space.mutation_epoch
        space.set_available("n0", 10.0)
        space.set_available("n0", 0.0)
        assert space.mutation_epoch == epoch

    def test_increase_bumps(self):
        space = self.make_space()
        space.set_available("n0", 10.0)
        epoch = space.mutation_epoch
        space.set_available("n0", 20.0)
        assert space.mutation_epoch == epoch + 1

    def test_node_churn_bumps(self):
        space = self.make_space()
        epoch = space.mutation_epoch
        space.remove_node("n3")
        assert space.mutation_epoch > epoch
        epoch = space.mutation_epoch
        space.add_node("fresh", {"n0": 5.0, "n1": 7.0})
        assert space.mutation_epoch > epoch


class TestVectorizedGathers:
    def make_space(self, n=30):
        coords = {f"n{i}": np.array([float(i), float(i % 7)]) for i in range(n)}
        return CostSpace(coords), coords

    def test_positions_batch_matches_position(self):
        space, coords = self.make_space()
        ids = ["n3", "n17", "n3", "n29"]
        batch = space.positions_batch(ids)
        assert batch.shape == (4, 2)
        for row, node_id in enumerate(ids):
            assert np.allclose(batch[row], space.position(node_id))

    def test_positions_batch_after_churn(self):
        space, _ = self.make_space()
        space.remove_node("n5")
        space.add_node("extra", {"n0": 4.0, "n1": 6.0})
        batch = space.positions_batch(["n3", "extra"])
        assert np.allclose(batch[0], space.position("n3"))
        assert np.allclose(batch[1], space.position("extra"))
        with pytest.raises(UnknownNodeError):
            space.positions_batch(["n3", "n5"])

    def test_anchor_matrix_padded_and_masked(self):
        space, _ = self.make_space()
        groups = [["n1", "n2", "n3"], ["n4"], ["n5", "n6"]]
        anchors, mask = space.anchor_matrix(groups)
        assert anchors.shape == (3, 3, 2)
        assert mask.shape == (3, 3)
        assert mask.sum() == 6
        for row, group in enumerate(groups):
            for slot, node_id in enumerate(group):
                assert np.allclose(anchors[row, slot], space.position(node_id))

    def test_anchor_matrix_uniform_groups_have_no_mask(self):
        space, _ = self.make_space()
        anchors, mask = space.anchor_matrix([["n1", "n2"], ["n3", "n4"]])
        assert mask is None
        assert anchors.shape == (2, 2, 2)

    def test_within_matches_knn(self):
        space, coords = self.make_space()
        for node_id in coords:
            space.set_available(node_id, 10.0)
        space.set_available("n2", 1.0)
        point = [3.0, 3.0]
        ring = space.within(point, radius=6.0, min_capacity=5.0)
        assert ring == sorted(ring, key=lambda pair: pair[1])
        ring_ids = {node_id for node_id, _ in ring}
        assert "n2" not in ring_ids
        for node_id, dist in space.knn(point, k=len(coords), min_capacity=5.0):
            if dist <= 6.0:
                assert node_id in ring_ids
