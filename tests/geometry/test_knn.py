"""Neighbour index facade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OptimizationError, UnknownNodeError
from repro.geometry.knn import APPROXIMATE_BACKEND, EXACT_BACKEND, NeighborIndex


def make_index(n=30, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, (n, 2))
    ids = [f"n{i}" for i in range(n)]
    return NeighborIndex(ids, points, **kwargs), ids, points


class TestBackendSelection:
    def test_small_uses_exact(self):
        index, _, _ = make_index(10)
        assert index.backend == EXACT_BACKEND

    def test_large_uses_approximate(self):
        index, _, _ = make_index(50, exact_limit=20)
        assert index.backend == APPROXIMATE_BACKEND

    def test_explicit_backend(self):
        index, _, _ = make_index(10, backend=APPROXIMATE_BACKEND)
        assert index.backend == APPROXIMATE_BACKEND

    def test_unknown_backend(self):
        with pytest.raises(OptimizationError):
            make_index(10, backend="faiss")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(OptimizationError):
            NeighborIndex(["a", "a"], np.zeros((2, 2)))


class TestQuery:
    def test_returns_id_distance_pairs(self):
        index, ids, points = make_index(30)
        results = index.query(points[3], k=1)
        assert results[0][0] == "n3"
        assert results[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_exclusion(self):
        index, ids, points = make_index(30)
        results = index.query(points[3], k=1, exclude={"n3"})
        assert results[0][0] != "n3"

    def test_k_respected_and_sorted(self):
        index, _, points = make_index(30)
        results = index.query([50.0, 50.0], k=5)
        assert len(results) == 5
        distances = [d for _, d in results]
        assert distances == sorted(distances)

    def test_invalid_k(self):
        index, _, _ = make_index(5)
        with pytest.raises(OptimizationError):
            index.query([0.0, 0.0], k=0)


class TestMaintenance:
    def test_add_then_query(self):
        index, _, _ = make_index(10)
        index.add("new", [999.0, 999.0])
        results = index.query([999.0, 999.0], k=1)
        assert results[0][0] == "new"
        assert len(index) == 11

    def test_add_duplicate_rejected(self):
        index, _, _ = make_index(5)
        with pytest.raises(OptimizationError):
            index.add("n0", [0.0, 0.0])

    def test_add_wrong_dim_rejected(self):
        index, _, _ = make_index(5)
        with pytest.raises(OptimizationError):
            index.add("x", [0.0, 0.0, 0.0])

    def test_remove_then_query_skips(self):
        index, _, points = make_index(10)
        index.remove("n3")
        results = index.query(points[3], k=1)
        assert results[0][0] != "n3"
        assert "n3" not in index

    def test_remove_unknown_raises(self):
        index, _, _ = make_index(5)
        with pytest.raises(UnknownNodeError):
            index.remove("ghost")

    def test_readd_after_remove(self):
        index, _, points = make_index(10)
        index.remove("n3")
        index.add("n3", points[3])
        results = index.query(points[3], k=1)
        assert results[0][0] == "n3"

    def test_readd_with_new_position(self):
        index, _, points = make_index(10)
        index.remove("n3")
        index.add("n3", [777.0, 777.0])
        results = index.query([777.0, 777.0], k=1)
        assert results[0][0] == "n3"

    def test_update_moves_node(self):
        index, _, _ = make_index(10)
        index.update("n2", [-500.0, -500.0])
        results = index.query([-500.0, -500.0], k=1)
        assert results[0][0] == "n2"

    def test_rebuild_triggered_by_many_adds(self):
        index, _, _ = make_index(8)
        for i in range(10):
            index.add(f"extra{i}", [float(i), float(i)])
        assert len(index) == 18
        results = index.query([4.0, 4.0], k=1)
        assert results[0][0] == "extra4"

    def test_position_lookup(self):
        index, _, points = make_index(5)
        assert np.allclose(index.position("n1"), points[1])
        index.remove("n1")
        with pytest.raises(UnknownNodeError):
            index.position("n1")

    def test_cannot_rebuild_empty(self):
        index, ids, _ = make_index(2)
        index.remove("n0")
        index.remove("n1")
        with pytest.raises(OptimizationError):
            index.rebuild()


class TestChurnRecall:
    """Heavy churn must not starve queries of their k results.

    Tombstoned entries thin out the approximate backend's leaves and
    excluded ids consume result slots; the over-fetch must account for
    both (and the annoy fallback must supplement short candidate pools),
    or k live nodes silently become unreachable.
    """

    def make_churned(self, n=300, removed=270):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 100, (n, 2))
        ids = [f"n{i}" for i in range(n)]
        index = NeighborIndex(
            ids, points, backend=APPROXIMATE_BACKEND, rebuild_fraction=10.0
        )
        for i in range(removed):
            index.remove(f"n{i}")
        return index, ids, points

    def test_full_k_survives_tombstones(self):
        index, _, _ = self.make_churned()
        assert len(index) == 30
        results = index.query([50.0, 50.0], k=20)
        assert len(results) == 20

    def test_full_k_survives_tombstones_and_exclusions(self):
        index, ids, _ = self.make_churned()
        live = [f"n{i}" for i in range(270, 300)]
        results = index.query([50.0, 50.0], k=5, exclude=set(live[:25]))
        assert len(results) == 5
        assert {nid for nid, _ in results} == set(live[25:])

    def test_exact_backend_full_k_after_drifted_readds(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 100, (40, 2))
        ids = [f"n{i}" for i in range(40)]
        index = NeighborIndex(ids, points, rebuild_fraction=10.0)
        for i in range(30):
            index.remove(f"n{i}")
        for i in range(5):
            index.add(f"n{i}", points[i] + 0.5)
        results = index.query([50.0, 50.0], k=15)
        assert len(results) == 15


BACKENDS = (EXACT_BACKEND, APPROXIMATE_BACKEND)


def churned_index(backend, seed, added=8, removed=5, drifted=4):
    """An index with add-buffer rows, tombstones and drifted nodes.

    Returns the index plus the live ``{id: point}`` and ``{id: value}``
    maps a brute-force search must reproduce. Some buffered nodes are
    removed again, some drift twice, and one removed tree node returns
    at its original coordinates (the rollback path that revives its
    tree row).
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 100, (40, 2))
    ids = [f"n{i}" for i in range(40)]
    index = NeighborIndex(ids, points, backend=backend, rebuild_fraction=10.0)
    live = dict(zip(ids, points))
    values = {}

    def set_value(node_id):
        values[node_id] = float(rng.uniform(0.0, 10.0))
        index.set_value(node_id, values[node_id])

    for node_id in ids[::3]:
        set_value(node_id)
    for i in range(added):
        node_id = f"a{i}"
        live[node_id] = rng.uniform(0, 100, 2)
        index.add(node_id, live[node_id])
        if i % 2:
            set_value(node_id)
    for node_id in rng.choice(sorted(live), size=removed, replace=False):
        index.remove(str(node_id))
        del live[str(node_id)]
    for node_id in rng.choice(sorted(live), size=drifted, replace=False):
        live[str(node_id)] = rng.uniform(0, 100, 2)
        index.update(str(node_id), live[str(node_id)])
    revived = next((nid for nid in ids if nid not in live), None)
    if revived is not None:
        index.add(revived, points[ids.index(revived)])
        live[revived] = points[ids.index(revived)]
    for node_id in rng.choice(sorted(live), size=6, replace=False):
        set_value(str(node_id))
    return index, live, values


def assert_matches_brute_force(index, live, values, target, radius, inner, min_value):
    """``within_rows``/``within`` equal a full scan over the live nodes.

    Points closer than 1e-9 to either boundary may fall either way under
    rounding; every other live node must be reported exactly when it
    lies in the annulus and passes the value filter.
    """
    dists, rows = index.within_rows(target, radius, min_value=min_value, inner_radius=inner)
    assert len(dists) == len(rows)
    assert np.all(np.diff(dists) >= 0)
    got = {}
    for dist, row in zip(dists.tolist(), rows.tolist()):
        node_id = index.node_id_of_row(row)
        assert node_id not in got, "a node was reported twice"
        got[node_id] = dist
    eps = 1e-9
    for node_id, dist in got.items():
        assert node_id in live
        assert dist == pytest.approx(np.linalg.norm(live[node_id] - target), abs=1e-9)
        assert inner - eps <= dist <= radius + eps
        if min_value is not None:
            assert values.get(node_id, np.inf) >= min_value
    for node_id, point in live.items():
        dist = float(np.linalg.norm(point - target))
        if min_value is not None and values.get(node_id, np.inf) < min_value:
            continue
        if inner + eps < dist < radius - eps:
            assert node_id in got, f"{node_id} at {dist:.3f} missing"
    if inner == 0.0:
        as_ids = index.within(target, radius, min_value=min_value)
        assert [nid for nid, _ in as_ids] == [index.node_id_of_row(r) for r in rows]
    return got


class TestRowsCoverAddBuffer:
    """Buffered nodes are row-addressable: row queries need no fallback."""

    @given(
        backend=st.sampled_from(BACKENDS),
        seed=st.integers(0, 10_000),
        added=st.integers(0, 12),
        removed=st.integers(0, 8),
        drifted=st.integers(0, 6),
        target=st.tuples(st.floats(-20.0, 120.0), st.floats(-20.0, 120.0)),
        radius=st.floats(1.0, 150.0),
        inner_fraction=st.sampled_from([0.0, 0.0, 0.3, 0.7]),
        min_value=st.one_of(st.none(), st.floats(0.0, 10.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_rows_matches_brute_force(
        self, backend, seed, added, removed, drifted, target, radius, inner_fraction, min_value
    ):
        index, live, values = churned_index(backend, seed, added, removed, drifted)
        target = np.array(target)
        inner = inner_fraction * radius
        before = assert_matches_brute_force(
            index, live, values, target, radius, inner, min_value
        )
        index.rebuild()
        after = assert_matches_brute_force(
            index, live, values, target, radius, inner, min_value
        )
        assert after.keys() == before.keys()
        for node_id, dist in before.items():
            assert after[node_id] == pytest.approx(dist, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_gathers_cover_buffered_rows(self, backend):
        index, _, _ = make_index(30, backend=backend, rebuild_fraction=10.0)
        index.add("x", [150.0, 150.0])
        index.update("n4", [160.0, 150.0])
        index.set_value("x", 7.5)
        index.set_value("n4", 2.5)
        dists, rows = index.within_rows([155.0, 150.0], 6.0)
        assert dists.tolist() == [5.0, 5.0]
        row_of = {index.node_id_of_row(row): row for row in rows}
        assert sorted(row_of) == ["n4", "x"]
        assert index.value_array[[row_of["n4"], row_of["x"]]].tolist() == [2.5, 7.5]
        assert index.points_of_rows(np.array([row_of["n4"], row_of["x"]])).tolist() == [
            [160.0, 150.0],
            [150.0, 150.0],
        ]
        _, rows = index.within_rows([155.0, 150.0], 6.0, min_value=5.0)
        assert [index.node_id_of_row(row) for row in rows] == ["x"]
        index.remove("x")
        _, rows = index.within_rows([155.0, 150.0], 6.0)
        assert [index.node_id_of_row(row) for row in rows] == ["n4"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_adds_keep_rows_addressable(self, backend):
        index, _, _ = make_index(10, backend=backend, rebuild_fraction=100.0)
        added = {f"a{i}": np.array([200.0 + i, 200.0]) for i in range(100)}
        for node_id, point in added.items():
            index.add(node_id, point)
            index.set_value(node_id, float(point[0]))
        _, rows = index.within_rows([250.0, 200.0], 60.0, min_value=220.0)
        assert sorted(index.node_id_of_row(row) for row in rows) == sorted(
            f"a{i}" for i in range(20, 100)
        )
        assert np.array_equal(index.positions_batch(list(added)), np.vstack(list(added.values())))


class TestPositionsBatchUnderChurn:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_unchanged_under_churn(self, backend):
        index, live, _ = churned_index(backend, seed=7)
        order = sorted(live)
        gathered = index.positions_batch(order)
        assert np.array_equal(gathered, np.vstack([live[nid] for nid in order]))
        assert np.array_equal(gathered, np.vstack([index.position(nid) for nid in order]))

    def test_removed_id_raises(self):
        index, _, _ = make_index(10, rebuild_fraction=10.0)
        index.add("x", [1.0, 2.0])
        index.remove("n3")
        with pytest.raises(UnknownNodeError):
            index.positions_batch(["n1", "n3"])
        index.remove("x")
        with pytest.raises(UnknownNodeError):
            index.positions_batch(["x"])
        with pytest.raises(UnknownNodeError):
            index.positions_batch(["ghost"])
