"""Neighbour-index facade used by candidate selection.

Wraps the exact :class:`~repro.geometry.kdtree.KdTree` and the approximate
:class:`~repro.geometry.annoy.AnnoyForest` behind one id-based interface and
auto-selects the backend by topology size, as Phase III prescribes: exact
search for small topologies, approximate for large ones.

The index is incremental: nodes can be added and removed (tombstoned),
which is what makes Nova's re-optimization cheap. An added node gets a row
right after the tree's rows, so row-level queries and gathers treat it
like any tree node; one vectorized scan covers these add-buffer rows until
a rebuild amortizes them into the tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import OptimizationError, UnknownNodeError
from repro.common.rng import SeedLike
from repro.geometry.annoy import AnnoyForest
from repro.geometry.kdtree import KdTree

EXACT_BACKEND = "kdtree"
APPROXIMATE_BACKEND = "annoy"
DEFAULT_EXACT_LIMIT = 200_000
# Below this many live nodes, even "approximate" batch queries run the full
# minimality proof: small topologies afford exactness, and the proof cost
# (scanning the boundary ring of a saturated region) only hurts at scale.
DEFAULT_EXACT_PROOF_LIMIT = 2000


class NeighborIndex:
    """Id-based k-NN index over cost-space coordinates.

    Every node owns a *row*: rows ``[0, tree_rows)`` are the tree's, and
    each node added since the last rebuild gets the next row after them
    (its add-buffer row). Points and values live in rows-wide arrays, so
    row-level queries (:meth:`within_rows`) and gathers
    (:meth:`points_of_rows`, :attr:`value_array`) cover buffered nodes
    too.
    """

    def __init__(
        self,
        ids: Sequence[str],
        points: np.ndarray,
        backend: Optional[str] = None,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        rebuild_fraction: float = 0.25,
        seed: SeedLike = 0,
        exact_proof_limit: int = DEFAULT_EXACT_PROOF_LIMIT,
    ) -> None:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != len(ids):
            raise OptimizationError("points must be an (n, d) array matching ids")
        if len(set(ids)) != len(ids):
            raise OptimizationError("duplicate ids in neighbour index")
        if backend is None:
            backend = EXACT_BACKEND if len(ids) <= exact_limit else APPROXIMATE_BACKEND
        if backend not in (EXACT_BACKEND, APPROXIMATE_BACKEND):
            raise OptimizationError(f"unknown backend {backend!r}")
        self._backend_name = backend
        self._seed = seed
        self._rebuild_fraction = float(rebuild_fraction)
        self._exact_proof_limit = int(exact_proof_limit)
        self._dims = points.shape[1]
        # Row -> id for every row ever assigned since the last rebuild
        # (retired rows keep their id; they are never returned), and id ->
        # the node's current row, removed nodes included.
        self._ids: List[str] = list(ids)
        self._index_of: Dict[str, int] = {node_id: i for i, node_id in enumerate(self._ids)}
        self._tree_rows = len(self._ids)
        # Rows-wide point and value arrays; capacity beyond len(_ids) is
        # spare room for later additions.
        self._points = points
        # Buffered (added since the last rebuild) node -> its row.
        self._extra: Dict[str, int] = {}
        self._removed: set = set()
        # Per-point scalar values (e.g. available capacity) enabling
        # filtered nearest-neighbour queries. Defaults to +inf: unfiltered.
        self._values: Dict[str, float] = {}
        self._value_array = np.full(points.shape[0], np.inf)
        self._tree = self._build_tree(points, self._value_array)

    def _build_tree(self, points: np.ndarray, values: Optional[np.ndarray] = None):
        # Both backends keep the values internally, maintaining per-subtree
        # maxima so capacity-filtered queries can prune exhausted regions
        # wholesale (the approximate forest mirrors the exact tree's
        # capacity-augmented bounds).
        if self._backend_name == EXACT_BACKEND:
            return KdTree(points, values=values)
        return AnnoyForest(points, seed=self._seed, values=values)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Active backend name (``"kdtree"`` or ``"annoy"``)."""
        return self._backend_name

    def __len__(self) -> int:
        return len(self._index_of) - len(self._removed)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._index_of and node_id not in self._removed

    def position(self, node_id: str) -> np.ndarray:
        """Coordinates of an indexed node."""
        row = self._index_of.get(node_id)
        if row is None or node_id in self._removed:
            raise UnknownNodeError(node_id)
        return self._points[row]

    def positions_batch(self, node_ids: Sequence[str]) -> np.ndarray:
        """Coordinates of many nodes as one ``(n, d)`` array.

        One fancy-index gather from the rows-wide point matrix (one dict
        lookup per id), buffered nodes included; removed ids raise
        :class:`UnknownNodeError`.
        """
        if not node_ids:
            return np.empty((0, self._dims))
        index_of = self._index_of
        try:
            rows = np.fromiter(
                (index_of[nid] for nid in node_ids),
                dtype=np.intp,
                count=len(node_ids),
            )
        except KeyError as error:
            raise UnknownNodeError(str(error.args[0])) from None
        if self._removed and not self._removed.isdisjoint(node_ids):
            raise UnknownNodeError(next(nid for nid in node_ids if nid in self._removed))
        return self._points[rows]

    @property
    def value_array(self) -> np.ndarray:
        """Read-only view of the per-row scalar values, buffered rows included.

        Rows follow :meth:`node_id_of_row`. Callers caching row indices
        must drop them when the index mutates (the cost space's mutation
        epoch signals this).
        """
        view = self._value_array[: len(self._ids)]
        view.flags.writeable = False
        return view

    def _buffer_rows(self) -> np.ndarray:
        """Rows of the live buffered nodes."""
        return np.fromiter(self._extra.values(), dtype=np.intp, count=len(self._extra))

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lower, upper) bounds over the indexed points.

        Computed vectorized over the tree's point matrix plus the live
        buffered rows; tombstoned tree points are included, which only
        widens the box (callers use it to size spatial buckets, not for
        exact geometry).
        """
        points = self._tree.points
        lower = points.min(axis=0)
        upper = points.max(axis=0)
        if self._extra:
            extra = self._points[self._buffer_rows()]
            lower = np.minimum(lower, extra.min(axis=0))
            upper = np.maximum(upper, extra.max(axis=0))
        return lower, upper

    def _append_row(self, node_id: str, point: np.ndarray) -> None:
        """Give a node the next add-buffer row."""
        row = len(self._ids)
        if row == len(self._points):
            # Grow geometrically: a run of additions stays amortized O(1)
            # per node instead of copying every row on every add.
            grow = max(row // 2, 16)
            self._points = np.concatenate([self._points, np.empty((grow, self._dims))])
            self._value_array = np.concatenate([self._value_array, np.full(grow, -np.inf)])
        self._points[row] = point
        self._value_array[row] = self._values.get(node_id, np.inf)
        self._ids.append(node_id)
        self._index_of[node_id] = row
        self._extra[node_id] = row

    def add(self, node_id: str, point: Sequence[float]) -> None:
        """Add (or re-add) a node; buffered until the next rebuild."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self._dims,):
            raise OptimizationError(
                f"point has shape {point.shape}, expected ({self._dims},)"
            )
        row = self._index_of.get(node_id)
        if row is not None and node_id not in self._removed:
            raise OptimizationError(f"node {node_id!r} already indexed")
        self._removed.discard(node_id)
        if row is not None and row < self._tree_rows and np.array_equal(self._points[row], point):
            # Back at its tree coordinates (a rollback): revive the row.
            self._tree.restore(row)
        else:
            # New, or drifted away from its tree row, which stays tombstoned.
            self._append_row(node_id, point)
        if len(self._extra) > self._rebuild_fraction * max(len(self._index_of), 1):
            self.rebuild()

    def remove(self, node_id: str) -> None:
        """Tombstone a node so queries skip it."""
        if node_id not in self:
            raise UnknownNodeError(node_id)
        self._removed.add(node_id)
        row = self._index_of[node_id]
        if self._extra.pop(node_id, None) is not None:
            # Retire the buffered row: it never qualifies again.
            self._value_array[row] = -np.inf
        else:
            self._tree.delete(row)

    def update(self, node_id: str, point: Sequence[float]) -> None:
        """Move a node to new coordinates (remove + add)."""
        self.remove(node_id)
        self.add(node_id, point)

    def set_value(self, node_id: str, value: float) -> None:
        """Attach a scalar (e.g. available capacity) used by filtered queries."""
        row = self._index_of.get(node_id)
        if row is None:
            raise UnknownNodeError(node_id)
        value = float(value)
        self._values[node_id] = value
        self._value_array[row] = value
        if row < self._tree_rows:
            self._tree.set_value(row, value)

    def value(self, node_id: str) -> float:
        """The scalar attached to a node (+inf when never set)."""
        return self._values.get(node_id, float("inf"))

    def rebuild(self) -> None:
        """Fold buffered rows and removals into a fresh, compact tree."""
        live = [nid for nid in self._index_of if nid not in self._removed]
        if not live:
            raise OptimizationError("cannot rebuild an empty index")
        rows = np.fromiter(
            (self._index_of[nid] for nid in live), dtype=np.intp, count=len(live)
        )
        points = self._points[rows]
        self._ids = live
        self._index_of = {nid: i for i, nid in enumerate(live)}
        self._tree_rows = len(live)
        self._points = points
        self._extra = {}
        self._removed = set()
        self._values = {nid: v for nid, v in self._values.items() if nid in self._index_of}
        self._value_array = np.array(
            [self._values.get(nid, np.inf) for nid in live], dtype=float
        )
        self._tree = self._build_tree(points, self._value_array)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        target: Sequence[float],
        k: int,
        exclude: Optional[set] = None,
        min_value: Optional[float] = None,
        approximate: bool = False,
    ) -> List[Tuple[str, float]]:
        """The ``k`` nearest live nodes to ``target`` as (id, distance) pairs.

        ``min_value`` restricts results to nodes whose attached scalar is at
        least the threshold (capacity-filtered search). ``approximate``
        permits the exact backend to stop once k qualifying nodes are found
        (near-exact, best-first order) instead of proving minimality; the
        annoy backend is approximate by construction.
        """
        if k < 1:
            raise OptimizationError("k must be >= 1")
        exclude = exclude or set()
        target = np.asarray(target, dtype=float)
        # Over-fetch to survive exclusions, buffered additions, and
        # tombstones: each can consume result slots (tombstoned entries
        # thin out approximate-backend leaves, excluded/stale ids are
        # dropped post-hoc), so all three are counted — otherwise heavy
        # churn starves the caller of its k results.
        overhead = len(exclude) + len(self._extra) + len(self._removed)
        fetch = min(k + overhead, max(len(self), 1))
        results: List[Tuple[str, float]] = []
        if len(self._index_of) > 0 and fetch > 0:
            kwargs = {}
            if min_value is not None:
                # Both backends hold the values internally, with
                # per-subtree maxima enabling wholesale pruning of
                # saturated regions.
                kwargs = {"min_value": min_value}
            if self._backend_name == APPROXIMATE_BACKEND:
                kwargs["search_k"] = max(64, 8 * fetch)
            elif approximate and len(self) > self._exact_proof_limit:
                kwargs["approximate"] = True
            distances, indices = self._tree.query(
                target, k=min(fetch, len(self._tree)) or 1, **kwargs
            )
            for dist, idx in zip(distances, indices):
                node_id = self._ids[int(idx)]
                if node_id in exclude or node_id in self._removed or node_id in self._extra:
                    continue
                results.append((node_id, float(dist)))
        for node_id, row in self._extra.items():
            if node_id in exclude:
                continue
            if min_value is not None and self.value(node_id) < min_value:
                continue
            results.append((node_id, float(np.linalg.norm(self._points[row] - target))))
        results.sort(key=lambda pair: pair[1])
        return results[:k]

    def node_id_of_row(self, row: int) -> str:
        """Translate a row (tree or add-buffer) back to its node id."""
        return self._ids[int(row)]

    def points_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of the given rows as one ``(n, d)`` gather."""
        return self._points[rows]

    def within_rows(
        self,
        target: Sequence[float],
        radius: float,
        min_value: Optional[float] = None,
        inner_radius: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-level radius query: (distances, rows) sorted by distance.

        Complete over every live node: the tree's answer merged with one
        vectorized scan of the add-buffer rows under the same filters
        (ball, ``min_value``, and the annulus beyond ``inner_radius`` used
        for incremental ring growth). Results stay numpy arrays end to end
        (no per-id translation), which is what the packing engine's rings
        consume.
        """
        target = np.asarray(target, dtype=float)
        dists, rows = self._tree.within_radius(
            target, radius, min_value=min_value, inner_radius=inner_radius
        )
        if not self._extra:
            return dists, rows
        buffered = self._buffer_rows()
        diff = self._points[buffered] - target
        dist2 = np.einsum("ij,ij->i", diff, diff)
        mask = dist2 <= float(radius) * float(radius)
        if inner_radius > 0.0:
            mask &= dist2 > float(inner_radius) * float(inner_radius)
        if min_value is not None:
            mask &= self._value_array[buffered] >= min_value
        if not mask.any():
            return dists, rows
        dists = np.concatenate([dists, np.sqrt(dist2[mask])])
        rows = np.concatenate([rows, buffered[mask]])
        order = np.argsort(dists, kind="stable")
        return dists[order], rows[order]

    def within(
        self,
        target: Sequence[float],
        radius: float,
        min_value: Optional[float] = None,
    ) -> List[Tuple[str, float]]:
        """All live nodes within ``radius`` as (id, distance), by distance.

        :meth:`within_rows` with the rows translated to ids. Complete on
        both backends (the annoy forest enumerates one tree exactly), with
        ``min_value`` pruning saturated subtrees via the capacity bounds.
        """
        dists, rows = self.within_rows(target, radius, min_value=min_value)
        ids = self._ids
        return [(ids[row], dist) for dist, row in zip(dists.tolist(), rows.tolist())]
