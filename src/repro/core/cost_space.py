"""Phase I: the cost space.

Embeds the topology's pairwise latencies into a Euclidean space (Eq. 5)
and maintains a nearest-neighbour index over node coordinates. The cost
space is *live*: re-optimization adds, removes, and re-embeds single nodes
without touching the rest (Section 3.5), which is what keeps those updates
constant-time.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import EmbeddingError, UnknownNodeError
from repro.core.config import (
    EMBEDDING_CLASSICAL_MDS,
    EMBEDDING_SMACOF,
    EMBEDDING_VIVALDI,
    NovaConfig,
)
from repro.geometry.knn import NeighborIndex
from repro.ncs.mds import classical_mds, smacof_mds
from repro.ncs.vivaldi import VivaldiConfig, VivaldiEmbedding
from repro.topology.latency import DenseLatencyMatrix, LatencyProvider


class AvailabilityLedger(MutableMapping):
    """A write-through view of per-node available capacity.

    Wraps a plain ``dict`` (reads and writes go to it) while mirroring
    every write into the cost space's neighbour index, so capacity-filtered
    k-NN queries always see current availability.
    """

    def __init__(self, cost_space: "CostSpace", backing: Dict[str, float]) -> None:
        self.cost_space = cost_space
        self._backing = backing
        self._journal = None
        for node_id, value in backing.items():
            if node_id in cost_space:
                cost_space.set_available(node_id, value)

    # -- copy-on-write journal hooks -----------------------------------
    def begin_journal(self, journal) -> None:
        """Attach a session journal: each row's pre-image is recorded on
        first write (``journal.note_available``), so a batch rollback
        restores only the touched rows instead of snapshotting the ledger."""
        self._journal = journal

    def end_journal(self) -> None:
        """Detach the session journal."""
        self._journal = None

    def __getitem__(self, key: str) -> float:
        return self._backing[key]

    def get(self, key: str, default=None):
        """Direct dict read (bypasses the Mapping mixin's try/except).

        Reads are the packing engine's hottest ledger operation; the
        mixin's exception-based fallback costs about a microsecond per
        probe, which adds up over tens of thousands of cells.
        """
        return self._backing.get(key, default)

    def __setitem__(self, key: str, value: float) -> None:
        if self._journal is not None:
            self._journal.note_available(self._backing, key)
        self._backing[key] = value
        if key in self.cost_space:
            self.cost_space.set_available(key, value)

    def __delitem__(self, key: str) -> None:
        if self._journal is not None:
            self._journal.note_available(self._backing, key)
        del self._backing[key]

    def __iter__(self):
        return iter(self._backing)

    def __len__(self) -> int:
        return len(self._backing)

    def __contains__(self, key: object) -> bool:
        return key in self._backing


class CostSpace:
    """Node coordinates plus a maintained k-NN index."""

    def __init__(
        self,
        coordinates: Mapping[str, np.ndarray],
        config: Optional[NovaConfig] = None,
    ) -> None:
        if not coordinates:
            raise EmbeddingError("cost space requires at least one coordinate")
        self._config = config or NovaConfig()
        self._coords: Dict[str, np.ndarray] = {
            node_id: np.asarray(point, dtype=float) for node_id, point in coordinates.items()
        }
        dims = {point.shape for point in self._coords.values()}
        if len(dims) != 1:
            raise EmbeddingError("all coordinates must share one dimensionality")
        ids = list(self._coords)
        points = np.vstack([self._coords[i] for i in ids])
        self._index = NeighborIndex(
            ids,
            points,
            backend=self._config.knn_backend,
            exact_limit=self._config.exact_knn_limit,
            seed=self._config.seed,
            exact_proof_limit=self._config.exact_proof_limit,
        )
        self._vivaldi = VivaldiEmbedding(self._config.vivaldi, seed=self._config.seed)
        # Bumped whenever cached capacity-filtered neighbourhoods could go
        # stale: node additions/removals and availability *increases*.
        # Decreases never invalidate (a node observed unable to host a
        # demand can only get worse), which is what lets the packing
        # engine reuse fetched rings across thousands of replicas.
        self._mutation_epoch = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        latency: LatencyProvider,
        config: Optional[NovaConfig] = None,
    ) -> "CostSpace":
        """Embed a latency provider per the configured method.

        Vivaldi works for any provider (it only samples neighbour pairs);
        the MDS variants require a dense matrix.
        """
        config = config or NovaConfig()
        if config.embedding == EMBEDDING_VIVALDI:
            vivaldi_config = VivaldiConfig(
                dimensions=config.dimensions,
                neighbors=config.vivaldi.neighbors,
                rounds=config.vivaldi.rounds,
                ce=config.vivaldi.ce,
                cc=config.vivaldi.cc,
            )
            embedding = VivaldiEmbedding(vivaldi_config, seed=config.seed)
            result = embedding.embed(latency)
            coords = {nid: result.coordinates[i] for i, nid in enumerate(result.ids)}
            return cls(coords, config)
        if not isinstance(latency, DenseLatencyMatrix):
            raise EmbeddingError(
                f"embedding method {config.embedding!r} requires a dense latency matrix"
            )
        if config.embedding == EMBEDDING_CLASSICAL_MDS:
            result = classical_mds(latency, dimensions=config.dimensions)
        elif config.embedding == EMBEDDING_SMACOF:
            result = smacof_mds(latency, dimensions=config.dimensions, seed=config.seed)
        else:  # pragma: no cover - guarded by NovaConfig validation
            raise EmbeddingError(f"unknown embedding method {config.embedding!r}")
        coords = {nid: result.coordinates[i] for i, nid in enumerate(result.ids)}
        return cls(coords, config)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Dimensionality of the cost space."""
        return next(iter(self._coords.values())).shape[0]

    @property
    def node_ids(self) -> List[str]:
        """Ids of all embedded nodes."""
        return [nid for nid in self._coords if nid in self._index]

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._index

    @property
    def mutation_epoch(self) -> int:
        """Monotone counter of cache-invalidating mutations.

        Incremented on node addition/removal and on any availability
        increase. Consumers caching capacity-filtered neighbourhoods
        (the packing engine's shared cursor cache) compare epochs and
        flush when the value moved.
        """
        return self._mutation_epoch

    def position(self, node_id: str) -> np.ndarray:
        """Cost-space coordinates of a node."""
        return self._index.position(node_id)

    def positions_batch(self, node_ids: Sequence[str]) -> np.ndarray:
        """Coordinates of many nodes as one ``(n, d)`` gather."""
        return self._index.positions_batch(node_ids)

    def anchor_matrix(
        self, groups: Sequence[Sequence[str]]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Padded ``(R, A, d)`` coordinate gather for ragged anchor groups.

        Returns ``(anchors, mask)`` where ``anchors[r, a]`` is the
        coordinate of ``groups[r][a]`` and ``mask`` flags the valid slots
        (``None`` when every group has the same length). One vectorized
        gather replaces the per-replica Python loop over ``position()``
        that used to dominate batched Phase II assembly.
        """
        if not groups:
            return np.empty((0, 0, self.dimensions)), None
        counts = np.fromiter((len(group) for group in groups), dtype=np.intp, count=len(groups))
        if counts.min() == 0:
            raise EmbeddingError("anchor groups must be non-empty")
        anchor_max = int(counts.max())
        flat = [node_id for group in groups for node_id in group]
        coords = self._index.positions_batch(flat)
        anchors = np.zeros((len(groups), anchor_max, self.dimensions))
        mask = np.arange(anchor_max)[None, :] < counts[:, None]
        # Boolean assignment fills row-major, matching the flat gather order.
        anchors[mask] = coords
        if int(counts.min()) == anchor_max:
            return anchors, None
        return anchors, mask

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (lower, upper) bounds over the embedded nodes."""
        return self._index.bounds()

    @property
    def availability_array(self) -> np.ndarray:
        """Read-only per-row availability values (rows of :meth:`within_rows`).

        Live: the array reflects every ledger write immediately, which
        lets the packing engine screen whole candidate rings against a
        capacity threshold in one vectorized comparison. Cached rows must
        be dropped when :attr:`mutation_epoch` moves.
        """
        return self._index.value_array

    def distance(self, u: str, v: str) -> float:
        """Estimated latency between two nodes = coordinate distance (ms)."""
        return float(np.linalg.norm(self.position(u) - self.position(v)))

    def distance_to_point(self, node_id: str, point: Sequence[float]) -> float:
        """Distance from a node to an arbitrary cost-space point."""
        return float(np.linalg.norm(self.position(node_id) - np.asarray(point, dtype=float)))

    def knn(
        self,
        point: Sequence[float],
        k: int,
        exclude: Optional[set] = None,
        min_capacity: Optional[float] = None,
        approximate: bool = False,
    ) -> List[Tuple[str, float]]:
        """The ``k`` nearest embedded nodes to ``point``.

        ``min_capacity`` restricts results to nodes whose registered
        available capacity passes the threshold — the capacity-filtered
        search that keeps Phase III linear. ``approximate`` permits the
        exact backend to stop once k qualifying nodes are found in
        best-first order instead of proving minimality — the packing
        engine's escape hatch for saturated paper-scale zones, where the
        proof would re-scan the whole drained boundary.
        """
        return self._index.query(
            point, k, exclude=exclude, min_value=min_capacity, approximate=approximate
        )

    def within(
        self,
        point: Sequence[float],
        radius: float,
        min_capacity: Optional[float] = None,
    ) -> List[Tuple[str, float]]:
        """All nodes within ``radius`` of ``point`` as (id, distance) pairs.

        ``min_capacity`` restricts results to nodes whose registered
        availability passes the threshold; the result is complete within
        the radius on both index backends, which is what the packing
        engine's shared rings rely on for their coverage proofs.
        """
        return self._index.within(point, radius, min_value=min_capacity)

    def within_rows(
        self,
        point: Sequence[float],
        radius: float,
        min_capacity: Optional[float] = None,
        inner_radius: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-level :meth:`within`: (distances, rows), complete over live nodes.

        See ``NeighborIndex.within_rows``; rows index
        :attr:`availability_array`, :meth:`node_id_of_row` and
        :meth:`points_of_rows`.
        """
        return self._index.within_rows(
            point, radius, min_value=min_capacity, inner_radius=inner_radius
        )

    def node_id_of_row(self, row: int) -> str:
        """Translate a :meth:`within_rows` row back to its node id."""
        return self._index.node_id_of_row(row)

    def points_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Coordinates of index rows as one vectorized gather."""
        return self._index.points_of_rows(rows)

    def set_available(self, node_id: str, value: float) -> None:
        """Register a node's available capacity for filtered k-NN queries.

        An *increase* (capacity returned by an undeploy, a raised node
        capacity) bumps :attr:`mutation_epoch`: cached neighbourhoods
        fetched under the old availability could be missing the node.
        Decreases — the only direction Phase III writes — never do.
        First-time registration also bumps: an unregistered node reads
        +inf for filtered queries but 0 from any capacity ledger, so the
        packing engine may have marked it dead-for-the-epoch — giving it
        a real capacity must flush those caches.
        """
        previous = self._index.value(node_id)
        if value > previous or previous == float("inf"):
            self._mutation_epoch += 1
        self._index.set_value(node_id, value)

    # ------------------------------------------------------------------
    # live maintenance (Section 3.5)
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, neighbor_latencies_ms: Mapping[str, float]) -> np.ndarray:
        """Embed a joining node from latencies to a fixed neighbour sample.

        Constant-time in topology size: only the new node's coordinate is
        relaxed against its |N| measured neighbours.
        """
        if node_id in self._index:
            raise EmbeddingError(f"node {node_id!r} is already embedded")
        if not neighbor_latencies_ms:
            raise EmbeddingError("need at least one neighbour latency to embed a node")
        neighbor_ids = [nid for nid in neighbor_latencies_ms if nid in self._index]
        if not neighbor_ids:
            raise EmbeddingError("none of the measured neighbours are embedded")
        neighbor_coords = np.vstack([self.position(nid) for nid in neighbor_ids])
        rtts = np.array([neighbor_latencies_ms[nid] for nid in neighbor_ids], dtype=float)
        position = self._vivaldi.place_new_node(neighbor_coords, rtts)
        self._coords[node_id] = position
        self._index.add(node_id, position)
        self._mutation_epoch += 1
        return position

    def restore_node(self, node_id: str, position: Sequence[float]) -> None:
        """Re-insert a node at an exact, previously observed coordinate.

        The change-set engine's rollback path: a removal (or re-embedding)
        that must be undone puts the node back bit-identically, without
        re-running the embedding. Bumps :attr:`mutation_epoch` like any
        membership change.
        """
        if node_id in self._index:
            raise EmbeddingError(f"node {node_id!r} is already embedded")
        point = np.asarray(position, dtype=float)
        self._coords[node_id] = point
        self._index.add(node_id, point)
        self._mutation_epoch += 1

    def remove_node(self, node_id: str) -> None:
        """Drop a node from the cost space and the neighbour index."""
        if node_id not in self._index:
            raise UnknownNodeError(node_id)
        self._index.remove(node_id)
        self._coords.pop(node_id, None)
        self._mutation_epoch += 1

    def update_node(
        self, node_id: str, neighbor_latencies_ms: Mapping[str, float]
    ) -> np.ndarray:
        """Re-embed a node whose latencies drifted (remove + re-add)."""
        self.remove_node(node_id)
        return self.add_node(node_id, neighbor_latencies_ms)

    def as_matrix(self) -> Tuple[List[str], np.ndarray]:
        """Snapshot (ids, coordinates) of all live nodes."""
        ids = self.node_ids
        return ids, np.vstack([self.position(nid) for nid in ids])
