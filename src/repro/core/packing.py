"""Phase III packing engine: one serial pass over a shared cursor cache.

Physically placing a join pair replica means walking its partition grid
cell by cell and putting each sub-join on the nearest node (by cost-space
k-NN around the replica's virtual position) with enough available
capacity; when nothing can host a cell, Nova spreads the remainder over
the nearest candidates, accepting overload (Section 3.4). The
:class:`PackingEngine` owns this hot path across all replicas of a
session: :meth:`PackingEngine.pack` places the jobs one after another,
and every replica's grid walk (:func:`_walk_cells`) draws its fresh
hosts from one cross-replica structure.

**A shared, threshold-bucketed cursor cache.** Virtual positions
cluster near the sink, so consecutive replicas keep asking for "the
nearest node with capacity >= t" around almost the same point. The
engine quantizes positions onto a spatial grid and keeps one
capacity-filtered *ring* per grid cell: a complete radius
neighbourhood, materialized by a vectorized range query (no k-heap, no
minimality proof) with ``min_capacity`` at the demand level's
power-of-two floor. Because availability only ever decreases while
packing runs, a ring stays complete for every later request at any
threshold at or above its bound: per-replica views re-rank the ring
around the replica's own position and return a host only when its
distance is provably inside the covered radius
(``d <= horizon - |position - center|``, triangle inequality);
otherwise the ring grows by fetching just the new annulus. Rings that
outgrow their cell spill to the neighbouring cells they cover, so a hot
zone materializes one shared neighbourhood instead of one copy per
bucket. The cache is invalidated through
:attr:`CostSpace.mutation_epoch` whenever a node joins/leaves or any
availability *increases* (churn, undeploys). Rings hold index rows
only: nodes added since the index's last rebuild own rows too, so a
churned session uses the same ring machinery as a fresh plan.

A view answers a host request on one of two paths:

* **screened** — one cached screen per quarter-octave demand level
  against the index's live availability array, then one masked argmin
  per host request (``_RingView._nearest_screened``);
* **direct** — in *degenerate* zones (candidate sets beyond
  ``_DIRECT_QUERY_MIN``, the saturated region at paper scale) the view
  bypasses the ring and streams hosts from per-view best-first index
  queries (``_RingView._nearest_direct``).

The screened path is exact and resolves equal distances by the minimal
node id, so the winner never depends on which cached ring serves a
view. Exhaustion stays exact on both paths (a ring whose radius covers
the bounding box, or a short index fetch, proves nothing qualifies),
which the spread fallback relies on.

All availability mutations go through the
:class:`~repro.core.cost_space.AvailabilityLedger` mapping, whose
``__setitem__``/``__delitem__`` notify an attached change-set journal on
first touch — so every ledger write the engine makes during a batched
re-optimization is copy-on-write covered and rolls back row-exactly
without the engine knowing a journal exists.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, MutableMapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import InfeasiblePlacementError
from repro.core.config import NovaConfig
from repro.core.cost_space import AvailabilityLedger, CostSpace
from repro.core.partitioning import PartitioningPlan, plan_partitions
from repro.core.placement import SubReplicaPlacement
from repro.query.expansion import JoinPairReplica


@dataclass
class AssignmentOutcome:
    """Result of placing one join pair replica."""

    subs: List[SubReplicaPlacement]
    partitioning: PartitioningPlan
    overload_accepted: bool
    expansions_used: int = 0
    cells_placed: int = 0
    knn_queries: int = 0


@dataclass
class PackingStats:
    """Cumulative work counters of one engine (all ``pack`` calls).

    ``cursor_cache_hits``/``misses`` count ring-cache lookups (a miss
    fetches a fresh ring); ``knn_queries`` counts neighbour-index
    searches (ring fetches, growths, direct and spread queries).
    """

    cursor_cache_hits: int = 0
    cursor_cache_misses: int = 0
    knn_queries: int = 0

    def copy(self) -> "PackingStats":
        return PackingStats(
            cursor_cache_hits=self.cursor_cache_hits,
            cursor_cache_misses=self.cursor_cache_misses,
            knn_queries=self.knn_queries,
        )


# Above this many level-set candidates, the shared-ring machinery stops
# paying for itself (per-view work scales with the candidate set, and in
# a paper-scale saturated zone the set covers whole annuli): views
# bypass the ring and stream hosts from per-view index queries instead.
_DIRECT_QUERY_MIN = 4096


class _PartitionLedger:
    """Tracks which partitions each node already receives for one replica.

    Besides the per-node delivered sets, the ledger maintains the reverse
    index — per partition, the nodes receiving it in first-delivery order —
    which is what lets the placement loop find sharing hosts without
    scanning every used node.
    """

    def __init__(self, left_rates: Sequence[float], right_rates: Sequence[float]) -> None:
        self._left_rates = left_rates
        self._right_rates = right_rates
        self._delivered: Dict[str, Set[Tuple[str, int]]] = {}
        self._receivers: Dict[Tuple[str, int], List[str]] = {}

    def marginal(self, node_id: str, i: int, j: int) -> float:
        """Extra demand sub-join (i, j) adds on ``node_id``."""
        existing = self._delivered.get(node_id)
        if existing is None:
            return self._left_rates[i] + self._right_rates[j]
        demand = 0.0
        if ("L", i) not in existing:
            demand += self._left_rates[i]
        if ("R", j) not in existing:
            demand += self._right_rates[j]
        return demand

    def commit(self, node_id: str, i: int, j: int) -> float:
        """Record delivery of both partitions to ``node_id``; return marginal."""
        demand = self.marginal(node_id, i, j)
        delivered = self._delivered.setdefault(node_id, set())
        for key in (("L", i), ("R", j)):
            if key not in delivered:
                delivered.add(key)
                self._receivers.setdefault(key, []).append(node_id)
        return demand

    def receivers(self, stream: str, index: int) -> List[str]:
        """Nodes already receiving one partition, in first-delivery order."""
        return self._receivers.get((stream, index), [])

    def receives_both(self, node_id: str, i: int, j: int) -> bool:
        """Whether a node already receives both partitions of cell (i, j)."""
        delivered = self._delivered.get(node_id)
        return (
            delivered is not None
            and ("L", i) in delivered
            and ("R", j) in delivered
        )


def _grid(partitioning: PartitioningPlan) -> List[Tuple[int, int]]:
    """All (left index, right index) cells in row-major order.

    Row-major order keeps consecutive cells sharing the same left
    partition, which maximizes stream sharing under first-fit.
    """
    return [
        (i, j)
        for i in range(len(partitioning.left_partitions))
        for j in range(len(partitioning.right_partitions))
    ]


def _make_sub(
    replica: JoinPairReplica,
    node_id: str,
    left_index: int,
    right_index: int,
    partitioning: PartitioningPlan,
    charged: float,
) -> SubReplicaPlacement:
    return SubReplicaPlacement(
        sub_id=f"{replica.replica_id}/{left_index}x{right_index}",
        replica_id=replica.replica_id,
        join_id=replica.join_id,
        node_id=node_id,
        left_source=replica.left_source,
        right_source=replica.right_source,
        left_node=replica.left_node,
        right_node=replica.right_node,
        sink_node=replica.sink_node,
        left_rate=partitioning.left_partitions[left_index],
        right_rate=partitioning.right_partitions[right_index],
        charged_capacity=charged,
    )


class _Ring:
    """One over-fetched, capacity-filtered neighbourhood around a point.

    Materialized by a *radius* query with ``min_capacity = min_value``,
    so the ring provably contains every node whose availability was
    >= ``min_value`` within ``radius`` of ``center`` at fetch time — and,
    because availability only decreases between epoch bumps, every node
    that could qualify for any later request at a threshold >=
    ``min_value``. ``exhausted`` means the radius covers the whole cost
    space (``r_full``): there is no qualifying node beyond the ring
    anywhere, which keeps the spread-fallback trigger exact.
    """

    __slots__ = (
        "center",
        "min_value",
        "radius",
        "r_full",
        "points",
        "rows",
        "dead",
        "horizon",
        "exhausted",
        "version",
        "alive_cache",
    )

    def __init__(self, center: np.ndarray, min_value: float, radius: float, r_full: float) -> None:
        self.center = center
        self.min_value = min_value
        self.radius = float(radius)
        # Distance to the farthest bounding-box corner: a radius at or
        # beyond it provably covers every embedded node.
        self.r_full = float(r_full)
        self.points = np.empty((0, center.shape[0]))
        # Index rows of the ring nodes, in center-distance order per fetch:
        # the whole ring screens against the live availability array, and
        # only hosts actually returned pay the row -> id translation.
        self.rows = np.empty(0, dtype=np.intp)
        # Nodes observed dead for the whole epoch (absent from the ledger):
        # excluded from every view's screen.
        self.dead = np.zeros(0, dtype=bool)
        self.horizon = 0.0
        self.exhausted = False
        self.version = -1
        # Per quarter-octave level: [version, slots] of the candidates
        # that passed the level bound when last screened. Values only
        # decrease inside an epoch, so a cached set stays a
        # superset of the truth: views revalidate the few candidates they
        # actually touch, and refresh the set when it has decayed badly.
        self.alive_cache: Dict[int, List] = {}

    def level_set(self, key: int, bound: float, values: np.ndarray) -> np.ndarray:
        """Ring slots whose value is at or above a quantized bound.

        Shared across every view of the ring at this demand level; built
        once per ring version (and on decay refresh) instead of once per
        view. Levels are quarter-octave (``bound = 2^(key/4)``): a coarser
        bucket would leave a wide band of nodes below the actual threshold
        but above the bound lingering in the set — in a drained hot zone
        at paper scale, that zombie band is exactly what every view would
        have to wade through.
        """
        cached = self.alive_cache.get(key)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        mask = values[self.rows] >= bound
        mask &= ~self.dead
        slots = np.nonzero(mask)[0]
        self.alive_cache[key] = [self.version, slots]
        return slots


class _RingView:
    """A per-replica view of a shared ring.

    Streams the nearest node (by distance to the replica's own position)
    whose *live* availability passes the view's threshold. Views draw
    candidates from the ring's shared per-level slot cache and run one
    masked argmin per host request over squared distances computed once
    per view (``_nearest_screened``); degenerate hot zones bypass the
    ring with per-view index queries (``_nearest_direct``). A hit is
    returned only when provably no closer qualifying node can exist
    outside the ring (``d <= horizon - offset``, or the ring is
    exhausted); otherwise the ring grows (appending its new shell) and
    the search re-runs against the rebuilt level set.
    """

    __slots__ = (
        "engine",
        "ring",
        "point",
        "threshold",
        "level_key",
        "level_bound",
        "offset",
        "values",
        "alive",
        "pd2",
        "screened_version",
        "direct",
        "direct_ptr",
        "direct_k",
        "direct_exhausted",
    )

    def __init__(
        self,
        engine: "PackingEngine",
        ring: _Ring,
        point: np.ndarray,
        threshold: float,
    ) -> None:
        self.engine = engine
        self.ring = ring
        self.point = np.asarray(point, dtype=float)
        self.threshold = threshold
        # Quarter-octave quantization of the threshold for the shared
        # candidate cache (see _Ring.level_set).
        self.level_key = int(math.floor(math.log2(max(threshold, 1e-12)) * 4.0))
        self.level_bound = float(2.0 ** (self.level_key / 4.0))
        self.offset = float(np.linalg.norm(self.point - ring.center))
        # Live per-row availability array for vectorized screening; the
        # ledger writes through to the index, so it is always current.
        self.values = engine.cost_space.availability_array
        self.alive: Optional[np.ndarray] = None
        self.pd2: Optional[np.ndarray] = None
        self.screened_version = -3
        self.direct: Optional[List[Tuple[str, float]]] = None
        self.direct_ptr = 0
        self.direct_k = 8
        self.direct_exhausted = False

    def next_host(self, available) -> Optional[str]:
        """Nearest provably-correct node with ``available >= threshold``.

        Grows the ring whenever correctness cannot be proven from the
        cached horizon.
        """
        ring = self.ring
        offset = self.offset
        while True:
            # Moderate candidate sets are cheapest via one cached screen +
            # masked argmin; degenerate sets (the saturated zone at paper
            # scale) bypass the ring with per-view index queries.
            level_slots = ring.level_set(self.level_key, self.level_bound, self.values)
            if len(level_slots) > _DIRECT_QUERY_MIN:
                return self._nearest_direct(available)
            best_slot, best_d = self._nearest_screened(available)
            if best_slot >= 0:
                if ring.exhausted or best_d <= ring.horizon - offset:
                    return self._node_id(best_slot)
                target_radius = offset + best_d
            else:
                if ring.exhausted:
                    return None
                target_radius = max(ring.horizon, offset) * 2.0
            self.engine._grow(ring, target_radius)

    def _node_id(self, slot: int) -> str:
        return self.engine.cost_space.node_id_of_row(int(self.ring.rows[slot]))

    def _screen(self, available) -> None:
        """Build this view's candidate set from the shared level set.

        The per-level slot gather is shared ring-wide; the view filters
        it against the live values (folding heavy decay back into the
        shared cache so later views inherit the shrunken set) and
        computes squared distances to its own position once.
        """
        ring = self.ring
        values = self.values
        base = ring.level_set(self.level_key, self.level_bound, values)
        base_values = values[ring.rows[base]]
        live = ~ring.dead[base]
        level_alive = (base_values >= self.level_bound) & live
        if int(level_alive.sum()) * 2 < len(base):
            base = base[level_alive]
            ring.alive_cache[self.level_key] = [ring.version, base]
            base_values = base_values[level_alive]
            live = live[level_alive]
        alive = base[(base_values >= self.threshold) & live]
        diffs = ring.points[alive] - self.point
        self.alive = alive
        self.pd2 = np.einsum("ij,ij->i", diffs, diffs)
        self.screened_version = ring.version

    def _nearest_screened(self, available) -> Tuple[int, float]:
        """Masked-argmin over the view's cached screen.

        The screen is a superset of the truth (availability only
        decreases inside an epoch), so each minimum is revalidated with
        one scalar probe and masked out if it died — amortized O(1)
        numpy passes per returned host.
        """
        ring = self.ring
        threshold = self.threshold
        if self.alive is None or self.screened_version != ring.version:
            self._screen(available)
        values = self.values
        pd2 = self.pd2
        while len(pd2):
            j = int(np.argmin(pd2))
            d2 = float(pd2[j])
            if d2 == math.inf:
                break
            slot = int(self.alive[j])
            # Revalidate the minimum against the live values.
            if values[int(ring.rows[slot])] < threshold or ring.dead[slot]:
                pd2[j] = math.inf
                continue
            node_id = self._node_id(slot)
            if available.get(node_id, 0.0) < threshold:
                # The live array said alive but the ledger disagrees: the
                # node is not in this placement's capacity map at all, so
                # it can never host — dead for the epoch.
                ring.dead[slot] = True
                pd2[j] = math.inf
                continue
            # Exact distance ties resolve by node id, so the winner never
            # depends on which cached ring (possibly a spilled neighbour's,
            # with a different center order) happens to serve this view.
            for t in np.nonzero(pd2 == d2)[0]:
                other = int(self.alive[int(t)])
                if other == slot:
                    continue
                if values[int(ring.rows[other])] < threshold or ring.dead[other]:
                    pd2[int(t)] = math.inf
                    continue
                other_id = self._node_id(other)
                if available.get(other_id, 0.0) < threshold:
                    ring.dead[other] = True
                    pd2[int(t)] = math.inf
                    continue
                if other_id < node_id:
                    slot, node_id = other, other_id
            return slot, math.sqrt(d2)
        return -1, math.inf

    def _nearest_direct(self, available) -> Optional[str]:
        """Per-view exact cursor for degenerate (paper-scale) hot zones.

        When a ring's candidate set is enormous, any shared structure
        re-ranked per replica costs more than asking the index directly:
        this streams hosts from capacity-filtered k-NN queries around
        the view's own position, over-fetching and growing k on
        exhaustion. The queries skip the k-NN minimality proof (the
        drained boundary of a saturated zone would be re-scanned on
        every query otherwise) — near-exact best-first order, with
        exhaustion still exact, matching the pre-engine cursor
        semantics for exactly this regime.
        """
        engine = self.engine
        threshold = self.threshold
        while True:
            if self.direct is None:
                self.direct = engine.cost_space.knn(
                    self.point,
                    k=self.direct_k,
                    min_capacity=threshold,
                    approximate=True,
                )
                engine.stats.knn_queries += 1
                self.direct_exhausted = len(self.direct) < self.direct_k
                self.direct_ptr = 0
            results = self.direct
            while self.direct_ptr < len(results):
                node_id = results[self.direct_ptr][0]
                if available.get(node_id, 0.0) >= threshold:
                    return node_id
                # Below the threshold it can never qualify again.
                self.direct_ptr += 1
            if self.direct_exhausted:
                return None
            self.direct_k *= 4
            self.direct = None


def _walk_cells(
    partitioning: PartitioningPlan,
    available,
    fresh_host: Callable[[float], Optional[str]],
    spread_candidates: Callable[[int], List[Tuple[str, float]]],
    c_min: float,
) -> Tuple[List[Tuple[str, int, int, float]], bool]:
    """Walk one replica's partition grid; return its placement cells.

    The core first-fit ladder (it depends on nothing but the callables
    and the availability mapping handed in): each grid cell tries the
    last host, a node already receiving both partitions, a node sharing
    one partition with room, the roomiest used node, then the nearest
    fresh node from ``fresh_host``. Cells no node can host are spread
    over ``spread_candidates(count)``, the nearest nodes, accepting
    overload. Returns ``(cells, overload)`` where each cell is
    ``(node_id, left_index, right_index, charged)`` in placement order —
    enough to replay the exact ledger writes anywhere.
    """
    left_rates = partitioning.left_partitions
    right_rates = partitioning.right_partitions
    ledger = _PartitionLedger(left_rates, right_rates)

    cells: List[Tuple[str, int, int, float]] = []
    # Used nodes in first-use order (roughly by distance): node -> rank.
    use_order: Dict[str, int] = {}
    # Lazy max-heap over the used nodes' remaining capacity: entries carry
    # the remaining value at push time and are refreshed on inspection
    # (capacity only shrinks while a replica is being placed).
    room_heap: List[Tuple[float, int, str]] = []
    pending: List[Tuple[int, int]] = []

    def assign(node_id: str, i: int, j: int) -> None:
        charged = ledger.commit(node_id, i, j)
        if node_id not in use_order:
            use_order[node_id] = len(use_order)
        if charged:
            # Zero-marginal merges (both partitions already delivered)
            # change nothing: skip the ledger write-through and the
            # heap push entirely on that majority path.
            remaining = available.get(node_id, 0.0) - charged
            available[node_id] = remaining
            if remaining > 0.0:
                # A drained node can never satisfy a later positive
                # need within this walk (availability only shrinks),
                # so its heap entry would be dead weight.
                heapq.heappush(room_heap, (-remaining, use_order[node_id], node_id))
        cells.append((node_id, i, j, charged))

    def free_host(i: int, j: int) -> Optional[str]:
        """Earliest-used node already receiving both partitions (marginal 0)."""
        left_receivers = ledger.receivers("L", i)
        right_receivers = ledger.receivers("R", j)
        if len(right_receivers) < len(left_receivers):
            left_receivers = right_receivers
        best_order: Optional[int] = None
        best: Optional[str] = None
        for node_id in left_receivers:
            if ledger.receives_both(node_id, i, j):
                order = use_order[node_id]
                if best_order is None or order < best_order:
                    best_order, best = order, node_id
        return best

    def sharing_host(i: int, j: int) -> Optional[str]:
        """Earliest-used node already receiving one partition, with room."""
        best_order: Optional[int] = None
        best: Optional[str] = None
        for stream, index, marginal in (
            ("L", i, right_rates[j]),
            ("R", j, left_rates[i]),
        ):
            for node_id in ledger.receivers(stream, index):
                order = use_order[node_id]
                if best_order is not None and order >= best_order:
                    continue
                remaining = available.get(node_id, 0.0)
                if remaining >= marginal and remaining >= c_min:
                    best_order, best = order, node_id
        return best

    def roomiest_used(need: float) -> Optional[str]:
        """A used node with ``remaining >= need``, preferring the roomiest."""
        while room_heap:
            neg_remaining, order, node_id = room_heap[0]
            current = available.get(node_id, 0.0)
            if current != -neg_remaining:
                heapq.heapreplace(room_heap, (-current, order, node_id))
                continue
            if current >= need:
                return node_id
            return None
        return None

    last_host: Optional[str] = None
    for i, j in _grid(partitioning):
        demand = left_rates[i] + right_rates[j]
        host: Optional[str] = None
        # 0) Fast path: consecutive cells usually merge onto the last host
        #    for free (it already receives both partitions).
        if last_host is not None and ledger.receives_both(last_host, i, j):
            host = last_host
        # 1) A node already receiving both partitions hosts for free.
        if host is None:
            host = free_host(i, j)
        # 2) A node sharing one partition, with room for the rest (earliest
        #    used first — receivers are indexed per partition, so only
        #    nodes actually sharing a stream are inspected).
        if host is None:
            host = sharing_host(i, j)
        # 2b) A used node sharing nothing but with room for the full cell.
        if host is None:
            host = roomiest_used(max(demand, c_min))
        # 3) The nearest fresh node able to host the full cell (Eq. 2-3),
        #    streamed from the shared neighbourhood ring of this
        #    demand level.
        if host is None:
            host = fresh_host(demand)
        if host is None:
            pending.append((i, j))
        else:
            assign(host, i, j)
            last_host = host

    # Spread fallback: no node can host these cells; distribute them evenly
    # over the nearest candidates, accepting overload.
    overload = False
    if pending:
        candidates = spread_candidates(len(pending))
        overload = True
        for slot, (i, j) in enumerate(pending):
            assign(candidates[slot % len(candidates)][0], i, j)

    return cells, overload


class PackingEngine:
    """Owns Phase III for a session: the cursor cache and the serial pass."""

    def __init__(self, cost_space: CostSpace, config: Optional[NovaConfig] = None) -> None:
        self.cost_space = cost_space
        self.config = config or NovaConfig()
        self.stats = PackingStats()
        self._rings: Dict[Tuple, _Ring] = {}
        self._epoch = cost_space.mutation_epoch
        self._cell_size: Optional[float] = None
        self._lower: Optional[np.ndarray] = None
        self._upper: Optional[np.ndarray] = None
        self._nn_scale = 1.0

    # ------------------------------------------------------------------
    # cursor cache
    # ------------------------------------------------------------------
    @property
    def cached_rings(self) -> int:
        """Number of rings currently cached (observability/tests)."""
        return len(self._rings)

    def _sync_epoch(self) -> None:
        """Flush the ring cache if the cost space mutated underneath it."""
        epoch = self.cost_space.mutation_epoch
        if epoch != self._epoch:
            self._rings.clear()
            self._cell_size = None
            self._epoch = epoch

    def _bucket_cell(self) -> float:
        if self._cell_size is None:
            lower, upper = self.cost_space.bounding_box()
            extent = float(np.max(upper - lower))
            grid = max(int(self.config.packing_bucket_grid), 1)
            self._cell_size = extent / grid if extent > 0 else 1.0
            self._lower, self._upper = lower, upper
            dims = lower.shape[0]
            live = max(len(self.cost_space), 1)
            # Typical nearest-neighbour spacing under uniform density:
            # seeds ring radii so the first fetch usually covers the
            # bucket plus a handful of candidates.
            self._nn_scale = (
                extent / live ** (1.0 / dims) if extent > 0 else 1.0
            )
        return self._cell_size

    def _r_full(self, center: np.ndarray) -> float:
        """Distance from ``center`` beyond which no embedded node exists."""
        span = np.maximum(np.abs(center - self._lower), np.abs(self._upper - center))
        return float(np.linalg.norm(span)) + 1e-9

    def _seed_radius(self, expected: int) -> float:
        """Initial ring radius: bucket half-diagonal + room for ~expected nodes."""
        cell = self._bucket_cell()
        dims = self._lower.shape[0]
        return 0.5 * cell * math.sqrt(dims) + self._nn_scale * (
            max(expected, 1) ** (1.0 / dims)
        )

    def _bucket_key(self, position: np.ndarray) -> Tuple[int, ...]:
        cell = self._bucket_cell()
        return tuple(math.floor(c / cell) for c in position.tolist())

    @staticmethod
    def _level(threshold: float) -> int:
        """Power-of-two demand level: thresholds in [2^e, 2^(e+1)) share rings."""
        return int(math.floor(math.log2(max(threshold, 1e-12))))

    def _fetch(self, ring: _Ring) -> None:
        """(Re-)materialize a ring.

        A radius query is complete by construction (``horizon`` *is* the
        radius), evaluates leaves wholesale with no k-heap, and needs no
        minimality proof — the reason rings are cheap enough to refetch.
        """
        self.stats.knn_queries += 1
        _, rows = self.cost_space.within_rows(
            ring.center, ring.radius, min_capacity=ring.min_value
        )
        ring.rows = np.asarray(rows, dtype=np.intp)
        ring.points = self.cost_space.points_of_rows(ring.rows)
        ring.dead = np.zeros(len(ring.rows), dtype=bool)
        ring.exhausted = ring.radius >= ring.r_full
        ring.horizon = ring.radius
        ring.version += 1

    def _grow(self, ring: _Ring, target_radius: float) -> None:
        """Extend a ring to cover ``target_radius`` by fetching its new annulus.

        Only the shell beyond the current radius is fetched and appended —
        the interior was already materialized — so repeated growth of a
        hot ring costs the final ring size once instead of once per
        growth step.
        """
        inner = ring.radius
        # Annulus growth makes small steps cheap, so grow just past the
        # proven need instead of doubling — over-materializing a hot
        # ring's shell costs more than an extra shell fetch.
        outer = min(max(inner * 1.3, target_radius * 1.05), ring.r_full)
        ring.radius = outer
        self.stats.knn_queries += 1
        _, rows = self.cost_space.within_rows(
            ring.center, outer, min_capacity=ring.min_value, inner_radius=inner
        )
        if len(rows):
            rows = np.asarray(rows, dtype=np.intp)
            ring.rows = np.concatenate([ring.rows, rows])
            ring.points = np.concatenate(
                [ring.points, self.cost_space.points_of_rows(rows)]
            )
            ring.dead = np.concatenate(
                [ring.dead, np.zeros(len(rows), dtype=bool)]
            )
        ring.exhausted = outer >= ring.r_full
        ring.horizon = outer
        ring.version += 1
        self._spill(ring)

    def _spill(self, ring: _Ring) -> None:
        """Register a grown ring under the neighbouring cells it covers.

        Hot zones span several adjacent buckets; without spilling, each
        bucket grows its own copy of essentially the same neighbourhood.
        Once a ring's radius dwarfs the cell size, nearby cells adopt it
        (their replicas just carry a larger offset into the coverage
        proof), so the drained region is materialized once instead of
        once per bucket. The grown ring also *replaces* a neighbour's
        own ring when it strictly dominates it — covers a larger radius
        at an equal-or-lower capacity bound — which is what stops
        adjacent hot buckets from growing duplicate copies; views
        holding the replaced ring stay valid (they keep their
        reference).
        """
        cell = self._bucket_cell()
        if ring.radius < 4.0 * cell:
            return
        dims = ring.center.shape[0]
        reach = ring.radius / 2.0
        span = min(int(reach / cell), 8 if dims <= 2 else 2)
        if span < 1:
            return
        base = np.floor(ring.center / cell).astype(int)
        reach2 = reach * reach
        offsets = np.stack(
            np.meshgrid(*([np.arange(-span, span + 1)] * dims), indexing="ij"), axis=-1
        ).reshape(-1, dims)
        centers = (base + offsets + 0.5) * cell
        close = np.einsum(
            "ij,ij->i", centers - ring.center, centers - ring.center
        ) <= reach2
        rings = self._rings
        for row in offsets[close]:
            key = tuple(int(v) for v in (base + row))
            existing = rings.get(key)
            if existing is None or (
                existing is not ring
                and ring.min_value <= existing.min_value
                and ring.radius > existing.radius
            ):
                rings[key] = ring

    def cursor(
        self,
        position: np.ndarray,
        threshold: float,
        floor_threshold: Optional[float] = None,
    ) -> _RingView:
        """A view streaming the nearest nodes with capacity >= ``threshold``.

        Served from the shared per-spatial-bucket ring cache. A miss
        fetches a fresh complete ring around the requesting replica's own
        position (tight for singleton buckets; later replicas in the cell
        carry their offset into the coverage proof) with ``min_capacity``
        at the demand level's power-of-two lower bound — one ring serves
        every threshold at or above its level, and a request below the
        cached level refetches the ring once with the lower bound instead
        of keeping one ring per level. ``floor_threshold`` — the lowest
        threshold the caller will ever request (a replica knows its
        minimum cell demand before walking the grid) — seeds fresh rings
        low enough that the expensive refetch rarely triggers.
        """
        key = self._bucket_key(position)
        min_value = float(2.0 ** self._level(threshold))
        if floor_threshold is not None:
            floor_threshold = max(min(floor_threshold, threshold), 1e-12)
        else:
            floor_threshold = threshold
        ring = self._rings.get(key)
        if ring is None or ring.min_value > min_value:
            self.stats.cursor_cache_misses += 1
            seed_value = float(
                2.0 ** min(self._level(floor_threshold), self._level(threshold))
            )
            if ring is not None:
                # Same bucket, lower demand level: re-materialize with the
                # lower capacity bound, keeping the learned radius/center.
                ring = _Ring(ring.center, seed_value, ring.radius, ring.r_full)
            else:
                center = np.asarray(position, dtype=float).copy()
                r_full = self._r_full(center)
                radius = min(
                    self._seed_radius(self.config.packing_ring_start_k), r_full
                )
                ring = _Ring(center, seed_value, radius, r_full)
            self._fetch(ring)
            self._rings[key] = ring
        else:
            self.stats.cursor_cache_hits += 1
        return _RingView(self, ring, position, threshold)

    def _partition(self, replica: JoinPairReplica) -> PartitioningPlan:
        return plan_partitions(
            replica.left_rate,
            replica.right_rate,
            sigma=self.config.sigma,
            bandwidth_threshold=self.config.bandwidth_threshold,
        )

    def _threshold(self, demand: float) -> float:
        return max(demand, self.config.min_available_capacity, 1e-12)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place_replica(
        self,
        replica: JoinPairReplica,
        virtual_position: np.ndarray,
        available: MutableMapping[str, float],
    ) -> AssignmentOutcome:
        """Partition and physically place one replica.

        Mutates ``available`` to account for consumed (marginal) capacity.
        Never raises on overload: the spread fallback guarantees a
        placement, flagged through ``overload_accepted``.
        """
        available = self._ensure_ledger(available)
        self._sync_epoch()
        position = np.asarray(virtual_position, dtype=float)
        queries_before = self.stats.knn_queries
        partitioning = self._partition(replica)
        # The smallest cell demand this replica can ever request: fresh
        # rings seed their capacity bound at its level, so the walk's
        # later, lower demands rarely force a ring refetch. (Flooring at
        # the whole batch's minimum instead would let one tiny-demand
        # outlier drag every ring down to a near-zero capacity bound and
        # blow their sizes up — per-replica floors keep rings tight.)
        floor_threshold = self._threshold(
            min(partitioning.left_partitions) + min(partitioning.right_partitions)
        )
        views: Dict[float, _RingView] = {}

        def fresh_host(demand: float) -> Optional[str]:
            need = self._threshold(demand)
            view = views.get(need)
            if view is None:
                view = self.cursor(position, need, floor_threshold=floor_threshold)
                views[need] = view
            return view.next_host(available)

        def spread_candidates(count: int) -> List[Tuple[str, float]]:
            candidates = self.cost_space.knn(position, k=max(count, 4))
            self.stats.knn_queries += 1
            if not candidates:
                raise InfeasiblePlacementError(
                    f"no candidate nodes exist for replica {replica.replica_id!r}"
                )
            return candidates

        cells, overload = _walk_cells(
            partitioning,
            available,
            fresh_host,
            spread_candidates,
            self.config.min_available_capacity,
        )
        subs = [
            _make_sub(replica, node_id, i, j, partitioning, charged)
            for node_id, i, j, charged in cells
        ]
        return AssignmentOutcome(
            subs=subs,
            partitioning=partitioning,
            overload_accepted=overload,
            cells_placed=len(subs),
            knn_queries=self.stats.knn_queries - queries_before,
        )

    def _ensure_ledger(self, available: MutableMapping[str, float]) -> MutableMapping[str, float]:
        # Capacity-filtered queries need the index to know availabilities;
        # wrap plain mappings in a write-through ledger (callers' dicts still
        # observe every mutation). Wrapping re-registers values, which can
        # bump the mutation epoch — done before the epoch sync on purpose.
        if not (
            isinstance(available, AvailabilityLedger)
            and available.cost_space is self.cost_space
        ):
            available = AvailabilityLedger(self.cost_space, backing=available)
        return available

    def pack(
        self,
        jobs: Sequence[Tuple[JoinPairReplica, np.ndarray]],
        available: MutableMapping[str, float],
    ) -> List[AssignmentOutcome]:
        """Place many replicas one after another; one outcome per job, in order."""
        jobs = list(jobs)
        if not jobs:
            return []
        available = self._ensure_ledger(available)
        return [
            self.place_replica(replica, position, available)
            for replica, position in jobs
        ]
