"""The Nova optimizer (Algorithm 1).

Orchestrates the three phases: cost-space construction, virtual join
placement at geometric medians, and physical replica assignment under
capacity and bandwidth constraints. Phase II runs as a batched
virtual-placement engine: all replicas' geometric medians are solved in
one masked ``(R, A, d)`` iteration (chunked by ``median_batch_size``)
before Phase III packs them, instead of one tiny solve per replica.
``optimize`` returns a :class:`NovaSession`, a live object that retains
the cost space, the resolved plan, and the capacity ledger so the
re-optimizer can apply incremental changes without recomputing the full
placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, List, Optional

import numpy as np

from repro.core.cost_space import AvailabilityLedger
from repro.core.config import (
    MEDIAN_GRADIENT,
    MEDIAN_MINIMAX,
    MEDIAN_WEISZFELD,
    NovaConfig,
)
from repro.core.cost_space import CostSpace
from repro.core.packing import PackingEngine
from repro.core.placement import Placement, SubReplicaPlacement
from repro.geometry.median import (
    gradient_descent_median,
    gradient_descent_median_batch,
    minimax_point,
    minimax_point_batch,
    weiszfeld,
    weiszfeld_batch,
)
from repro.query.expansion import JoinPairReplica, ResolvedPlan
from repro.query.join_matrix import JoinMatrix
from repro.query.plan import LogicalPlan
from repro.topology.latency import LatencyProvider
from repro.topology.model import Topology

if TYPE_CHECKING:  # pragma: no cover - type names only
    from repro.evaluation.overload import OverloadMonitor


@dataclass
class PhaseTimings:
    """Wall-clock seconds and work counters per optimization phase.

    ``virtual_s`` covers Phase II (geometric medians), ``physical_s`` pure
    Phase III (partitioning and packing), and ``resolve_s`` the plan/matrix
    resolution that precedes them. The counters make per-phase throughput
    visible: ``medians_solved`` is the number of geometric-median problems
    Phase II solved (the batched engine solves thousands per second),
    ``cells_placed`` the number of placed grid cells (sub-joins), and
    ``knn_queries`` the number of neighbour-index searches Phase III
    issued — the batched query path keeps the latter a small multiple of
    the replica count rather than one per cell. Timings and counters keep
    accumulating when the re-optimizer places further replicas on the
    same session.
    """

    cost_space_s: float = 0.0
    resolve_s: float = 0.0
    virtual_s: float = 0.0
    physical_s: float = 0.0
    replicas_placed: int = 0
    medians_solved: int = 0
    cells_placed: int = 0
    knn_queries: int = 0
    # How many solve-and-pack passes ran: one per ``place_replicas``
    # call. The batched change-set path funnels a whole event burst into
    # a single pass, so this is the counter that separates it from
    # per-event sequential application.
    packing_passes: int = 0
    # Packing-engine counters: shared-ring cache lookups (a hit reuses a
    # previously fetched capacity-filtered neighbourhood).
    cursor_cache_hits: int = 0
    cursor_cache_misses: int = 0
    # State-plane counters: how much pre-image copying the change-set
    # journal did per batch. ``journal_nodes_touched`` is the number of
    # distinct nodes whose placement bucket or ledger row gained a
    # copy-on-write pre-image; ``copied_subs`` the total sub-replica
    # instances copied into those pre-images. A single-event batch keeps
    # both O(affected) — independent of placement size — which is the
    # acceptance bound bench_fig10 asserts.
    journal_nodes_touched: int = 0
    copied_subs: int = 0

    @property
    def total_s(self) -> float:
        """Total optimization time."""
        return self.cost_space_s + self.resolve_s + self.virtual_s + self.physical_s

    def since(self, before: "PhaseTimings") -> "PhaseTimings":
        """The work done between a ``replace(timings)`` snapshot and now.

        Field-wise difference over every dataclass field (so counters
        added later are diffed automatically). This is how a
        :class:`~repro.core.changeset.PlanDelta` reports the timings
        spent applying one batch.
        """
        return PhaseTimings(
            **{
                spec.name: getattr(self, spec.name) - getattr(before, spec.name)
                for spec in fields(self)
            }
        )

    @property
    def cursor_cache_hit_rate(self) -> float:
        """Fraction of neighbourhood-ring lookups served from the cache."""
        lookups = self.cursor_cache_hits + self.cursor_cache_misses
        return self.cursor_cache_hits / lookups if lookups else 0.0

    @property
    def physical_cells_per_s(self) -> float:
        """Phase III packing throughput (grid cells per second)."""
        return self.cells_placed / self.physical_s if self.physical_s > 0 else 0.0

    @property
    def virtual_medians_per_s(self) -> float:
        """Phase II solve throughput (geometric medians per second)."""
        return self.medians_solved / self.virtual_s if self.virtual_s > 0 else 0.0

    @property
    def replicas_per_s(self) -> float:
        """End-to-end placement throughput (replicas per second)."""
        placement_s = self.virtual_s + self.physical_s
        return self.replicas_placed / placement_s if placement_s > 0 else 0.0


@dataclass
class NovaSession:
    """Mutable optimizer state: topology, plan, cost space, and placement."""

    config: NovaConfig
    topology: Topology
    plan: LogicalPlan
    matrix: JoinMatrix
    resolved: ResolvedPlan
    cost_space: CostSpace
    placement: Placement
    available: AvailabilityLedger
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    engine: Optional[PackingEngine] = None
    monitor: Optional[object] = None

    @property
    def overload_monitor(self) -> "OverloadMonitor":
        """A lazily created incremental overload monitor on this placement.

        Consumers holding a live session (the evaluation report, the
        replay CLI) read overload state in O(1) through this monitor
        instead of rescanning the placement per call; the monitor stays
        subscribed to the placement's load notifications for the
        session's lifetime.
        """
        if self.monitor is None:
            from repro.evaluation.overload import OverloadMonitor

            self.monitor = OverloadMonitor(self.placement, self.topology)
        return self.monitor

    @property
    def packing_engine(self) -> PackingEngine:
        """The session's long-lived Phase III engine (created lazily).

        Holding one engine per session is what lets the shared cursor
        cache survive across ``place_replicas`` calls — including the
        re-optimizer's churn paths, which invalidate it implicitly
        through the cost space's mutation epoch.
        """
        if self.engine is None:
            self.engine = PackingEngine(self.cost_space, self.config)
        return self.engine

    # ------------------------------------------------------------------
    # shared placement machinery (used by Nova and the re-optimizer)
    # ------------------------------------------------------------------
    def virtual_position(self, replica: JoinPairReplica) -> np.ndarray:
        """Phase II for one replica: the geometric median of its endpoints."""
        anchors = np.vstack(
            [self.cost_space.position(node_id) for node_id in replica.pinned_nodes]
        )
        solver = self.config.median_solver
        if solver == MEDIAN_WEISZFELD:
            return weiszfeld(anchors).point
        if solver == MEDIAN_GRADIENT:
            return gradient_descent_median(anchors).point
        if solver == MEDIAN_MINIMAX:
            return minimax_point(anchors).point
        raise ValueError(f"unknown median solver {solver!r}")  # pragma: no cover

    def virtual_positions_batch(self, replicas: List[JoinPairReplica]) -> np.ndarray:
        """Phase II for many replicas at once: one masked batched solve.

        Gathers every replica's pinned endpoints into a padded
        ``(R, A_max, d)`` anchor array (ragged counts carry a mask) and
        solves all geometric medians in a single vectorized iteration —
        the per-call numpy overhead that dominated the one-at-a-time path
        is paid once per batch instead of once per replica.
        """
        anchors, mask = self.cost_space.anchor_matrix(
            [replica.pinned_nodes for replica in replicas]
        )
        solver = self.config.median_solver
        if solver == MEDIAN_WEISZFELD:
            return weiszfeld_batch(anchors, mask=mask).points
        if solver == MEDIAN_GRADIENT:
            return gradient_descent_median_batch(anchors, mask=mask).points
        if solver == MEDIAN_MINIMAX:
            return minimax_point_batch(anchors, mask=mask).points
        raise ValueError(f"unknown median solver {solver!r}")  # pragma: no cover

    def _solve_virtual_positions(self, replicas: List[JoinPairReplica]) -> None:
        """Fill ``placement.virtual_positions`` for the given replicas."""
        positions = self.placement.virtual_positions
        batch_size = self.config.median_batch_size
        if batch_size == 0 or len(replicas) < self.config.median_batch_min:
            for replica in replicas:
                positions[replica.replica_id] = self.virtual_position(replica)
            return
        for start in range(0, len(replicas), batch_size):
            chunk = replicas[start : start + batch_size]
            for replica, point in zip(chunk, self.virtual_positions_batch(chunk)):
                positions[replica.replica_id] = point

    def place_replicas(self, replicas: Iterable[JoinPairReplica]) -> List[SubReplicaPlacement]:
        """Phase II + III for the given replicas; mutates the session state.

        Runs as a two-pass pipeline: first every replica missing a
        virtual position is batch-solved (Phase II,
        :meth:`solve_virtual`), then each replica is packed onto physical
        hosts (Phase III, :meth:`pack_replicas`). The two halves are the
        ``VirtualStage``/``PhysicalStage`` work units of the
        :class:`~repro.core.planner.PlacementPipeline`; this wrapper
        keeps them fused for the churn path.
        """
        replicas = list(replicas)
        self.solve_virtual(replicas)
        return self.pack_replicas(replicas)

    def solve_virtual(self, replicas: Iterable[JoinPairReplica]) -> int:
        """Phase II: batch-solve every replica missing a virtual position.

        Returns the number of medians solved. Phase II time and the
        solved-median counter accumulate into :attr:`timings`.
        """
        timings = self.timings
        positions = self.placement.virtual_positions
        missing = [r for r in replicas if r.replica_id not in positions]
        if missing:
            started = time.perf_counter()
            self._solve_virtual_positions(missing)
            timings.virtual_s += time.perf_counter() - started
            timings.medians_solved += len(missing)
        return len(missing)

    def pack_replicas(self, replicas: Iterable[JoinPairReplica]) -> List[SubReplicaPlacement]:
        """Phase III: pack replicas (with solved positions) onto hosts.

        Phase III time is accumulated into :attr:`timings`, together with
        the placed-cell and k-NN-query counters that drive the per-phase
        throughput report.
        """
        replicas = list(replicas)
        placed: List[SubReplicaPlacement] = []
        timings = self.timings
        if replicas:
            timings.packing_passes += 1
        positions = self.placement.virtual_positions
        engine = self.packing_engine
        stats_before = engine.stats.copy()
        started = time.perf_counter()
        outcomes = engine.pack(
            [(replica, positions[replica.replica_id]) for replica in replicas],
            self.available,
        )
        timings.physical_s += time.perf_counter() - started
        stats = engine.stats
        timings.replicas_placed += len(replicas)
        timings.knn_queries += stats.knn_queries - stats_before.knn_queries
        timings.cursor_cache_hits += stats.cursor_cache_hits - stats_before.cursor_cache_hits
        timings.cursor_cache_misses += (
            stats.cursor_cache_misses - stats_before.cursor_cache_misses
        )
        for outcome in outcomes:
            timings.cells_placed += outcome.cells_placed
            if outcome.overload_accepted:
                self.placement.overload_accepted = True
            self.placement.extend(outcome.subs)
            placed.extend(outcome.subs)
        return placed

    # ------------------------------------------------------------------
    # churn (the ChangeSet API, Section 3.5 batched)
    # ------------------------------------------------------------------
    def apply(self, events) -> "PlanDelta":
        """Apply a batch of churn events transactionally; return its diff.

        ``events`` may be a :class:`~repro.core.changeset.ChangeSet` or
        any iterable of churn events. The batch is validated up front,
        coalesced per node, applied with *one* Phase II batch median
        solve and *one* packing pass for the union of affected replicas,
        and rolled back atomically if anything fails. See
        :mod:`repro.core.changeset`.
        """
        from repro.core.changeset import ChangeSet, apply_changeset

        changeset = events if isinstance(events, ChangeSet) else ChangeSet(events)
        return apply_changeset(self, changeset)

    def transaction(self) -> "Transaction":
        """A context manager staging churn events for one batched apply.

        ::

            with session.transaction() as txn:
                txn.stage(RemoveNodeEvent("w7"))
                txn.stage(DataRateChangeEvent("s2", 120.0))
            delta = txn.delta
        """
        from repro.core.changeset import Transaction

        return Transaction(self)

    def undeploy_replica(self, replica_id: str) -> None:
        """Remove a replica's sub-joins, returning their charged capacity."""
        for sub in self.placement.remove_replica(replica_id):
            if sub.node_id in self.available:
                self.available[sub.node_id] += sub.charged_capacity

    def replica_by_id(self, replica_id: str) -> JoinPairReplica:
        """Look up a replica descriptor in the resolved plan."""
        return self.resolved.replica(replica_id)


class Nova:
    """The Nova optimization approach for join placement and parallelization.

    A thin facade over the staged :class:`~repro.core.planner.PlacementPipeline`
    — ``optimize`` assembles a :class:`~repro.core.planner.Workload` and runs
    the default stage sequence (cost space, resolve, virtual, physical).
    Prefer :func:`repro.plan` for new code: it returns a uniform
    :class:`~repro.core.planner.PlanResult` and serves baselines through the
    same registry surface.
    """

    def __init__(self, config: Optional[NovaConfig] = None) -> None:
        self.config = config or NovaConfig()

    def optimize(
        self,
        topology: Topology,
        plan: LogicalPlan,
        matrix: JoinMatrix,
        latency: Optional[LatencyProvider] = None,
        cost_space: Optional[CostSpace] = None,
    ) -> NovaSession:
        """Run Algorithm 1 and return a live session.

        ``latency`` defaults to the matrix induced by the topology (links if
        present, positions otherwise). Passing a prebuilt ``cost_space``
        skips Phase I (sugar for
        ``pipeline.with_stage_result("cost_space", cost_space)``), which
        benchmarks use to time phases separately.
        """
        from repro.core.planner import PlacementPipeline, Workload

        pipeline = PlacementPipeline(self.config)
        if cost_space is not None:
            pipeline = pipeline.with_stage_result("cost_space", cost_space)
        workload = Workload(
            topology=topology, plan=plan, matrix=matrix, latency=latency
        )
        return pipeline.run(workload).session
