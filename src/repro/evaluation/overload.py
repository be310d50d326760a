"""Over-utilization metrics (Section 4.2).

A node is overloaded when the total join demand assigned to it exceeds its
processing capacity. The paper reports overloaded nodes as a percentage of
the nodes that actually host computation — which is why the sink-based
approach scores 100% (its single hosting node is overloaded).

Two access paths:

* the stateless functions (``overload_percentage`` & co.) walk the
  placement's per-node load index on every call — fine for one-shot
  reports;
* :class:`OverloadMonitor` subscribes to the placement's load-change
  notifications and keeps the overloaded set current incrementally, so
  churn-heavy consumers (the change-set replay CLI, long-running
  dashboards) read overload state in O(1) per query instead of
  re-deriving it per batch.

The notification stream is rollback-safe: when a change-set fails
mid-batch, the journal restores node buckets through the same
load-observer path (including explicit zero-load notifications for
nodes whose buckets emptied and re-filled), so a subscribed monitor
ends the failed batch exactly where it started — no re-subscription or
rescan needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.core.placement import Placement
from repro.topology.model import Topology

OVERLOAD_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NodeUtilization:
    """Load versus capacity for one hosting node."""

    node_id: str
    load: float
    capacity: float

    @property
    def utilization(self) -> float:
        """Load as a fraction of capacity (inf for zero-capacity nodes)."""
        if self.capacity <= 0:
            return float("inf") if self.load > 0 else 0.0
        return self.load / self.capacity

    @property
    def overloaded(self) -> bool:
        """Whether the node exceeds its capacity."""
        return self.load > self.capacity + OVERLOAD_TOLERANCE


def node_utilizations(placement: Placement, topology: Topology) -> List[NodeUtilization]:
    """Utilization of every node hosting at least one sub-replica."""
    loads = placement.node_loads()
    return [
        NodeUtilization(node_id, load, topology.node(node_id).capacity)
        for node_id, load in sorted(loads.items())
    ]


def overloaded_nodes(placement: Placement, topology: Topology) -> List[NodeUtilization]:
    """The hosting nodes whose load exceeds capacity."""
    return [u for u in node_utilizations(placement, topology) if u.overloaded]


def overload_percentage(placement: Placement, topology: Topology) -> float:
    """Percentage of hosting nodes that are overloaded (the Figure 6 metric)."""
    utilizations = node_utilizations(placement, topology)
    if not utilizations:
        return 0.0
    overloaded = sum(1 for u in utilizations if u.overloaded)
    return 100.0 * overloaded / len(utilizations)


def max_utilization(placement: Placement, topology: Topology) -> float:
    """The highest load/capacity ratio over hosting nodes."""
    utilizations = node_utilizations(placement, topology)
    if not utilizations:
        return 0.0
    return max(u.utilization for u in utilizations)


class OverloadMonitor:
    """Incrementally maintained overload accounting for one placement.

    Subscribes to :meth:`Placement.add_load_observer`: every sub-replica
    placed or undeployed updates only the touched node's classification,
    so ``percentage``/``overloaded_count`` answer in O(1) regardless of
    placement size. Capacities are cached per node and refreshed lazily
    on each load change; a capacity change *without* a load change (the
    change-set engine's fast path for raised capacity) is surfaced via
    :meth:`refresh_node`, which is O(1): it reads the one node's load
    (:meth:`Placement.node_load`) rather than copying the load map, so
    :meth:`apply_delta` costs O(nodes the delta touched).

    Close the monitor (or let it fall out of scope together with the
    placement) when done; ``close`` detaches the observer.
    """

    def __init__(self, placement: Placement, topology: Topology) -> None:
        self.placement = placement
        self.topology = topology
        self._loads: Dict[str, float] = {}
        self._capacity: Dict[str, float] = {}
        self._overloaded: Set[str] = set()
        placement.add_load_observer(self._on_load)
        self.resync()

    # -- maintenance ----------------------------------------------------
    def _classify(self, node_id: str, load: float) -> None:
        if load <= 0.0:
            self._loads.pop(node_id, None)
            self._capacity.pop(node_id, None)
            self._overloaded.discard(node_id)
            return
        self._loads[node_id] = load
        try:
            capacity = self.topology.node(node_id).capacity
        except Exception:
            capacity = self._capacity.get(node_id, 0.0)
        self._capacity[node_id] = capacity
        if load > capacity + OVERLOAD_TOLERANCE:
            self._overloaded.add(node_id)
        else:
            self._overloaded.discard(node_id)

    def _on_load(self, node_id: str, load: float) -> None:
        self._classify(node_id, load)

    def refresh_node(self, node_id: str) -> None:
        """Re-read one node's capacity (after a capacity-only change)."""
        self._classify(node_id, self.placement.node_load(node_id))

    def apply_delta(self, delta) -> None:
        """Reconcile with a just-applied plan delta.

        Load changes arrive through the placement observer automatically;
        what the observer cannot see is a *capacity-only* change (the
        change-set engine's fast path raises availability without moving
        any sub-replica). Every node the delta touched is re-read, which
        covers both.
        """
        for node_id in delta.availability_delta:
            self.refresh_node(node_id)

    def resync(self) -> None:
        """Full rebuild from the placement (initialization / reconciliation)."""
        self._loads.clear()
        self._capacity.clear()
        self._overloaded.clear()
        for node_id, load in self.placement.node_loads().items():
            self._classify(node_id, load)

    def close(self) -> None:
        """Detach from the placement's notifications."""
        self.placement.remove_load_observer(self._on_load)

    # -- queries --------------------------------------------------------
    @property
    def hosting_count(self) -> int:
        """Number of nodes currently hosting at least one sub-replica."""
        return len(self._loads)

    @property
    def overloaded_count(self) -> int:
        """Number of hosting nodes whose load exceeds capacity."""
        return len(self._overloaded)

    @property
    def overloaded_node_ids(self) -> List[str]:
        """Sorted ids of the currently overloaded hosting nodes."""
        return sorted(self._overloaded)

    @property
    def percentage(self) -> float:
        """The Figure 6 metric, served incrementally."""
        if not self._loads:
            return 0.0
        return 100.0 * len(self._overloaded) / len(self._loads)

    @property
    def max_utilization(self) -> float:
        """Highest load/capacity ratio over hosting nodes (O(hosting))."""
        worst = 0.0
        for node_id, load in self._loads.items():
            capacity = self._capacity.get(node_id, 0.0)
            ratio = load / capacity if capacity > 0 else float("inf")
            worst = max(worst, ratio)
        return worst
