"""Placement result data structures.

A :class:`Placement` maps pinned operators and join sub-replicas to nodes.
Sub-replicas are the unit of physical assignment: one per (left-partition,
right-partition) combination of a join pair, carrying the partition rates
that determine its capacity demand.

The per-node, per-replica, and per-join buckets are the placement's source
of truth: the hot queries (``subs_on_node``, ``subs_of_replica``,
``subs_of_join``, ``node_load``) answer from a dict lookup. Each bucket is
an insertion-ordered dict keyed by sub-join identity (``id(sub)``, the
same key the flat view's tombstone map uses), so its iteration order is
the flat order filtered to the bucket's key. Removal deletes one entry
per removed sub-join from each of its three buckets — O(removed), never
O(bucket), even when one join's bucket holds the whole placement — and
then re-sums only the touched nodes' loads, as a left fold over each node
bucket so every float matches an incremental build. The
flat ``sub_replicas`` list is a *lazily-materialized cached view* over
that store (:class:`_SubReplicaList`): removals mark tombstones instead of
rebuilding the list, and the next read compacts them away. The view still
satisfies the :class:`~repro.common.indexed.ObservedList` contract that
baselines, serialization, and tests rely on — appends flow through the
incremental index callback, any other list mutation triggers a full
reindex, and direct reassignment re-wraps the new list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.common.indexed import ObservedList


@dataclass(frozen=True)
class SubReplicaPlacement:
    """One placed join sub-replica (a partition-pair instance).

    ``charged_capacity`` is the *marginal* demand this sub-join adds to its
    node. Sub-replicas of the same join pair merged onto one node share
    partition streams: a partition already delivered to the node for a
    sibling sub-join is received (and processed) only once, so the merged
    node demand is the sum of *distinct* partitions, not of all (i, j)
    pairs — this is what lets the running example pack 625 sub-joins onto
    two 40-capacity fog nodes.
    """

    sub_id: str
    replica_id: str
    join_id: str
    node_id: str
    left_source: str
    right_source: str
    left_node: str
    right_node: str
    sink_node: str
    left_rate: float
    right_rate: float
    charged_capacity: float = -1.0

    def __post_init__(self) -> None:
        if self.charged_capacity < 0:
            object.__setattr__(self, "charged_capacity", self.left_rate + self.right_rate)

    @property
    def required_capacity(self) -> float:
        """Standalone C_r of this sub-join: sum of its partition rates."""
        return self.left_rate + self.right_rate


class _SubReplicaList(ObservedList):
    """The lazily-compacted flat view over the placement's buckets.

    Removals never rewrite the list: the owner marks the removed
    instances dead (:meth:`mark_dead`, O(removed)) and the next *read*
    filters the tombstones out in one pass (:meth:`compact`). Appends and
    wholesale mutations keep the full :class:`ObservedList` contract.
    Tombstones are held as ``id -> instance`` so the dead objects stay
    alive and their ids can never be recycled onto a live entry; when
    tombstones outnumber live entries the list compacts eagerly, keeping
    memory O(live) and reads amortized O(1).

    ``on_compact`` fires once right before a compaction destroys the raw
    (tombstoned) sequence — the session journal uses it to pin the
    pre-batch flat order if a mid-batch read forces a compaction.
    """

    __slots__ = ("_dead", "_on_compact")

    def __init__(
        self,
        iterable: Iterable[SubReplicaPlacement] = (),
        on_append: Optional[Callable] = None,
        on_rebuild: Optional[Callable] = None,
        on_compact: Optional[Callable] = None,
    ) -> None:
        self._dead: Dict[int, SubReplicaPlacement] = {}
        self._on_compact = on_compact
        super().__init__(iterable, on_append=on_append, on_rebuild=on_rebuild)

    # -- owner-side surgical API ---------------------------------------
    def mark_dead(self, subs: Iterable[SubReplicaPlacement]) -> None:
        """Tombstone the given instances without touching the list."""
        dead = self._dead
        for sub in subs:
            dead[id(sub)] = sub
        if len(dead) * 2 > list.__len__(self):
            self.compact()

    def compact(self) -> None:
        """Physically drop tombstoned entries (order-preserving)."""
        if not self._dead:
            return
        if self._on_compact is not None:
            self._on_compact()
        dead = self._dead
        self._dead = {}
        kept = [item for item in list.__iter__(self) if id(item) not in dead]
        list.clear(self)
        list.extend(self, kept)

    def raw(self) -> Iterable[SubReplicaPlacement]:
        """The physical sequence, tombstones included (no compaction)."""
        return list.__iter__(self)

    def dead_snapshot(self) -> Dict[int, SubReplicaPlacement]:
        """A copy of the current tombstone map (for journaling)."""
        return dict(self._dead)

    def set_dead(self, dead: Dict[int, SubReplicaPlacement]) -> None:
        """Replace the tombstone map wholesale (rollback path)."""
        self._dead = dict(dead)

    # -- reads materialize the view ------------------------------------
    def __len__(self) -> int:
        self.compact()
        return list.__len__(self)

    def __iter__(self):
        self.compact()
        return list.__iter__(self)

    def __reversed__(self):
        self.compact()
        return list.__reversed__(self)

    def __getitem__(self, index):
        self.compact()
        return list.__getitem__(self, index)

    def __contains__(self, item) -> bool:
        self.compact()
        return list.__contains__(self, item)

    def __eq__(self, other) -> bool:
        self.compact()
        return list.__eq__(self, other)

    def __ne__(self, other) -> bool:
        self.compact()
        return list.__ne__(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        self.compact()
        return list.__repr__(self)

    def index(self, *args):
        self.compact()
        return list.index(self, *args)

    def count(self, value) -> int:
        self.compact()
        return list.count(self, value)

    def copy(self) -> List[SubReplicaPlacement]:
        self.compact()
        return list(list.__iter__(self))

    # -- mutations compact first (positions refer to the live view) ----
    def _pin(self) -> None:
        """Give the journal its chance to pin the current raw order
        before a mutation destroys it (sort, slice assignment, ...)."""
        if self._on_compact is not None:
            self._on_compact()

    def append(self, item) -> None:
        # Re-appending a tombstoned instance: drop the tombstone
        # physically first, so the instance lives once, at the end (where
        # its buckets now hold it), not also at its old position.
        if id(item) in self._dead:
            self.compact()
        super().append(item)

    def insert(self, index, item) -> None:
        self._pin()
        self.compact()
        super().insert(index, item)

    def remove(self, item) -> None:
        self._pin()
        self.compact()
        super().remove(item)

    def pop(self, index: int = -1):
        self._pin()
        self.compact()
        return super().pop(index)

    def clear(self) -> None:
        self._pin()
        self._dead.clear()
        super().clear()

    def sort(self, **kwargs) -> None:
        self._pin()
        self.compact()
        super().sort(**kwargs)

    def reverse(self) -> None:
        self._pin()
        self.compact()
        super().reverse()

    def __setitem__(self, index, value) -> None:
        self._pin()
        self.compact()
        super().__setitem__(index, value)

    def __delitem__(self, index) -> None:
        self._pin()
        self.compact()
        super().__delitem__(index)

    def __imul__(self, count: int) -> "_SubReplicaList":
        self._pin()
        self.compact()
        return super().__imul__(count)

    def replace_contents(self, items) -> None:
        self._pin()
        self._dead.clear()
        super().replace_contents(items)


@dataclass
class Placement:
    """A complete operator-to-node mapping plus diagnostics."""

    pinned: Dict[str, str] = field(default_factory=dict)
    sub_replicas: List[SubReplicaPlacement] = field(default_factory=list)
    virtual_positions: Dict[str, np.ndarray] = field(default_factory=dict)
    overload_accepted: bool = False

    def __setattr__(self, name: str, value) -> None:
        if name == "sub_replicas":
            journal = getattr(self, "_journal", None)
            if journal is not None:
                # Mid-batch wholesale reassignment: pin the pre-batch
                # state off the old list before it is replaced.
                journal.note_full_rebuild(self)
            value = _SubReplicaList(
                value,
                on_append=self._index_add,
                on_rebuild=self._reindex,
                on_compact=self._on_flat_compact,
            )
            object.__setattr__(self, name, value)
            self._reindex()
        else:
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _reindex(self) -> None:
        """Rebuild the bucket store from the flat sub-replica view."""
        journal = getattr(self, "_journal", None)
        if journal is not None:
            # A full rebuild mid-batch (sort, slice assignment, ...) is
            # incompatible with per-bucket copy-on-write; the journal
            # falls back to snapshot-style restore for this batch.
            journal.note_full_rebuild(self)
        previous_loads = getattr(self, "_node_load", {})
        by_node: Dict[str, Dict[int, SubReplicaPlacement]] = {}
        by_replica: Dict[str, Dict[int, SubReplicaPlacement]] = {}
        by_join: Dict[str, Dict[int, SubReplicaPlacement]] = {}
        loads: Dict[str, float] = {}
        object.__setattr__(self, "_by_node", by_node)
        object.__setattr__(self, "_by_replica", by_replica)
        object.__setattr__(self, "_by_join", by_join)
        object.__setattr__(self, "_node_load", loads)
        object.__setattr__(self, "_total_required", 0.0)
        object.__setattr__(self, "_count", 0)
        object.__setattr__(self, "_join_replicas", {})
        object.__setattr__(self, "_join_hosts", {})
        object.__setattr__(
            self, "_load_observers", getattr(self, "_load_observers", [])
        )
        object.__setattr__(self, "_journal", getattr(self, "_journal", None))
        for sub in self.sub_replicas:
            self._index_add(sub)
        # A wholesale rebuild (list reassignment, rollback) may drop nodes
        # entirely; observers still need their zero-load notification.
        if self._load_observers:
            for node_id in previous_loads:
                if node_id not in loads:
                    self._notify_load(node_id, 0.0)

    def add_load_observer(self, observer) -> None:
        """Subscribe ``observer(node_id, load)`` to per-node load changes.

        Fired after every index mutation that moves a node's total load
        (``load`` is the node's new total; 0.0 when it stops hosting).
        This is what lets :class:`~repro.evaluation.overload.OverloadMonitor`
        track overload incrementally instead of rescanning the placement.
        A copy-on-write rollback re-notifies every node it restores, so
        subscribers stay consistent without a resync.
        """
        self._load_observers.append(observer)

    def remove_load_observer(self, observer) -> None:
        """Unsubscribe a previously added load observer."""
        try:
            self._load_observers.remove(observer)
        except ValueError:
            pass

    def _notify_load(self, node_id: str, load: float) -> None:
        for observer in self._load_observers:
            observer(node_id, load)

    # -- journal hooks (copy-on-write rollback support) ----------------
    def begin_journal(self, journal) -> None:
        """Attach a session journal: every bucket mutation is reported
        *before* it happens, so the journal can record first-touch
        pre-images (see ``_SessionJournal`` in :mod:`repro.core.changeset`)."""
        object.__setattr__(self, "_journal", journal)

    def end_journal(self) -> None:
        """Detach the session journal."""
        object.__setattr__(self, "_journal", None)

    def _on_flat_compact(self) -> None:
        journal = self._journal
        if journal is not None:
            journal.pin_flat(self)

    def _index_add(self, sub: SubReplicaPlacement) -> None:
        journal = self._journal
        if journal is not None:
            journal.note_sub_added(self, sub)
        # One key object shared by the three buckets.
        key = id(sub)
        self._by_node.setdefault(sub.node_id, {})[key] = sub
        self._by_replica.setdefault(sub.replica_id, {})[key] = sub
        self._by_join.setdefault(sub.join_id, {})[key] = sub
        self._node_load[sub.node_id] = self._node_load.get(sub.node_id, 0.0) + sub.charged_capacity
        if self._load_observers:
            self._notify_load(sub.node_id, self._node_load[sub.node_id])
        # Running aggregates: total standalone demand plus per-join
        # replica/host reference counts, so total_demand() and the
        # session summary answer incrementally instead of rescanning the
        # flat list per call.
        object.__setattr__(
            self, "_total_required", self._total_required + sub.required_capacity
        )
        object.__setattr__(self, "_count", self._count + 1)
        replicas = self._join_replicas.setdefault(sub.join_id, {})
        replicas[sub.replica_id] = replicas.get(sub.replica_id, 0) + 1
        hosts = self._join_hosts.setdefault(sub.join_id, {})
        hosts[sub.node_id] = hosts.get(sub.node_id, 0) + 1

    def _discard(self, removed: List[SubReplicaPlacement]) -> None:
        """Drop the given sub-replicas from the store — O(removed).

        The flat view only tombstones the instances (the next read
        compacts them); each bucket loses exactly the removed keys.
        Removal is by object identity, which is consistent because
        buckets reference the same instances as the list. Only the
        touched nodes' loads are re-summed over their buckets.
        """
        journal = self._journal
        if journal is not None:
            journal.note_subs_removed(self, removed)
        self.sub_replicas.mark_dead(removed)
        for sub in removed:
            key = id(sub)
            for index, bucket_key in (
                (self._by_node, sub.node_id),
                (self._by_replica, sub.replica_id),
                (self._by_join, sub.join_id),
            ):
                bucket = index[bucket_key]
                del bucket[key]
                if not bucket:
                    del index[bucket_key]
        for node_id in sorted({sub.node_id for sub in removed}):
            bucket = self._by_node.get(node_id)
            if bucket:
                self._node_load[node_id] = sum(
                    s.charged_capacity for s in bucket.values()
                )
            else:
                self._node_load.pop(node_id, None)
            if self._load_observers:
                self._notify_load(node_id, self._node_load.get(node_id, 0.0))
        total = self._total_required
        for sub in removed:
            total -= sub.required_capacity
            replicas = self._join_replicas.get(sub.join_id)
            if replicas is not None:
                count = replicas.get(sub.replica_id, 0) - 1
                if count > 0:
                    replicas[sub.replica_id] = count
                else:
                    replicas.pop(sub.replica_id, None)
                    if not replicas:
                        del self._join_replicas[sub.join_id]
            hosts = self._join_hosts.get(sub.join_id)
            if hosts is not None:
                count = hosts.get(sub.node_id, 0) - 1
                if count > 0:
                    hosts[sub.node_id] = count
                else:
                    hosts.pop(sub.node_id, None)
                    if not hosts:
                        del self._join_hosts[sub.join_id]
        object.__setattr__(self, "_total_required", max(total, 0.0))
        object.__setattr__(self, "_count", self._count - len(removed))

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def node_of(self, operator_id: str) -> str:
        """Node hosting a pinned operator."""
        return self.pinned[operator_id]

    def nodes_used(self) -> List[str]:
        """All nodes hosting at least one sub-replica."""
        return sorted(self._by_node)

    def subs_on_node(self, node_id: str) -> List[SubReplicaPlacement]:
        """Sub-replicas hosted on a node."""
        bucket = self._by_node.get(node_id)
        return list(bucket.values()) if bucket is not None else []

    def subs_of_replica(self, replica_id: str) -> List[SubReplicaPlacement]:
        """Sub-replicas belonging to one join pair replica."""
        bucket = self._by_replica.get(replica_id)
        return list(bucket.values()) if bucket is not None else []

    def subs_of_join(self, join_id: str) -> List[SubReplicaPlacement]:
        """Sub-replicas belonging to one logical join."""
        bucket = self._by_join.get(join_id)
        return list(bucket.values()) if bucket is not None else []

    def node_loads(self) -> Dict[str, float]:
        """Total join demand per node (tuples/s), merge-aware.

        Sums the charged (marginal) capacity of each sub-replica, so
        partition streams shared by merged sub-joins count once.
        """
        return dict(self._node_load)

    def node_load(self, node_id: str) -> float:
        """One node's total join demand (0.0 when it hosts nothing), O(1)."""
        return self._node_load.get(node_id, 0.0)

    def replica_count(self) -> int:
        """Total number of placed sub-replicas (O(1), never materializes)."""
        return self._count

    def total_demand(self) -> float:
        """Sum of C_r over all sub-replicas (maintained incrementally)."""
        return self._total_required

    def join_stats(self, join_id: str) -> Dict:
        """Incremental per-join summary: replicas, sub-joins, hosts.

        Served from the running per-join reference counts — the session
        summary used to recompute these with a set comprehension over
        every sub-replica of the join per call.
        """
        return {
            "pair_replicas": len(self._join_replicas.get(join_id, ())),
            "sub_joins": len(self._by_join.get(join_id, ())),
            "hosts": sorted(self._join_hosts.get(join_id, ())),
        }

    def merge_counts(self) -> Dict[str, int]:
        """How many sub-replicas were merged onto each node."""
        return {node_id: len(bucket) for node_id, bucket in self._by_node.items()}

    def remove_replica(self, replica_id: str) -> List[SubReplicaPlacement]:
        """Undeploy all sub-replicas of a join pair; return what was removed."""
        removed = self.subs_of_replica(replica_id)
        if removed:
            self._discard(removed)
        self.virtual_positions.pop(replica_id, None)
        return removed

    def remove_subs_on_node(self, node_id: str) -> List[SubReplicaPlacement]:
        """Undeploy all sub-replicas running on a node; return them."""
        removed = self.subs_on_node(node_id)
        if removed:
            self._discard(removed)
        return removed

    def discard_subs(self, keys: Iterable[tuple]) -> List[SubReplicaPlacement]:
        """Remove sub-replicas matching the given ``(sub_id, node_id)`` keys.

        The replay-side inverse of :meth:`extend`: applying a
        :class:`~repro.core.changeset.PlanDelta` to an archived placement
        drops exactly the diff's removed instances. Each key is resolved
        through its node's bucket, so the cost is O(touched node buckets),
        not O(placement). Returns what was removed; keys with no match are
        ignored.
        """
        wanted = set(keys)
        removed: List[SubReplicaPlacement] = []
        for node_id in sorted({node_id for _, node_id in wanted}):
            bucket = self._by_node.get(node_id)
            if not bucket:
                continue
            removed.extend(
                sub
                for sub in bucket.values()
                if (sub.sub_id, sub.node_id) in wanted
            )
        if removed:
            self._discard(removed)
        return removed

    def copy(self) -> "Placement":
        """An independent placement with the same contents.

        Sub-replicas are immutable and shared; the containers (list,
        pinned map, virtual positions) are fresh, so mutating the copy —
        e.g. folding plan deltas into an archived placement — leaves the
        original untouched.
        """
        duplicate = Placement(
            pinned=dict(self.pinned),
            sub_replicas=list(self.sub_replicas),
            virtual_positions=dict(self.virtual_positions),
            overload_accepted=self.overload_accepted,
        )
        return duplicate

    def extend(self, subs: Iterable[SubReplicaPlacement]) -> None:
        """Add newly placed sub-replicas."""
        self.sub_replicas.extend(subs)
