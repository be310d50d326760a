"""Transactional, batched churn re-optimization (the ChangeSet API).

Real churn arrives in bursts, but the original re-optimizer consumed one
event at a time: every event paid its own undeploy + ``place_replicas``
pass and mutated the session in place, with nothing observable but the
session itself — and a mid-apply failure left the session half-mutated.
This module redesigns that mutation surface around declarative
change-sets:

* :class:`ChangeSet` — an ordered batch of churn events with validation
  (the whole batch is checked against a projected
  :class:`~repro.topology.dynamics.BatchState` *before* any mutation)
  and per-node coalescing (two rate changes on one source keep only the
  last; updates to a node that a later event removes are dropped; an
  add + remove of the same worker annihilates).

* :func:`apply_changeset` — the engine behind
  ``NovaSession.apply(events)``. Events run their structural mutations
  first, only *collecting* the replicas they touch; the union —
  deduplicated across the whole batch, ordered by the last event that
  touched each replica — then goes through **one** Phase II batch
  median solve and **one** :class:`~repro.core.packing.PackingEngine`
  pass instead of one pass per event. If any mutation or the packing
  itself fails, a :class:`_SessionJournal` (availability snapshot plus
  an inverse-operation log) rolls the session back atomically:
  placement, capacity ledger, and virtual-position cache come back
  bit-identical.

* :class:`PlanDelta` — the structured diff ``apply`` returns:
  sub-replicas added/removed/moved, replicas added/removed/re-placed,
  invalidated and recomputed virtual positions, per-node availability
  deltas, demand and latency-cost deltas, and the
  :class:`~repro.core.optimizer.PhaseTimings` spent applying the batch.
  Deltas serialize (see :mod:`repro.core.serialization`) and re-apply
  to archived placements (:meth:`PlanDelta.apply_to`), so consumers —
  the SPE deployment, benchmarks, replay tooling — see *what changed*
  without diffing snapshots.

* :class:`Transaction` — ``with session.transaction() as txn:`` stages
  events and applies them as one change-set on exit.

The legacy :class:`~repro.core.reoptimizer.Reoptimizer` remains as a
thin deprecated shim over this API.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import MutableMapping
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.common.errors import OptimizationError
from repro.core.placement import Placement, SubReplicaPlacement
from repro.query.expansion import JoinPairReplica, replica_id_for
from repro.topology.dynamics import (
    AddSourceEvent,
    AddWorkerEvent,
    BatchState,
    CapacityChangeEvent,
    ChurnEvent,
    CoordinateDriftEvent,
    DataRateChangeEvent,
    EVENT_TYPES,
    RemoveNodeEvent,
    event_from_dict,
    event_to_dict,
)
from repro.topology.event_codec import TRACE_FORMAT_VERSION  # noqa: F401  (re-export)
from repro.topology.model import Node, NodeRole

_EVENT_CLASSES = tuple(EVENT_TYPES.values())


# ----------------------------------------------------------------------
# the change set
# ----------------------------------------------------------------------
class ChangeSet:
    """An ordered, coalescable batch of churn events.

    Stage events with :meth:`stage` (or the constructor), then hand the
    set to ``session.apply``. Staging type-checks immediately;
    :meth:`validate` checks the *staged* sequence against a session
    without mutating it — the same check ``apply`` runs before touching
    anything (coalescing only drops work, it never legitimizes an
    invalid event).
    """

    def __init__(self, events: Iterable[ChurnEvent] = ()) -> None:
        self._events: List[ChurnEvent] = []
        for event in events:
            self.stage(event)

    def stage(self, event: ChurnEvent) -> "ChangeSet":
        """Append one event; returns self for chaining."""
        if not isinstance(event, _EVENT_CLASSES):
            raise OptimizationError(f"unsupported churn event {event!r}")
        self._events.append(event)
        return self

    def extend(self, events: Iterable[ChurnEvent]) -> "ChangeSet":
        """Append many events; returns self for chaining."""
        for event in events:
            self.stage(event)
        return self

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self._events)

    def coalesced(self) -> List[ChurnEvent]:
        """The events that actually execute, after per-node coalescing.

        Three rules, applied in order while preserving event order:

        * *last-wins* — keyed events (rate, capacity, drift) sharing a
          ``coalesce_key`` keep only the final occurrence;
        * *subsumption* — keyed events on a node that a later
          :class:`RemoveNodeEvent` takes away are dropped (the removal
          erases their effect);
        * *annihilation* — an :class:`AddWorkerEvent` whose node a later
          event removes cancels against that removal.
        """
        events = self._events
        keep = [True] * len(events)
        last_by_key: Dict[Tuple[str, str], int] = {}
        node_updates: Dict[str, List[int]] = {}
        added_worker: Dict[str, int] = {}
        for index, event in enumerate(events):
            key = event.coalesce_key
            if key is not None:
                previous = last_by_key.get(key)
                if previous is not None:
                    keep[previous] = False
                last_by_key[key] = index
                node_updates.setdefault(event.node_id, []).append(index)
            elif isinstance(event, AddWorkerEvent):
                added_worker[event.node_id] = index
            elif isinstance(event, RemoveNodeEvent):
                node_id = event.node_id
                for update_index in node_updates.pop(node_id, []):
                    keep[update_index] = False
                add_index = added_worker.pop(node_id, None)
                if add_index is not None:
                    keep[add_index] = False
                    keep[index] = False
        return [event for index, event in enumerate(events) if keep[index]]

    def validate(self, session, events: Optional[List[ChurnEvent]] = None) -> None:
        """Check the batch against a session without mutating it.

        Validates the *staged* sequence (not the coalesced one), so a
        batch is accepted exactly when applying its events in order would
        be — coalescing can only drop work, never legitimize an invalid
        event (e.g. adding a worker that already exists and removing it
        again coalesces to nothing, but must still be rejected). Each
        event validates against the projected state its predecessors
        leave behind, so batches may reference nodes they add themselves.
        Raises the same error types the per-event API raised
        (``UnknownNodeError``, ``UnknownOperatorError``,
        ``OptimizationError``) — but *before* any session mutation.
        """
        state = BatchState.of_session(session)
        for event in events if events is not None else self._events:
            event.validate(state)

    def to_dict(self) -> Dict:
        """A JSON-serializable representation (one trace batch)."""
        return {"events": [event_to_dict(event) for event in self._events]}

    @classmethod
    def from_dict(cls, data: Dict) -> "ChangeSet":
        """Rebuild a change-set from :meth:`to_dict` output."""
        return cls(event_from_dict(entry) for entry in data.get("events", []))


# ----------------------------------------------------------------------
# the structured diff
# ----------------------------------------------------------------------
@dataclass
class PlanDelta:
    """What one applied change-set did to the session.

    ``subs_added``/``subs_removed`` are the *net* placement diff:
    sub-replica instances re-placed identically (same cell, node, and
    charge) cancel out, so the delta describes only real movement.
    ``timings`` is the :class:`~repro.core.optimizer.PhaseTimings` slice
    spent applying this batch (not the session's running totals).
    """

    events_staged: int = 0
    events_applied: int = 0
    replicas_added: List[str] = field(default_factory=list)
    replicas_removed: List[str] = field(default_factory=list)
    replicas_replaced: List[str] = field(default_factory=list)
    subs_added: List[SubReplicaPlacement] = field(default_factory=list)
    subs_removed: List[SubReplicaPlacement] = field(default_factory=list)
    virtual_updated: Dict[str, np.ndarray] = field(default_factory=dict)
    virtual_invalidated: List[str] = field(default_factory=list)
    pinned_added: Dict[str, str] = field(default_factory=dict)
    pinned_removed: List[str] = field(default_factory=list)
    availability_delta: Dict[str, float] = field(default_factory=dict)
    demand_delta: float = 0.0
    latency_cost_delta: float = 0.0
    overload_accepted: bool = False
    timings: object = None

    @property
    def moves(self) -> List[Tuple[str, str, str]]:
        """Sub-replicas that changed host: ``(sub_id, old_node, new_node)``."""
        removed_nodes = {sub.sub_id: sub.node_id for sub in self.subs_removed}
        return [
            (sub.sub_id, removed_nodes[sub.sub_id], sub.node_id)
            for sub in self.subs_added
            if sub.sub_id in removed_nodes
            and removed_nodes[sub.sub_id] != sub.node_id
        ]

    @property
    def is_empty(self) -> bool:
        """Whether the batch changed nothing observable in the placement."""
        return not (
            self.subs_added
            or self.subs_removed
            or self.replicas_added
            or self.replicas_removed
            or self.availability_delta
        )

    def apply_to(self, placement: Placement) -> Placement:
        """Fold this delta into an archived placement (mutating it).

        The replay path: a base placement plus its stream of deltas
        reconstructs the live placement without re-running the
        optimizer. Returns the same object for chaining.
        """
        placement.discard_subs(
            (sub.sub_id, sub.node_id) for sub in self.subs_removed
        )
        placement.extend(self.subs_added)
        for replica_id in self.virtual_invalidated:
            placement.virtual_positions.pop(replica_id, None)
        for replica_id, position in self.virtual_updated.items():
            placement.virtual_positions[replica_id] = np.asarray(position, dtype=float)
        for operator_id in self.pinned_removed:
            placement.pinned.pop(operator_id, None)
        placement.pinned.update(self.pinned_added)
        if self.overload_accepted:
            placement.overload_accepted = True
        return placement

    def summary_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.common.tables.render_table` reports."""
        timings = self.timings
        apply_s = timings.total_s if timings is not None else 0.0
        return [
            ["events staged / applied", f"{self.events_staged} / {self.events_applied}"],
            ["replicas re-placed", len(self.replicas_replaced)],
            ["replicas added / removed", f"{len(self.replicas_added)} / {len(self.replicas_removed)}"],
            ["sub-replicas added / removed / moved",
             f"{len(self.subs_added)} / {len(self.subs_removed)} / {len(self.moves)}"],
            ["virtual positions updated / invalidated",
             f"{len(self.virtual_updated)} / {len(self.virtual_invalidated)}"],
            ["nodes with availability change", len(self.availability_delta)],
            ["demand delta (tuples/s)", self.demand_delta],
            ["latency cost delta (ms)", self.latency_cost_delta],
            ["packing passes", timings.packing_passes if timings is not None else 0],
            ["apply time (s)", apply_s],
        ]


# ----------------------------------------------------------------------
# the transaction wrapper
# ----------------------------------------------------------------------
class Transaction:
    """Stage events against a session; apply them as one batch on exit.

    ::

        with session.transaction() as txn:
            txn.stage(DataRateChangeEvent("s1", 80.0))
            txn.stage(RemoveNodeEvent("w9"))
        print(txn.delta.summary_rows())

    Exiting with an exception applies nothing; a failure *inside* the
    batched apply rolls the session back and re-raises. ``delta`` holds
    the resulting :class:`PlanDelta` after a clean exit.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.changeset = ChangeSet()
        self.delta: Optional[PlanDelta] = None

    def stage(self, event: ChurnEvent) -> "Transaction":
        self.changeset.stage(event)
        return self

    def extend(self, events: Iterable[ChurnEvent]) -> "Transaction":
        self.changeset.extend(events)
        return self

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.delta = apply_changeset(self.session, self.changeset)
        return False


# ----------------------------------------------------------------------
# rollback machinery
# ----------------------------------------------------------------------
_ABSENT = object()


class _CowDict(MutableMapping):
    """A copy-on-write proxy over a dict the batch may mutate.

    Wraps the *same* dict by reference — reads delegate straight through —
    and records each key's pre-image on its first write. :meth:`restore`
    undoes exactly the touched keys. The journal installs one over
    ``placement.pinned`` and one over ``placement.virtual_positions`` for
    the duration of a batch, replacing the old whole-dict snapshots.
    """

    __slots__ = ("base", "_pre")

    def __init__(self, base: Dict) -> None:
        self.base = base
        self._pre: Dict = {}

    def _note(self, key) -> None:
        if key not in self._pre:
            self._pre[key] = self.base.get(key, _ABSENT)

    def __setitem__(self, key, value) -> None:
        self._note(key)
        self.base[key] = value

    def __delitem__(self, key) -> None:
        self._note(key)
        del self.base[key]

    def __getitem__(self, key):
        return self.base[key]

    def get(self, key, default=None):
        return self.base.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self.base

    def __iter__(self):
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)

    def keys(self):
        return self.base.keys()

    def values(self):
        return self.base.values()

    def items(self):
        return self.base.items()

    @property
    def touched(self) -> int:
        """Number of distinct keys written during the batch."""
        return len(self._pre)

    def restore(self) -> None:
        """Write every touched key's pre-image back into the base dict."""
        base = self.base
        for key, value in self._pre.items():
            if value is _ABSENT:
                base.pop(key, None)
            else:
                base[key] = value


class _SessionJournal:
    """Copy-on-write journal + inverse-operation log for batch rollback.

    The old journal flat-copied the placement, resolved plan, pinned map,
    virtual positions, and ledger before the first event ran — O(placement)
    per batch regardless of how little the batch touched. This one records
    pre-images *on first touch only*:

    * placement buckets — :meth:`note_sub_added`/:meth:`note_subs_removed`
      fire from :class:`~repro.core.placement.Placement` before each bucket
      mutation and snapshot the touched node/replica bucket once
      (``copied_subs`` counts what was copied);
    * the flat sub-replica view — removals only tombstone it, so a
      rollback usually just extends the tombstone map; if a mid-batch read
      compacts the view, :meth:`pin_flat` preserves the pre-batch order
      first;
    * ledger rows — the :class:`~repro.core.cost_space.AvailabilityLedger`
      reports each row's first write (:meth:`note_available`); the touched
      set doubles as the availability before-image for the
      :class:`PlanDelta` diff;
    * ``pinned`` / ``virtual_positions`` — wrapped in :class:`_CowDict`
      proxies for the batch;
    * resolved entries, topology, plan, matrix, and cost-space mutations —
      inverse closures (:meth:`undo`), replayed in reverse.

    The forward path is O(affected); rollback may be O(n) (it repairs
    touched join buckets with one pass over the restored flat view), which
    is the right trade — rollbacks are exceptional, batches are not.
    """

    def __init__(self, session) -> None:
        self.session = session
        placement = session.placement
        self._overload = placement.overload_accepted
        self._undos: List[Callable[[], None]] = []
        self._node_buckets: Dict[str, Tuple[Optional[Dict[int, SubReplicaPlacement]], Optional[float]]] = {}
        self._replica_buckets: Dict[str, Optional[Dict[int, SubReplicaPlacement]]] = {}
        self._joins_touched: Set[str] = set()
        self._added_subs: List[SubReplicaPlacement] = []
        self._pinned_flat: Optional[List[SubReplicaPlacement]] = None
        self._full_rebuild = False
        self._available: Dict[str, float] = {}
        self._total_required = placement.total_demand()
        self._count = placement.replica_count()
        self._pre_dead = placement.sub_replicas.dead_snapshot()
        #: Sub-replica instances copied into pre-images this batch — the
        #: O(affected) acceptance counter surfaced through PhaseTimings.
        self.copied_subs = len(self._pre_dead)
        self._detached = False

        placement.begin_journal(self)
        ledger = session.available
        begin = getattr(ledger, "begin_journal", None)
        if begin is not None:
            begin(self)
            self.ledger_fallback: Optional[Dict[str, float]] = None
        else:
            # Plain-dict ledgers (no write hooks) keep the old whole-copy
            # behaviour; Nova sessions always carry an AvailabilityLedger.
            self.ledger_fallback = dict(ledger)
        self._pinned_proxy = _CowDict(placement.pinned)
        placement.pinned = self._pinned_proxy
        self._virtual_proxy = _CowDict(placement.virtual_positions)
        placement.virtual_positions = self._virtual_proxy

    # -- first-touch hooks ---------------------------------------------
    def note_sub_added(self, placement, sub: SubReplicaPlacement) -> None:
        """Placement hook: ``sub`` is about to be indexed into its buckets."""
        if self._full_rebuild:
            return
        self._added_subs.append(sub)
        self._touch_node(placement, sub.node_id)
        self._touch_replica(placement, sub.replica_id)
        self._joins_touched.add(sub.join_id)

    def note_subs_removed(
        self, placement, removed: Iterable[SubReplicaPlacement]
    ) -> None:
        """Placement hook: ``removed`` are about to leave their buckets."""
        if self._full_rebuild:
            return
        for sub in removed:
            self._touch_node(placement, sub.node_id)
            self._touch_replica(placement, sub.replica_id)
            self._joins_touched.add(sub.join_id)

    def _touch_node(self, placement, node_id: str) -> None:
        if node_id in self._node_buckets:
            return
        bucket = placement._by_node.get(node_id)
        if bucket is None:
            self._node_buckets[node_id] = (None, None)
        else:
            self._node_buckets[node_id] = (
                dict(bucket),
                placement._node_load[node_id],
            )
            self.copied_subs += len(bucket)

    def _touch_replica(self, placement, replica_id: str) -> None:
        if replica_id in self._replica_buckets:
            return
        bucket = placement._by_replica.get(replica_id)
        self._replica_buckets[replica_id] = None if bucket is None else dict(bucket)
        if bucket is not None:
            self.copied_subs += len(bucket)

    def pin_flat(self, placement) -> None:
        """Preserve the pre-batch flat order before a compaction loses it.

        Fires at most once (idempotent), and only when a mid-batch read
        actually compacts the lazy view — the common batch never pays it.
        """
        if self._pinned_flat is not None or self._full_rebuild:
            return
        added = {id(sub) for sub in self._added_subs}
        pre_dead = self._pre_dead
        self._pinned_flat = [
            sub
            for sub in placement.sub_replicas.raw()
            if id(sub) not in added and id(sub) not in pre_dead
        ]
        self.copied_subs += len(self._pinned_flat)

    def note_full_rebuild(self, placement) -> None:
        """Escape hatch: the flat view is being wholesale rebuilt
        (reassignment, sort, ...) mid-batch. Pins the pre-batch list and
        falls back to snapshot-style placement restore on rollback. No
        engine path triggers this; it keeps direct mutation safe."""
        if self._full_rebuild:
            return
        self.pin_flat(placement)
        self._full_rebuild = True

    def note_available(self, backing: Dict[str, float], key: str) -> None:
        """Ledger hook: row ``key`` is about to be written or deleted."""
        if key not in self._available:
            self._available[key] = backing.get(key, _ABSENT)

    # -- counters and delta inputs -------------------------------------
    @property
    def nodes_touched(self) -> int:
        """Distinct nodes whose bucket or ledger row gained a pre-image."""
        return len(set(self._node_buckets) | set(self._available))

    def available_touched(self) -> Dict[str, float]:
        """Touched ledger rows with their pre-images (``_ABSENT`` = new)."""
        return self._available

    def undo(self, operation: Callable[[], None]) -> None:
        """Register the inverse of a structural mutation just performed."""
        self._undos.append(operation)

    # -- outcomes -------------------------------------------------------
    def _detach(self) -> None:
        if self._detached:
            return
        self._detached = True
        placement = self.session.placement
        placement.end_journal()
        end = getattr(self.session.available, "end_journal", None)
        if end is not None:
            end()
        if placement.pinned is self._pinned_proxy:
            placement.pinned = self._pinned_proxy.base
        if placement.virtual_positions is self._virtual_proxy:
            placement.virtual_positions = self._virtual_proxy.base

    def commit(self) -> None:
        """The batch succeeded: drop the hooks, keep the mutations."""
        self._detach()

    def rollback(self) -> None:
        """Restore the session to its pre-batch state, bit-identically."""
        session = self.session
        self._detach()
        for operation in reversed(self._undos):
            operation()
        # Ledger rows next: the membership undos above restored the
        # cost-space index rows, so write-through re-syncs availability.
        if self.ledger_fallback is not None:
            for key in list(session.available):
                del session.available[key]
            for key, value in self.ledger_fallback.items():
                session.available[key] = value
        else:
            for key in sorted(self._available):
                value = self._available[key]
                if value is _ABSENT:
                    session.available.pop(key, None)
                else:
                    session.available[key] = value
        self._pinned_proxy.restore()
        self._virtual_proxy.restore()
        self._restore_placement()
        session.placement.overload_accepted = self._overload

    def _restore_placement(self) -> None:
        placement = self.session.placement
        if self._full_rebuild:
            # Snapshot-style fallback: reassign the pinned pre-batch list
            # (full reindex, observers re-fire, dropped nodes zeroed). The
            # reindex re-sums the total demand from scratch, so restore
            # the running pre-batch value to stay bit-identical.
            placement.sub_replicas = list(self._pinned_flat or [])
            object.__setattr__(placement, "_total_required", self._total_required)
            return
        flat = placement.sub_replicas
        # (a) the flat view: either swap the pinned pre-batch order back
        # in, or just tombstone everything the batch appended — the next
        # read compacts back to the pre-batch sequence.
        if self._pinned_flat is not None:
            flat.replace_contents(self._pinned_flat)
        else:
            dead = dict(self._pre_dead)
            for sub in self._added_subs:
                dead[id(sub)] = sub
            flat.set_dead(dead)
        # (b) node buckets and loads, re-notifying subscribed observers.
        for node_id, (bucket, load) in self._node_buckets.items():
            if bucket is None:
                placement._by_node.pop(node_id, None)
                placement._node_load.pop(node_id, None)
            else:
                placement._by_node[node_id] = dict(bucket)
                placement._node_load[node_id] = load
            if placement._load_observers:
                placement._notify_load(
                    node_id, placement._node_load.get(node_id, 0.0)
                )
        # (c) replica buckets.
        for replica_id, bucket in self._replica_buckets.items():
            if bucket is None:
                placement._by_replica.pop(replica_id, None)
            else:
                placement._by_replica[replica_id] = dict(bucket)
        # (d) join buckets and per-join aggregates: rebuilt for the
        # touched joins in one pass over the restored flat view (bucket
        # order equals flat order filtered to the key, so this is exact).
        # A dict cannot re-insert a key at its old position, hence the pass.
        joins = self._joins_touched
        if joins:
            buckets: Dict[str, Dict[int, SubReplicaPlacement]] = {j: {} for j in joins}
            replica_counts: Dict[str, Dict[str, int]] = {j: {} for j in joins}
            host_counts: Dict[str, Dict[str, int]] = {j: {} for j in joins}
            for sub in flat:
                if sub.join_id in buckets:
                    buckets[sub.join_id][id(sub)] = sub
                    counts = replica_counts[sub.join_id]
                    counts[sub.replica_id] = counts.get(sub.replica_id, 0) + 1
                    counts = host_counts[sub.join_id]
                    counts[sub.node_id] = counts.get(sub.node_id, 0) + 1
            for join_id in joins:
                if buckets[join_id]:
                    placement._by_join[join_id] = buckets[join_id]
                    placement._join_replicas[join_id] = replica_counts[join_id]
                    placement._join_hosts[join_id] = host_counts[join_id]
                else:
                    placement._by_join.pop(join_id, None)
                    placement._join_replicas.pop(join_id, None)
                    placement._join_hosts.pop(join_id, None)
        # (e) scalars.
        object.__setattr__(placement, "_total_required", self._total_required)
        object.__setattr__(placement, "_count", self._count)


def _sub_cost(cost_space, sub: SubReplicaPlacement) -> float:
    """Cost-space latency footprint of one placed sub-join.

    Distance from the hosting node to the sub-join's pinned endpoints
    (sources and sink) — the quantity Phase II/III minimize. Nodes no
    longer embedded contribute nothing.
    """
    if sub.node_id not in cost_space:
        return 0.0
    total = 0.0
    for endpoint in (sub.left_node, sub.right_node, sub.sink_node):
        if endpoint in cost_space:
            total += cost_space.distance(sub.node_id, endpoint)
    return total


# ----------------------------------------------------------------------
# the batch applier
# ----------------------------------------------------------------------
class _BatchApplier:
    """Runs each event's structural mutations, collecting the re-placement
    union instead of placing per event.

    Handlers mirror the legacy per-event re-optimizer exactly — same
    ledger math, same descriptor rebuilds — minus the per-event
    ``place_replicas`` call. Replicas touched by several events are
    collected once, ordered by the *last* event that touched them (which
    is the order the final sequential pass would have used).
    """

    def __init__(self, session, journal: _SessionJournal) -> None:
        self.session = session
        self.journal = journal
        self.affected: Dict[str, JoinPairReplica] = {}
        self.removed_subs: List[SubReplicaPlacement] = []
        self._removed_costs: Dict[int, float] = {}
        self.replicas_added: List[str] = []
        self.replicas_removed: List[str] = []
        self.pinned_added: Dict[str, str] = {}
        self.pinned_removed: List[str] = []

    # -- shared helpers -------------------------------------------------
    def _touch(self, replica: JoinPairReplica) -> None:
        """(Re-)schedule a replica for the final packing pass."""
        self.affected.pop(replica.replica_id, None)
        self.affected[replica.replica_id] = replica

    def _undeploy(self, replica_id: str, keep_position: bool = False) -> None:
        """Undeploy a replica's sub-joins, crediting the ledger.

        Records each removed sub (and its cost-space footprint, while
        every involved node is still embedded) for the delta.
        """
        session = self.session
        positions = session.placement.virtual_positions
        saved = positions.get(replica_id) if keep_position else None
        for sub in session.placement.remove_replica(replica_id):
            if sub.node_id in session.available:
                session.available[sub.node_id] += sub.charged_capacity
            self.removed_subs.append(sub)
            self._removed_costs[id(sub)] = _sub_cost(session.cost_space, sub)
        if saved is not None:
            positions[replica_id] = saved

    def removed_cost(self, subs: Iterable[SubReplicaPlacement]) -> float:
        """Summed recorded footprint of the given removed subs."""
        return sum(self._removed_costs.get(id(sub), 0.0) for sub in subs)

    # -- dispatch -------------------------------------------------------
    def dispatch(self, event: ChurnEvent) -> None:
        if isinstance(event, AddWorkerEvent):
            self.add_worker(event)
        elif isinstance(event, AddSourceEvent):
            self.add_source(event)
        elif isinstance(event, RemoveNodeEvent):
            self.remove_node(event.node_id)
        elif isinstance(event, DataRateChangeEvent):
            self.change_data_rate(event.node_id, event.new_rate)
        elif isinstance(event, CapacityChangeEvent):
            self.change_capacity(event.node_id, event.new_capacity)
        elif isinstance(event, CoordinateDriftEvent):
            self.update_coordinates(event.node_id, event.neighbor_latencies_ms)
        else:  # pragma: no cover - staging already type-checked
            raise OptimizationError(f"unsupported churn event {event!r}")

    # -- additions ------------------------------------------------------
    def add_worker(self, event: AddWorkerEvent) -> None:
        session = self.session
        journal = self.journal
        node_id = event.node_id
        session.topology.add_node(
            Node(node_id, capacity=event.capacity, role=NodeRole.WORKER)
        )
        journal.undo(lambda: session.topology.remove_node(node_id))
        session.cost_space.add_node(node_id, event.neighbor_latencies_ms)
        journal.undo(lambda: session.cost_space.remove_node(node_id))
        session.available[node_id] = event.capacity

    def add_source(self, event: AddSourceEvent) -> None:
        session = self.session
        journal = self.journal
        node_id = event.node_id
        session.topology.add_node(
            Node(node_id, capacity=event.capacity, role=NodeRole.SOURCE)
        )
        journal.undo(lambda: session.topology.remove_node(node_id))
        session.cost_space.add_node(node_id, event.neighbor_latencies_ms)
        journal.undo(lambda: session.cost_space.remove_node(node_id))
        # Ingestion consumes the new source's own capacity (cf. optimize()).
        session.available[node_id] = max(event.capacity - event.data_rate, 0.0)

        join = next(
            (j for j in session.plan.joins() if event.logical_stream in j.inputs),
            None,
        )
        if join is None:  # pragma: no cover - validation caught this
            raise OptimizationError(
                f"no join consumes logical stream {event.logical_stream!r}"
            )
        session.plan.add_source(
            node_id,
            node=node_id,
            rate=event.data_rate,
            logical_stream=event.logical_stream,
        )
        journal.undo(lambda: session.plan.remove_operator(node_id))
        left_stream, _ = join.inputs
        if event.logical_stream == left_stream:
            session.matrix.add_left(node_id)
            session.matrix.allow(node_id, event.partner_source)
            left_id, right_id = node_id, event.partner_source
        else:
            session.matrix.add_right(node_id)
            session.matrix.allow(event.partner_source, node_id)
            left_id, right_id = event.partner_source, node_id
        journal.undo(lambda: session.matrix.remove_source(node_id))

        sink = session.plan.sink_of_join(join.op_id)
        left_op = session.plan.operator(left_id)
        right_op = session.plan.operator(right_id)
        replica = JoinPairReplica(
            replica_id=replica_id_for(join.op_id, left_id, right_id),
            join_id=join.op_id,
            left_source=left_id,
            right_source=right_id,
            left_node=left_op.pinned_node,
            right_node=right_op.pinned_node,
            sink_id=sink.op_id,
            sink_node=sink.pinned_node,
            left_rate=left_op.data_rate,
            right_rate=right_op.data_rate,
        )
        session.resolved.add(replica)
        journal.undo(
            lambda replica_id=replica.replica_id: session.resolved.discard(
                [replica_id]
            )
        )
        self.replicas_added.append(replica.replica_id)
        session.placement.pinned[node_id] = node_id
        self.pinned_added[node_id] = node_id
        self._touch(replica)

    # -- removals -------------------------------------------------------
    def _migrate_sinks(self, node_id: str) -> None:
        """Re-pin sink operators hosted on a leaving node.

        Picks the nearest surviving embedded node (validation only
        guaranteed *a* survivor exists; proximity is an apply-time
        decision), re-pins the sink operator, and re-anchors every
        replica of the joins feeding it — their sink endpoint moved, so
        their cached virtual positions are dropped and they rejoin the
        batch's re-placement union. Runs while the leaving node is still
        embedded, so the proximity query is meaningful. If a later event
        in the same batch removes the chosen host too, its own removal
        simply migrates the sink again.
        """
        session = self.session
        journal = self.journal
        sinks_here = [
            op for op in session.plan.sinks() if op.pinned_node == node_id
        ]
        if not sinks_here:
            return
        candidates = session.cost_space.knn(
            session.cost_space.position(node_id), k=8, exclude={node_id}
        )
        if not candidates:
            raise OptimizationError(
                f"cannot migrate sink off {node_id!r}: no surviving node is "
                "embedded in the cost space"
            )
        new_host = candidates[0][0]
        for sink_op in sinks_here:
            old_host = sink_op.pinned_node
            sink_op.pinned_node = new_host
            journal.undo(
                lambda op=sink_op, host=old_host: setattr(op, "pinned_node", host)
            )
            if session.placement.pinned.get(sink_op.op_id) is not None:
                session.placement.pinned[sink_op.op_id] = new_host
                self.pinned_added[sink_op.op_id] = new_host
            olds: List[JoinPairReplica] = []
            rebuilt: List[JoinPairReplica] = []
            for join in session.plan.joins():
                if session.plan.sink_of_join(join.op_id).op_id != sink_op.op_id:
                    continue
                for current in session.resolved.replicas_of_join(join.op_id):
                    self._undeploy(current.replica_id)
                    olds.append(current)
                    rebuilt.append(replace(current, sink_node=new_host))
            if rebuilt:
                session.resolved.replace_many(rebuilt)
                journal.undo(
                    lambda olds=tuple(olds): session.resolved.replace_many(olds)
                )
                for replica in rebuilt:
                    self._touch(replica)

    def remove_node(self, node_id: str) -> None:
        session = self.session
        journal = self.journal
        node = session.topology.node(node_id)
        self._migrate_sinks(node_id)

        deleted_ids: Set[str] = set()
        if (
            node.role == NodeRole.SOURCE
            and node_id in session.matrix.left_ids + session.matrix.right_ids
        ):
            side = "left" if node_id in session.matrix.left_ids else "right"
            position = (
                session.matrix.left_ids.index(node_id)
                if side == "left"
                else session.matrix.right_ids.index(node_id)
            )
            removed_pairs = session.matrix.remove_source(node_id)
            journal.undo(
                lambda: session.matrix.restore_source(
                    node_id, side, position, removed_pairs
                )
            )
            for left_id, right_id in removed_pairs:
                for join in session.plan.joins():
                    replica_id = replica_id_for(join.op_id, left_id, right_id)
                    if replica_id in session.resolved:
                        self._undeploy(replica_id)
                        deleted_ids.add(replica_id)
            if deleted_ids:
                # Record (slot, entry) pairs so rollback reinserts each
                # replica exactly where it sat, instead of snapshotting
                # the whole resolved list up front.
                entries = sorted(
                    (
                        (session.resolved.position(rid), session.resolved.replica(rid))
                        for rid in deleted_ids
                    ),
                    key=lambda entry: entry[0],
                )
                journal.undo(
                    lambda entries=entries: session.resolved.restore(entries)
                )
            session.resolved.discard(deleted_ids)
            for replica_id in sorted(deleted_ids):
                self.affected.pop(replica_id, None)
                self.replicas_removed.append(replica_id)
            if node_id in session.plan:
                operator = session.plan.remove_operator(node_id)
                journal.undo(lambda: session.plan.add_operator(operator))
            if session.placement.pinned.pop(node_id, None) is not None:
                self.pinned_removed.append(node_id)
        # Any node may additionally host sub-joins of other replicas;
        # those replicas join the batch's re-placement union.
        replica_ids = {
            s.replica_id for s in session.placement.subs_on_node(node_id)
        } - deleted_ids
        for replica_id in sorted(replica_ids):
            self._undeploy(replica_id)
            self._touch(session.replica_by_id(replica_id))

        session.available.pop(node_id, None)
        if node_id in session.cost_space:
            old_position = session.cost_space.position(node_id).copy()
            session.cost_space.remove_node(node_id)
            journal.undo(
                lambda: session.cost_space.restore_node(node_id, old_position)
            )
        incident = [
            session.topology.link(node_id, neighbor)
            for neighbor in session.topology.neighbors(node_id)
        ]
        try:
            geometric_position = session.topology.position(node_id).copy()
        except Exception:
            geometric_position = None
        removed_node = session.topology.remove_node(node_id)

        def restore_topology_node() -> None:
            session.topology.add_node(removed_node, position=geometric_position)
            for link in incident:
                session.topology.add_link(
                    link.u, link.v, link.latency_ms, link.bandwidth
                )

        journal.undo(restore_topology_node)

    # -- workload changes ----------------------------------------------
    def change_data_rate(self, source_id: str, new_rate: float) -> None:
        session = self.session
        operator = session.plan.operator(source_id)
        old_rate = operator.data_rate
        operator.data_rate = float(new_rate)
        self.journal.undo(lambda: setattr(operator, "data_rate", old_rate))

        # The source index yields exactly the replicas this source feeds.
        # The (unweighted) geometric median is rate-independent, so each
        # replica's virtual position survives the undeploy and the final
        # pass skips its Phase II solve.
        for replica in session.resolved.replicas_of_source(source_id):
            self._undeploy(replica.replica_id, keep_position=True)
            current = session.resolved.replica(replica.replica_id)
            rebuilt = replace(
                current,
                left_rate=new_rate if current.left_source == source_id else current.left_rate,
                right_rate=new_rate if current.right_source == source_id else current.right_rate,
            )
            session.resolved.replace(rebuilt)
            self.journal.undo(
                lambda current=current: session.resolved.replace(current)
            )
            self._touch(rebuilt)
        # Recompute the source node's headroom absolutely against what is
        # still hosted there (incremental adjustment would drift once the
        # clamp at zero has been hit).
        node_id = operator.pinned_node
        if node_id in session.available:
            node = session.topology.node(node_id)
            hosted = session.placement.node_load(node_id)
            session.available[node_id] = max(node.capacity - new_rate, 0.0) - hosted

    def change_capacity(self, node_id: str, new_capacity: float) -> None:
        session = self.session
        node = session.topology.node(node_id)
        ingestion = sum(op.data_rate for op in session.plan.sources_on_node(node_id))
        hosted = session.placement.node_load(node_id)
        headroom = max(float(new_capacity) - ingestion, 0.0)
        old_capacity = node.capacity
        node.capacity = float(new_capacity)
        self.journal.undo(lambda: setattr(node, "capacity", old_capacity))
        if headroom >= hosted:
            # Fast path: the new capacity covers everything hosted here, so
            # nothing needs to move — only the availability changes (an
            # increase bumps the mutation epoch through the ledger).
            session.available[node_id] = headroom - hosted
            return
        replica_ids = {s.replica_id for s in session.placement.subs_on_node(node_id)}
        for replica_id in sorted(replica_ids):
            self._undeploy(replica_id)
            self._touch(session.replica_by_id(replica_id))
        # After undeploying everything hosted here, availability is the new
        # capacity minus the ingestion load of sources pinned to this node.
        session.available[node_id] = headroom

    def update_coordinates(
        self, node_id: str, neighbor_latencies_ms: Dict[str, float]
    ) -> None:
        session = self.session
        old_position = session.cost_space.position(node_id).copy()
        session.cost_space.update_node(node_id, neighbor_latencies_ms)

        def restore_position() -> None:
            session.cost_space.remove_node(node_id)
            session.cost_space.restore_node(node_id, old_position)

        self.journal.undo(restore_position)
        # The pinned-node index yields the anchored replicas directly; the
        # anchor moved, so their precomputed medians are stale (undeploy
        # drops the cached virtual positions).
        affected_ids: Set[str] = {
            replica.replica_id
            for replica in session.resolved.replicas_of_node(node_id)
        }
        affected_ids.update(
            sub.replica_id for sub in session.placement.subs_on_node(node_id)
        )
        for replica_id in sorted(affected_ids):
            self._undeploy(replica_id)
            self._touch(session.replica_by_id(replica_id))


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def apply_changeset(session, changeset: ChangeSet) -> PlanDelta:
    """Apply a change-set to a session atomically; return its delta.

    Stage → coalesce → validate → mutate (collecting the affected-replica
    union) → one batched solve-and-pack pass → diff. Any failure after
    validation rolls the session back bit-identically and re-raises.
    """
    if not isinstance(changeset, ChangeSet):
        changeset = ChangeSet(changeset)
    staged = len(changeset)
    # The staged sequence is validated (sequential-equivalent acceptance);
    # the coalesced one executes.
    changeset.validate(session)
    events = changeset.coalesced()

    timings_before = replace(session.timings)
    demand_before = session.placement.total_demand()
    overload_before = session.placement.overload_accepted

    journal = _SessionJournal(session)
    applier = _BatchApplier(session, journal)
    try:
        for event in events:
            applier.dispatch(event)
        affected = list(applier.affected.values())
        placed = session.place_replicas(affected) if affected else []
    except Exception:
        journal.rollback()
        raise
    journal.commit()
    session.timings.journal_nodes_touched += journal.nodes_touched
    session.timings.copied_subs += journal.copied_subs

    # ------------------------------------------------------------------
    # structured diff
    # ------------------------------------------------------------------
    added_counts = Counter(placed)
    net_removed: List[SubReplicaPlacement] = []
    for sub in applier.removed_subs:
        if added_counts.get(sub, 0) > 0:
            added_counts[sub] -= 1
        else:
            net_removed.append(sub)
    removed_counts = Counter(applier.removed_subs)
    net_added: List[SubReplicaPlacement] = []
    for sub in placed:
        if removed_counts.get(sub, 0) > 0:
            removed_counts[sub] -= 1
        else:
            net_added.append(sub)

    added_set = set(applier.replicas_added)
    removed_set = set(applier.replicas_removed)
    replicas_added = [r for r in applier.replicas_added if r not in removed_set]
    replicas_removed = [r for r in applier.replicas_removed if r not in added_set]
    # Same net-filter for pins: a source added and removed within one
    # batch must not replay a pin for a node absent from the final state.
    pinned_removed_set = set(applier.pinned_removed)
    pinned_added = {
        op_id: node_id
        for op_id, node_id in applier.pinned_added.items()
        if op_id not in pinned_removed_set
    }
    pinned_removed = [
        op_id for op_id in applier.pinned_removed if op_id not in applier.pinned_added
    ]

    positions = session.placement.virtual_positions
    virtual_updated = {
        replica_id: positions[replica_id]
        for replica_id in applier.affected
        if replica_id in positions
    }

    # The availability diff reads only the rows the batch wrote (the
    # journal's touched set) — untouched rows cannot have moved.
    availability_delta: Dict[str, float] = {}
    if journal.ledger_fallback is not None:
        available_after = dict(session.available)
        for key in sorted(set(journal.ledger_fallback) | set(available_after)):
            diff = available_after.get(key, 0.0) - journal.ledger_fallback.get(key, 0.0)
            if diff != 0.0:
                availability_delta[key] = diff
    else:
        touched = journal.available_touched()
        for key in sorted(touched):
            before = touched[key]
            before_value = 0.0 if before is _ABSENT else before
            diff = session.available.get(key, 0.0) - before_value
            if diff != 0.0:
                availability_delta[key] = diff

    cost_space = session.cost_space
    latency_cost_delta = sum(
        _sub_cost(cost_space, sub) for sub in net_added
    ) - applier.removed_cost(net_removed)

    return PlanDelta(
        events_staged=staged,
        events_applied=len(events),
        replicas_added=replicas_added,
        replicas_removed=replicas_removed,
        replicas_replaced=list(applier.affected),
        subs_added=net_added,
        subs_removed=net_removed,
        virtual_updated=virtual_updated,
        virtual_invalidated=list(replicas_removed),
        pinned_added=pinned_added,
        pinned_removed=pinned_removed,
        availability_delta=availability_delta,
        demand_delta=session.placement.total_demand() - demand_before,
        latency_cost_delta=latency_cost_delta,
        overload_accepted=session.placement.overload_accepted and not overload_before,
        timings=session.timings.since(timings_before),
    )
