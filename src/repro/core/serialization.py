"""Placement serialization: deployment artifacts as JSON.

An optimizer's decision has to travel: to the SPE's deployment engine, to
dashboards, and into experiment archives. This module round-trips
:class:`~repro.core.placement.Placement` objects (including virtual
positions and merge-aware charges) and the change-set engine's
:class:`~repro.core.changeset.PlanDelta` diffs through plain JSON — a base
placement plus its archived delta stream replays to the live placement —
and exports a human-oriented summary of a whole
:class:`~repro.core.optimizer.NovaSession`.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.common.errors import OptimizationError
from repro.core.changeset import PlanDelta
from repro.core.optimizer import NovaSession, PhaseTimings
from repro.core.placement import Placement, SubReplicaPlacement

FORMAT_VERSION = 1


def _sub_to_dict(sub: SubReplicaPlacement) -> Dict:
    return {
        "sub_id": sub.sub_id,
        "replica_id": sub.replica_id,
        "join_id": sub.join_id,
        "node_id": sub.node_id,
        "left_source": sub.left_source,
        "right_source": sub.right_source,
        "left_node": sub.left_node,
        "right_node": sub.right_node,
        "sink_node": sub.sink_node,
        "left_rate": sub.left_rate,
        "right_rate": sub.right_rate,
        "charged_capacity": sub.charged_capacity,
    }


def _subs_from_dicts(entries: List[Dict]) -> List[SubReplicaPlacement]:
    subs = []
    for entry in entries:
        try:
            subs.append(SubReplicaPlacement(**entry))
        except TypeError as error:
            raise OptimizationError(f"malformed sub-replica entry: {error}") from None
    return subs


def placement_to_dict(placement: Placement) -> Dict:
    """A JSON-serializable representation of a placement."""
    return {
        "version": FORMAT_VERSION,
        "pinned": dict(placement.pinned),
        "overload_accepted": placement.overload_accepted,
        "virtual_positions": {
            replica_id: [float(value) for value in position]
            for replica_id, position in placement.virtual_positions.items()
        },
        "sub_replicas": [_sub_to_dict(sub) for sub in placement.sub_replicas],
    }


def placement_from_dict(data: Dict) -> Placement:
    """Rebuild a placement from :func:`placement_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise OptimizationError(
            f"unsupported placement format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    placement = Placement(
        pinned=dict(data.get("pinned", {})),
        overload_accepted=bool(data.get("overload_accepted", False)),
    )
    for replica_id, position in data.get("virtual_positions", {}).items():
        placement.virtual_positions[replica_id] = np.asarray(position, dtype=float)
    placement.extend(_subs_from_dicts(data.get("sub_replicas", [])))
    return placement


def plan_delta_to_dict(delta: PlanDelta) -> Dict:
    """A JSON-serializable representation of a change-set's diff.

    Together with :func:`placement_to_dict`, this is the replay artifact:
    archive the base placement and each batch's delta, and
    :func:`plan_delta_from_dict` + ``PlanDelta.apply_to`` reconstruct any
    intermediate placement without re-running the optimizer.
    """
    timings = delta.timings
    return {
        "version": FORMAT_VERSION,
        "events_staged": delta.events_staged,
        "events_applied": delta.events_applied,
        "replicas_added": list(delta.replicas_added),
        "replicas_removed": list(delta.replicas_removed),
        "replicas_replaced": list(delta.replicas_replaced),
        "subs_added": [_sub_to_dict(sub) for sub in delta.subs_added],
        "subs_removed": [_sub_to_dict(sub) for sub in delta.subs_removed],
        "virtual_updated": {
            replica_id: [float(value) for value in position]
            for replica_id, position in delta.virtual_updated.items()
        },
        "virtual_invalidated": list(delta.virtual_invalidated),
        "pinned_added": dict(delta.pinned_added),
        "pinned_removed": list(delta.pinned_removed),
        "availability_delta": {
            node_id: float(diff)
            for node_id, diff in delta.availability_delta.items()
        },
        "demand_delta": float(delta.demand_delta),
        "latency_cost_delta": float(delta.latency_cost_delta),
        "overload_accepted": bool(delta.overload_accepted),
        "timings": (
            {f.name: getattr(timings, f.name) for f in fields(PhaseTimings)}
            if timings is not None
            else None
        ),
    }


def plan_delta_from_dict(data: Dict) -> PlanDelta:
    """Rebuild a plan delta from :func:`plan_delta_to_dict` output."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise OptimizationError(
            f"unsupported plan-delta format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    timings_data = data.get("timings")
    if timings_data:
        # Archives may carry counters that PhaseTimings no longer has.
        known = {spec.name for spec in fields(PhaseTimings)}
        timings_data = {k: v for k, v in timings_data.items() if k in known}
    return PlanDelta(
        events_staged=int(data.get("events_staged", 0)),
        events_applied=int(data.get("events_applied", 0)),
        replicas_added=list(data.get("replicas_added", [])),
        replicas_removed=list(data.get("replicas_removed", [])),
        replicas_replaced=list(data.get("replicas_replaced", [])),
        subs_added=_subs_from_dicts(data.get("subs_added", [])),
        subs_removed=_subs_from_dicts(data.get("subs_removed", [])),
        virtual_updated={
            replica_id: np.asarray(position, dtype=float)
            for replica_id, position in data.get("virtual_updated", {}).items()
        },
        virtual_invalidated=list(data.get("virtual_invalidated", [])),
        pinned_added=dict(data.get("pinned_added", {})),
        pinned_removed=list(data.get("pinned_removed", [])),
        availability_delta=dict(data.get("availability_delta", {})),
        demand_delta=float(data.get("demand_delta", 0.0)),
        latency_cost_delta=float(data.get("latency_cost_delta", 0.0)),
        overload_accepted=bool(data.get("overload_accepted", False)),
        timings=PhaseTimings(**timings_data) if timings_data else None,
    )


def save_placement(placement: Placement, path: Union[str, Path]) -> None:
    """Write a placement to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(placement_to_dict(placement), indent=2, sort_keys=True))


def load_placement(path: Union[str, Path]) -> Placement:
    """Read a placement from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise OptimizationError(f"invalid placement file {path}: {error}") from None
    return placement_from_dict(data)


def session_summary(session: NovaSession) -> Dict:
    """A JSON-serializable report of an optimization session.

    Covers the quantities operators monitor: per-node loads against
    capacity, partitioning degree per logical join, phase timings, and the
    overload flag. Does not include the cost space (rebuildable).
    """
    loads = session.placement.node_loads()
    nodes = []
    for node in session.topology.nodes():
        load = loads.get(node.node_id, 0.0)
        if load <= 0.0:
            continue
        nodes.append(
            {
                "node_id": node.node_id,
                "role": node.role.value,
                "capacity": node.capacity,
                "load": load,
                "utilization": load / node.capacity if node.capacity else float("inf"),
            }
        )
    joins = {
        join.op_id: session.placement.join_stats(join.op_id)
        for join in session.plan.joins()
    }
    return {
        "version": FORMAT_VERSION,
        "sigma": session.config.sigma,
        "embedding": session.config.embedding,
        "overload_accepted": session.placement.overload_accepted,
        "timings_s": {
            "cost_space": session.timings.cost_space_s,
            "resolve": session.timings.resolve_s,
            "virtual": session.timings.virtual_s,
            "physical": session.timings.physical_s,
            "total": session.timings.total_s,
        },
        "throughput": {
            "replicas_placed": session.timings.replicas_placed,
            "medians_solved": session.timings.medians_solved,
            "cells_placed": session.timings.cells_placed,
            "knn_queries": session.timings.knn_queries,
            "packing_passes": session.timings.packing_passes,
            "virtual_medians_per_s": session.timings.virtual_medians_per_s,
            "physical_cells_per_s": session.timings.physical_cells_per_s,
        },
        "packing": {
            "cursor_cache_hits": session.timings.cursor_cache_hits,
            "cursor_cache_misses": session.timings.cursor_cache_misses,
            "cursor_cache_hit_rate": session.timings.cursor_cache_hit_rate,
        },
        "state_plane": {
            # Running totals over every batch applied to this session:
            # nodes whose bucket/ledger row gained a copy-on-write
            # pre-image, and sub-replica instances copied into them.
            "journal_nodes_touched": session.timings.journal_nodes_touched,
            "copied_subs": session.timings.copied_subs,
        },
        "nodes": nodes,
        "joins": joins,
    }
