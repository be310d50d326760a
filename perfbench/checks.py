"""Correctness checks and the placement digest.

Each check returns a list of problems; an empty list means the output is
correct. Only the public ``repro`` surface is used.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, Iterable, List

from repro.core.partitioning import plan_partitions
from repro.core.placement import Placement
from repro.core.serialization import plan_delta_from_dict

#: Slack allowed on node loads (float sums of partition rates).
CAPACITY_TOLERANCE = 1e-6


def placement_digest(placement: Placement) -> str:
    """A stable digest of sorted ``(sub_id, node_id, round(charge, 9))``."""
    rows = sorted(
        (sub.sub_id, sub.node_id, round(sub.charged_capacity, 9))
        for sub in placement.sub_replicas
    )
    hasher = hashlib.sha256()
    for sub_id, node_id, charge in rows:
        hasher.update(f"{sub_id}|{node_id}|{charge!r}\n".encode())
    return hasher.hexdigest()[:16]


def check_partition_grids(placement: Placement, replicas: Iterable, config) -> List[str]:
    """Every replica's full partition grid is placed, each cell once."""
    problems: List[str] = []
    placed: Dict[str, List[str]] = defaultdict(list)
    subs = list(placement.sub_replicas)
    for sub in subs:
        placed[sub.replica_id].append(sub.sub_id)
    expected_total = 0
    for replica in replicas:
        grid = plan_partitions(
            replica.left_rate,
            replica.right_rate,
            sigma=config.sigma,
            bandwidth_threshold=config.bandwidth_threshold,
        )
        expected = {
            f"{replica.replica_id}/{i}x{j}"
            for i in range(len(grid.left_partitions))
            for j in range(len(grid.right_partitions))
        }
        expected_total += len(expected)
        got = placed.pop(replica.replica_id, [])
        if len(got) != len(expected) or set(got) != expected:
            problems.append(
                f"replica {replica.replica_id}: {len(got)} cells placed, "
                f"{len(expected)} expected"
            )
    if placed:
        problems.append(f"{len(placed)} placed replicas are not in the resolved plan")
    if len(subs) != placement.replica_count() or len(subs) != expected_total:
        problems.append(
            f"sub-join count {len(subs)} != replica_count() "
            f"{placement.replica_count()} or expected {expected_total}"
        )
    return problems


def check_capacity(placement: Placement, topology) -> List[str]:
    """No node carries more load than its capacity, unless overload was accepted."""
    if placement.overload_accepted:
        return []
    problems = []
    for node_id, load in sorted(placement.node_loads().items()):
        if node_id not in topology:
            problems.append(f"sub-joins placed on unknown node {node_id}")
            continue
        capacity = topology.node(node_id).capacity
        if load > capacity + CAPACITY_TOLERANCE:
            problems.append(f"node {node_id} load {load:.6f} > capacity {capacity:.6f}")
    return problems


def ingestion_overloads(placement: Placement, plan, topology) -> List[str]:
    """Nodes whose hosted load plus the ingestion of the sources pinned
    there exceeds capacity, unless overload was accepted.

    The planner reserves ingestion before Phase III, so a fresh plan has
    none; churn that raises a source's rate recomputes the node's headroom
    without moving what it hosts, which can leave such nodes behind.
    """
    if placement.overload_accepted:
        return []
    ingestion: Dict[str, float] = defaultdict(float)
    for operator in plan.sources():
        ingestion[operator.pinned_node] += operator.data_rate
    return [
        node_id
        for node_id, load in sorted(placement.node_loads().items())
        if node_id in topology
        and load + ingestion[node_id] > topology.node(node_id).capacity + CAPACITY_TOLERANCE
    ]


def check_plan(placement: Placement, replicas: Iterable, topology, config) -> List[str]:
    return check_partition_grids(placement, replicas, config) + check_capacity(
        placement, topology
    )


def check_replay(base: Placement, archived: Iterable[dict], live: Placement) -> List[str]:
    """Folding each archived PlanDelta, in order, into the post-setup placement
    gives the live one."""
    replayed = base.copy()
    for entry in archived:
        plan_delta_from_dict(entry["delta"]).apply_to(replayed)
    problems = []
    if placement_digest(replayed) != placement_digest(live):
        problems.append("replayed deltas do not reproduce the live placement")
    if replayed.pinned != live.pinned:
        problems.append("replayed pins differ from the live placement")
    return problems
