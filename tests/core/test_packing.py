"""The Phase III packing engine: shared cursor cache and nearest-host search."""

import numpy as np
import pytest

from repro.core import packing
from repro.core.assignment import place_replica
from repro.core.config import NovaConfig
from repro.core.cost_space import AvailabilityLedger, CostSpace
from repro.core.packing import PackingEngine, _walk_cells
from repro.core.partitioning import plan_partitions
from repro.query.expansion import JoinPairReplica


def make_replica(index, left_node, right_node, sink_node, rate=10.0):
    return JoinPairReplica(
        replica_id=f"r{index}",
        join_id="join",
        left_source=f"L{index}",
        right_source=f"R{index}",
        left_node=left_node,
        right_node=right_node,
        sink_id="sink_op",
        sink_node=sink_node,
        left_rate=rate,
        right_rate=rate,
    )


def cluster_scenario(seed=0, clusters=4, nodes_per_cluster=40, replicas_per_cluster=8):
    """Widely separated clusters: cross-cluster interaction is impossible.

    Each replica's virtual position sits inside its own cluster, every
    candidate ring eventually reaches other clusters only at distances no
    placement will ever prefer, and capacities are generous.
    """
    rng = np.random.default_rng(seed)
    centers = [np.array([50_000.0 * i, 20_000.0 * (i % 2)]) for i in range(clusters)]
    coords = {}
    jobs = []
    for c, center in enumerate(centers):
        ids = []
        for i in range(nodes_per_cluster):
            node_id = f"c{c}n{i}"
            coords[node_id] = center + rng.normal(scale=3.0, size=2)
            ids.append(node_id)
        for r in range(replicas_per_cluster):
            replica = make_replica(f"{c}_{r}", ids[0], ids[1], ids[2], rate=5.0 + r)
            position = center + rng.normal(scale=2.0, size=2)
            jobs.append((replica, position))
    rng.shuffle(jobs)
    capacities = {node_id: 200.0 for node_id in coords}
    return coords, capacities, jobs


def run_engine(coords, capacities, jobs, **config_overrides):
    config = NovaConfig(seed=1, **config_overrides)
    cost_space = CostSpace(coords, config)
    available = AvailabilityLedger(cost_space, backing=dict(capacities))
    engine = PackingEngine(cost_space, config)
    outcomes = engine.pack(jobs, available)
    return engine, available, outcomes


def placement_signature(outcomes):
    return [
        (sub.sub_id, sub.node_id, round(sub.charged_capacity, 9))
        for outcome in outcomes
        for sub in outcome.subs
    ]


class TestSharedCursorCache:
    def test_rings_shared_across_replicas(self):
        coords, capacities, jobs = cluster_scenario(seed=2, clusters=1)
        engine, _, _ = run_engine(coords, capacities, jobs, packing_bucket_grid=4)
        stats = engine.stats
        assert stats.cursor_cache_hits > 0
        assert stats.cursor_cache_misses >= 1
        # One tight cluster: far fewer rings than (replica, demand) pairs.
        assert engine.cached_rings < len(jobs)

    def test_bucket_grid_does_not_change_placements(self):
        coords, capacities, jobs = cluster_scenario(seed=11)
        reference = None
        for grid in (8, 32, 128):
            _, _, outcomes = run_engine(
                coords, capacities, jobs, packing_bucket_grid=grid
            )
            signature = placement_signature(outcomes)
            if reference is None:
                reference = signature
            else:
                # The cache is a pure performance structure: the engine
                # always places on the provably nearest qualifying host,
                # so bucketing granularity must be placement-invariant.
                assert signature == reference

    def test_capacity_increase_invalidates_cache(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(10)}
        coords["near"] = np.array([0.0, 0.45])
        cost_space = CostSpace(coords, config)
        capacities = {node_id: 100.0 for node_id in coords}
        capacities["near"] = 0.0  # saturated: excluded from the first ring
        available = AvailabilityLedger(cost_space, backing=capacities)
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.5])
        first = engine.place_replica(make_replica(0, "n5", "n6", "n7"), position, available)
        assert "near" not in {sub.node_id for sub in first.subs}
        assert engine.cached_rings > 0
        # Capacity returns (an undeploy): the epoch bump must flush the
        # rings, and the next replica must see the revived nearest node.
        available["near"] = 500.0
        second = engine.place_replica(make_replica(1, "n5", "n6", "n7"), position, available)
        assert engine.stats.knn_queries >= 2
        assert {sub.node_id for sub in second.subs} == {"near"}

    def test_remove_node_invalidates_cache(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(12)}
        cost_space = CostSpace(coords, config)
        available = AvailabilityLedger(
            cost_space, backing={node_id: 50.0 for node_id in coords}
        )
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.1])
        first = engine.place_replica(make_replica(0, "n8", "n9", "n10"), position, available)
        host = first.subs[0].node_id
        rings_before = engine.cached_rings
        assert rings_before > 0
        available.pop(host, None)
        cost_space.remove_node(host)
        second = engine.place_replica(make_replica(1, "n8", "n9", "n10"), position, available)
        assert host not in {sub.node_id for sub in second.subs}

    def test_decreases_do_not_invalidate(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(12)}
        cost_space = CostSpace(coords, config)
        available = AvailabilityLedger(
            cost_space, backing={node_id: 50.0 for node_id in coords}
        )
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.1])
        engine.place_replica(make_replica(0, "n8", "n9", "n10"), position, available)
        epoch = cost_space.mutation_epoch
        misses = engine.stats.cursor_cache_misses
        engine.place_replica(make_replica(1, "n8", "n9", "n10"), position, available)
        assert cost_space.mutation_epoch == epoch
        assert engine.stats.cursor_cache_misses == misses  # pure cache hits
        assert engine.stats.cursor_cache_hits > 0


class TestWrapperCompatibility:
    def test_place_replica_matches_engine(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i % 5), float(i // 5)]) for i in range(25)}
        replica = make_replica(0, "n1", "n2", "n3", rate=12.0)
        position = np.array([1.0, 1.0])

        cost_space = CostSpace(coords, config)
        backing = {node_id: 60.0 for node_id in coords}
        wrapper_outcome = place_replica(
            replica, position, cost_space, dict(backing), config
        )

        cost_space2 = CostSpace(coords, config)
        engine = PackingEngine(cost_space2, config)
        engine_outcome = engine.place_replica(replica, position, dict(backing))

        assert [(s.sub_id, s.node_id) for s in wrapper_outcome.subs] == [
            (s.sub_id, s.node_id) for s in engine_outcome.subs
        ]
        assert wrapper_outcome.overload_accepted == engine_outcome.overload_accepted

    def test_spread_fallback_still_flags_overload(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(4)}
        cost_space = CostSpace(coords, config)
        available = {node_id: 1.0 for node_id in coords}
        replica = make_replica(0, "n0", "n1", "n2", rate=50.0)
        outcome = place_replica(
            replica, np.array([0.0, 0.0]), cost_space, available, config
        )
        assert outcome.overload_accepted
        assert outcome.subs


# -- brute-force nearest-host oracle -------------------------------------
LEG_RING = "ring"
LEG_DIRECT = "direct"
LEG_BUFFERED = "buffered"
LEGS = (LEG_RING, LEG_DIRECT, LEG_BUFFERED)

# (kind, seed). "clustered" nodes sit in a few blobs with generous room;
# "tight" uses the same blobs with too little room, so the spread
# fallback has to run; "fine" spreads nodes uniformly and uses
# sigma=0.1, so every replica splits into many small cells that drain
# small nodes and force rings and direct cursors to grow;
# "lattice" puts nodes on an integer grid and replicas between them, so
# several hosts sit at exactly the same distance.
ORACLE_INSTANCES = (
    [("clustered", seed) for seed in range(20, 28)]
    + [("fine", seed) for seed in range(10, 16)]
    + [("tight", seed) for seed in range(21, 24)]
    + [("lattice", seed) for seed in range(201, 204)]
)
# The direct path orders equal distances as the index returns them, not
# by node id, so exact ties are checked on the two exact ring paths only.
ORACLE_CASES = [
    (leg, kind, seed)
    for kind, seed in ORACLE_INSTANCES
    for leg in LEGS
    if not (kind == "lattice" and leg == LEG_DIRECT)
]
CAPACITY_RANGE = {
    "clustered": (5.0, 80.0),
    "fine": (3.0, 15.0),
    "tight": (0.0, 4.0),
    "lattice": (5.0, 40.0),
}


def oracle_instance(kind, seed):
    """A random instance below ``exact_proof_limit``.

    Returns node coordinates, capacities, jobs and config overrides.
    Left and right rates differ per replica so partition grids are
    rectangular; bucket grid and minimum capacity vary with the seed.
    """
    rng = np.random.default_rng(seed)
    overrides = {
        "packing_bucket_grid": int(rng.choice([4, 32, 128])),
        "min_available_capacity": float(rng.choice([0.0, 2.0])),
    }
    if kind == "fine":
        overrides["sigma"] = 0.1
    if kind == "lattice":
        side = int(rng.integers(10, 24))
        points = [np.array([float(i % side), float(i // side)]) for i in range(side * side)]
    elif kind in ("clustered", "tight"):
        centers = rng.uniform(0.0, 200.0, size=(int(rng.integers(2, 6)), 2))
        points = [
            centers[int(rng.integers(len(centers)))] + rng.normal(scale=12.0, size=2)
            for _ in range(int(rng.integers(120, 600)))
        ]
    else:
        points = list(rng.uniform(0.0, 200.0, size=(int(rng.integers(150, 600)), 2)))
    coords = {f"n{i:03d}": point for i, point in enumerate(points)}
    ids = sorted(coords)
    low, high = CAPACITY_RANGE[kind]
    capacities = {node_id: float(rng.uniform(low, high)) for node_id in ids}
    jobs = []
    for r in range(len(ids) // 8):
        left, right, sink = (ids[int(k)] for k in rng.integers(0, len(ids), size=3))
        replica = JoinPairReplica(
            replica_id=f"r{r}",
            join_id="join",
            left_source=f"L{r}",
            right_source=f"R{r}",
            left_node=left,
            right_node=right,
            sink_id="sink_op",
            sink_node=sink,
            left_rate=float(rng.uniform(1.0, 30.0)),
            right_rate=float(rng.uniform(1.0, 30.0)),
        )
        if kind == "lattice":
            position = rng.integers(0, side, size=2).astype(float) + 0.5
        elif kind in ("clustered", "tight"):
            position = centers[int(rng.integers(len(centers)))] + rng.normal(
                scale=10.0, size=2
            )
        else:
            position = rng.uniform(0.0, 200.0, size=2)
        jobs.append((replica, position))
    return coords, capacities, jobs, overrides


def brute_force_pack(coords, capacities, jobs, config):
    """The packing loop with every index query replaced by a full scan.

    Fresh hosts are the minimum of (squared distance, node id) over every
    node with enough room; spread candidates are the true k nearest
    nodes. The grid walk itself is the engine's own ``_walk_cells``.
    """
    ids = sorted(coords)
    points = np.vstack([coords[node_id] for node_id in ids])
    ledger = dict(capacities)
    c_min = config.min_available_capacity
    placed = []
    for replica, position in jobs:
        diffs = points - np.asarray(position, dtype=float)
        d2 = np.einsum("ij,ij->i", diffs, diffs)

        def fresh_host(demand, d2=d2):
            need = max(demand, c_min, 1e-12)
            room = np.array([ledger.get(node_id, 0.0) for node_id in ids])
            candidates = np.nonzero(room >= need)[0]
            if not len(candidates):
                return None
            nearest = candidates[d2[candidates] == d2[candidates].min()]
            return ids[int(nearest[0])]  # ids are sorted: minimal id wins

        def spread(count, d2=d2):
            order = sorted(range(len(ids)), key=lambda k: (d2[k], ids[k]))
            return [(ids[k], float(np.sqrt(d2[k]))) for k in order[: max(count, 4)]]

        partitioning = plan_partitions(
            replica.left_rate,
            replica.right_rate,
            sigma=config.sigma,
            bandwidth_threshold=config.bandwidth_threshold,
        )
        cells, overload = _walk_cells(partitioning, ledger, fresh_host, spread, c_min)
        placed.append(
            (
                [
                    (f"{replica.replica_id}/{i}x{j}", node_id, charged)
                    for node_id, i, j, charged in cells
                ],
                overload,
            )
        )
    return placed, ledger


def churn_before_packing(coords, capacities, jobs, config):
    """A cost space whose index holds add-buffer rows when packing starts.

    About a tenth of the nodes enter after the build; one tree node is
    re-added at drifted coordinates (next to the first replica, so it is
    likely to host), and one buffered node is removed again while its
    capacity stays in the ledger. Returns the cost space, the live
    coordinates the oracle must search, and the ids that sit in the
    add-buffer.
    """
    ids = sorted(coords)
    late = ids[::10]
    drifted, removed = ids[5], late[1]
    cost_space = CostSpace({k: v for k, v in coords.items() if k not in late}, config)
    for node_id in late:
        cost_space.restore_node(node_id, coords[node_id])
    live = dict(coords)
    live[drifted] = np.asarray(jobs[0][1], dtype=float) + 0.25
    cost_space.remove_node(drifted)
    cost_space.restore_node(drifted, live[drifted])
    cost_space.remove_node(removed)
    del live[removed]
    buffered = (set(late) - {removed}) | {drifted}
    return cost_space, live, buffered


def count_calls(monkeypatch, name):
    calls = {"n": 0}
    original = getattr(packing._RingView, name)

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(packing._RingView, name, counted)
    return calls


class TestNearestHostOracle:
    """``PackingEngine.pack`` equals a brute-force search, replica by replica."""

    @pytest.mark.parametrize("leg,kind,seed", ORACLE_CASES)
    def test_pack_matches_brute_force(self, monkeypatch, leg, kind, seed):
        coords, capacities, jobs, overrides = oracle_instance(kind, seed)
        config = NovaConfig(seed=1, **overrides)
        assert len(coords) < config.exact_proof_limit
        paths = {
            LEG_RING: "_nearest_screened",
            LEG_DIRECT: "_nearest_direct",
            LEG_BUFFERED: "_nearest_screened",
        }
        calls = count_calls(monkeypatch, paths[leg])
        fetched = []
        fetch = PackingEngine._fetch

        def recording_fetch(self, ring):
            fetched.append(ring)
            fetch(self, ring)

        monkeypatch.setattr(PackingEngine, "_fetch", recording_fetch)
        if leg == LEG_DIRECT:
            monkeypatch.setattr(packing, "_DIRECT_QUERY_MIN", 16)
        if leg == LEG_BUFFERED:
            cost_space, coords, buffered = churn_before_packing(
                coords, capacities, jobs, config
            )
        else:
            cost_space = CostSpace(coords, config)
        available = AvailabilityLedger(cost_space, backing=dict(capacities))
        outcomes = PackingEngine(cost_space, config).pack(jobs, available)

        expected, ledger = brute_force_pack(coords, capacities, jobs, config)
        assert len(outcomes) == len(expected)
        for outcome, (cells, overload) in zip(outcomes, expected):
            assert [
                (sub.sub_id, sub.node_id, sub.charged_capacity) for sub in outcome.subs
            ] == cells
            assert outcome.overload_accepted == overload
        assert dict(available) == ledger
        assert calls["n"] > 0, f"the {leg} leg never ran {paths[leg]}"
        assert fetched
        for ring in fetched:
            assert ring.rows.dtype == np.intp and len(ring.rows) == len(ring.points)
        if leg == LEG_BUFFERED:
            # Buffered nodes reach the rings as rows, not through a detour.
            ring_ids = {
                cost_space.node_id_of_row(row) for ring in fetched for row in ring.rows
            }
            assert ring_ids & buffered
        if kind == "tight":
            assert any(outcome.overload_accepted for outcome in outcomes)


class TestChurnedSessionStaysOnRows:
    """Churn must not push a session's rings off the row-based path."""

    def test_rings_keep_rows_after_add_and_drift(self, monkeypatch):
        from repro.core.optimizer import Nova
        from repro.topology.dynamics import AddWorkerEvent, CoordinateDriftEvent
        from repro.topology.latency import DenseLatencyMatrix
        from repro.workloads.synthetic import synthetic_opp_workload

        workload = synthetic_opp_workload(300, seed=3)
        latency = DenseLatencyMatrix.from_topology(workload.topology)
        session = Nova(NovaConfig(seed=3)).optimize(
            workload.topology, workload.plan, workload.matrix, latency=latency
        )
        hosts = sorted({sub.node_id for sub in session.placement.sub_replicas})
        anchors = session.topology.node_ids[:12]

        def sample(anchor):
            return {
                nid: latency.latency(anchor, nid) + 1.0 for nid in anchors if nid != anchor
            }

        fetched = []
        fetch = PackingEngine._fetch

        def recording_fetch(self, ring):
            fetched.append(ring)
            fetch(self, ring)

        monkeypatch.setattr(PackingEngine, "_fetch", recording_fetch)
        calls = count_calls(monkeypatch, "_nearest_screened")
        session.apply(
            [
                AddWorkerEvent("late-worker", 500.0, sample(anchors[0])),
                CoordinateDriftEvent(hosts[0], sample(hosts[0])),
                CoordinateDriftEvent(hosts[-1], sample(hosts[-1])),
            ]
        )
        assert "late-worker" in session.cost_space
        assert fetched, "the churned pack fetched no ring"
        assert calls["n"] > 0
        for ring in fetched:
            assert ring.rows is not None and len(ring.rows) == len(ring.points)
        for ring in session.engine._rings.values():
            assert ring.rows is not None
