"""The serving loop's incremental overload monitor never drifts.

``WindowApplier`` keeps ``session.overload_monitor`` current from the
placement's load notifications plus one O(1) ``refresh_node`` per node a
delta touched. After every window, and after a window that fails and
rolls back, its counts must equal a full recomputation.
"""

import io

from repro.core.config import NovaConfig
from repro.core.optimizer import Nova
from repro.evaluation.overload import overload_percentage, overloaded_nodes
from repro.serve import IterableSource, ServeLoop, ServeSettings
from repro.topology.dynamics import CapacityChangeEvent
from repro.topology.latency import DenseLatencyMatrix
from repro.workloads.synthetic import synthetic_opp_workload

from tests.serve.conftest import churn_events


def overloaded_session():
    """80 nodes at 60 capacity units each: the plan accepts overload, so
    the monitor has overloaded nodes to track through churn."""
    workload = synthetic_opp_workload(80, seed=5, total_capacity=60.0 * 80)
    latency = DenseLatencyMatrix.from_topology(workload.topology)
    session = Nova(NovaConfig(seed=5)).optimize(
        workload.topology, workload.plan, workload.matrix, latency=latency
    )
    return workload, session


def monitor_state(session):
    monitor = session.overload_monitor
    return monitor.overloaded_count, monitor.percentage


def recomputed_state(session):
    return (
        len(overloaded_nodes(session.placement, session.topology)),
        overload_percentage(session.placement, session.topology),
    )


def serve(session, events):
    return ServeLoop(
        session,
        [IterableSource(events)],
        ServeSettings(
            window_ms=600_000.0,
            max_batch=10,
            queue_size=128,
            exit_on_eof=True,
            status_interval_s=0,
        ),
        status_stream=io.StringIO(),
    )


def capacity_raises(session, count):
    """Raise capacity on overloaded nodes enough for the change-set's fast
    path: the load stays put, so only ``refresh_node`` can see the change."""
    events = []
    for node_id in session.overload_monitor.overloaded_node_ids[:count]:
        ingestion = sum(op.data_rate for op in session.plan.sources_on_node(node_id))
        needed = session.placement.node_load(node_id) + ingestion
        events.append(CapacityChangeEvent(node_id, 2.0 * needed + 1.0))
    return events


def test_monitor_matches_full_recount_after_every_window():
    workload, session = overloaded_session()
    raises = capacity_raises(session, 5)
    assert len(raises) == 5
    loop = serve(session, raises + churn_events(workload, 55, seed=11))
    checks = []
    apply_window = loop.applier.apply

    def checked(events, window, strict=False):
        applied = apply_window(events, window, strict)
        checks.append((monitor_state(session), recomputed_state(session)))
        return applied

    loop.applier.apply = checked
    assert loop.run() == 0
    assert len(checks) == 6
    assert any(monitor[0] > 0 for monitor, _ in checks)
    for monitor, recomputed in checks:
        assert monitor == recomputed


def test_monitor_matches_full_recount_after_window_rollback(monkeypatch):
    workload, session = overloaded_session()
    loop = serve(session, churn_events(workload, 40, seed=17))
    place = session.place_replicas
    calls = {"n": 0}

    def failing_once(replicas):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected packing failure")
        return place(replicas)

    monkeypatch.setattr(session, "place_replicas", failing_once)
    rolled_back = []
    apply_once = loop.applier._apply_once

    def observed(events, window, retry):
        before = monitor_state(session)
        try:
            return apply_once(events, window, retry)
        except RuntimeError:
            rolled_back.append(
                (before, monitor_state(session), recomputed_state(session))
            )
            raise

    loop.applier._apply_once = observed
    assert loop.run() == 0
    assert len(rolled_back) == 1
    before, after, recomputed = rolled_back[0]
    assert before[0] > 0
    assert after == before == recomputed
    assert monitor_state(session) == recomputed_state(session)
    assert loop.stats.window_retries == 1
