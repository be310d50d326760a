"""Shared fixtures for the serving-daemon tests.

Sessions here are deliberately small (80 nodes) so every test pays a
sub-second initial solve; the end-to-end bit-identity test builds its
own n=1000 instance.
"""

import pytest

from repro.core.config import NovaConfig
from repro.core.optimizer import Nova
from repro.topology.dynamics import churn_event_stream
from repro.topology.latency import DenseLatencyMatrix
from repro.workloads.synthetic import synthetic_opp_workload


def build_session(n=80, seed=5):
    workload = synthetic_opp_workload(n, seed=seed)
    latency = DenseLatencyMatrix.from_topology(workload.topology)
    session = Nova(NovaConfig(seed=seed)).optimize(
        workload.topology, workload.plan, workload.matrix, latency=latency
    )
    return workload, session


def churn_events(workload, count, seed=11):
    """A reproducible prefix of the unbounded churn stream."""
    stream = churn_event_stream(workload.topology, workload.plan, seed=seed)
    return [next(stream) for _ in range(count)]


def placement_signature(session):
    """The placement as a comparable set (bit-identity assertions)."""
    return {
        (s.sub_id, s.node_id, round(s.charged_capacity, 12))
        for s in session.placement.sub_replicas
    }


@pytest.fixture()
def small_instance():
    return build_session()
