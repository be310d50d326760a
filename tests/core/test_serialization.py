"""Placement JSON round-trips and session summaries."""

import json

import numpy as np
import pytest

from repro.common.errors import OptimizationError
from repro.core.config import NovaConfig
from repro.core.optimizer import Nova
from repro.core.serialization import (
    FORMAT_VERSION,
    load_placement,
    placement_from_dict,
    placement_to_dict,
    save_placement,
    session_summary,
)
from repro.workloads.running_example import build_running_example


@pytest.fixture(scope="module")
def session():
    example = build_running_example()
    return example, Nova(NovaConfig(seed=3)).optimize(
        example.topology, example.plan, example.matrix, latency=example.latency
    )


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self, session):
        _, nova_session = session
        placement = nova_session.placement
        restored = placement_from_dict(placement_to_dict(placement))
        assert restored.pinned == placement.pinned
        assert restored.overload_accepted == placement.overload_accepted
        assert len(restored.sub_replicas) == len(placement.sub_replicas)
        for original, copy in zip(placement.sub_replicas, restored.sub_replicas):
            assert original == copy
        for replica_id, position in placement.virtual_positions.items():
            assert np.allclose(restored.virtual_positions[replica_id], position)

    def test_node_loads_survive(self, session):
        _, nova_session = session
        placement = nova_session.placement
        restored = placement_from_dict(placement_to_dict(placement))
        assert restored.node_loads() == placement.node_loads()

    def test_file_roundtrip(self, session, tmp_path):
        _, nova_session = session
        path = tmp_path / "placement.json"
        save_placement(nova_session.placement, path)
        restored = load_placement(path)
        assert restored.node_loads() == nova_session.placement.node_loads()

    def test_json_is_plain(self, session, tmp_path):
        _, nova_session = session
        path = tmp_path / "placement.json"
        save_placement(nova_session.placement, path)
        data = json.loads(path.read_text())
        assert data["version"] == FORMAT_VERSION
        assert isinstance(data["sub_replicas"], list)


class TestValidation:
    def test_wrong_version_rejected(self):
        with pytest.raises(OptimizationError, match="version"):
            placement_from_dict({"version": 999})

    def test_malformed_sub_rejected(self):
        with pytest.raises(OptimizationError, match="malformed"):
            placement_from_dict(
                {"version": FORMAT_VERSION, "sub_replicas": [{"bogus": 1}]}
            )

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(OptimizationError, match="invalid placement file"):
            load_placement(path)


class TestSessionSummary:
    def test_summary_contents(self, session):
        example, nova_session = session
        summary = session_summary(nova_session)
        assert summary["sigma"] == nova_session.config.sigma
        assert not summary["overload_accepted"]
        assert summary["timings_s"]["total"] > 0
        assert summary["joins"]["join"]["pair_replicas"] == 4
        hosting = {entry["node_id"] for entry in summary["nodes"]}
        assert hosting == set(nova_session.placement.nodes_used())
        for entry in summary["nodes"]:
            assert entry["utilization"] <= 1.0 + 1e-9

    def test_summary_is_json_serializable(self, session):
        _, nova_session = session
        json.dumps(session_summary(nova_session))


class TestPlanDeltaRoundTrip:
    def make_delta(self):
        from repro.core.config import NovaConfig
        from repro.core.optimizer import Nova
        from repro.topology.dynamics import DataRateChangeEvent, RemoveNodeEvent
        from repro.topology.latency import DenseLatencyMatrix
        from repro.workloads.synthetic import synthetic_opp_workload

        workload = synthetic_opp_workload(100, seed=4)
        latency = DenseLatencyMatrix.from_topology(workload.topology)
        session = Nova(NovaConfig(seed=4)).optimize(
            workload.topology, workload.plan, workload.matrix, latency=latency
        )
        base = session.placement.copy()
        host = session.placement.sub_replicas[0].node_id
        source = session.plan.sources()[1].op_id
        delta = session.apply(
            [RemoveNodeEvent(host), DataRateChangeEvent(source, 150.0)]
        )
        return session, base, delta

    def test_round_trip_preserves_replay(self):
        import numpy as np

        from repro.core.serialization import (
            plan_delta_from_dict,
            plan_delta_to_dict,
        )

        session, base, delta = self.make_delta()
        data = plan_delta_to_dict(delta)
        json.dumps(data)  # must be plain JSON
        rebuilt = plan_delta_from_dict(data)
        assert rebuilt.events_applied == delta.events_applied
        assert rebuilt.replicas_replaced == delta.replicas_replaced
        assert rebuilt.timings.packing_passes == delta.timings.packing_passes
        assert rebuilt.timings.knn_queries == delta.timings.knn_queries

        replayed = rebuilt.apply_to(base)
        live = {
            (s.sub_id, s.node_id, round(s.charged_capacity, 9))
            for s in session.placement.sub_replicas
        }
        folded = {
            (s.sub_id, s.node_id, round(s.charged_capacity, 9))
            for s in replayed.sub_replicas
        }
        assert live == folded
        assert set(replayed.virtual_positions) == set(
            session.placement.virtual_positions
        )
        for key, value in session.placement.virtual_positions.items():
            assert np.allclose(replayed.virtual_positions[key], value)

    def test_archived_counters_no_longer_tracked_are_ignored(self):
        from repro.core.serialization import (
            plan_delta_from_dict,
            plan_delta_to_dict,
        )

        _, _, delta = self.make_delta()
        data = plan_delta_to_dict(delta)
        data["timings"]["packing_hot_zone"] = 3
        rebuilt = plan_delta_from_dict(data)
        assert rebuilt.timings.packing_passes == delta.timings.packing_passes
        assert not hasattr(rebuilt.timings, "packing_hot_zone")

    def test_version_check(self):
        from repro.core.serialization import plan_delta_from_dict

        with pytest.raises(OptimizationError, match="format version"):
            plan_delta_from_dict({"version": 99})

    def test_summary_reports_packing_passes(self, session):
        _, nova_session = session
        summary = session_summary(nova_session)
        assert summary["throughput"]["packing_passes"] >= 1
