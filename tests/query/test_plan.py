"""Logical plans."""

import pytest

from repro.common.errors import PlanError, UnknownOperatorError
from repro.query.plan import LogicalPlan


def two_region_plan():
    plan = LogicalPlan()
    plan.add_source("t1", node="nt1", rate=25.0, logical_stream="T")
    plan.add_source("t2", node="nt2", rate=25.0, logical_stream="T")
    plan.add_source("w1", node="nw1", rate=25.0, logical_stream="W")
    plan.add_join("join", left="T", right="W")
    plan.add_sink("sink", node="nsink", inputs=["join.out"])
    return plan


class TestConstruction:
    def test_duplicate_operator_rejected(self):
        plan = two_region_plan()
        with pytest.raises(PlanError, match="duplicate"):
            plan.add_source("t1", node="x", rate=1.0, logical_stream="T")

    def test_duplicate_stream_producer_rejected(self):
        plan = LogicalPlan()
        plan.add_source("a", node="n", rate=1.0, logical_stream="T", output="shared")
        with pytest.raises(PlanError, match="already produced"):
            plan.add_source("b", node="n", rate=1.0, logical_stream="T", output="shared")

    def test_join_same_stream_rejected(self):
        plan = LogicalPlan()
        with pytest.raises(PlanError):
            plan.add_join("j", left="T", right="T")

    def test_default_output_stream_name(self):
        plan = LogicalPlan()
        source = plan.add_source("s", node="n", rate=1.0, logical_stream="T")
        assert source.outputs == ["s.out"]


class TestAccess:
    def test_operator_lookup(self):
        plan = two_region_plan()
        assert plan.operator("join").is_join
        with pytest.raises(UnknownOperatorError):
            plan.operator("nope")

    def test_len_contains(self):
        plan = two_region_plan()
        assert len(plan) == 5
        assert "sink" in plan

    def test_sources_of_stream(self):
        plan = two_region_plan()
        assert {op.op_id for op in plan.sources_of_stream("T")} == {"t1", "t2"}
        assert {op.op_id for op in plan.sources_of_stream("W")} == {"w1"}

    def test_logical_streams(self):
        assert two_region_plan().logical_streams() == ["T", "W"]

    def test_producer_and_consumers(self):
        plan = two_region_plan()
        assert plan.producer_of("join.out").op_id == "join"
        assert [op.op_id for op in plan.consumers_of("join.out")] == ["sink"]

    def test_sink_of_join(self):
        plan = two_region_plan()
        assert plan.sink_of_join("join").op_id == "sink"

    def test_sink_of_join_without_sink_raises(self):
        plan = LogicalPlan()
        plan.add_source("s", node="n", rate=1.0, logical_stream="T")
        plan.add_source("u", node="n2", rate=1.0, logical_stream="U")
        plan.add_join("j", left="T", right="U")
        with pytest.raises(PlanError):
            plan.sink_of_join("j")


class TestConnectedPairs:
    def test_logical_stream_connections_expand_to_sources(self):
        plan = two_region_plan()
        pairs = set(plan.connected_pairs())
        assert ("t1", "join") in pairs
        assert ("t2", "join") in pairs
        assert ("w1", "join") in pairs
        assert ("join", "sink") in pairs


class TestValidate:
    def test_valid_plan_passes(self):
        two_region_plan().validate()

    def test_no_sink_rejected(self):
        plan = LogicalPlan()
        plan.add_source("s", node="n", rate=1.0, logical_stream="T")
        with pytest.raises(PlanError, match="no sink"):
            plan.validate()

    def test_no_sources_rejected(self):
        plan = LogicalPlan()
        plan.add_operator(
            __import__("repro.query.operators", fromlist=["Operator"]).Operator(
                "k", "sink", inputs=["ghost"], pinned_node="n"
            )
        )
        with pytest.raises(PlanError, match="no sources"):
            plan.validate()

    def test_join_with_unproduced_stream_rejected(self):
        plan = LogicalPlan()
        plan.add_source("s", node="n", rate=1.0, logical_stream="T")
        plan.add_join("j", left="T", right="GHOST")
        plan.add_sink("sink", node="n2", inputs=["j.out"])
        with pytest.raises(PlanError, match="no producer"):
            plan.validate()


class TestRemoval:
    def test_remove_operator_frees_stream(self):
        plan = two_region_plan()
        plan.remove_operator("t1")
        assert "t1" not in plan
        # The stream name can be reused now.
        plan.add_source("t1b", node="x", rate=1.0, logical_stream="T", output="t1.out")

    def test_sources_on_node_tracks_adds_and_removals_in_plan_order(self):
        plan = two_region_plan()
        plan.add_source("t3", node="nt1", rate=5.0, logical_stream="T")
        plan.add_source("w2", node="nt1", rate=7.0, logical_stream="W")
        assert [op.op_id for op in plan.sources_on_node("nt1")] == ["t1", "t3", "w2"]
        assert plan.sources_on_node("nsink") == []  # sinks are not indexed
        plan.remove_operator("t3")
        plan.add_source("t3", node="nt1", rate=5.0, logical_stream="T")
        plan.remove_operator("w1")
        for node_id in ("nt1", "nt2", "nw1"):
            expected = [op for op in plan.sources() if op.pinned_node == node_id]
            assert plan.sources_on_node(node_id) == expected
        assert [op.op_id for op in plan.sources_on_node("nt1")] == ["t1", "w2", "t3"]
        assert plan.sources_on_node("nw1") == []
