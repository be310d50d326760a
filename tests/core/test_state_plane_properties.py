"""Randomized invariants of the placement's keyed-bucket state plane.

Random sequences of ``extend``, ``remove_replica``, ``remove_subs_on_node``,
``discard_subs``, flat-view reads and wholesale list mutations, some of them
inside journaled batches that commit or roll back, must keep:

* every per-node/replica/join bucket equal to the flat view filtered to
  its key, in the same order, keyed by ``id(sub)``;
* ``node_load(n)`` equal (``==``) to the left-fold sum of
  ``charged_capacity`` over the node's bucket, and every load observer in
  step with it;
* ``replica_count``, ``total_demand`` and ``join_stats`` equal to a recount;
* a rollback restoring all of the above bit-identically.
"""

import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.changeset import _SessionJournal
from repro.core.placement import Placement, SubReplicaPlacement

NODES = [f"n{i}" for i in range(5)]
REPLICAS = [f"r{i}" for i in range(4)]
JOINS = ["ja", "jb"]

charges = st.floats(min_value=0.001, max_value=1000.0, allow_nan=False)
new_sub = st.tuples(
    st.integers(0, len(NODES) - 1),
    st.integers(0, len(REPLICAS) - 1),
    st.integers(0, len(JOINS) - 1),
    charges,
)
step = st.one_of(
    st.tuples(st.just("extend"), st.lists(new_sub, min_size=1, max_size=6)),
    st.tuples(st.just("re_extend"), st.integers(0, 10_000)),
    st.tuples(st.just("remove_replica"), st.sampled_from(REPLICAS)),
    st.tuples(st.just("remove_node"), st.sampled_from(NODES)),
    st.tuples(st.just("discard"), st.lists(st.integers(0, 10_000), max_size=4)),
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.just("reverse"), st.none()),
)
batch = st.tuples(
    st.just("batch"), st.lists(step, min_size=1, max_size=6), st.booleans()
)
programs = st.lists(st.one_of(step, batch), min_size=1, max_size=14)


class Driver:
    """Applies random steps to one placement, remembering every instance
    it ever created so removed ones can be re-extended (and no id is
    recycled while the test runs)."""

    def __init__(self):
        self.placement = Placement()
        self.created = []
        self.observed = {}
        self.placement.add_load_observer(self._on_load)

    def _on_load(self, node_id, load):
        if load > 0.0:
            self.observed[node_id] = load
        else:
            self.observed.pop(node_id, None)

    def apply(self, op):
        placement = self.placement
        kind, arg = op[0], op[1]
        if kind == "extend":
            subs = []
            for node, replica, join, charge in arg:
                index = len(self.created)
                sub = SubReplicaPlacement(
                    sub_id=f"s{index}",
                    replica_id=REPLICAS[replica],
                    join_id=JOINS[join],
                    node_id=NODES[node],
                    left_source="l",
                    right_source="r",
                    left_node="nl",
                    right_node="nr",
                    sink_node="ns",
                    left_rate=charge / 3.0,
                    right_rate=charge / 7.0,
                    charged_capacity=charge,
                )
                self.created.append(sub)
                subs.append(sub)
            placement.extend(subs)
        elif kind == "re_extend":
            live = {id(sub) for sub in live_flat(placement)}
            gone = [sub for sub in self.created if id(sub) not in live]
            if gone:
                placement.extend([gone[arg % len(gone)]])
        elif kind == "remove_replica":
            placement.remove_replica(arg)
        elif kind == "remove_node":
            placement.remove_subs_on_node(arg)
        elif kind == "discard":
            live = live_flat(placement)
            if live:
                placement.discard_subs(
                    (live[pick % len(live)].sub_id, live[pick % len(live)].node_id)
                    for pick in arg
                )
        elif kind == "read":
            # The only step that compacts the flat view, so batches also
            # start with tombstones pending.
            live = live_flat(placement)
            assert list(placement.sub_replicas) == live
        elif kind == "reverse":
            placement.sub_replicas.reverse()
        elif kind == "batch":
            self.run_batch(arg, commit=op[2])

    def run_batch(self, steps, commit):
        placement = self.placement
        before = snapshot(placement)
        observed_before = dict(self.observed)
        journal = _SessionJournal(types.SimpleNamespace(placement=placement, available={}))
        for inner in steps:
            self.apply(inner)
        if commit:
            journal.commit()
        else:
            journal.rollback()
            assert snapshot(placement) == before
            assert self.observed == observed_before


def live_flat(placement):
    """The flat view's live sequence, read without forcing a compaction."""
    flat = placement.sub_replicas
    dead = flat.dead_snapshot()
    return [sub for sub in flat.raw() if id(sub) not in dead]


def bucket_view(buckets):
    """Buckets as ``key -> [instance ids]`` after checking the keying."""
    view = {}
    for key, bucket in buckets.items():
        assert bucket, f"empty bucket {key!r} left behind"
        assert list(bucket) == [id(sub) for sub in bucket.values()]
        view[key] = list(bucket)
    return view


def snapshot(placement):
    """Everything a rollback must restore, compared exactly."""
    return {
        "flat": [id(sub) for sub in live_flat(placement)],
        "by_node": bucket_view(placement._by_node),
        "by_replica": bucket_view(placement._by_replica),
        "by_join": bucket_view(placement._by_join),
        "loads": placement.node_loads(),
        "count": placement.replica_count(),
        "total": placement.total_demand(),
        "joins": {join: placement.join_stats(join) for join in JOINS},
    }


def filtered(flat, attr):
    view = {}
    for sub in flat:
        view.setdefault(getattr(sub, attr), []).append(id(sub))
    return view


def assert_invariants(driver):
    placement = driver.placement
    flat = live_flat(placement)
    assert bucket_view(placement._by_node) == filtered(flat, "node_id")
    assert bucket_view(placement._by_replica) == filtered(flat, "replica_id")
    assert bucket_view(placement._by_join) == filtered(flat, "join_id")
    for node_id in NODES:
        total = 0.0
        for sub in placement.subs_on_node(node_id):
            total += sub.charged_capacity
        assert placement.node_load(node_id) == total
    assert set(placement.node_loads()) == {sub.node_id for sub in flat}
    assert driver.observed == placement.node_loads()
    assert placement.replica_count() == len(flat)
    assert placement.total_demand() == pytest.approx(
        sum(sub.required_capacity for sub in flat), rel=1e-9, abs=1e-9
    )
    for join in JOINS:
        subs = [sub for sub in flat if sub.join_id == join]
        assert placement.join_stats(join) == {
            "pair_replicas": len({sub.replica_id for sub in subs}),
            "sub_joins": len(subs),
            "hosts": sorted({sub.node_id for sub in subs}),
        }


@settings(max_examples=150, deadline=None)
@given(programs)
# A removal leaves the running total demand off a fresh re-sum; a
# wholesale reindex inside the batch must still roll back to it exactly.
@example(
    program=[
        ("extend", [(0, 0, 0, 1.0), (0, 1, 0, 0.5)]),
        ("remove_replica", "r0"),
        ("batch", [("reverse", None)], False),
    ]
)
def test_random_churn_keeps_buckets_loads_and_aggregates_exact(program):
    driver = Driver()
    for op in program:
        driver.apply(op)
        assert_invariants(driver)


def test_rollback_restores_removed_keys_in_flat_order():
    """A batch that removes from the middle of a join bucket and appends
    to it rolls back to the pre-batch order, not the append order."""
    driver = Driver()
    driver.apply(("extend", [(i % 3, i % 4, 0, 1.0 + i / 10) for i in range(12)]))
    before = snapshot(driver.placement)
    driver.apply(
        ("batch", [("remove_replica", "r1"), ("extend", [(0, 1, 0, 9.5)])], False)
    )
    assert snapshot(driver.placement) == before
    assert_invariants(driver)


def test_re_extending_a_tombstoned_instance_places_it_once():
    driver = Driver()
    driver.apply(("extend", [(0, 0, 0, 2.0), (1, 1, 0, 3.0), (0, 1, 1, 4.0)]))
    first = driver.created[0]
    driver.placement.remove_replica("r0")
    driver.placement.extend([first])
    flat = list(driver.placement.sub_replicas)
    assert flat.count(first) == 1 and flat[-1] is first
    assert_invariants(driver)
