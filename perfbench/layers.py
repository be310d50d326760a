"""The layer boundaries the traced run wraps, and the metrics it derives.

Every boundary is a public function of one layer of ``repro``. Counts come
from the wrapped call's arguments and result, or from counters the layer
already keeps (``PackingEngine.stats``, ``NovaSession.timings``), read
before and after the call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import SpanRecorder, busy_and_self, covered_time

import repro.core.planner as planner_module
from repro.core.changeset import ChangeSet
from repro.core.cost_space import AvailabilityLedger, CostSpace
from repro.core.optimizer import NovaSession
from repro.core.packing import PackingEngine
from repro.core.placement import Placement
from repro.evaluation.overload import OverloadMonitor
from repro.serve.deadletter import DeltaArchive
from repro.serve.loop import IngressQueue, WindowApplier

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "cost_space.build_s": "s",
    "cost_space.self_s": "s",
    "cost_space.setup_build_s": "s",
    "query.resolve_s": "s",
    "query.self_s": "s",
    "query.replicas": "count",
    "median.solve_s": "s",
    "median.self_s": "s",
    "median.solved": "count",
    "packing.pack_s": "s",
    "packing.self_s": "s",
    "packing.cells": "count",
    "packing.cursor_s": "s",
    "packing.cursor_calls": "count",
    "packing.ring_hits": "count",
    "packing.ring_misses": "count",
    "packing.ring_hit_rate": "ratio",
    "knn.query_s": "s",
    "knn.self_s": "s",
    "knn.queries": "count",
    "knn.approximate_queries": "count",
    "ledger.write_s": "s",
    "ledger.self_s": "s",
    "ledger.writes": "count",
    "placement.extend_s": "s",
    "placement.remove_s": "s",
    "placement.self_s": "s",
    "placement.removed_subs": "count",
    "changeset.coalesce_s": "s",
    "changeset.validate_s": "s",
    "changeset.apply_s": "s",
    "changeset.self_s": "s",
    "changeset.journal_nodes": "count",
    "changeset.copied_subs": "count",
    "changeset.replicas_replaced": "count",
    "serve.window_apply_s": "s",
    "serve.archive_s": "s",
    "serve.monitor_s": "s",
    "serve.idle_s": "s",
    "serve.self_s": "s",
    "serve.queue_depth_max": "count",
    "serve.windows": "count",
    "serve.retries": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.unnamed_frac": "ratio",
    "trace.unnamed_s": "s",
    "trace.spans": "count",
    "p90_delta_ms": "ms",
    "overload_pct": "%",
    "ingest_overload_nodes": "count",
    "failed_frac": "ratio",
}

_REMOVALS = ("remove_replica", "remove_subs_on_node", "discard_subs")


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary; ``recorder.uninstall()`` undoes it."""
    wrap = recorder.wrap
    add = recorder.add

    # Phase I
    wrap(CostSpace, "build", "cost_space.build")
    # resolve: the planner imports resolve_operators by name
    wrap(
        planner_module,
        "resolve_operators",
        "query.resolve",
        after=lambda _t, resolved, *a, **k: add("query.replicas", len(resolved.replicas)),
    )
    # Phase II
    wrap(
        NovaSession,
        "solve_virtual",
        "median.solve",
        after=lambda _t, solved, *a, **k: add("median.solved", solved),
    )

    # Phase III: ring-cache counters are read off the engine around a pass
    def engine_counts(session: NovaSession) -> Tuple[int, int]:
        engine = session.engine
        if engine is None:
            return 0, 0
        return engine.stats.cursor_cache_hits, engine.stats.cursor_cache_misses

    def pack_after(before, placed, session, *a, **k):
        hits, misses = engine_counts(session)
        add("packing.cells", len(placed))
        add("packing.ring_hits", hits - before[0])
        add("packing.ring_misses", misses - before[1])

    wrap(
        NovaSession,
        "pack_replicas",
        "packing.pack",
        before=lambda session, *a, **k: engine_counts(session),
        after=pack_after,
    )
    wrap(PackingEngine, "cursor", "packing.cursor")

    # index
    def knn_after(_t, _result, *args, **kwargs):
        if kwargs.get("approximate", False):
            add("knn.approximate_queries")

    wrap(CostSpace, "knn", "knn.knn", after=knn_after)
    wrap(CostSpace, "within", "knn.within")
    wrap(CostSpace, "within_rows", "knn.within_rows")

    # ledger
    wrap(AvailabilityLedger, "__setitem__", "ledger.write")

    # placement bookkeeping
    wrap(Placement, "extend", "placement.extend")
    for attr in _REMOVALS:
        wrap(
            Placement,
            attr,
            f"placement.{attr}",
            after=lambda _t, removed, *a, **k: add("placement.removed_subs", len(removed)),
        )

    # churn
    wrap(ChangeSet, "coalesced", "changeset.coalesce")
    wrap(ChangeSet, "validate", "changeset.validate")

    def journal_counts(session: NovaSession) -> Tuple[int, int]:
        return session.timings.journal_nodes_touched, session.timings.copied_subs

    def apply_after(before, delta, session, *a, **k):
        nodes, copied = journal_counts(session)
        add("changeset.journal_nodes", nodes - before[0])
        add("changeset.copied_subs", copied - before[1])
        add("changeset.replicas_replaced", len(delta.replicas_replaced))

    wrap(
        NovaSession,
        "apply",
        "changeset.apply",
        before=lambda session, *a, **k: journal_counts(session),
        after=apply_after,
    )

    # serve: each window becomes the trace id of the spans it causes
    def window_before(applier, events, window, *a, **k):
        recorder.trace_id = f"window-{window}"

    def window_after(_t, applied, *a, **k):
        add("serve.windows")
        recorder.trace_id = "serve"

    wrap(WindowApplier, "apply", "serve.window_apply", before=window_before, after=window_after)
    wrap(DeltaArchive, "record", "serve.archive")
    wrap(OverloadMonitor, "apply_delta", "serve.monitor")
    wrap(IngressQueue, "get", "serve.queue_get")
    wrap(
        IngressQueue,
        "depth",
        "serve.queue_depth",
        after=lambda _t, depth, *a, **k: recorder.peak("serve.queue_depth_max", depth),
    )


#: Metrics that describe the whole run, not one batch.
RUN_TOTALS = (
    "cost_space.setup_build_s",
    "packing.ring_hit_rate",
    "serve.queue_depth_max",
    "serve.windows",
    "serve.retries",
    "trace.overhead_frac",
    "trace.coverage",
    "trace.unnamed_frac",
    "trace.spans",
    "p90_delta_ms",
    "overload_pct",
    "ingest_overload_nodes",
    "failed_frac",
)


def per_layer_metrics(
    recorder: SpanRecorder,
    intervals: List[Tuple[float, float]],
    batches: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    retries: int,
) -> Dict[str, float]:
    """Per-layer metrics over the measured phase of a traced run.

    Times and counts are per batch (one plan, or one serve window), so
    they compare across workloads and add up to the batch latency; the
    names in :data:`RUN_TOTALS` describe the whole run. ``intervals`` are
    the measured phase's wall-clock intervals (one per plan, or the serve
    run); coverage is the share of them that named top-level spans cover.
    """
    measured = recorder.measured()
    names, layers, selfs = busy_and_self(measured)
    setup_names, _, _ = busy_and_self(s for s in recorder.spans if s.trace_id == "setup")
    counts = recorder.counts
    wall = sum(hi - lo for lo, hi in intervals)
    covered = covered_time(measured, intervals)
    hits, misses = counts["packing.ring_hits"], counts["packing.ring_misses"]
    calls: Dict[str, int] = {}
    for span in measured:
        calls[span.name] = calls.get(span.name, 0) + 1
    metrics = {
        "cost_space.build_s": names["cost_space.build"],
        "cost_space.self_s": selfs["cost_space"],
        "cost_space.setup_build_s": setup_names["cost_space.build"],
        "query.resolve_s": names["query.resolve"],
        "query.self_s": selfs["query"],
        "query.replicas": counts["query.replicas"],
        "median.solve_s": names["median.solve"],
        "median.self_s": selfs["median"],
        "median.solved": counts["median.solved"],
        "packing.pack_s": names["packing.pack"],
        "packing.self_s": selfs["packing"],
        "packing.cells": counts["packing.cells"],
        "packing.cursor_s": names["packing.cursor"],
        "packing.cursor_calls": calls.get("packing.cursor", 0),
        "packing.ring_hits": hits,
        "packing.ring_misses": misses,
        "packing.ring_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "knn.query_s": layers["knn"],
        "knn.self_s": selfs["knn"],
        "knn.queries": sum(calls.get(n, 0) for n in ("knn.knn", "knn.within", "knn.within_rows")),
        "knn.approximate_queries": counts["knn.approximate_queries"],
        "ledger.write_s": names["ledger.write"],
        "ledger.self_s": selfs["ledger"],
        "ledger.writes": calls.get("ledger.write", 0),
        "placement.extend_s": names["placement.extend"],
        "placement.remove_s": sum(names[f"placement.{attr}"] for attr in _REMOVALS),
        "placement.self_s": selfs["placement"],
        "placement.removed_subs": counts["placement.removed_subs"],
        "changeset.coalesce_s": names["changeset.coalesce"],
        "changeset.validate_s": names["changeset.validate"],
        "changeset.apply_s": names["changeset.apply"],
        "changeset.self_s": selfs["changeset"],
        "changeset.journal_nodes": counts["changeset.journal_nodes"],
        "changeset.copied_subs": counts["changeset.copied_subs"],
        "changeset.replicas_replaced": counts["changeset.replicas_replaced"],
        "serve.window_apply_s": names["serve.window_apply"],
        "serve.archive_s": names["serve.archive"],
        "serve.monitor_s": names["serve.monitor"],
        "serve.idle_s": names["serve.queue_get"],
        "serve.self_s": selfs["serve"],
        "serve.queue_depth_max": recorder.maxima["serve.queue_depth_max"],
        "serve.windows": counts["serve.windows"],
        "serve.retries": retries,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0 if untraced_wall_s else 0.0,
        "trace.coverage": covered / wall if wall else 0.0,
        "trace.unnamed_frac": 1.0 - covered / wall if wall else 0.0,
        "trace.unnamed_s": wall - covered,
        "trace.spans": len(recorder.spans),
    }
    for name in metrics:
        if name not in RUN_TOTALS:
            metrics[name] /= max(batches, 1)
    return metrics
