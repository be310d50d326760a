"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``plan``      — plan a workload with any registered strategy (Nova or
  a baseline) through the unified Planner API and print its
  :class:`~repro.core.planner.PlanResult` summary.
* ``demo``      — run the Figure 2 running example and print the placement.
* ``figures``   — list the benchmark targets that regenerate each paper
  figure.
* ``replay``    — replay a churn trace (JSON) through the batched
  ChangeSet API, printing one :class:`~repro.core.changeset.PlanDelta`
  summary per batch.
* ``serve``     — run the long-lived serving daemon: ingest a churn
  event stream (stdin JSONL, tailed file, or local socket), apply it in
  coalescing windows through one live session, and expose a status
  plane (see :mod:`repro.serve`).
* ``version``   — print the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

FIGURE_TARGETS = [
    ("Figure 5", "benchmarks/bench_fig05_ncs_embeddings.py", "NCS embeddings of the four testbeds"),
    ("Figure 6", "benchmarks/bench_fig06_overload.py", "% overloaded nodes vs heterogeneity"),
    ("Figure 7", "benchmarks/bench_fig07_placement_quality.py", "90P latency deltas vs direct transmission"),
    ("Figure 8", "benchmarks/bench_fig08_estimation_errors.py", "estimated vs measured latencies (TIVs)"),
    ("Figure 9", "benchmarks/bench_fig09_latency_variation.py", "24-hour latency resilience"),
    ("Figure 10", "benchmarks/bench_fig10_scalability.py", "optimization/re-optimization scalability"),
    ("Figure 11", "benchmarks/bench_fig11_throughput.py", "DEBS end-to-end throughput"),
    ("Figure 12", "benchmarks/bench_fig12_e2e_latency.py", "DEBS latency percentiles, normal + stress"),
    ("Ablation", "benchmarks/bench_ablation_sigma.py", "sigma sweep"),
    ("Ablation", "benchmarks/bench_ablation_knn.py", "exact vs approximate k-NN"),
    ("Ablation", "benchmarks/bench_ablation_median.py", "median solver and objective"),
]


PLAN_WORKLOADS = ("running-example", "synthetic", "debs")


def _build_plan_workload(name: str, nodes: int, seed: int):
    """Assemble the named workload as a planner :class:`Workload`."""
    from repro.core.planner import Workload
    from repro.topology.latency import CoordinateLatencyModel, DenseLatencyMatrix

    if name in ("running-example", "running_example"):
        from repro.workloads import build_running_example

        return Workload.of(build_running_example(), name="running-example")
    if name == "synthetic":
        from repro.workloads import synthetic_opp_workload

        workload = synthetic_opp_workload(nodes, seed=seed)
        if nodes <= 2000:
            latency = DenseLatencyMatrix.from_topology(workload.topology)
        else:
            ids, coords = workload.topology.positions_array()
            latency = CoordinateLatencyModel(ids, coords)
        return Workload.of(
            workload, latency=latency, name=f"synthetic-{nodes}"
        )
    if name == "debs":
        from repro.workloads import debs_workload

        return Workload.of(debs_workload(seed=seed), name="debs")
    print(
        f"unknown workload {name!r}; choose from {', '.join(PLAN_WORKLOADS)}",
        file=sys.stderr,
    )
    return None


def run_plan(
    workload_name: str,
    strategy: str,
    nodes: int = 400,
    seed: int = 0,
) -> int:
    """Plan a workload through the unified Planner API and report it.

    ``--strategy all`` runs every registered strategy and renders one
    comparison table; a single strategy prints its full PlanResult
    summary. Exits non-zero when any strategy produces an empty
    placement — which is what lets CI treat this as a smoke assertion.
    """
    from repro import NovaConfig, available_strategies, plan
    from repro.common.errors import ReproError
    from repro.common.tables import render_table
    from repro.evaluation import evaluate_result

    workload = _build_plan_workload(workload_name, nodes, seed)
    if workload is None:
        return 2
    registered = available_strategies()
    if strategy == "all":
        names = registered
    elif strategy in registered:
        names = [strategy]
    else:
        print(
            f"unknown strategy {strategy!r}; available: {registered}",
            file=sys.stderr,
        )
        return 2

    rows = []
    empty = []
    for name in names:
        try:
            result = plan(workload, name, config=NovaConfig(seed=seed))
        except ReproError as error:
            print(f"planning failed for {name!r}: {error}", file=sys.stderr)
            return 1
        evaluated = evaluate_result(result)
        summary = result.summary()
        if summary["sub_replicas"] == 0:
            empty.append(name)
        if len(names) == 1:
            print(
                render_table(
                    ["field", "value"],
                    result.summary_rows()
                    + [
                        ["mean latency ms", evaluated.stats.mean],
                        ["p90 latency ms", evaluated.stats.p90],
                        ["overloaded hosts %", evaluated.overload_pct],
                    ],
                    precision=2,
                    title=f"PlanResult — {name} on {workload.name or workload_name}",
                )
            )
        else:
            rows.append(
                [
                    name,
                    summary["sub_replicas"],
                    summary["hosting_nodes"],
                    evaluated.overload_pct,
                    evaluated.stats.mean,
                    evaluated.stats.p90,
                    summary["plan_s"],
                    "yes" if summary["live_session"] else "no",
                ]
            )
    if rows:
        print(
            render_table(
                [
                    "strategy",
                    "sub-joins",
                    "hosts",
                    "overload %",
                    "mean ms",
                    "p90 ms",
                    "plan s",
                    "session",
                ],
                rows,
                precision=2,
                title=f"Planner comparison — {workload.name or workload_name}",
            )
        )
    if empty:
        print(f"empty placement from: {', '.join(empty)}", file=sys.stderr)
        return 1
    return 0


def run_demo() -> int:
    """Optimize the running example and print a compact report."""
    from repro import Nova, NovaConfig
    from repro.common.tables import render_table
    from repro.evaluation import latency_stats, matrix_distance, overload_percentage
    from repro.workloads import build_running_example

    example = build_running_example()
    session = Nova(NovaConfig(seed=7)).optimize(
        example.topology, example.plan, example.matrix, latency=example.latency
    )
    stats = latency_stats(session.placement, matrix_distance(example.latency))
    print(
        render_table(
            ["metric", "value"],
            [
                ["sub-joins placed", session.placement.replica_count()],
                ["hosting nodes", ", ".join(session.placement.nodes_used())],
                ["overloaded hosts %", overload_percentage(session.placement, example.topology)],
                ["mean latency ms", stats.mean],
                ["p90 latency ms", stats.p90],
                ["optimization time s", session.timings.total_s],
            ],
            precision=2,
            title="Nova on the running example (Figure 2)",
        )
    )
    return 0


def list_figures() -> int:
    """Print the figure-to-bench mapping."""
    from repro.common.tables import render_table

    print(
        render_table(
            ["experiment", "bench target", "content"],
            [list(row) for row in FIGURE_TARGETS],
            title="Reproduction targets (run with: pytest <target> --benchmark-only)",
        )
    )
    return 0


def run_replay(
    trace_path: str,
    save_deltas: Optional[str] = None,
) -> int:
    """Replay a churn trace through ``session.apply``, batch by batch.

    The trace is a JSON document::

        {
          "version": 1,
          "workload": {"kind": "synthetic_opp", "nodes": 400, "seed": 42},
          "batches": [
            {"events": [{"type": "data_rate_change", "node_id": "...",
                         "new_rate": 120.0}, ...]},
            ...
          ]
        }

    Each batch applies as one transactional ChangeSet; the printed table
    summarizes its PlanDelta (sub-replicas moved, availability changes,
    apply time, packing passes). ``--save-deltas`` archives every delta
    as JSON for downstream replay (``plan_delta_from_dict`` +
    ``PlanDelta.apply_to``).

    Replay is the finite-trace client of the serving machinery: trace
    parsing goes through :func:`repro.topology.event_codec.load_trace`
    and each batch applies through the same
    :class:`~repro.serve.loop.WindowApplier` the daemon uses — in strict
    mode, so a failed batch rolls back and stops the replay instead of
    being retried and dead-lettered.
    """
    from repro import Nova, NovaConfig
    from repro.common.errors import ReproError
    from repro.common.tables import render_table
    from repro.serve.loop import WindowApplier
    from repro.topology.event_codec import TraceError, load_trace

    try:
        trace = load_trace(trace_path)
    except TraceError as error:
        print(str(error), file=sys.stderr)
        return 2

    spec = trace.workload
    kind = spec.get("kind", "synthetic_opp")
    if kind != "synthetic_opp":
        print(f"unsupported workload kind {kind!r}", file=sys.stderr)
        return 2
    nodes = int(spec.get("nodes", 400))
    seed = int(spec.get("seed", 0))
    workload = _build_plan_workload("synthetic", nodes, seed)

    started = time.perf_counter()
    session = Nova(NovaConfig(seed=seed)).optimize(
        workload.topology, workload.plan, workload.matrix,
        latency=workload.ensure_latency(),
    )
    print(
        f"Optimized {nodes}-node workload (seed {seed}): "
        f"{session.placement.replica_count()} sub-joins in "
        f"{time.perf_counter() - started:.3f}s"
    )

    applier = WindowApplier(session)
    monitor = session.overload_monitor
    rows = []
    for index, events in enumerate(trace.batches):
        try:
            applied = applier.apply(events, index, strict=True)
        except ReproError as error:
            print(
                f"batch {index} failed (rolled back): {error}",
                file=sys.stderr,
            )
            return 1
        for item in applied:
            delta = item.delta
            events_per_s = (
                delta.events_applied / item.elapsed_s
                if item.elapsed_s > 0
                else 0.0
            )
            rows.append(
                [
                    index,
                    f"{delta.events_staged}/{delta.events_applied}",
                    len(delta.subs_added),
                    len(delta.subs_removed),
                    len(delta.moves),
                    len(delta.availability_delta),
                    delta.timings.packing_passes,
                    item.elapsed_s,
                    events_per_s,
                    monitor.percentage,
                ]
            )
    print()
    print(
        render_table(
            [
                "batch",
                "events",
                "subs +",
                "subs -",
                "moved",
                "avail Δ",
                "passes",
                "seconds",
                "events/s",
                "overload %",
            ],
            rows,
            precision=3,
            title=f"Churn replay — {len(trace.batches)} batches via session.apply",
        )
    )
    if save_deltas:
        archived = [entry["delta"] for entry in applier.deltas.entries]
        Path(save_deltas).write_text(
            json.dumps(archived, indent=2, sort_keys=True)
        )
        print(f"\nSaved {len(archived)} plan deltas to {save_deltas}")
    return 0


def _parse_source(spec: str):
    """Build one event source from a ``--source`` spec string."""
    from repro.common.errors import OptimizationError
    from repro.serve import FileTailSource, SocketSource, StreamSource

    if spec == "stdin":
        return StreamSource(sys.stdin)
    if spec.startswith("tail:"):
        return FileTailSource(spec[len("tail:"):])
    if spec.startswith("socket:"):
        return SocketSource(spec[len("socket:"):])
    raise OptimizationError(
        f"unknown source {spec!r}: expected stdin, tail:PATH, or socket:PATH"
    )


def run_serve(
    workload_name: str = "synthetic",
    nodes: int = 400,
    seed: int = 0,
    source_specs: Optional[List[str]] = None,
    window_ms: float = 250.0,
    max_batch: int = 128,
    queue_size: int = 1024,
    overflow: str = "block",
    save_deltas: Optional[str] = None,
    dead_letter: Optional[str] = None,
    status_file: Optional[str] = None,
    status_interval: float = 5.0,
    max_windows: Optional[int] = None,
    exit_on_eof: bool = False,
) -> int:
    """Run the long-lived serving daemon (see :mod:`repro.serve`).

    Plans the workload once, then serves an unbounded churn-event
    stream: events from every ``--source`` are grouped into coalescing
    windows (closing after ``--window-ms`` or at ``--max-batch`` events,
    whichever first) and each window applies as one transactional
    ChangeSet batch. Ingestion is backpressured by a bounded queue whose
    ``--overflow`` policy is ``block`` (stall producers), ``coalesce``
    (compact the queue with the ChangeSet coalescing rules), or ``shed``
    (dead-letter the newest event). SIGINT/SIGTERM drain gracefully:
    queued events and the in-flight window apply, archives flush, and
    the daemon exits 0.
    """
    from repro import Nova, NovaConfig
    from repro.common.errors import ReproError
    from repro.serve import (
        DeadLetterArchive,
        DeltaArchive,
        IngressQueue,
        ServeLoop,
        ServeSettings,
    )

    settings = ServeSettings(
        window_ms=window_ms,
        max_batch=max_batch,
        queue_size=queue_size,
        overflow=overflow,
        status_interval_s=status_interval,
        max_windows=max_windows,
        exit_on_eof=exit_on_eof,
    )
    sources = []
    try:
        # Validate the cheap knobs before paying for the initial solve.
        settings.window_policy()
        IngressQueue(settings.queue_size, policy=settings.overflow)
        for spec in source_specs or ["stdin"]:
            sources.append(_parse_source(spec))
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    workload = _build_plan_workload(workload_name, nodes, seed)
    if workload is None:
        return 2

    started = time.perf_counter()
    session = Nova(NovaConfig(seed=seed)).optimize(
        workload.topology, workload.plan, workload.matrix,
        latency=workload.ensure_latency(),
    )
    print(
        f"serving {workload.name or workload_name} (seed {seed}): "
        f"{session.placement.replica_count()} sub-joins placed in "
        f"{time.perf_counter() - started:.3f}s; "
        f"sources: {', '.join(source.name for source in sources)}",
        file=sys.stderr,
    )
    try:
        loop = ServeLoop(
            session,
            sources,
            settings,
            dead_letters=DeadLetterArchive(dead_letter),
            deltas=DeltaArchive(save_deltas),
            status_file=status_file,
        )
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    # ServeLoop.run closes the archives on every exit path.
    return loop.run(install_signals=True)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatch."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of Nova (EDBT 2026): streaming join placement.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    plan_parser = subparsers.add_parser(
        "plan", help="plan a workload with any registered strategy"
    )
    plan_parser.add_argument(
        "workload",
        help=f"workload to plan: one of {', '.join(PLAN_WORKLOADS)}",
    )
    plan_parser.add_argument(
        "--strategy",
        default="nova",
        help="a registered strategy name, or 'all' for a comparison table",
    )
    plan_parser.add_argument(
        "--nodes", type=int, default=400, help="node count for synthetic workloads"
    )
    plan_parser.add_argument("--seed", type=int, default=0, help="workload/config seed")
    subparsers.add_parser("demo", help="run the running example")
    subparsers.add_parser("figures", help="list bench targets")
    subparsers.add_parser("version", help="print the package version")
    replay = subparsers.add_parser(
        "replay", help="replay a churn trace through the batched ChangeSet API"
    )
    replay.add_argument("trace", help="path to a JSON churn trace")
    replay.add_argument(
        "--save-deltas",
        default=None,
        help="archive each batch's PlanDelta as JSON to this path",
    )
    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived serving daemon over a churn-event stream",
    )
    serve.add_argument(
        "--workload",
        default="synthetic",
        help=f"workload to serve: one of {', '.join(PLAN_WORKLOADS)}",
    )
    serve.add_argument(
        "--nodes", type=int, default=400, help="node count for synthetic workloads"
    )
    serve.add_argument("--seed", type=int, default=0, help="workload/config seed")
    serve.add_argument(
        "--source",
        action="append",
        default=None,
        metavar="SPEC",
        help="event source: 'stdin', 'tail:PATH', or 'socket:PATH' "
        "(repeatable; default stdin). A socket source doubles as the "
        "status endpoint: send the line 'status' to get a JSON snapshot.",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=250.0,
        help="close the coalescing window after this much wall-clock time",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=128,
        help="close the coalescing window at this many buffered events",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=1024,
        help="bounded ingress queue capacity (the backpressure threshold)",
    )
    serve.add_argument(
        "--overflow",
        default="block",
        choices=["block", "coalesce", "shed"],
        help="what a full ingress queue does to producers (default: block)",
    )
    serve.add_argument(
        "--save-deltas",
        default=None,
        metavar="PATH",
        help="archive each applied window (events + PlanDelta) as JSONL",
    )
    serve.add_argument(
        "--dead-letter",
        default=None,
        metavar="PATH",
        help="archive undeliverable events as structured JSONL records",
    )
    serve.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help="atomically rewrite a JSON status snapshot here on each report",
    )
    serve.add_argument(
        "--status-interval",
        type=float,
        default=5.0,
        help="seconds between periodic status reports (0 disables them)",
    )
    serve.add_argument(
        "--max-windows",
        type=int,
        default=None,
        help="stop after applying this many windows (default: unbounded)",
    )
    serve.add_argument(
        "--exit-on-eof",
        action="store_true",
        help="drain and exit once every source hits end-of-stream "
        "(default: keep serving until signaled)",
    )
    args = parser.parse_args(argv)
    if args.command == "plan":
        return run_plan(
            args.workload,
            args.strategy,
            nodes=args.nodes,
            seed=args.seed,
        )
    if args.command == "demo":
        return run_demo()
    if args.command == "figures":
        return list_figures()
    if args.command == "replay":
        return run_replay(
            args.trace,
            save_deltas=args.save_deltas,
        )
    if args.command == "serve":
        return run_serve(
            workload_name=args.workload,
            nodes=args.nodes,
            seed=args.seed,
            source_specs=args.source,
            window_ms=args.window_ms,
            max_batch=args.max_batch,
            queue_size=args.queue_size,
            overflow=args.overflow,
            save_deltas=args.save_deltas,
            dead_letter=args.dead_letter,
            status_file=args.status_file,
            status_interval=args.status_interval,
            max_windows=args.max_windows,
            exit_on_eof=args.exit_on_eof,
        )
    from repro import __version__

    print(__version__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
