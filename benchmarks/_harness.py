"""Shared utilities of the benchmark suite.

Each bench reproduces one table or figure of the paper: it times the
relevant kernel with pytest-benchmark and prints the same rows/series the
paper reports (through ``capsys.disabled()`` so the tables reach the
console even under capture).

Environment knobs:

* ``NOVA_BENCH_FULL=1`` — run the scalability study to paper scale
  (10^6 nodes); default caps at 10^4 so the suite stays minutes-fast.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.registry import available_baselines
from repro.core.config import NovaConfig
from repro.core.optimizer import NovaSession
from repro.core.placement import Placement
from repro.core.planner import PlanResult, plan
from repro.evaluation.latency import (
    direct_transmission_latencies,
    placement_latencies,
)
from repro.topology.latency import DenseLatencyMatrix
from repro.workloads.synthetic import OppWorkload, synthetic_opp_workload

FULL_SCALE = os.environ.get("NOVA_BENCH_FULL", "") == "1"


def print_report(capsys, text: str) -> None:
    """Emit a figure table to the real console, bypassing pytest capture."""
    with capsys.disabled():
        print()
        print(text)
        print()


def nova_session(
    workload: OppWorkload,
    latency: DenseLatencyMatrix,
    seed: int = 0,
    **config_overrides,
) -> NovaSession:
    """Run Nova on a workload with the paper's default configuration."""
    config = NovaConfig(seed=seed, **config_overrides)
    return plan(workload, "nova", config=config, latency=latency).session


def plan_approaches(
    workload: OppWorkload,
    latency: DenseLatencyMatrix,
    names: Optional[List[str]] = None,
    seed: int = 0,
    **config_overrides,
) -> Dict[str, PlanResult]:
    """Plan the workload with every requested strategy, uniformly.

    One ``repro.plan`` call per strategy — Nova and baselines go through
    the same registry surface and come back as :class:`PlanResult`, so
    figure benches iterate one dict instead of special-casing APIs.
    """
    config = NovaConfig(seed=seed, **config_overrides)
    return {
        name: plan(workload, name, config=config, latency=latency)
        for name in (names or available_baselines())
    }


def measured_distance_for(
    result: PlanResult,
    latency,
    sink_id: str,
) -> Callable[[str, str], float]:
    """The distance function matching how an approach actually routes.

    Tree-family strategies ship data along their spanning trees, so
    their measured latencies follow the tree (this is what makes them
    blow up in Section 4.4); everything else transmits point to point.
    Delegates to :meth:`PlanResult.measured_distance` — the routing
    overlay travels inside the result, no isinstance dispatch.
    """
    return result.measured_distance(latency, sink_id)


def p90_delta(placement: Placement, achieved_distance, bound_distance) -> float:
    """90P latency above the direct-transmission bound (Figure 7 metric)."""
    achieved = placement_latencies(placement, achieved_distance)
    bound = direct_transmission_latencies(placement, bound_distance)
    if achieved.size == 0:
        return 0.0
    return float(np.percentile(achieved, 90) - np.percentile(bound, 90))


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` once, returning (result, elapsed seconds)."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def phase_rows(timings) -> List[List[object]]:
    """Per-phase timing/throughput rows for ``render_table``.

    Columns: phase, seconds, work done, throughput. Makes the Phase II
    median-solve rate (medians/s), the Phase III packing rate (cells/s),
    the batched k-NN query count, and the packing engine's shared-ring
    cache hit rate visible, so scalability regressions show up as a
    falling rate rather than a bare total.
    """
    cache_lookups = timings.cursor_cache_hits + timings.cursor_cache_misses
    return [
        ["phase I (cost space)", timings.cost_space_s, "", ""],
        ["plan resolution", timings.resolve_s, "", ""],
        [
            "phase II (virtual)",
            timings.virtual_s,
            f"{timings.medians_solved} medians",
            f"{timings.virtual_medians_per_s:,.0f} medians/s",
        ],
        [
            "phase III (physical)",
            timings.physical_s,
            f"{timings.cells_placed} cells, {timings.knn_queries} knn queries",
            f"{timings.physical_cells_per_s:,.0f} cells/s",
        ],
        [
            "phase III cursor cache",
            "",
            f"{timings.cursor_cache_hits}/{cache_lookups} ring lookups",
            f"{timings.cursor_cache_hit_rate:.0%} hit rate",
        ],
        [
            "placement (II+III)",
            timings.virtual_s + timings.physical_s,
            f"{timings.replicas_placed} replicas",
            f"{timings.replicas_per_s:,.0f} replicas/s",
        ],
        ["total", timings.total_s, "", ""],
    ]


def synthetic_1k(seed: int = 11) -> Tuple[OppWorkload, DenseLatencyMatrix]:
    """The 1000-node synthetic instance used across several figures."""
    workload = synthetic_opp_workload(1000, seed=seed)
    latency = DenseLatencyMatrix.from_topology(workload.topology)
    return workload, latency
