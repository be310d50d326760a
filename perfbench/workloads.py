"""The benchmark's workloads: plan-10k, plan-100k and serve-10k.

Every instance comes from ``synthetic_opp_workload`` (Gaussian clusters,
60% sources, one join pair each) with a ``CoordinateLatencyModel`` and is
planned with an explicit serial ``NovaConfig``. Instance and churn seeds
derive from the run's ``--seed``.

A run returns a :class:`RunResult`: the end-to-end metrics with their
sample counts (untraced), or the per-layer metrics of a traced run, which
plans or serves the same inputs once untraced and once traced, in one
process, and requires both passes to end on identical placements.

Untraced runs time a host probe (``hostspeed.py``) between batches and
report their timings at the reference host speed; the measured values are
kept beside them in ``RunResult.measured``.
"""

from __future__ import annotations

import gc
import io
import math
import resource
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import layers
from checks import check_plan, check_replay, ingestion_overloads, placement_digest
from hostspeed import REFERENCE_PROBE_S, HostProbe, at_reference_speed
from spans import SpanRecorder

import repro
from repro.core.config import NovaConfig
from repro.core.execution import BACKEND_THREAD
from repro.evaluation.latency import embedding_distance, p90_delta_vs_direct
from repro.evaluation.overload import overload_percentage
from repro.serve import IterableSource, ServeLoop, ServeSettings
from repro.topology.dynamics import churn_event_stream
from repro.topology.latency import CoordinateLatencyModel
from repro.workloads.synthetic import synthetic_opp_workload


def derived_seed(*parts: object) -> int:
    """A seed derived from the run seed; stable across processes."""
    return zlib.crc32(":".join(str(part) for part in parts).encode())


def nova_config(seed: int) -> NovaConfig:
    """Serial packing and default knobs, set explicitly so no environment
    variable can move the defaults."""
    return NovaConfig(seed=seed, packing_workers=1, execution_backend=BACKEND_THREAD)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class RunResult:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: metric -> how many samples its value summarizes (1 when absent)
    sample_counts: Dict[str, int] = field(default_factory=dict)
    #: metric -> value (end-to-end in untraced runs, per-layer in traced ones)
    metrics: Dict[str, float] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    #: metrics reported beside the result (never gated)
    notes: Dict[str, float] = field(default_factory=dict)
    #: the end-to-end timings as measured, before scaling to reference speed
    measured: Dict[str, float] = field(default_factory=dict)

    def fail(self, problems: List[str], operations: int = 1) -> None:
        self.failed += operations
        self.problems.extend(problems)


def timing_metrics(
    batch_s: List[float], operations: int, busy_s: float, setup_s: List[float]
) -> Dict[str, float]:
    """The end-to-end metrics from batch latencies, operations completed in
    ``busy_s`` seconds, and set-up times."""
    return {
        "ops_per_s": operations / busy_s,
        "op_p50_ms": 1000.0 * float(np.median(batch_s)),
        "op_p90_ms": 1000.0 * percentile(batch_s, 90),
        "setup_s": float(np.median(setup_s)),
        "peak_rss_mb": peak_rss_mb(),
    }


def set_timings(
    result: RunResult, scaled: Dict[str, float], measured: Dict[str, float], probe: HostProbe
) -> None:
    """Report ``scaled`` (at reference speed) and keep ``measured`` beside it."""
    result.metrics = scaled
    result.measured = dict(measured, host_probe_ms=1000.0 * probe.median_s)
    result.sample_counts["host_probe_ms"] = len(probe.samples)


def make_instance(nodes: int, seed: int):
    """Set-up of one plan instance: the workload and its latency model."""
    workload = synthetic_opp_workload(nodes, seed=seed)
    ids, coords = workload.topology.positions_array()
    return workload, CoordinateLatencyModel(ids, coords)


# ----------------------------------------------------------------------
# plan-10k / plan-100k
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanSpec:
    name: str
    nodes: int
    #: expected seconds per plan; turns --seconds into an instance count
    nominal_plan_s: float
    min_instances: int = 1
    #: set-ups timed per instance (the last one is planned)
    setup_repeats: int = 1

    def instance_count(self, seconds: float) -> int:
        return max(self.min_instances, round(seconds / self.nominal_plan_s))

    def another(self, planned: int, planning_s: float, seconds: float) -> bool:
        """Whether a run that spent ``planning_s`` on ``planned`` plans has
        time for one more within ``seconds`` of planning."""
        if planned < self.min_instances:
            return True
        return planning_s * (planned + 1) / planned <= seconds


@dataclass
class PlannedInstance:
    plan_s: float
    digest: str
    p90_delta_ms: float
    overload_pct: float
    ingest_overload_nodes: int


def _checked(planned, workload, latency, config, plan_s: float, result: RunResult, label: str) -> PlannedInstance:
    """Check one plan (untimed) and evaluate its placement."""
    problems = check_plan(
        planned.placement, planned.resolved.replicas, workload.topology, config
    )
    if problems:
        result.fail([f"{label} (seed {config.seed}): {p}" for p in problems[:5]])
    return PlannedInstance(
        plan_s=plan_s,
        digest=placement_digest(planned.placement),
        p90_delta_ms=p90_delta_vs_direct(
            planned.placement, planned.measured_distance(latency)
        ),
        overload_pct=overload_percentage(planned.placement, workload.topology),
        ingest_overload_nodes=len(
            ingestion_overloads(planned.placement, workload.plan, workload.topology)
        ),
    )


def _plan(workload, latency, config, result: RunResult, label: str, recorder=None):
    """One measured ``repro.plan`` call, traced when a recorder is given."""
    result.attempted += 1
    if recorder is not None:
        layers.install(recorder)
    started = time.perf_counter()
    try:
        planned = repro.plan(workload, "nova", config=config, latency=latency)
    except Exception as error:  # a plan that raises is a failed operation
        planned = None
        result.fail([f"{label} (seed {config.seed}) raised {error!r}"])
    finally:
        ended = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
    return planned, (started, ended)


def warm_up(nodes: int, seed: int) -> None:
    """One untimed plan at a tenth of the size, so lazy set-up in the
    program and the interpreter is done before timing."""
    workload, latency = make_instance(max(nodes // 10, 100), derived_seed("warm-up", seed))
    repro.plan(workload, "nova", config=nova_config(seed), latency=latency)


def run_plan(spec: PlanSpec, seed: int, seconds: float) -> RunResult:
    """Plan fresh instances until ``seconds`` have been spent planning.

    Probes bracket each instance's set-up and plan (``hostspeed.py``).
    """
    result = RunResult()
    probe = HostProbe()
    warm_up(spec.nodes, seed)
    setups: List[float] = []
    scaled_setups: List[float] = []
    scaled_plans: List[float] = []
    planned: List[PlannedInstance] = []
    planning_s = 0.0
    before = probe.sample()
    k = 0
    while spec.another(k, planning_s, seconds):
        instance_seed = derived_seed(spec.name, seed, k)
        k += 1
        instance_setups = []
        for _ in range(spec.setup_repeats):
            started = time.perf_counter()
            workload, latency = make_instance(spec.nodes, instance_seed)
            instance_setups.append(time.perf_counter() - started)
        config = nova_config(instance_seed)
        outcome, (started, ended) = _plan(workload, latency, config, result, "plan")
        planning_s += ended - started
        placed = outcome is not None
        if placed:
            planned.append(
                _checked(outcome, workload, latency, config, ended - started, result, "plan")
            )
        del workload, latency, outcome
        gc.collect()
        after = probe.sample()
        setups.extend(instance_setups)
        scaled_setups.extend(at_reference_speed(t, before, after) for t in instance_setups)
        if placed:
            scaled_plans.append(at_reference_speed(ended - started, before, after))
        before = after
    plan_times = [p.plan_s for p in planned]
    result.digests = [p.digest for p in planned]
    result.sample_counts = {
        "op_p50_ms": len(plan_times),
        "op_p90_ms": len(plan_times),
        "ops_per_s": len(plan_times),
        "setup_s": len(setups),
        "p90_delta_ms": len(planned),
        "overload_pct": len(planned),
        "ingest_overload_nodes": len(planned),
    }
    if plan_times:
        set_timings(
            result,
            timing_metrics(scaled_plans, len(planned), sum(scaled_plans), scaled_setups),
            timing_metrics(plan_times, len(planned), sum(plan_times), setups),
            probe,
        )
    result.notes = _quality_notes(result, planned)
    return result


def trace_plan(spec: PlanSpec, seed: int, seconds: float, recorder: SpanRecorder) -> RunResult:
    """Plan each instance untraced, then traced; both must place the same.

    Two passes share the run's ``seconds``.
    """
    result = RunResult()
    instances = []
    for k in range(spec.instance_count(seconds / 2)):
        instance_seed = derived_seed(spec.name, seed, k)
        instances.append((instance_seed, make_instance(spec.nodes, instance_seed)))

    passes: Dict[bool, List[PlannedInstance]] = {False: [], True: []}
    intervals: List[Tuple[float, float]] = []
    # Each instance is planned untraced and then traced, so a change in host
    # speed during the run moves both passes alike.
    for k, (instance_seed, (workload, latency)) in enumerate(instances):
        for traced in (False, True):
            config = nova_config(instance_seed)
            recorder.trace_id = f"plan-{k}"
            label = "traced plan" if traced else "plan"
            planned, (started, ended) = _plan(
                workload, latency, config, result, label, recorder if traced else None
            )
            recorder.trace_id = "setup"
            if planned is None:
                continue
            if traced:
                intervals.append((started, ended))
            passes[traced].append(
                _checked(planned, workload, latency, config, ended - started, result, label)
            )
            del planned
            gc.collect()

    untraced, traced_pass = passes[False], passes[True]
    result.digests = [p.digest for p in traced_pass]
    if [p.digest for p in untraced] != result.digests:
        result.fail(["traced and untraced runs placed differently"], len(instances))
    result.metrics = layers.per_layer_metrics(
        recorder,
        intervals,
        batches=len(intervals),
        traced_wall_s=sum(p.plan_s for p in traced_pass),
        untraced_wall_s=sum(p.plan_s for p in untraced),
        retries=0,
    )
    result.notes = _quality_notes(result, traced_pass)
    return result


def _quality_notes(result: RunResult, outcomes: list) -> Dict[str, float]:
    """Placement quality and failures: medians over the final placements.

    The quality metrics depend on the instance far more than on the
    code, so they are reported beside the timings, not gated by a bound.
    """

    def median(attr: str) -> float:
        return float(np.median([getattr(o, attr) for o in outcomes])) if outcomes else 0.0

    return {
        "p90_delta_ms": median("p90_delta_ms"),
        "overload_pct": median("overload_pct"),
        "ingest_overload_nodes": median("ingest_overload_nodes"),
        "failed_frac": result.failed / max(result.attempted, 1),
    }


# ----------------------------------------------------------------------
# serve-10k
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSpec:
    name: str
    nodes: int
    #: windows served at least, over all instances; enough that >= 10 lie
    #: beyond the p90
    min_windows: int
    #: expected seconds per window; turns --seconds into a window count
    nominal_window_s: float
    #: fresh instances per run, each set up, planned and served in turn, so
    #: one instance's churn cost does not set the run's numbers
    instances: int = 3
    #: windows per instance in each pass of a traced run (it serves twice)
    traced_windows: int = 17
    max_batch: int = 64

    def windows_per_instance(self, seconds: float) -> int:
        total = max(self.min_windows, math.ceil(seconds / self.nominal_window_s))
        return math.ceil(total / self.instances)


@dataclass
class ServeSetup:
    planned: object
    events: list
    base: object
    setup_s: float


def serve_setup(spec: ServeSpec, seed: int, k: int, windows: int) -> ServeSetup:
    """Instance ``k``: its latency model, initial plan and event stream."""
    started = time.perf_counter()
    instance_seed = derived_seed(spec.name, seed, k)
    workload, latency = make_instance(spec.nodes, instance_seed)
    planned = repro.plan(
        workload, "nova", config=nova_config(instance_seed), latency=latency
    )
    stream = churn_event_stream(
        workload.topology, workload.plan, seed=derived_seed(spec.name, seed, "churn", k)
    )
    events = [next(stream) for _ in range(windows * spec.max_batch)]
    setup_s = time.perf_counter() - started
    # The replay check's starting point; not part of the timed set-up.
    return ServeSetup(planned, events, planned.placement.copy(), setup_s)


@dataclass
class Served:
    applied: int
    window_s: List[float]
    first_ingest: float
    last_applied: float
    digest: str
    p90_delta_ms: float
    overload_pct: float
    ingest_overload_nodes: int
    retries: int
    #: the delta archive's entries, one per applied window
    deltas: List[dict]
    #: window latencies at reference speed (empty without a probe)
    scaled_window_s: List[float] = field(default_factory=list)
    #: mean probe time before serving and after each window
    probes: List[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """From the first event ingested to the last window applied, less
        the probes timed in between."""
        return self.last_applied - self.first_ingest - sum(self.probes[1:-1])

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * REFERENCE_PROBE_S / float(np.mean(self.probes))


def serve(
    spec: ServeSpec,
    setup: ServeSetup,
    result: RunResult,
    before_checks: Optional[Callable[[], None]] = None,
    probe: Optional[HostProbe] = None,
    probed_s: float = 0.0,
) -> Optional[Served]:
    """Serve the set-up's events through one ``ServeLoop``, then check it.

    ``before_checks`` runs once the loop has drained, before the untimed
    checks (the traced run removes its wrappers there). With a ``probe``,
    every window is followed by one probe, outside its timing; ``probed_s``
    is the probe time just before serving.
    """
    session = setup.planned.session
    marks: Dict[str, float] = {}
    window_s: List[float] = []
    scaled_window_s: List[float] = []
    probes = [probed_s]

    def offered():
        marks["first"] = time.perf_counter()
        yield from setup.events

    loop = ServeLoop(
        session,
        [IterableSource(offered())],
        # A distant time trigger keeps every window count-triggered.
        ServeSettings(
            window_ms=600_000.0,
            max_batch=spec.max_batch,
            queue_size=4 * spec.max_batch,
            overflow="block",
            exit_on_eof=True,
            status_interval_s=0,
        ),
        status_stream=io.StringIO(),
    )
    apply_window = loop.applier.apply

    def timed_apply(events, window, strict=False):
        started = time.perf_counter()
        applied = apply_window(events, window, strict)
        marks["last"] = time.perf_counter()
        window_s.append(marks["last"] - started)
        if probe is not None:
            probes.append(probe.sample(1))
            scaled_window_s.append(at_reference_speed(window_s[-1], probes[-2], probes[-1]))
        return applied

    loop.applier.apply = timed_apply
    offered_count = len(setup.events)
    result.attempted += offered_count
    try:
        code = loop.run()
    finally:
        if before_checks is not None:
            before_checks()
    stats = loop.stats
    # Shed and dead-lettered events are among those not applied.
    not_applied = offered_count - stats.events_applied
    if not_applied or code != 0:
        result.fail(
            [
                f"serve exit code {code}: {not_applied} of {offered_count} events "
                f"not applied ({stats.events_shed} shed, "
                f"{stats.events_dead_lettered} dead-lettered)"
            ],
            not_applied,
        )
    if "last" not in marks:
        return None
    problems = check_replay(setup.base, loop.deltas.entries, session.placement)
    problems += check_plan(
        session.placement, session.resolved.replicas, session.topology, session.config
    )
    if problems:
        # A wrong final placement makes every applied event's outcome suspect.
        result.fail(problems[:5], stats.events_applied)
    return Served(
        applied=stats.events_applied,
        window_s=window_s,
        first_ingest=marks["first"],
        last_applied=marks["last"],
        digest=placement_digest(session.placement),
        p90_delta_ms=p90_delta_vs_direct(
            session.placement, embedding_distance(session.cost_space)
        ),
        overload_pct=overload_percentage(session.placement, session.topology),
        ingest_overload_nodes=len(
            ingestion_overloads(session.placement, session.plan, session.topology)
        ),
        retries=stats.window_retries,
        deltas=loop.deltas.entries,
        scaled_window_s=scaled_window_s,
        probes=probes if probe is not None else [],
    )


def run_serve(spec: ServeSpec, seed: int, seconds: float) -> RunResult:
    """Set up and serve ``spec.instances`` instances in turn.

    Probes bracket each set-up and each window (``hostspeed.py``).
    """
    result = RunResult()
    probe = HostProbe()
    windows = spec.windows_per_instance(seconds)
    setups: List[float] = []
    scaled_setups: List[float] = []
    served: List[Served] = []
    for k in range(spec.instances):
        before = probe.sample()
        setup = serve_setup(spec, seed, k, windows)
        after = probe.sample()
        setups.append(setup.setup_s)
        scaled_setups.append(at_reference_speed(setup.setup_s, before, after))
        outcome = serve(spec, setup, result, probe=probe, probed_s=after)
        if outcome is not None:
            served.append(outcome)
        del setup
        gc.collect()
    if not served:
        return result
    window_s = [t for outcome in served for t in outcome.window_s]
    applied = sum(outcome.applied for outcome in served)
    result.digests = [outcome.digest for outcome in served]
    result.sample_counts = {
        "op_p50_ms": len(window_s),
        "op_p90_ms": len(window_s),
        "ops_per_s": applied,
        "setup_s": len(setups),
        "p90_delta_ms": len(served),
        "overload_pct": len(served),
        "ingest_overload_nodes": len(served),
    }
    scaled_window_s = [t for outcome in served for t in outcome.scaled_window_s]
    set_timings(
        result,
        timing_metrics(
            scaled_window_s, applied, sum(o.scaled_wall_s for o in served), scaled_setups
        ),
        timing_metrics(window_s, applied, sum(o.wall_s for o in served), setups),
        probe,
    )
    result.notes = _quality_notes(result, served)
    return result


def trace_serve(spec: ServeSpec, seed: int, seconds: float, recorder: SpanRecorder) -> RunResult:
    """Serve each instance untraced, then from a fresh set-up traced; both
    passes must end on the same placements.

    Each pass serves ``spec.traced_windows`` windows per instance, fewer
    than the untraced run, so that two passes fit the run's time limit;
    per-layer metrics are per window either way.
    """
    result = RunResult()
    passes: Dict[bool, List[Served]] = {False: [], True: []}
    for k in range(spec.instances):
        for traced in (False, True):
            if traced:
                layers.install(recorder)
            try:
                recorder.trace_id = "setup"
                setup = serve_setup(spec, seed, k, spec.traced_windows)
                recorder.trace_id = "serve"
                outcome = serve(spec, setup, result, before_checks=recorder.uninstall)
            finally:
                recorder.uninstall()
                recorder.trace_id = "setup"
            if outcome is not None:
                passes[traced].append(outcome)
            del setup
            gc.collect()
    untraced, traced_pass = passes[False], passes[True]
    result.digests = [outcome.digest for outcome in traced_pass]
    if [outcome.digest for outcome in untraced] != result.digests:
        result.fail(["traced and untraced runs placed differently"], result.attempted // 2)
    result.metrics = layers.per_layer_metrics(
        recorder,
        [(outcome.first_ingest, outcome.last_applied) for outcome in traced_pass],
        batches=sum(len(outcome.window_s) for outcome in traced_pass),
        traced_wall_s=sum(outcome.wall_s for outcome in traced_pass),
        untraced_wall_s=sum(outcome.wall_s for outcome in untraced),
        retries=sum(outcome.retries for outcome in traced_pass),
    )
    result.notes = _quality_notes(result, traced_pass)
    return result
