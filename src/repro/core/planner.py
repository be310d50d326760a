"""One strategy-pluggable planning surface for Nova and every baseline.

The paper's evaluation is a head-to-head between Nova and six baseline
strategies, yet the original code exposed two disjoint surfaces:
``Nova.optimize(...) -> NovaSession`` versus
``PlacementStrategy.place(...) -> Placement`` behind
``baselines/registry.py``. This module unifies them:

* :class:`Workload` — the shared immutable problem statement every
  strategy consumes: topology, logical plan, join matrix, optional
  latency provider, optional prebuilt cost space.

* :class:`PlanResult` — the uniform answer every strategy returns:
  placement, resolved plan, :class:`~repro.core.optimizer.PhaseTimings`,
  declarative :class:`StrategyCapabilities` flags, and — when the
  strategy supports mutation — the attached live
  :class:`~repro.core.optimizer.NovaSession`. Churn on a result whose
  strategy lacks ``supports_churn`` raises a clean
  :class:`~repro.common.errors.UnsupportedEventError` instead of an
  ``AttributeError``.

* :class:`PlacementPipeline` — ``Nova.optimize`` decomposed into named
  stages (``cost_space`` → ``resolve`` → ``virtual`` → ``physical``),
  each operating on a shared :class:`PlanContext` with before/after
  instrumentation hooks. Stage reuse is first-class:
  ``pipeline.with_stage_result("cost_space", space)`` skips Phase I with
  a prebuilt embedding (what benchmarks previously did through the
  ``cost_space=`` kwarg). The stage boundary is exactly the work unit
  the ROADMAP's process-pool parallelism lever needs.

* one **registry** spanning all seven strategies —
  :func:`available_strategies`, :func:`planner`, :func:`plan` (exported
  at the top level as ``repro.plan`` / ``repro.planner``) — behind which
  ``Nova`` and ``baselines.registry`` remain thin delegating shims.

Running Nova through the planner is bit-identical to ``Nova.optimize``:
both execute the same pipeline (covered by tests at n=10^3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import OptimizationError, UnsupportedEventError
from repro.core.config import NovaConfig
from repro.core.cost_space import AvailabilityLedger, CostSpace
from repro.core.optimizer import NovaSession, PhaseTimings
from repro.core.placement import Placement
from repro.query.expansion import ResolvedPlan, resolve_operators
from repro.query.join_matrix import JoinMatrix
from repro.query.plan import LogicalPlan
from repro.topology.latency import DenseLatencyMatrix, LatencyProvider
from repro.topology.model import Topology


# ----------------------------------------------------------------------
# the shared problem statement
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """An immutable operator-placement problem statement.

    The container is frozen — strategies receive the same fields in the
    same shape regardless of where the workload came from. Use
    :meth:`of` to coerce the repo's workload bundles
    (``OppWorkload``, ``RunningExample``, ``DebsWorkload``, or a plain
    ``(topology, plan, matrix)`` tuple) into this form.
    """

    topology: Topology
    plan: LogicalPlan
    matrix: JoinMatrix
    latency: Optional[LatencyProvider] = None
    cost_space: Optional[CostSpace] = None
    name: str = ""

    @classmethod
    def of(
        cls,
        source: object,
        *,
        latency: Optional[LatencyProvider] = None,
        cost_space: Optional[CostSpace] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Coerce ``source`` into a :class:`Workload`.

        Accepts a :class:`Workload` (returned with any overrides
        applied), any object exposing ``topology``/``plan``/``matrix``
        attributes (picking up a ``latency`` attribute when present), or
        a ``(topology, plan, matrix)`` tuple.
        """
        if isinstance(source, Workload):
            workload = source
        elif (
            hasattr(source, "topology")
            and hasattr(source, "plan")
            and hasattr(source, "matrix")
        ):
            workload = cls(
                topology=source.topology,
                plan=source.plan,
                matrix=source.matrix,
                latency=getattr(source, "latency", None),
                name=type(source).__name__,
            )
        elif isinstance(source, (tuple, list)) and len(source) == 3:
            workload = cls(*source)
        else:
            raise OptimizationError(
                f"cannot build a Workload from {type(source).__name__!r}: expected "
                "a Workload, an object with topology/plan/matrix, or a "
                "(topology, plan, matrix) tuple"
            )
        overrides = {}
        if latency is not None:
            overrides["latency"] = latency
        if cost_space is not None:
            overrides["cost_space"] = cost_space
        if name is not None:
            overrides["name"] = name
        return replace(workload, **overrides) if overrides else workload

    def ensure_latency(self) -> LatencyProvider:
        """The workload's latency provider, defaulted from the topology.

        The derived matrix is O(n²) to build, so it is memoized on the
        instance — one construction serves Phase I and every later
        evaluation call against the same workload.
        """
        if self.latency is not None:
            return self.latency
        cached = self.__dict__.get("_derived_latency")
        if cached is None:
            cached = DenseLatencyMatrix.from_topology(self.topology)
            object.__setattr__(self, "_derived_latency", cached)
        return cached

    @property
    def sink_nodes(self) -> List[str]:
        """Nodes hosting sink operators, in plan order."""
        return [
            op.pinned_node for op in self.plan.sinks() if op.pinned_node is not None
        ]

    @property
    def sink_id(self) -> Optional[str]:
        """The (first) sink node, or ``None`` for sink-less plans."""
        sinks = self.sink_nodes
        return sinks[0] if sinks else None


# ----------------------------------------------------------------------
# capability flags and the uniform result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategyCapabilities:
    """What a registered strategy can do, declaratively.

    ``supports_churn`` — the result carries a live session whose
    ``apply``/``transaction`` accept change-sets. ``supports_partitioning``
    — the strategy may split a join pair into partitioned sub-joins
    (baselines place whole pairs; that is precisely the capability gap
    the paper's evaluation quantifies). ``resource_aware`` — placement
    decisions consider node capacities. ``routes_via_tree`` — data is
    shipped along an overlay tree, so measured latencies must follow the
    tree rather than point-to-point transmission.
    """

    supports_churn: bool = False
    supports_partitioning: bool = False
    resource_aware: bool = False
    routes_via_tree: bool = False

    def as_dict(self) -> Dict[str, bool]:
        """A JSON-serializable view of the flags."""
        return {
            "supports_churn": self.supports_churn,
            "supports_partitioning": self.supports_partitioning,
            "resource_aware": self.resource_aware,
            "routes_via_tree": self.routes_via_tree,
        }


NOVA_CAPABILITIES = StrategyCapabilities(
    supports_churn=True, supports_partitioning=True, resource_aware=True
)


@dataclass
class PlanResult:
    """The uniform outcome of planning one workload with one strategy."""

    strategy: str
    workload: Workload
    placement: Placement
    resolved: ResolvedPlan
    timings: PhaseTimings
    capabilities: StrategyCapabilities
    #: Live mutable session when the strategy supports churn; else None.
    session: Optional[NovaSession] = None
    #: Overlay parent maps (root -> {node: parent}) for tree-routing
    #: strategies; None when the strategy transmits point to point.
    route_parents: Optional[Dict[str, Dict[str, str]]] = None
    #: The object that produced the placement (a PlacementStrategy for
    #: baselines, the planner itself for Nova) — for introspection only.
    impl: object = None

    # -- churn (capability-gated) ---------------------------------------
    @property
    def supports_churn(self) -> bool:
        """Whether this result can absorb churn through a live session."""
        return self.capabilities.supports_churn and self.session is not None

    def _raise_unsupported(self, events: object) -> None:
        from repro.topology.dynamics import EVENT_TYPES

        first = None
        if events is not None:
            first = next(iter(events), None)
        # The error's `event` attribute carries the wire name (the same
        # contract dynamics.py's sink-removal rejection follows).
        wire = ""
        if first is not None:
            wire = next(
                (n for n, cls in EVENT_TYPES.items() if isinstance(first, cls)),
                type(first).__name__,
            )
        named = f" {wire!r}" if wire else ""
        raise UnsupportedEventError(
            f"strategy {self.strategy!r} does not support churn "
            f"(supports_churn=False); cannot apply{named} events — re-plan the "
            "workload instead",
            event=wire,
            strategy=self.strategy,
        )

    def apply(self, events) -> object:
        """Apply a churn batch through the live session (Nova only).

        Raises :class:`UnsupportedEventError` naming the event and the
        strategy when the strategy placed statically.
        """
        if not hasattr(events, "__len__"):
            events = list(events)
        if not self.supports_churn:
            self._raise_unsupported(events)
        return self.session.apply(events)

    def transaction(self):
        """A staged churn transaction on the live session (Nova only)."""
        if not self.supports_churn:
            self._raise_unsupported(None)
        return self.session.transaction()

    # -- evaluation helpers ---------------------------------------------
    def measured_distance(
        self,
        latency,
        sink_id: Optional[str] = None,
        default: Optional[Callable[[str, str], float]] = None,
    ) -> Callable[[str, str], float]:
        """The distance function matching how this strategy actually routes.

        Tree-family strategies ship data along their spanning trees, so
        their measured latencies follow the tree (this is what makes
        them blow up in Section 4.4); everything else transmits point to
        point — ``default`` when given, else a matrix lookup over
        ``latency``.
        """
        if self.route_parents:
            from repro.evaluation.latency import tree_route_distance

            root = sink_id if sink_id is not None else self.workload.sink_id
            return tree_route_distance(
                self.route_parents, latency, root_of=lambda _: root
            )
        if default is not None:
            return default
        from repro.evaluation.latency import matrix_distance

        return matrix_distance(latency)

    # -- reporting -------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A JSON-serializable summary of the result."""
        return {
            "strategy": self.strategy,
            "workload": self.workload.name or "workload",
            "capabilities": self.capabilities.as_dict(),
            "replicas_resolved": len(self.resolved.replicas),
            "sub_replicas": self.placement.replica_count(),
            "hosting_nodes": len(self.placement.nodes_used()),
            "overload_accepted": self.placement.overload_accepted,
            "plan_s": self.timings.total_s,
            "live_session": self.session is not None,
        }

    def summary_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.common.tables.render_table` reports."""
        summary = self.summary()
        flags = [
            name for name, value in summary["capabilities"].items() if value
        ]
        return [
            ["strategy", summary["strategy"]],
            ["capabilities", ", ".join(flags) or "(static whole-pair placement)"],
            ["join pair replicas", summary["replicas_resolved"]],
            ["sub-joins placed", summary["sub_replicas"]],
            ["hosting nodes", summary["hosting_nodes"]],
            ["overload accepted", summary["overload_accepted"]],
            ["plan time (s)", summary["plan_s"]],
            ["live session", summary["live_session"]],
        ]


# ----------------------------------------------------------------------
# the staged pipeline
# ----------------------------------------------------------------------
@dataclass
class PlanContext:
    """Shared mutable state the pipeline stages operate on."""

    workload: Workload
    config: NovaConfig
    cost_space: Optional[CostSpace] = None
    resolved: Optional[ResolvedPlan] = None
    session: Optional[NovaSession] = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Per-stage return values, keyed by stage name, in execution order.
    stage_results: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class StageReport:
    """What one executed (or skipped) stage did — handed to after-hooks."""

    stage: str
    seconds: float
    seeded: bool
    result: object


def _ensure_session(context: PlanContext) -> NovaSession:
    """Assemble the live session once cost space and resolution exist."""
    if context.session is not None:
        return context.session
    if context.cost_space is None or context.resolved is None:
        raise OptimizationError(
            "session assembly requires the cost_space and resolve stages to "
            "have run (or been seeded) first"
        )
    workload = context.workload
    placement = Placement()
    for operator in workload.plan.operators():
        if operator.is_pinned:
            placement.pinned[operator.op_id] = operator.pinned_node

    initial = {node.node_id: node.capacity for node in workload.topology.nodes()}
    # Ingestion consumes capacity on source nodes: a source emitting at
    # rate r spends r tuples/s of its own processing budget, so the
    # available capacity C_a seen by Phase III is reduced accordingly.
    for operator in workload.plan.sources():
        if operator.pinned_node in initial:
            initial[operator.pinned_node] = max(
                0.0, initial[operator.pinned_node] - operator.data_rate
            )
    available = AvailabilityLedger(context.cost_space, backing=initial)
    context.session = NovaSession(
        config=context.config,
        topology=workload.topology,
        plan=workload.plan,
        matrix=workload.matrix,
        resolved=context.resolved,
        cost_space=context.cost_space,
        placement=placement,
        available=available,
        timings=context.timings,
    )
    return context.session


class PipelineStage:
    """One named work unit of the placement pipeline."""

    name: str = "stage"

    def run(self, context: PlanContext) -> object:
        """Execute the stage against the shared context."""
        raise NotImplementedError  # pragma: no cover

    def adopt(self, context: PlanContext, value: object) -> object:
        """Install a prebuilt result instead of running (stage reuse)."""
        raise OptimizationError(
            f"stage {self.name!r} does not accept a prebuilt result"
        )


class CostSpaceStage(PipelineStage):
    """Phase I: embed pairwise latencies into the Euclidean cost space."""

    name = "cost_space"

    def run(self, context: PlanContext) -> CostSpace:
        if context.cost_space is None:
            started = time.perf_counter()
            latency = context.workload.ensure_latency()
            context.cost_space = CostSpace.build(latency, context.config)
            context.timings.cost_space_s = time.perf_counter() - started
        return context.cost_space

    def adopt(self, context: PlanContext, value: object) -> CostSpace:
        context.cost_space = value
        return value


class ResolveStage(PipelineStage):
    """Expand the logical plan and join matrix into pair replicas."""

    name = "resolve"

    def run(self, context: PlanContext) -> ResolvedPlan:
        if context.resolved is None:
            started = time.perf_counter()
            context.resolved = resolve_operators(
                context.workload.plan, context.workload.matrix
            )
            context.timings.resolve_s = time.perf_counter() - started
        return context.resolved

    def adopt(self, context: PlanContext, value: object) -> ResolvedPlan:
        context.resolved = value
        return value


class VirtualStage(PipelineStage):
    """Phase II: batch-solve geometric medians for every replica."""

    name = "virtual"

    def run(self, context: PlanContext) -> int:
        session = _ensure_session(context)
        return session.solve_virtual(context.resolved.replicas)

    def adopt(self, context: PlanContext, value: object) -> object:
        positions = _ensure_session(context).placement.virtual_positions
        for replica_id, position in dict(value).items():
            positions[replica_id] = np.asarray(position, dtype=float)
        return value


class PhysicalStage(PipelineStage):
    """Phase III: pack replicas onto hosts through the PackingEngine."""

    name = "physical"

    def run(self, context: PlanContext) -> list:
        session = _ensure_session(context)
        return session.pack_replicas(context.resolved.replicas)


DEFAULT_STAGES: Tuple[Callable[[], PipelineStage], ...] = (
    CostSpaceStage,
    ResolveStage,
    VirtualStage,
    PhysicalStage,
)


class PlacementPipeline:
    """``Nova.optimize`` as an explicit, instrumentable stage sequence.

    ::

        pipeline = (
            PlacementPipeline(NovaConfig(seed=7))
            .with_stage_result("cost_space", prebuilt_space)
            .after_stage(lambda report, ctx: print(report.stage, report.seconds))
        )
        session = pipeline.run(workload).session

    ``with_stage_result`` returns a derived pipeline whose named stage
    *adopts* the given value instead of running — the first-class form of
    the old ``cost_space=`` kwarg hack. Hooks observe every stage
    boundary: ``before_stage(fn(stage_name, context))`` and
    ``after_stage(fn(StageReport, context))``. Each stage is a
    self-contained work unit over the shared :class:`PlanContext`.
    """

    def __init__(
        self,
        config: Optional[NovaConfig] = None,
        stages: Optional[Sequence[PipelineStage]] = None,
    ) -> None:
        self.config = config or NovaConfig()
        self.stages: List[PipelineStage] = (
            list(stages)
            if stages is not None
            else [factory() for factory in DEFAULT_STAGES]
        )
        self._seeds: Dict[str, object] = {}
        self._before: List[Callable[[str, PlanContext], None]] = []
        self._after: List[Callable[[StageReport, PlanContext], None]] = []

    @property
    def stage_names(self) -> List[str]:
        """The stage execution order."""
        return [stage.name for stage in self.stages]

    def _clone(self, config: Optional[NovaConfig] = None) -> "PlacementPipeline":
        clone = PlacementPipeline(config or self.config, stages=self.stages)
        clone._seeds = dict(self._seeds)
        clone._before = list(self._before)
        clone._after = list(self._after)
        return clone

    def with_config(self, config: NovaConfig) -> "PlacementPipeline":
        """A derived pipeline running under ``config`` (seeds/hooks kept)."""
        return self._clone(config=config)

    def with_stage_result(self, name: str, value: object) -> "PlacementPipeline":
        """A derived pipeline where stage ``name`` adopts ``value``.

        The named stage is skipped at run time; its before/after hooks
        still fire (with ``seeded=True`` in the report) so
        instrumentation sees every boundary.
        """
        if name not in self.stage_names:
            raise OptimizationError(
                f"unknown pipeline stage {name!r}; stages: {self.stage_names}"
            )
        clone = self._clone()
        clone._seeds[name] = value
        return clone

    def before_stage(
        self, hook: Callable[[str, PlanContext], None]
    ) -> "PlacementPipeline":
        """Register a hook fired before every stage; returns self."""
        self._before.append(hook)
        return self

    def after_stage(
        self, hook: Callable[[StageReport, PlanContext], None]
    ) -> "PlacementPipeline":
        """Register a hook fired after every stage; returns self."""
        self._after.append(hook)
        return self

    def run(self, workload: object) -> PlanContext:
        """Execute the stages over ``workload``; return the final context."""
        workload = Workload.of(workload)
        context = PlanContext(workload=workload, config=self.config)
        seeds = dict(self._seeds)
        # A cost space carried by the workload is just another seeded
        # stage result (an explicit with_stage_result wins), so
        # instrumentation sees it as seeded=True like any other reuse.
        if workload.cost_space is not None:
            seeds.setdefault("cost_space", workload.cost_space)
        for stage in self.stages:
            for hook in self._before:
                hook(stage.name, context)
            started = time.perf_counter()
            seeded = stage.name in seeds
            if seeded:
                result = stage.adopt(context, seeds[stage.name])
            else:
                result = stage.run(context)
            elapsed = time.perf_counter() - started
            context.stage_results[stage.name] = result
            report = StageReport(
                stage=stage.name, seconds=elapsed, seeded=seeded, result=result
            )
            for hook in self._after:
                hook(report, context)
        return context


# ----------------------------------------------------------------------
# planners
# ----------------------------------------------------------------------
class Planner:
    """A named planning strategy: consumes a Workload, returns a PlanResult."""

    name: str = "planner"
    capabilities: StrategyCapabilities = StrategyCapabilities()

    def plan(self, workload: object) -> PlanResult:
        raise NotImplementedError  # pragma: no cover


class NovaPlanner(Planner):
    """Nova behind the planner surface: the staged pipeline, live session."""

    name = "nova"
    capabilities = NOVA_CAPABILITIES

    def __init__(self, config: Optional[NovaConfig] = None) -> None:
        self.config = config or NovaConfig()

    def pipeline(self) -> PlacementPipeline:
        """A fresh default pipeline bound to this planner's config."""
        return PlacementPipeline(self.config)

    def plan(
        self,
        workload: object,
        pipeline: Optional[PlacementPipeline] = None,
    ) -> PlanResult:
        workload = Workload.of(workload)
        context = (pipeline or self.pipeline()).run(workload)
        session = _ensure_session(context)
        return PlanResult(
            strategy=self.name,
            workload=workload,
            placement=session.placement,
            resolved=session.resolved,
            timings=session.timings,
            capabilities=self.capabilities,
            session=session,
            impl=self,
        )


class BaselinePlanner(Planner):
    """A baseline ``PlacementStrategy`` behind the planner surface.

    Resolution and placement are timed into the same
    :class:`PhaseTimings` shape Nova reports (``resolve_s`` /
    ``physical_s``), so benchmark tables need no per-strategy cases.
    Baselines place statically: the result carries no session, and churn
    raises :class:`UnsupportedEventError`.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], object],
        capabilities: StrategyCapabilities,
    ) -> None:
        self.name = name
        self.factory = factory
        self.capabilities = capabilities

    def plan(self, workload: object) -> PlanResult:
        workload = Workload.of(workload)
        strategy = self.factory()
        timings = PhaseTimings()

        started = time.perf_counter()
        resolved = resolve_operators(workload.plan, workload.matrix)
        timings.resolve_s = time.perf_counter() - started
        # The strategy's own _resolve reuses this expansion instead of
        # re-deriving it, so physical_s times placement alone.
        strategy.prepare_resolution(workload.plan, workload.matrix, resolved)

        started = time.perf_counter()
        placement = strategy.place(
            workload.topology, workload.plan, workload.matrix, workload.latency
        )
        timings.physical_s = time.perf_counter() - started
        timings.replicas_placed = len(resolved.replicas)
        timings.cells_placed = placement.replica_count()

        return PlanResult(
            strategy=self.name,
            workload=workload,
            placement=placement,
            resolved=resolved,
            timings=timings,
            capabilities=self.capabilities,
            session=None,
            route_parents=strategy.route_parent_maps() or None,
            impl=strategy,
        )


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategyEntry:
    """One registered strategy: how to build its planner (and baseline)."""

    name: str
    planner_factory: Callable[[Optional[NovaConfig]], Planner]
    capabilities: StrategyCapabilities
    #: For baseline strategies, the raw PlacementStrategy constructor —
    #: what the legacy ``make_baseline`` shim hands out.
    baseline_factory: Optional[Callable[[], object]] = None


_REGISTRY: Dict[str, StrategyEntry] = {}
_BUILTINS_LOADED = False


def register_strategy(
    name: str,
    planner_factory: Callable[[Optional[NovaConfig]], Planner],
    capabilities: StrategyCapabilities,
    baseline_factory: Optional[Callable[[], object]] = None,
    replace_existing: bool = False,
) -> None:
    """Register a strategy under ``name`` (extension point).

    ``planner_factory`` receives the (optional) :class:`NovaConfig` the
    caller passed to :func:`plan`/:func:`planner` and returns a
    :class:`Planner`.
    """
    _load_builtins()
    if name in _REGISTRY and not replace_existing:
        raise OptimizationError(
            f"strategy {name!r} is already registered; pass "
            "replace_existing=True to override"
        )
    _REGISTRY[name] = StrategyEntry(
        name=name,
        planner_factory=planner_factory,
        capabilities=capabilities,
        baseline_factory=baseline_factory,
    )


def _baseline_planner_factory(
    name: str, factory: Callable[[], object], capabilities: StrategyCapabilities
) -> Callable[[Optional[NovaConfig]], Planner]:
    def build(config: Optional[NovaConfig] = None) -> Planner:
        # Baselines carry their own (deterministic) defaults; NovaConfig
        # knobs do not apply to them.
        return BaselinePlanner(name, factory, capabilities)

    return build


def _load_builtins() -> None:
    """Populate the registry with Nova and the paper's six baselines."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    _REGISTRY["nova"] = StrategyEntry(
        name="nova",
        planner_factory=lambda config=None: NovaPlanner(config),
        capabilities=NOVA_CAPABILITIES,
    )
    from repro.baselines.cluster_sf import ClusterSfPlacement
    from repro.baselines.cluster_tree_sf import ClusterTreeSfPlacement
    from repro.baselines.sink_based import SinkBasedPlacement
    from repro.baselines.source_based import SourceBasedPlacement
    from repro.baselines.top_c import TopCPlacement
    from repro.baselines.tree import TreePlacement

    # The paper's order (Section 4): sink, source, top-c, tree, cl-sf,
    # cl-tree-sf.
    baselines: List[Tuple[str, Callable[[], object], StrategyCapabilities]] = [
        ("sink-based", SinkBasedPlacement, StrategyCapabilities()),
        ("source-based", SourceBasedPlacement, StrategyCapabilities()),
        ("top-c", TopCPlacement, StrategyCapabilities(resource_aware=True)),
        ("tree", TreePlacement, StrategyCapabilities(routes_via_tree=True)),
        ("cl-sf", ClusterSfPlacement, StrategyCapabilities()),
        (
            "cl-tree-sf",
            ClusterTreeSfPlacement,
            StrategyCapabilities(routes_via_tree=True),
        ),
    ]
    for name, factory, capabilities in baselines:
        _REGISTRY[name] = StrategyEntry(
            name=name,
            planner_factory=_baseline_planner_factory(name, factory, capabilities),
            capabilities=capabilities,
            baseline_factory=factory,
        )


def strategy_entry(name: str) -> Optional[StrategyEntry]:
    """The registry entry for ``name``, or None when unregistered."""
    _load_builtins()
    return _REGISTRY.get(name)


def available_strategies() -> List[str]:
    """Names of every registered strategy — Nova first, then the baselines."""
    _load_builtins()
    return list(_REGISTRY)


def strategy_capabilities(name: str) -> StrategyCapabilities:
    """The declared capability flags of a registered strategy."""
    entry = strategy_entry(name)
    if entry is None:
        raise OptimizationError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        )
    return entry.capabilities


def planner(name: str = "nova", config: Optional[NovaConfig] = None) -> Planner:
    """Instantiate the planner registered under ``name``."""
    entry = strategy_entry(name)
    if entry is None:
        raise OptimizationError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        )
    return entry.planner_factory(config)


def plan(
    workload: object,
    strategy: str = "nova",
    *,
    config: Optional[NovaConfig] = None,
    latency: Optional[LatencyProvider] = None,
    cost_space: Optional[CostSpace] = None,
    pipeline: Optional[PlacementPipeline] = None,
) -> PlanResult:
    """Plan ``workload`` with the named strategy; return a :class:`PlanResult`.

    The one entry point the benchmarks, examples, and CLI share::

        result = repro.plan(workload, "nova", config=NovaConfig(seed=7))
        result = repro.plan(workload, "sink-based")

    ``workload`` is anything :meth:`Workload.of` accepts. ``latency`` and
    ``cost_space`` override/augment the workload; a prebuilt
    ``cost_space`` skips Phase I. ``pipeline`` supplies a customized
    :class:`PlacementPipeline` (hooks, seeded stages) and is only valid
    for pipeline-backed strategies (Nova).
    """
    chosen = planner(strategy, config=config)
    bundled = Workload.of(workload, latency=latency, cost_space=cost_space)
    if pipeline is not None:
        if not isinstance(chosen, NovaPlanner):
            raise OptimizationError(
                f"strategy {strategy!r} is not pipeline-backed; a custom "
                "pipeline only applies to 'nova'"
            )
        # An explicit config wins over the pipeline's own: a pipeline is
        # usually passed for its hooks/seeds, not to smuggle a config.
        if config is not None and pipeline.config is not config:
            pipeline = pipeline.with_config(config)
        return chosen.plan(bundled, pipeline=pipeline)
    return chosen.plan(bundled)


__all__ = [
    "BaselinePlanner",
    "CostSpaceStage",
    "DEFAULT_STAGES",
    "NOVA_CAPABILITIES",
    "NovaPlanner",
    "PhysicalStage",
    "PipelineStage",
    "PlacementPipeline",
    "PlanContext",
    "PlanResult",
    "Planner",
    "ResolveStage",
    "StageReport",
    "StrategyCapabilities",
    "StrategyEntry",
    "VirtualStage",
    "Workload",
    "available_strategies",
    "plan",
    "planner",
    "register_strategy",
    "strategy_capabilities",
    "strategy_entry",
]
