"""Logical plans.

A logical plan is a directed operator graph connected by named streams
(Section 2.1). The builder-style API mirrors how SPE front ends compile
queries: register physical sources (pinned, with data rates and a logical
stream label), joins over logical streams, and sinks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.common.errors import PlanError, UnknownOperatorError
from repro.query.operators import Operator, OperatorKind


class LogicalPlan:
    """A validated operator graph with stream-based connectivity."""

    def __init__(self) -> None:
        self._operators: Dict[str, Operator] = {}
        self._producer_of: Dict[str, str] = {}
        # Sources per pinned node, in plan insertion order. Sources never
        # move; sinks do (sink migration re-pins them), so only sources
        # are indexed. Built on first use: only churn reads it, and a
        # plan that never sees churn should not pay for ~n small lists.
        self._sources_on: Optional[Dict[str, List[Operator]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operator(self, operator: Operator) -> Operator:
        """Add a fully-specified operator."""
        if operator.op_id in self._operators:
            raise PlanError(f"duplicate operator id {operator.op_id!r}")
        for stream in operator.outputs:
            if stream in self._producer_of:
                raise PlanError(
                    f"stream {stream!r} already produced by {self._producer_of[stream]!r}"
                )
        self._operators[operator.op_id] = operator
        for stream in operator.outputs:
            self._producer_of[stream] = operator.op_id
        if self._sources_on is not None and operator.is_source:
            self._sources_on.setdefault(operator.pinned_node, []).append(operator)
        return operator

    def add_source(
        self,
        op_id: str,
        node: str,
        rate: float,
        logical_stream: str,
        output: Optional[str] = None,
    ) -> Operator:
        """Add a physical source pinned to ``node`` emitting at ``rate``.

        ``logical_stream`` names the logical stream this physical source
        belongs to (e.g. all pressure sensors belong to ``"T"``); the
        concrete output stream defaults to ``"{op_id}.out"``.
        """
        return self.add_operator(
            Operator(
                op_id=op_id,
                kind=OperatorKind.SOURCE,
                outputs=[output or f"{op_id}.out"],
                pinned_node=node,
                data_rate=rate,
                logical_stream=logical_stream,
            )
        )

    def add_join(
        self,
        op_id: str,
        left: str,
        right: str,
        output: Optional[str] = None,
    ) -> Operator:
        """Add a two-way join over two *logical* streams."""
        if left == right:
            raise PlanError("join inputs must be two distinct logical streams")
        return self.add_operator(
            Operator(
                op_id=op_id,
                kind=OperatorKind.JOIN,
                inputs=[left, right],
                outputs=[output or f"{op_id}.out"],
            )
        )

    def add_sink(self, op_id: str, node: str, inputs: List[str]) -> Operator:
        """Add a sink pinned to ``node`` consuming the given streams."""
        return self.add_operator(
            Operator(
                op_id=op_id,
                kind=OperatorKind.SINK,
                inputs=list(inputs),
                pinned_node=node,
            )
        )

    def remove_operator(self, op_id: str) -> Operator:
        """Remove an operator (e.g. a departed source) from the plan."""
        operator = self.operator(op_id)
        del self._operators[op_id]
        for stream in operator.outputs:
            self._producer_of.pop(stream, None)
        if self._sources_on is not None and operator.is_source:
            node_id = operator.pinned_node
            remaining = [op for op in self._sources_on[node_id] if op is not operator]
            if remaining:
                self._sources_on[node_id] = remaining
            else:
                del self._sources_on[node_id]
        return operator

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def operator(self, op_id: str) -> Operator:
        """Look up an operator by id."""
        try:
            return self._operators[op_id]
        except KeyError:
            raise UnknownOperatorError(op_id) from None

    def __contains__(self, op_id: object) -> bool:
        return op_id in self._operators

    def __len__(self) -> int:
        return len(self._operators)

    def operators(self) -> Iterator[Operator]:
        """Iterate over all operators in insertion order."""
        return iter(self._operators.values())

    def operators_of_kind(self, kind: OperatorKind) -> List[Operator]:
        """All operators of the given kind."""
        return [op for op in self._operators.values() if op.kind == kind]

    def sources(self) -> List[Operator]:
        """All physical sources."""
        return self.operators_of_kind(OperatorKind.SOURCE)

    def sources_on_node(self, node_id: str) -> List[Operator]:
        """Physical sources pinned to ``node_id``, in plan order (O(1) lookup)."""
        if self._sources_on is None:
            index: Dict[str, List[Operator]] = {}
            for op in self.sources():
                index.setdefault(op.pinned_node, []).append(op)
            self._sources_on = index
        return list(self._sources_on.get(node_id, ()))

    def joins(self) -> List[Operator]:
        """All join operators."""
        return self.operators_of_kind(OperatorKind.JOIN)

    def sinks(self) -> List[Operator]:
        """All sinks."""
        return self.operators_of_kind(OperatorKind.SINK)

    def sources_of_stream(self, logical_stream: str) -> List[Operator]:
        """Physical sources belonging to a logical stream, e.g. ``"T"``."""
        return [op for op in self.sources() if op.logical_stream == logical_stream]

    def logical_streams(self) -> List[str]:
        """Names of all logical streams with at least one physical source."""
        seen: List[str] = []
        for op in self.sources():
            if op.logical_stream not in seen:
                seen.append(op.logical_stream)
        return seen

    def producer_of(self, stream: str) -> Operator:
        """The operator producing a concrete stream."""
        try:
            return self._operators[self._producer_of[stream]]
        except KeyError:
            raise PlanError(f"no producer for stream {stream!r}") from None

    def consumers_of(self, stream: str) -> List[Operator]:
        """Operators consuming a concrete stream or logical stream label."""
        return [op for op in self._operators.values() if stream in op.inputs]

    def sink_of_join(self, join_id: str) -> Operator:
        """The sink ultimately consuming a join's output.

        Follows output streams downstream; in Nova's workloads a join feeds
        a sink directly (possibly through stateless filters, which are
        colocated and thus transparent for placement).
        """
        current = self.operator(join_id)
        visited: Set[str] = set()
        while not current.is_sink:
            if current.op_id in visited:
                raise PlanError(f"cycle detected downstream of join {join_id!r}")
            visited.add(current.op_id)
            downstream: Optional[Operator] = None
            for stream in current.outputs:
                consumers = self.consumers_of(stream)
                if consumers:
                    downstream = consumers[0]
                    break
            if downstream is None:
                raise PlanError(f"join {join_id!r} has no downstream sink")
            current = downstream
        return current

    def connected_pairs(self) -> List[Tuple[str, str]]:
        """``con(Omega)``: operator pairs linked producer-to-consumer.

        Joins consume *logical* streams, so a (source, join) pair is
        connected when the source's logical stream matches a join input.
        """
        pairs: List[Tuple[str, str]] = []
        for consumer in self._operators.values():
            for stream in consumer.inputs:
                if stream in self._producer_of:
                    pairs.append((self._producer_of[stream], consumer.op_id))
                else:
                    for source in self.sources_of_stream(stream):
                        pairs.append((source.op_id, consumer.op_id))
        return pairs

    def validate(self) -> None:
        """Raise :class:`PlanError` when the plan is structurally unsound."""
        if not self.sinks():
            raise PlanError("plan has no sink")
        if not self.sources():
            raise PlanError("plan has no sources")
        for join in self.joins():
            for stream in join.inputs:
                if stream not in self._producer_of and not self.sources_of_stream(stream):
                    raise PlanError(
                        f"join {join.op_id!r} input {stream!r} has no producer"
                    )
            self.sink_of_join(join.op_id)
        for sink in self.sinks():
            for stream in sink.inputs:
                if stream not in self._producer_of and not self.sources_of_stream(stream):
                    raise PlanError(f"sink {sink.op_id!r} input {stream!r} has no producer")
