"""determinism: the planner's bit-identity claim dies on unordered state.

Bit-identical placements and cross-run reproducibility both require
that nothing in ``src/repro/core/`` or ``src/repro/geometry/`` depends
on hash order or wall-clock entropy:

* iterating a ``set`` feeds whatever comes next — undeploy order,
  packing order, ledger write order (float credits on one node do not
  commute bit-exactly) — in ``PYTHONHASHSEED``-dependent order;
* ``random``/``time.time``/``os.urandom`` inject per-run entropy; all
  randomness flows through ``repro.common.rng.ensure_rng`` seeds;
* ``sum()`` over an unordered container accumulates floats in
  unspecified order (IEEE-754 addition does not associate).

Dict iteration is insertion-ordered in CPython and therefore allowed —
*except* when a ``.keys()`` walk feeds an argmin-style tie-break, where
the insertion order itself is usually hash-derived upstream.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from tools.novalint.astutil import (
    SetTypeTracker,
    call_dotted,
    scope_bodies,
    statements_recursive,
)
from tools.novalint.engine import FileContext
from tools.novalint.findings import Finding
from tools.novalint.registry import Rule, register

#: Dotted call prefixes that inject entropy or wall-clock time.
FORBIDDEN_CALLS = (
    "random.",
    "np.random.",
    "numpy.random.",
    "os.urandom",
    "time.time",
    "time.time_ns",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.",
)
#: Allowed exact calls that the prefixes above would otherwise catch.
ALLOWED_CALLS = frozenset(
    {
        # perf_counter/monotonic feed *timing counters*, never decisions.
        "time.perf_counter",
        "time.monotonic",
    }
)


def _is_forbidden_call(dotted: str) -> bool:
    if dotted in ALLOWED_CALLS:
        return False
    return any(
        dotted == prefix or dotted.startswith(prefix)
        for prefix in FORBIDDEN_CALLS
    )


@register
class DeterminismRule(Rule):
    id = "determinism"
    description = (
        "unordered-set iteration, stochastic/wall-clock calls, or "
        "unordered float accumulation in planner hot paths"
    )
    scope = ("src/repro/core/", "src/repro/geometry/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel.endswith("common/rng.py"):  # pragma: no cover - scoped out
            return
        yield from self._check_imports(ctx)
        for scope, body in scope_bodies(ctx.tree):
            tracker = SetTypeTracker()
            for stmt in statements_recursive(body):
                tracker.observe(stmt)
                yield from self._check_stmt(ctx, stmt, tracker)

    # -- imports --------------------------------------------------------
    def _check_imports(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in ("random", "secrets"):
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            f"import of {alias.name!r}: all randomness must "
                            "flow through repro.common.rng seeds",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "secrets"):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"import from {node.module!r}: all randomness must "
                        "flow through repro.common.rng seeds",
                    )

    # -- statements -----------------------------------------------------
    def _check_stmt(
        self, ctx: FileContext, stmt: ast.stmt, tracker: SetTypeTracker
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.For) and tracker.is_set_expr(stmt.iter):
            yield self.finding(
                ctx,
                stmt.iter.lineno,
                stmt.iter.col_offset,
                "loop over an unordered set: iteration order is "
                "PYTHONHASHSEED-dependent and feeds everything the loop "
                "body does; iterate sorted(...) instead",
            )
        if isinstance(stmt, ast.For) and self._is_keys_call(stmt.iter):
            if self._has_argmin_body(stmt):
                yield self.finding(
                    ctx,
                    stmt.iter.lineno,
                    stmt.iter.col_offset,
                    ".keys() iteration feeding a comparison tie-break: "
                    "resolve ties over sorted(...) keys so the winner is "
                    "insertion-order independent",
                )
        # expression-level checks on this statement's own expressions;
        # nested statements are yielded separately by the caller, and
        # nested def/class subtrees are covered by their own scope pass
        stack: List[ast.AST] = []
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(
                child
                for child in ast.iter_child_nodes(stmt)
                if not isinstance(child, ast.stmt)
            )
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from self._check_expr(ctx, node, tracker)
            stack.extend(
                child
                for child in ast.iter_child_nodes(node)
                if not isinstance(child, ast.stmt)
            )

    def _check_expr(
        self, ctx: FileContext, node: ast.AST, tracker: SetTypeTracker
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.ListComp, ast.DictComp)):
            for gen in node.generators:
                if tracker.is_set_expr(gen.iter):
                    kind = (
                        "list" if isinstance(node, ast.ListComp) else "dict"
                    )
                    yield self.finding(
                        ctx,
                        gen.iter.lineno,
                        gen.iter.col_offset,
                        f"{kind} comprehension over an unordered set: the "
                        "result order is PYTHONHASHSEED-dependent; iterate "
                        "sorted(...)",
                    )
        elif isinstance(node, ast.Call):
            dotted = call_dotted(node)
            if dotted is not None and _is_forbidden_call(dotted):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"call to {dotted}(): per-run entropy/wall-clock in a "
                    "deterministic path; seed through repro.common.rng or "
                    "use time.perf_counter for timings",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and self._sums_unordered(node.args[0], tracker)
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "sum() over an unordered set: float accumulation order "
                    "is unspecified (IEEE-754 addition does not associate); "
                    "sum over sorted(...)",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("min", "max")
                and any(kw.arg == "key" for kw in node.keywords)
                and node.args
                and tracker.is_set_expr(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{node.func.id}(key=...) over an unordered set: key "
                    "ties resolve to whichever element hashes first; "
                    "iterate sorted(...) or break ties explicitly",
                )

    def _sums_unordered(
        self, arg: ast.AST, tracker: SetTypeTracker
    ) -> bool:
        if tracker.is_set_expr(arg):
            return True
        if isinstance(arg, ast.GeneratorExp):
            return any(
                tracker.is_set_expr(gen.iter) for gen in arg.generators
            )
        return False

    @staticmethod
    def _is_keys_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
        )

    @staticmethod
    def _has_argmin_body(loop: ast.For) -> bool:
        """Whether the loop body updates a 'best' var from a comparison."""
        for node in ast.walk(loop):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not isinstance(test, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for op in test.ops
            ):
                continue
            compared = {
                n.id for n in ast.walk(test) if isinstance(n, ast.Name)
            }
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in compared
                        ):
                            return True
        return False
