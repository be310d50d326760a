"""journal-coverage: state-plane mutations must be journaled.

Rollback bit-identity (PR 4/PR 6) rests on every mutation of the
placement's bucket store, the availability ledger's backing dict, and
the ``pinned``/``virtual_positions`` maps being observable by the
``_SessionJournal`` *before* it happens. The hook surface is:

* :class:`Placement` / :class:`_SubReplicaList` methods (they fire
  ``note_sub_added``/``note_subs_removed``/``pin_flat`` first),
* :class:`AvailabilityLedger.__setitem__`/``__delitem__`` (they fire
  ``note_available``),
* :class:`_SessionJournal` itself (the rollback path restores
  pre-images by construction).

Any *other* code in ``src/repro/core/`` that writes those structures
directly — a ``placement._by_node[x] = …``, a ``ledger._backing[x] = …``,
a wholesale ``placement.pinned = {…}`` — bypasses the journal: the batch
applies, but a mid-batch failure can no longer roll back exactly. The
buckets are keyed dicts nested one level deep, so writes *into* a bucket
(``placement._by_node[x][key] = …``, ``del placement._by_join[x][key]``,
``placement._by_replica[x].pop(key)``) count as well.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.novalint.astutil import class_stack, dotted_name, enclosing_scopes
from tools.novalint.engine import FileContext
from tools.novalint.findings import Finding
from tools.novalint.registry import Rule, register

#: The placement bucket store and its running aggregates.
BUCKET_ATTRS = frozenset(
    {
        "_by_node",
        "_by_replica",
        "_by_join",
        "_node_load",
        "_join_replicas",
        "_join_hosts",
    }
)
#: The availability ledger's raw backing dict (writes bypass the
#: write-through index *and* the journal hook).
LEDGER_ATTRS = frozenset({"_backing"})
#: Maps the journal wraps in copy-on-write proxies for the batch;
#: wholesale reassignment would detach the proxy mid-batch.
COW_ATTRS = frozenset({"pinned", "virtual_positions"})

#: Classes forming the journal hook surface.
ALLOWED_CLASSES = frozenset(
    {"Placement", "_SubReplicaList", "_SessionJournal", "AvailabilityLedger"}
)

_MUTATING_METHODS = frozenset(
    {
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "append",
        "extend",
        "insert",
        "remove",
        "sort",
        "reverse",
    }
)


def _subscripted_attr(node: ast.AST) -> str:
    """The attribute under any subscripts: ``_by_node`` for ``x._by_node``,
    ``x._by_node[k]`` and ``x._by_node[k][j]``; ``""`` for anything else."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) else ""


@register
class JournalCoverageRule(Rule):
    id = "journal-coverage"
    description = (
        "state-plane writes (placement buckets, ledger backing, "
        "pinned/virtual_positions) outside the _SessionJournal hook surface"
    )
    scope = ("src/repro/core/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, ancestors in enclosing_scopes(ctx.tree):
            classes = class_stack(ancestors + [node])
            if any(name in ALLOWED_CLASSES for name in classes):
                continue
            yield from self._check_node(ctx, node)

    def _check_node(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        guarded = BUCKET_ATTRS | LEDGER_ATTRS
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target]
            )
            for target in targets:
                # placement._by_node[key] = …  /  del ledger._backing[key]
                # placement._by_node[key][sub_key] = …  (into a bucket)
                if isinstance(target, ast.Subscript):
                    attr = _subscripted_attr(target.value)
                    if attr in guarded:
                        yield self._emit(ctx, target, attr, "subscript write")
                # placement._by_node = …  (rebinding the store itself)
                elif isinstance(target, ast.Attribute):
                    if target.attr in guarded:
                        yield self._emit(ctx, target, target.attr, "rebinding")
                    elif target.attr in COW_ATTRS:
                        yield self._emit(
                            ctx,
                            target,
                            target.attr,
                            "wholesale reassignment (detaches the COW proxy)",
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            # placement._by_node.pop(…), placement._by_node[key].pop(…), …
            mutated = (
                _subscripted_attr(func.value)
                if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS
                else ""
            )
            if mutated in guarded:
                yield self._emit(ctx, node, mutated, f"mutating call .{func.attr}()")
            # object.__setattr__(x, "_by_node", …)
            elif (
                dotted_name(func) == "object.__setattr__"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in guarded
            ):
                yield self._emit(
                    ctx, node, str(node.args[1].value), "object.__setattr__"
                )

    def _emit(
        self, ctx: FileContext, node: ast.AST, attr: str, kind: str
    ) -> Finding:
        return self.finding(
            ctx,
            node.lineno,
            node.col_offset,
            f"direct {kind} of journaled state {attr!r} outside the "
            "journal hook surface (Placement/_SubReplicaList/"
            "_SessionJournal/AvailabilityLedger); route the mutation "
            "through the placement API or the ledger so rollback stays "
            "bit-identical",
        )
