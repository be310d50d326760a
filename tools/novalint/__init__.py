"""novalint — AST-based invariant linter for this repository.

The rules encode project invariants the type system cannot express:

* ``journal-coverage`` — state-plane mutations in ``src/repro/core/``
  must flow through the ``_SessionJournal`` hook surface, or rollback
  bit-identity silently breaks;
* ``determinism`` — no unordered iteration, stochastic calls, or
  unordered float accumulation in the planner's hot paths;
* ``lock-discipline`` — serve-plane attributes declared
  ``# shared-under: <lock>`` are only touched holding that lock;
* ``no-bare-except-in-loop`` — serve failure containment dead-letters,
  never swallows;
* ``observed-list-contract`` — no positional surgery on the lazily
  compacted ``sub_replicas`` view outside the placement store.

Use ``python -m tools.novalint src/`` (see ``--help``), or the
programmatic API: :func:`lint_paths` / :func:`lint_file`.
"""

from tools.novalint.engine import FileContext, lint_file, lint_paths
from tools.novalint.findings import (
    Finding,
    LintResult,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
)
from tools.novalint.registry import Rule, all_rules, get_rule, register
from tools.novalint.reporters import (
    findings_from_json,
    render_json,
    render_text,
    result_from_json,
    to_json_dict,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rules",
    "findings_from_json",
    "get_rule",
    "lint_file",
    "lint_paths",
    "register",
    "render_json",
    "render_text",
    "result_from_json",
    "to_json_dict",
]
