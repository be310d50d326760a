"""Command-line entry point: ``python -m tools.novalint [paths...]``.

Exit codes: 0 clean (warnings allowed), 1 unsuppressed errors, 2 usage
or internal failure — the contract the CI ``lint`` job keys on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from tools.novalint.changed import changed_files
from tools.novalint.engine import lint_paths
from tools.novalint.findings import SEVERITY_WARNING
from tools.novalint.registry import ENGINE_RULES, all_rules
from tools.novalint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.novalint",
        description=(
            "AST-based invariant linter for this repository: journal "
            "coverage, determinism, serve-loop lock discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root findings are reported relative to "
        "(default: the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="__auto__",
        default=None,
        metavar="BASE",
        help="lint only files differing from merge-base(HEAD, BASE); "
        "BASE defaults to origin/main, then main. Falls back to a "
        "full lint when the diff cannot be computed.",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--warn",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids downgraded to warning severity",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the text report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def list_rules(stream) -> None:
    stream.write("novalint rule catalogue:\n")
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "(everywhere)"
        stream.write(
            f"  {rule.id:24s} [{rule.severity}] {rule.description}\n"
            f"  {'':24s} scope: {scope}\n"
        )
    stream.write("engine diagnostics:\n")
    for rule_id, description in sorted(ENGINE_RULES.items()):
        stream.write(f"  {rule_id:24s} {description}\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)

    if args.list_rules:
        list_rules(sys.stdout)
        return 0

    root = Path(args.root).resolve()
    if not root.exists():
        print(f"novalint: root {args.root!r} does not exist", file=sys.stderr)
        return 2

    rules = all_rules()
    if args.warn:
        downgraded = {part.strip() for part in args.warn.split(",") if part.strip()}
        unknown = downgraded - {rule.id for rule in rules}
        if unknown:
            print(
                f"novalint: --warn names unknown rule(s): {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2
        for rule in rules:
            if rule.id in downgraded:
                rule.severity = SEVERITY_WARNING

    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = set(select) - {rule.id for rule in rules}
        if unknown:
            print(
                f"novalint: --select names unknown rule(s): {sorted(unknown)}",
                file=sys.stderr,
            )
            return 2

    only_files = None
    if args.changed is not None:
        base = None if args.changed == "__auto__" else args.changed
        only_files = changed_files(root, base)
        if only_files is None:
            print(
                "novalint: --changed could not resolve a merge base; "
                "linting everything",
                file=sys.stderr,
            )

    try:
        result = lint_paths(
            args.paths,
            root=root,
            rules=rules,
            select=select,
            only_files=only_files,
        )
    except Exception as error:  # pragma: no cover - defensive
        print(f"novalint: internal error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        render_json(result, sys.stdout)
    else:
        render_text(result, sys.stdout, show_suppressed=args.show_suppressed)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
