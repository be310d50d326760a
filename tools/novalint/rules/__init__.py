"""Rule package: importing it populates the registry."""

from tools.novalint.rules import (  # noqa: F401  (imported for side effect)
    bare_except,
    determinism,
    journal_coverage,
    lock_discipline,
    observed_list,
)
