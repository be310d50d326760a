"""Golden-fixture suite: one violating/clean pair per novalint rule.

Each fixture directory mirrors the ``src/repro/...`` layout so the
rules' path scoping applies exactly as it does on the real tree; the
fixture root is passed as the lint root.
"""

from pathlib import Path

import pytest

from tools.novalint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(case: str):
    root = FIXTURES / case
    return lint_paths(["src"], root=root)


def findings_for(result, filename: str, rule: str):
    return [
        f
        for f in result.active
        if f.path.endswith(filename) and f.rule == rule
    ]


def assert_clean(result, filename: str) -> None:
    noise = [f for f in result.active if f.path.endswith(filename)]
    assert noise == [], [f.to_dict() for f in noise]


# -- journal-coverage ---------------------------------------------------
class TestJournalCoverage:
    def test_violating_shapes_all_caught(self):
        result = lint_fixture("journal")
        found = findings_for(result, "violating.py", "journal-coverage")
        assert {f.line for f in found} == {5, 9, 13, 17, 21, 25, 29, 34}
        assert all(f.severity == "error" for f in found)

    def test_clean_counterparts_pass(self):
        result = lint_fixture("journal")
        assert_clean(result, "clean.py")

    def test_writes_into_keyed_buckets_caught(self):
        result = lint_fixture("journal_nested")
        found = findings_for(result, "violating.py", "journal-coverage")
        assert {f.line for f in found} == {5, 9, 13, 17}
        assert all(f.severity == "error" for f in found)

    def test_nested_reads_and_surface_writes_pass(self):
        result = lint_fixture("journal_nested")
        assert_clean(result, "clean.py")


# -- determinism --------------------------------------------------------
class TestDeterminism:
    def test_violating_shapes_all_caught(self):
        result = lint_fixture("determinism")
        found = findings_for(result, "violating.py", "determinism")
        assert {f.line for f in found} == {3, 9, 14, 20, 25, 29, 34, 42}

    def test_no_duplicate_findings(self):
        result = lint_fixture("determinism")
        found = findings_for(result, "violating.py", "determinism")
        keys = [(f.line, f.col) for f in found]
        assert len(keys) == len(set(keys))

    def test_sorted_counterparts_pass(self):
        result = lint_fixture("determinism")
        assert_clean(result, "clean.py")


# -- lock-discipline ----------------------------------------------------
class TestLockDiscipline:
    def test_violating_shapes_all_caught(self):
        result = lint_fixture("lockdisc")
        found = findings_for(result, "violating.py", "lock-discipline")
        assert {f.line for f in found} == {13, 16, 23}

    def test_init_locked_suffix_and_undeclared_pass(self):
        result = lint_fixture("lockdisc")
        assert_clean(result, "clean.py")


# -- no-bare-except-in-loop ---------------------------------------------
class TestBareExceptInLoop:
    def test_violating_shapes_all_caught(self):
        result = lint_fixture("bareexcept")
        found = findings_for(
            result, "violating.py", "no-bare-except-in-loop"
        )
        assert {f.line for f in found} == {8, 16, 24}

    def test_dead_letter_narrow_and_loopless_pass(self):
        result = lint_fixture("bareexcept")
        assert_clean(result, "clean.py")


# -- observed-list-contract ---------------------------------------------
class TestObservedListContract:
    def test_violating_shapes_all_caught(self):
        result = lint_fixture("observed")
        found = findings_for(
            result, "violating.py", "observed-list-contract"
        )
        assert {f.line for f in found} == {5, 9, 13, 17, 21}

    def test_growth_reads_and_reassignment_pass(self):
        result = lint_fixture("observed")
        assert_clean(result, "clean.py")

    def test_placement_store_is_exempt(self):
        result = lint_fixture("observed")
        assert_clean(result, "core/placement.py")


# -- cross-cutting ------------------------------------------------------
def test_every_rule_has_a_fixture_pair():
    from tools.novalint.registry import all_rules

    covered = {
        "journal-coverage": "journal",
        "determinism": "determinism",
        "lock-discipline": "lockdisc",
        "no-bare-except-in-loop": "bareexcept",
        "observed-list-contract": "observed",
    }
    assert {rule.id for rule in all_rules()} == set(covered)
    for case in covered.values():
        assert (FIXTURES / case).is_dir()


@pytest.mark.parametrize(
    "case", ["journal", "determinism", "lockdisc", "bareexcept", "observed"]
)
def test_violating_fixture_fails_the_exit_code(case):
    result = lint_fixture(case)
    assert result.exit_code == 1
    assert result.errors
