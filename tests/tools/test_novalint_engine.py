"""Engine behavior: suppressions, reporters, CLI contract, --changed."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.novalint import (
    LintResult,
    lint_paths,
    render_text,
    result_from_json,
    to_json_dict,
)
from tools.novalint.cli import main
from tools.novalint.reporters import render_json

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(case: str) -> LintResult:
    return lint_paths(["src"], root=FIXTURES / case)


# -- suppressions -------------------------------------------------------
class TestSuppressions:
    def test_inline_allow_with_reason_suppresses(self):
        result = lint_fixture("suppression")
        suppressed = [f for f in result.findings if f.suppressed]
        assert any(
            f.line == 5 and f.rule == "journal-coverage" for f in suppressed
        )
        reason = next(f for f in suppressed if f.line == 5).suppress_reason
        assert "journal pre-images" in reason

    def test_standalone_allow_covers_next_code_line(self):
        result = lint_fixture("suppression")
        suppressed = [f for f in result.findings if f.suppressed]
        assert any(
            f.line == 10 and f.rule == "journal-coverage" for f in suppressed
        )

    def test_reasonless_allow_is_an_error_and_does_not_suppress(self):
        result = lint_fixture("suppression")
        bad = [f for f in result.active if f.rule == "bad-suppression"]
        assert any("no reason" in f.message for f in bad)
        # the violation on the reasonless line stays active
        assert any(
            f.rule == "journal-coverage" and f.line == 14 and not f.suppressed
            for f in result.findings
        )

    def test_unknown_rule_allow_is_an_error(self):
        result = lint_fixture("suppression")
        bad = [f for f in result.active if f.rule == "bad-suppression"]
        assert any("no-such-rule" in f.message for f in bad)

    def test_unused_allow_is_a_warning(self):
        result = lint_fixture("suppression")
        unused = [f for f in result.active if f.rule == "unused-suppression"]
        assert len(unused) == 1
        assert unused[0].severity == "warning"
        assert unused[0].line == 23

    def test_suppressed_findings_do_not_drive_exit_code(self):
        result = lint_fixture("suppression")
        # bad-suppression errors keep this fixture red regardless
        assert result.exit_code == 1
        only_suppressed = [
            f for f in result.findings if f.suppressed
        ]
        assert only_suppressed  # sanity: some suppression happened


# -- reporters ----------------------------------------------------------
class TestReporters:
    def test_json_round_trip(self):
        result = lint_fixture("journal")
        payload = json.loads(
            json.dumps(to_json_dict(result))
        )
        restored = result_from_json(json.dumps(payload))
        assert restored.exit_code == result.exit_code
        assert restored.files_checked == result.files_checked
        assert [f.to_dict() for f in restored.findings] == [
            f.to_dict() for f in result.findings
        ]

    def test_json_counts_by_rule(self):
        result = lint_fixture("journal")
        payload = to_json_dict(result)
        assert payload["counts"]["journal-coverage"] == 8
        assert payload["errors"] == 8
        assert payload["exit_code"] == 1

    def test_text_report_format(self):
        result = lint_fixture("journal")
        stream = io.StringIO()
        render_text(result, stream)
        text = stream.getvalue()
        assert "src/repro/core/violating.py:5:" in text
        assert "error[journal-coverage]" in text
        assert "8 error(s)" in text

    def test_render_json_stream_round_trip(self):
        result = lint_fixture("determinism")
        stream = io.StringIO()
        render_json(result, stream)
        restored = result_from_json(stream.getvalue())
        assert restored.counts() == result.counts()


# -- CLI contract -------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        code = main(
            ["src/repro/serve", "--root", str(FIXTURES / "bareexcept"),
             "--select", "lock-discipline"]
        )
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_one_on_violations(self, capsys):
        code = main(["src", "--root", str(FIXTURES / "journal")])
        capsys.readouterr()
        assert code == 1

    def test_exit_two_on_unknown_select(self, capsys):
        code = main(["src", "--select", "no-such-rule"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule" in captured.err

    def test_exit_two_on_missing_root(self):
        assert main(["src", "--root", "/nonexistent/nowhere"]) == 2

    def test_warn_downgrade_turns_exit_green(self, capsys):
        code = main(
            ["src", "--root", str(FIXTURES / "journal"),
             "--warn", "journal-coverage"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning[journal-coverage]" in captured.out

    def test_json_format_output(self, capsys):
        code = main(
            ["src", "--root", str(FIXTURES / "journal"), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["counts"]["journal-coverage"] == 8

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "journal-coverage",
            "determinism",
            "lock-discipline",
            "no-bare-except-in-loop",
            "observed-list-contract",
            "bad-suppression",
        ):
            assert rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.novalint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "novalint rule catalogue" in proc.stdout


# -- --changed mode -----------------------------------------------------
class TestChangedMode:
    def _git(self, cwd, *args):
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True
        )

    @pytest.fixture()
    def git_repo(self, tmp_path):
        if self._git(tmp_path, "--version").returncode != 0:
            pytest.skip("git unavailable")
        repo = tmp_path / "repo"
        core = repo / "src" / "repro" / "core"
        core.mkdir(parents=True)
        self._git(repo, "init", "-b", "main")
        self._git(repo, "config", "user.email", "t@example.com")
        self._git(repo, "config", "user.name", "t")
        (core / "stable.py").write_text(
            "def untouched(subs):\n"
            "    ids = {s.id for s in subs}\n"
            "    for x in ids:\n"
            "        print(x)\n"
        )
        self._git(repo, "add", "-A")
        self._git(repo, "commit", "-m", "seed")
        return repo

    def test_changed_lints_only_touched_files(self, git_repo):
        from tools.novalint.changed import changed_files

        core = git_repo / "src" / "repro" / "core"
        (core / "touched.py").write_text(
            "import random\n"
        )
        only = changed_files(git_repo, "main")
        assert only == {"src/repro/core/touched.py"}
        result = lint_paths(["src"], root=git_repo, only_files=only)
        assert result.files_checked == 1
        assert [f.rule for f in result.active] == ["determinism"]
        # the stable file's violation is out of scope for --changed
        assert all("stable.py" not in f.path for f in result.findings)

    def test_changed_falls_back_to_full_lint_outside_git(self, tmp_path):
        from tools.novalint.changed import changed_files

        assert changed_files(tmp_path, None) is None
