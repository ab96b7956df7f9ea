"""Tests for the ``repro lint`` static-analysis suite.

Covers every checker against good/bad fixtures (exact rule-id and line
assertions), the suppression grammar, the baseline machinery, the CLI
surface (``--json``, ``--rule``, exit codes) and the kernel-mirror drift
checker against deliberately perturbed copies of the real files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.lint import RULES, apply_suppressions, repo_root, run
from repro.lint import kernel_drift
from repro.lint.asyncsafety import check_source as check_async
from repro.lint.determinism import check_source as check_determinism
from repro.lint.findings import (
    Finding,
    load_baseline,
    partition_against_baseline,
)
from repro.lint.http_contract import check_source as check_http
from repro.lint.locks import check_source as check_locks
from repro.lint.runner import run_cli

FIXTURES = Path(__file__).parent / "lint_fixtures"
ROOT = repo_root()
CORE = ROOT / "src" / "repro" / "core"


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _lines(findings, rule):
    return sorted(f.line for f in findings if f.rule == rule)


# ------------------------------------------------------------- lock checker
class TestLockChecker:
    def test_bad_fixture_findings(self):
        findings = check_locks(_fixture("bad_locks.py"), "bad_locks.py")
        assert _lines(findings, "lock-order") == [21]
        assert _lines(findings, "lock-blocking") == [31, 35, 39, 43]
        cycle = next(f for f in findings if f.rule == "lock-order")
        assert "_a" in cycle.message and "_b" in cycle.message
        transitive = next(f for f in findings if f.line == 43)
        assert "_slow_helper" in transitive.message
        assert "_state" in transitive.message

    def test_good_fixture_is_clean(self):
        assert check_locks(_fixture("good_locks.py"), "good_locks.py") == []


# ---------------------------------------------------- determinism checker
class TestDeterminismChecker:
    def test_bad_fixture_findings(self):
        findings = check_determinism(
            _fixture("bad_determinism.py"), "bad_determinism.py"
        )
        assert _lines(findings, "unseeded-random") == [12, 16, 20, 24, 28, 32, 36]
        assert all(f.rule == "unseeded-random" for f in findings)

    def test_good_fixture_is_clean(self):
        assert (
            check_determinism(_fixture("good_determinism.py"), "good_determinism.py")
            == []
        )


# ---------------------------------------------------- async-safety checker
class TestAsyncChecker:
    def test_bad_fixture_findings(self):
        findings = check_async(_fixture("bad_async.py"), "bad_async.py")
        assert _lines(findings, "async-blocking") == [8, 9, 11, 15]
        by_line = {f.line: f.message for f in findings}
        assert "time.sleep" in by_line[8]
        assert "file I/O" in by_line[9]
        assert "self.service.stats" in by_line[11]
        assert "future.result" in by_line[15]

    def test_good_fixture_is_clean(self):
        assert check_async(_fixture("good_async.py"), "good_async.py") == []


# -------------------------------------------------- HTTP contract checker
class TestHTTPContractChecker:
    def test_bad_fixture_findings(self):
        findings = check_http(_fixture("bad_http.py"), "bad_http.py")
        assert _lines(findings, "http-retry-contract") == [6, 6, 9]
        messages = "\n".join(f.message for f in findings)
        assert 'lacks the "retry" field' in messages
        assert "no Retry-After header" in messages
        assert "batch item with code 504" in messages

    def test_good_fixture_is_clean(self):
        assert check_http(_fixture("good_http.py"), "good_http.py") == []


# ------------------------------------------------------------ suppressions
class TestSuppressions:
    def test_justified_suppression_drops_finding(self):
        source = _fixture("bad_suppression.py")
        findings = apply_suppressions(
            check_determinism(source, "bad_suppression.py"), source
        )
        # The justified one (line 13) is gone; the unjustified one survives
        # and additionally earns a bad-suppression finding.
        assert _lines(findings, "unseeded-random") == [7]
        assert _lines(findings, "bad-suppression") == [7]

    def test_suppression_requires_matching_rule(self):
        source = (
            "import random\n"
            "def f():\n"
            "    # repro-lint: ignore[lock-order] -- wrong rule entirely\n"
            "    return random.random()\n"
        )
        findings = apply_suppressions(check_determinism(source, "x.py"), source)
        assert _lines(findings, "unseeded-random") == [4]

    def test_inline_justified_suppression(self):
        source = (
            "import random\n"
            "def f():\n"
            "    return random.random()  "
            "# repro-lint: ignore[unseeded-random] -- fixture shim\n"
        )
        findings = apply_suppressions(check_determinism(source, "x.py"), source)
        assert findings == []


# ---------------------------------------------------------------- baseline
class TestBaseline:
    def test_partition_is_a_multiset(self):
        f = Finding("a.py", 3, "lock-order", "cycle")
        twice = [f, Finding("a.py", 9, "lock-order", "cycle")]
        new, baselined, stale = partition_against_baseline(
            twice, [f.baseline_key()]
        )
        assert len(new) == 1 and len(baselined) == 1 and stale == []

    def test_stale_entries_reported_not_fatal(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("# comment\nold.py|lock-order|gone\n")
        keys = load_baseline(baseline)
        new, baselined, stale = partition_against_baseline([], keys)
        assert new == [] and baselined == []
        assert stale == ["old.py|lock-order|gone"]

    def test_repo_tree_is_clean_against_committed_baseline(self):
        result = run()
        assert result.exit_code == 0, [f.render() for f in result.new]


# ------------------------------------------------------------ drift checker
@pytest.fixture
def drift_copies(tmp_path):
    """Copies of the real kernel trio, free to perturb."""
    paths = {}
    for name in ("_kernels.c", "_ckernels.py", "cwalk_mirror.py"):
        dst = tmp_path / name
        shutil.copy(CORE / name, dst)
        paths[name] = dst
    return paths


class TestKernelDrift:
    def _check(self, paths):
        return kernel_drift.check_files(
            paths["_kernels.c"], paths["_ckernels.py"], paths["cwalk_mirror.py"]
        )

    def test_real_trio_is_clean(self):
        findings = kernel_drift.check_files(
            CORE / "_kernels.c", CORE / "_ckernels.py", CORE / "cwalk_mirror.py"
        )
        assert findings == []

    def test_detects_dropped_argtype(self, drift_copies):
        path = drift_copies["_ckernels.py"]
        src = path.read_text()
        full = "[_p64, _p64, _p64, _i64, _i64, _i64, _i64, _p64, _i64, _p64]"
        assert full in src
        path.write_text(
            src.replace(full, full.replace(", _p64]", "]"), 1)
        )
        findings = self._check(drift_copies)
        assert any(
            f.rule == "kernel-drift" and "costas_swap_deltas" in f.message
            for f in findings
        )

    def test_detects_renamed_signature_key(self, drift_copies):
        path = drift_copies["_ckernels.py"]
        src = path.read_text()
        path.write_text(
            src.replace('"costas_swap_deltas"', '"costas_swap_deltaz"', 1)
        )
        findings = self._check(drift_copies)
        messages = "\n".join(f.message for f in findings)
        assert "costas_swap_deltas" in messages  # missing ctypes entry
        assert "costas_swap_deltaz" in messages  # missing C definition

    def test_detects_perturbed_mirror_constant(self, drift_copies):
        path = drift_copies["cwalk_mirror.py"]
        src = path.read_text()
        assert "0x9E3779B97F4A7C15" in src
        path.write_text(src.replace("0x9E3779B97F4A7C15", "0x9E3779B97F4A7C16"))
        findings = self._check(drift_copies)
        assert any(f.rule == "rng-drift" for f in findings)


# ------------------------------------------------------------------- CLI
def _cli(argv):
    """Run ``repro lint`` in-process; returns (exit_code, stdout_lines)."""
    args = build_parser().parse_args(["lint", *argv])
    return run_cli(args)


class TestCLI:
    BAD_FIXTURES = [
        "bad_locks.py",
        "bad_determinism.py",
        "bad_async.py",
        "bad_http.py",
        "bad_suppression.py",
    ]

    @pytest.mark.parametrize("name", BAD_FIXTURES)
    def test_bad_fixture_exits_nonzero(self, name, capsys):
        code = _cli([str(FIXTURES / name)])
        out = capsys.readouterr().out
        assert code == 1
        assert "repro lint:" in out and "finding" in out

    @pytest.mark.parametrize(
        "name", ["good_locks.py", "good_determinism.py", "good_async.py",
                 "good_http.py"]
    )
    def test_good_fixture_exits_zero(self, name, capsys):
        code = _cli([str(FIXTURES / name)])
        assert code == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_whole_tree_exits_zero(self, capsys):
        code = _cli([])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "repro lint: clean" in out

    def test_json_output(self, capsys):
        code = _cli(["--json", str(FIXTURES / "bad_determinism.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["count"] == 7 == len(payload["findings"])
        first = payload["findings"][0]
        assert set(first) == {"file", "line", "rule", "message"}
        assert first["rule"] == "unseeded-random"

    def test_rule_filter(self, capsys):
        code = _cli(["--rule", "lock-order", str(FIXTURES / "bad_locks.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "lock-order" in out and "lock-blocking" not in out

    def test_rule_filter_can_silence(self, capsys):
        code = _cli(
            ["--rule", "unseeded-random", str(FIXTURES / "bad_locks.py")]
        )
        assert code == 0
        assert "repro lint: clean" in capsys.readouterr().out

    def test_unknown_rule_is_usage_error(self, capsys):
        code = _cli(["--rule", "no-such-rule"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        code = _cli([str(FIXTURES / "does_not_exist.py")])
        assert code == 2

    def test_help_documents_rules_and_flags(self):
        parser = build_parser()
        lint_parser = None
        for action in parser._subparsers._group_actions:
            lint_parser = action.choices.get("lint")
        assert lint_parser is not None
        text = lint_parser.format_help()
        assert "--json" in text and "--rule" in text
        # argparse wraps and indents the description, which can split a rule
        # id across lines; rule ids contain no whitespace, so compare
        # against the whitespace-stripped text.
        squashed = "".join(text.split())
        for rule in RULES:
            assert rule in squashed, rule

    def test_subprocess_entry_point(self, tmp_path):
        """End-to-end: the installed CLI module exits 1 on a bad fixture
        and 0 on the repo tree with its committed baseline."""
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        bad = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint",
             str(FIXTURES / "bad_locks.py")],
            capture_output=True, text=True, env=env, cwd=str(ROOT),
        )
        assert bad.returncode == 1, bad.stdout + bad.stderr
        clean = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint"],
            capture_output=True, text=True, env=env, cwd=str(ROOT),
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "repro lint: clean" in clean.stdout
