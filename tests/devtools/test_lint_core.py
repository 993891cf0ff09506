"""Framework-level tests: pragmas, parse errors, file walking, baselines."""

import ast
import re

import pytest

from repro.devtools.lint import RULE_REGISTRY, all_rules, lint_source
from repro.devtools.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.devtools.lint.core import (
    Finding,
    ModuleContext,
    PARSE_ERROR_CODE,
    iter_python_files,
)

MUTABLE_GLOBAL = "cache = {}\n"
MUTABLE_GLOBAL_PATH = "src/repro/example.py"


def codes(findings):
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_codes_are_stable_and_well_formed():
    rules = all_rules()
    assert [rule.code for rule in rules] == sorted(rule.code for rule in rules)
    for rule in rules:
        assert re.fullmatch(r"RPR\d{3}", rule.code)
        assert rule.name and rule.description
    assert len({rule.name for rule in rules}) == len(rules)


def test_registry_has_the_documented_rule_set():
    expected = {"RPR001", "RPR002", "RPR003", "RPR004", "RPR006", "RPR007", "RPR008"}
    assert expected <= set(RULE_REGISTRY)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_only_its_line():
    source = "cache = {}  # reprolint: disable=RPR007\nother = {}\n"
    findings = lint_source(source, MUTABLE_GLOBAL_PATH)
    assert codes(findings) == ["RPR007"]
    assert findings[0].line == 2


def test_file_pragma_suppresses_everywhere():
    source = "# reprolint: disable-file=RPR007\ncache = {}\nother = {}\n"
    assert lint_source(source, MUTABLE_GLOBAL_PATH) == []


def test_disable_all_pragma():
    source = "cache = {}  # reprolint: disable=all\n"
    assert lint_source(source, MUTABLE_GLOBAL_PATH) == []


def test_pragma_with_wrong_code_does_not_suppress():
    source = "cache = {}  # reprolint: disable=RPR001\n"
    assert codes(lint_source(source, MUTABLE_GLOBAL_PATH)) == ["RPR007"]


def test_no_pragmas_mode_sees_suppressed_findings():
    source = "cache = {}  # reprolint: disable=RPR007\n"
    assert lint_source(source, MUTABLE_GLOBAL_PATH) == []
    audited = lint_source(source, MUTABLE_GLOBAL_PATH, respect_pragmas=False)
    assert codes(audited) == ["RPR007"]


# ----------------------------------------------------------------------
# Parse errors and rendering
# ----------------------------------------------------------------------
def test_syntax_error_becomes_rpr000():
    findings = lint_source("def broken(:\n", "src/repro/broken.py")
    assert codes(findings) == [PARSE_ERROR_CODE]
    assert "does not parse" in findings[0].message


def test_finding_render_is_path_line_col_code():
    finding = Finding("src/x.py", 3, 4, "RPR001", "lock-discipline", "msg")
    assert finding.render() == "src/x.py:3:5: RPR001 [lock-discipline] msg"
    assert finding.fingerprint == ("src/x.py", "RPR001", "msg")


# ----------------------------------------------------------------------
# ModuleContext path predicates
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("path", "dotted", "is_test"),
    [
        ("src/repro/analysis/engine.py", "repro.analysis.engine", False),
        ("src/repro/analysis/__init__.py", "repro.analysis", False),
        ("tests/analysis/test_engine.py", None, True),
        ("scripts/sweep.py", None, False),
        ("conftest.py", None, True),
    ],
)
def test_module_context_path_predicates(path, dotted, is_test):
    context = ModuleContext(path, "x = 1\n", ast.parse("x = 1\n"))
    assert context.module_dotted == dotted
    assert context.is_test_file is is_test


# ----------------------------------------------------------------------
# File walking
# ----------------------------------------------------------------------
def test_iter_python_files_walks_sorted_and_skips_caches(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "c.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    hidden = tmp_path / ".venv"
    hidden.mkdir()
    (hidden / "d.py").write_text("x = 1\n")

    names = [path.relative_to(tmp_path).as_posix() for path in iter_python_files([tmp_path])]
    assert names == ["a.py", "b.py", "pkg/c.py"]


def test_iter_python_files_takes_explicit_files_verbatim(tmp_path):
    fixture = tmp_path / "snippet.py.txt"
    fixture.write_text("x = 1\n")
    assert list(iter_python_files([fixture])) == [fixture]


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([tmp_path / "nope"]))


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def test_baseline_round_trip_subtracts_old_findings(tmp_path):
    findings = lint_source(MUTABLE_GLOBAL, MUTABLE_GLOBAL_PATH)
    assert codes(findings) == ["RPR007"]
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings)
    assert apply_baseline(findings, load_baseline(baseline_file)) == []


def test_baseline_respects_multiplicity(tmp_path):
    # Two identical fingerprints (same message, different lines) with only
    # one baselined: exactly one must survive the subtraction.
    source = "cache = {}\n\ncache = {}\n"
    findings = lint_source(source, MUTABLE_GLOBAL_PATH)
    assert codes(findings) == ["RPR007", "RPR007"]
    assert findings[0].fingerprint == findings[1].fingerprint
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, findings[:1])
    kept = apply_baseline(findings, load_baseline(baseline_file))
    assert len(kept) == 1


def test_baseline_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a list"}')
    with pytest.raises(ValueError):
        load_baseline(bad)
    bad.write_text('[{"path": "x"}]')
    with pytest.raises(ValueError):
        load_baseline(bad)
