"""Fixture-driven rule tests.

Every fixture under ``fixtures/`` is a ``*.py.txt`` snippet (the suffix
keeps the directory walk of CI's ``lint src tests`` run from picking it
up) with two kinds of markers:

* a ``# lint-path: <virtual path>`` header — the path the snippet is
  linted *as*, so path-scoped rules (determinism, test-file detection)
  fire the way they would in the tree;
* ``# expect: RPRnnn`` on every line where a finding is expected.

The parametrized test asserts the *exact* ``(line, code)`` set — clean
fixtures carry no markers and must produce zero findings, so every rule
gets a positive and a negative case by construction.
"""

import re
from pathlib import Path

import pytest

from repro.devtools.lint import all_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
_LINT_PATH_RE = re.compile(r"^#\s*lint-path:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPR\d{3})")


def load_fixture(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    lines = text.splitlines()
    header = _LINT_PATH_RE.match(lines[0])
    assert header, f"{name}: first line must be '# lint-path: <virtual path>'"
    expected = {
        (lineno, code)
        for lineno, line in enumerate(lines, start=1)
        for code in _EXPECT_RE.findall(line)
    }
    return text, header.group(1), expected


def all_fixture_names():
    names = sorted(path.name for path in FIXTURES.glob("*.py.txt"))
    assert names, "fixture corpus missing"
    return names


@pytest.mark.parametrize("name", all_fixture_names())
def test_fixture_findings_match_expect_markers(name):
    source, virtual_path, expected = load_fixture(name)
    findings = lint_source(source, virtual_path)
    actual = {(finding.line, finding.code) for finding in findings}
    assert actual == expected, "\n".join(
        ["fixture findings diverge from # expect markers:"]
        + [f"  unexpected: {finding.render()}" for finding in findings
           if (finding.line, finding.code) not in expected]
        + [f"  missing:    line {line} {code}" for line, code in sorted(expected - actual)]
    )


def test_every_rule_has_positive_and_negative_fixtures():
    names = all_fixture_names()
    for rule in all_rules():
        stem = rule.code.lower()
        positives = [name for name in names if name.startswith(f"{stem}_flags")]
        negatives = [name for name in names if name.startswith(f"{stem}_clean")]
        assert positives, f"{rule.code} has no *_flags fixture"
        assert negatives, f"{rule.code} has no *_clean fixture"
        for name in positives:
            _, _, expected = load_fixture(name)
            assert any(code == rule.code for _, code in expected), (
                f"{name} never expects {rule.code}"
            )
        for name in negatives:
            _, _, expected = load_fixture(name)
            assert not expected, f"{name} is a clean fixture but carries expect markers"


def test_lock_rule_flags_the_seeded_sweepqueue_fixture():
    """Acceptance criterion: the unguarded-mutation fixture modeled on
    SweepQueue is demonstrably caught by the lock-discipline rule."""
    source, virtual_path, expected = load_fixture("rpr001_flags.py.txt")
    findings = lint_source(source, virtual_path)
    lock_findings = [finding for finding in findings if finding.code == "RPR001"]
    assert len(lock_findings) >= 4
    assert all("_lock" in finding.message for finding in lock_findings)
    assert {(f.line, f.code) for f in lock_findings} == expected


def test_pragma_silences_a_fixture_finding():
    source, virtual_path, _ = load_fixture("rpr004_flags.py.txt")
    silenced = source.replace(
        "started = time.time()  # expect: RPR004",
        "started = time.time()  # reprolint: disable=RPR004",
    )
    findings = lint_source(silenced, virtual_path)
    assert len(findings) == len(lint_source(source, virtual_path)) - 1
