"""Tests for electromigration checking (paper eq. 4)."""

import pytest

from repro.analysis import (
    EMChecker,
    em_lifetime_ratio,
    required_width_for_current,
)
from repro.grid import GridBuilder
from tests.oracle import reference_analyze


class TestEMChecker:
    def test_wide_grid_passes(self, technology, tiny_floorplan, tiny_topology):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 20.0)
        result = reference_analyze(network)
        report = EMChecker(technology).check(network, result)
        assert report.passed
        assert report.checked_segments > 0
        assert report.worst_density <= technology.jmax

    def test_narrow_grid_fails(self, technology, tiny_floorplan, tiny_topology):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 0.4)
        result = reference_analyze(network)
        report = EMChecker(technology).check(network, result)
        assert not report.passed
        assert report.violating_lines
        # Violations are sorted worst-first.
        severities = [violation.severity for violation in report.violations]
        assert severities == sorted(severities, reverse=True)
        assert all(violation.severity > 1.0 for violation in report.violations)

    def test_margin_tightens_the_limit(self, technology):
        loose = EMChecker(technology, margin=0.0)
        tight = EMChecker(technology, margin=0.2)
        assert tight.effective_jmax == pytest.approx(0.8 * loose.effective_jmax)

    def test_invalid_margin_rejected(self, technology):
        with pytest.raises(ValueError):
            EMChecker(technology, margin=1.0)

    def test_vias_are_not_checked(self, technology, tiny_grid):
        result = reference_analyze(tiny_grid)
        report = EMChecker(technology).check(tiny_grid, result)
        wire_segments = sum(1 for r in tiny_grid.iter_resistors() if r.width > 0)
        assert report.checked_segments == wire_segments


class TestHelpers:
    def test_required_width_for_current(self):
        assert required_width_for_current(0.02, 0.01) == pytest.approx(2.0)

    def test_required_width_rejects_bad_jmax(self):
        with pytest.raises(ValueError):
            required_width_for_current(0.02, 0.0)

    def test_required_width_rejects_negative_current(self):
        with pytest.raises(ValueError):
            required_width_for_current(-1.0, 0.01)

    def test_lifetime_ratio_above_one_when_below_jmax(self):
        assert em_lifetime_ratio(0.005, 0.01) > 1.0

    def test_lifetime_ratio_below_one_when_violating(self):
        assert em_lifetime_ratio(0.02, 0.01) < 1.0

    def test_lifetime_ratio_infinite_for_idle_wire(self):
        assert em_lifetime_ratio(0.0, 0.01) == float("inf")

    def test_lifetime_ratio_rejects_bad_jmax(self):
        with pytest.raises(ValueError):
            em_lifetime_ratio(0.01, 0.0)
