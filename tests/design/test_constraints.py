"""Tests for the reliability constraints (IR drop, EM, core budget)."""

import numpy as np
import pytest

from repro.analysis import EMChecker
from repro.design import DesignRules, ReliabilityConstraints
from repro.grid import GridBuilder, generic_45nm
from tests.oracle import reference_analyze


@pytest.fixture(scope="module")
def constraints(tiny_floorplan):
    technology = generic_45nm()
    return ReliabilityConstraints.from_technology(
        technology, tiny_floorplan.core_width, tiny_floorplan.core_height
    )


@pytest.fixture(scope="module")
def rules():
    return DesignRules.from_technology(generic_45nm())


class TestConstruction:
    def test_from_technology(self, constraints, technology):
        assert constraints.ir_drop_limit == pytest.approx(technology.ir_drop_limit)
        assert constraints.jmax == pytest.approx(technology.jmax)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConstraints(
                ir_drop_limit=0.0, jmax=0.01, core_width=100.0, core_height=100.0
            )
        with pytest.raises(ValueError):
            ReliabilityConstraints(ir_drop_limit=0.1, jmax=0.0, core_width=100.0, core_height=100.0)
        with pytest.raises(ValueError):
            ReliabilityConstraints(ir_drop_limit=0.1, jmax=0.01, core_width=0.0, core_height=100.0)


class TestChecks:
    def test_ir_drop_check(self, constraints, tiny_grid):
        result = reference_analyze(tiny_grid)
        assert constraints.ir_drop_satisfied(result) == (
            result.worst_ir_drop <= constraints.ir_drop_limit
        )

    def test_core_budget_check(self, constraints, rules):
        few_thin = np.full(4, 1.0)
        many_wide = np.full(40, 30.0)
        assert constraints.core_budget_satisfied(few_thin, rules)
        assert not constraints.core_budget_satisfied(many_wide, rules)

    def test_evaluate_all_satisfied(
        self, constraints, rules, technology, tiny_floorplan, tiny_topology
    ):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 10.0)
        ir = reference_analyze(network)
        em = EMChecker(technology).check(network, ir)
        widths = np.full(tiny_topology.num_lines, 10.0)
        evaluation = constraints.evaluate(
            ir,
            em,
            widths[: tiny_topology.num_vertical],
            widths[tiny_topology.num_vertical :],
            rules,
        )
        assert evaluation.all_satisfied
        assert evaluation.ir_drop_slack > 0
        assert evaluation.em_slack > 0

    def test_evaluate_detects_violations(
        self, constraints, rules, technology, tiny_floorplan, tiny_topology
    ):
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, 0.8)
        ir = reference_analyze(network)
        em = EMChecker(technology).check(network, ir)
        widths = np.full(tiny_topology.num_lines, 0.8)
        evaluation = constraints.evaluate(
            ir,
            em,
            widths[: tiny_topology.num_vertical],
            widths[tiny_topology.num_vertical :],
            rules,
        )
        assert not evaluation.em_ok or not evaluation.ir_drop_ok
        assert not evaluation.all_satisfied
