"""Tests for branch-current extraction."""

import pytest

from repro.analysis import (
    branch_currents,
    line_currents,
    pad_currents,
    total_dissipated_power,
)
from tests.oracle import reference_analyze


@pytest.fixture(scope="module")
def solved(tiny_grid):
    return tiny_grid, reference_analyze(tiny_grid)


class TestBranchCurrents:
    def test_every_resistor_has_a_branch_current(self, solved):
        network, result = solved
        branches = branch_currents(network, result)
        assert len(branches) == len(network.resistors)

    def test_ohms_law_consistency(self, solved):
        network, result = solved
        for branch in branch_currents(network, result)[:50]:
            v_a = result.node_voltages[branch.resistor.node_a]
            v_b = result.node_voltages[branch.resistor.node_b]
            assert branch.current == pytest.approx((v_a - v_b) / branch.resistor.resistance)

    def test_current_density_uses_width(self, solved):
        network, result = solved
        for branch in branch_currents(network, result):
            if branch.resistor.width > 0:
                assert branch.current_density == pytest.approx(
                    branch.magnitude / branch.resistor.width
                )

    def test_zero_width_branch_density(self, solved):
        network, result = solved
        vias = [b for b in branch_currents(network, result) if b.resistor.is_via]
        assert vias, "expected via branches in a mesh grid"
        for branch in vias[:10]:
            if branch.magnitude > 0:
                assert branch.current_density == float("inf")


class TestAggregates:
    def test_pad_currents_sum_to_total_load(self, solved):
        network, result = solved
        total = sum(pad_currents(network, result).values())
        assert total == pytest.approx(network.total_load_current(), rel=1e-6)

    def test_line_currents_cover_all_lines(self, solved, tiny_topology):
        network, result = solved
        per_line = line_currents(network, result)
        assert set(per_line) == set(range(tiny_topology.num_lines))
        assert all(value >= 0 for value in per_line.values())

    def test_dissipated_power_positive_and_sane(self, solved):
        network, result = solved
        power = total_dissipated_power(network, result)
        assert power > 0
        # Dissipated power cannot exceed the power delivered at Vdd.
        assert power < network.vdd * network.total_load_current()
